"""Minimal multi-qubit state engine.

Pure states over m qubits with a big-endian index convention (qubit 0 is
the most significant bit) and read-only amplitudes, each state forming its
cumulative |amplitude|^2 law once, GHZ/Dicke amplitudes on any basis
indices, local phase evolution generated by single-qubit Z terms, noise
channels held as a table of weighted unitary branches (a 2x2 unitary on
every qubit, or one reflection of the whole state) that sample streams of
trajectories from that state-independent branch law, drawing the uniforms
of a chunk of copies at once, one Z draw of the whole register, whose
index gives every measured qubit's outcome bit (every draw takes one
uniform from its caller), and the slice of the unmeasured qubits'
amplitudes, unscaled, that such an index leaves,
seeded random streams (item i of a stream is a Philox generator whose key
the stream derives once for all its items), and the two largest
eigenvalues of a Hermitian matrix by dense diagonalization. The probe psi
and phi = sqrt(q0)|D> - sqrt(1-q0)|GHZ>, which ``coherent_mix`` swaps, live
on the C(2n,n) + 2 basis states of weight 0, n and 2n, so the swap is the
reflection I - 2 u u^dag, u = (psi - phi)/sqrt(2), on those states alone:
no 2^(2n) x 2^(2n) operator is built.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .symcomb import WeightBasis

__all__ = [
    "SUPPORT_BYTES_LIMIT",
    "PureState",
    "KrausChannel",
    "RngStream",
    "check_probe",
    "probe_on",
    "make_target",
    "evolve_phases",
    "collapse",
    "draw_index",
    "check_bytes_limit",
    "standard_channel",
    "eig_top2",
]


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on ``num_qubits`` qubits, big-endian indexing.

    ``amps`` is a read-only view of the amplitudes, so ``law``, formed on
    first use, stays the law of the state.
    """

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({2 ** self.num_qubits},)"
            )
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= 1e-10:
            raise ValueError(f"state vector not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amps = amps.view()
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)

    @cached_property
    def law(self) -> np.ndarray:
        """The cumulative |amplitude|^2 over the basis states, formed once."""
        return _cumulative_law(self.amps)


class RngStream:
    """Deterministic random stream addressed by a seed and a spawn key.

    ``RngStream(seed)`` is the root stream (empty key), which draws from
    PCG64 seeded by SeedSequence(seed). ``substream(i)`` is item i of a
    stream, with key (parent key..., i): a Philox generator with its counter
    at i * 2^192 and the two-word key that the parent derives once from
    SeedSequence(seed, spawn_key=parent key, pool_size=8). The same chain of
    substream calls from one seed always reproduces the same draws. Siblings
    never overlap, they share that key but no state, and making one builds
    no SeedSequence and derives no key.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.key: tuple[int, ...] = ()
        self._gen: np.random.Generator | None = None
        self._parent: RngStream | None = None
        self._item_key: _PhiloxKey | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            if self._parent is None:
                bits = np.random.PCG64(np.random.SeedSequence(self.seed))
            else:
                bits = np.random.Philox(self._parent._items(), counter=[0, 0, 0, self.key[-1]])
            self._gen = np.random.Generator(bits)
        return self._gen

    def _items(self) -> _PhiloxKey:
        """The Philox key of this stream's substreams, derived once."""
        if self._item_key is None:
            # a pool of 8 words keeps the key apart from this stream's own PCG64 seed
            self._item_key = _PhiloxKey(np.random.SeedSequence(self.seed, spawn_key=self.key, pool_size=8))
        return self._item_key

    def substream(self, i: int) -> "RngStream":
        child = RngStream(self.seed)
        child.key = self.key + (int(i),)
        child._parent = self
        return child


class _PhiloxKey:
    """The two-word key np.random.Philox would draw from ``seq``, drawn once.

    Philox reads it through numpy's seed-sequence interface, which this
    class joins when first built, so that importing qcore does not load
    numpy.random; every Philox built from one object gets the same key
    without deriving it again.
    """

    def __init__(self, seq: np.random.SeedSequence):
        np.random.bit_generator.ISeedSequence.register(_PhiloxKey)
        self._key = seq.generate_state(2, np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if (n_words, dtype) != (2, np.uint64):
            raise ValueError(f"holds a Philox key of 2 uint64 words, not {n_words} of {dtype}")
        return self._key


def check_probe(n: int, q0: float) -> None:
    """Raise ValueError unless the probe exists: n >= 3 and 0 < q0 < 1."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie strictly between 0 and 1, got {q0}")


def probe_on(n: int, ghz: float, dicke: float, idx: np.ndarray) -> np.ndarray:
    """Amplitudes of ghz |GHZ_2n> + dicke |D_2n^n> on the basis indices idx
    (real). The probe is probe_on(n, sqrt(q0), sqrt(1-q0), idx) and
    coherent_mix's phi is probe_on(n, -sqrt(1-q0), sqrt(q0), idx)."""
    weight = np.bitwise_count(idx)
    ghz_amp = np.where((weight == 0) | (weight == 2 * n), 1 / np.sqrt(2), 0.0)
    dicke_amp = np.where(weight == n, 1 / np.sqrt(math.comb(2 * n, n)), 0.0)
    return ghz * ghz_amp + dicke * dicke_amp


# The most memory one support-sized array build may take, in bytes: a
# verification session's probe here, and the audit's placement law in
# sensing. With 1 GiB the probe builds to n = 12.
SUPPORT_BYTES_LIMIT = 1 << 30
# Per weight-n basis state, the int64 index and at most seven more arrays of
# 8-byte entries that _weight_indices and probe_on form on it (tracemalloc
# reads 25 to 62 bytes per state at n = 5..9)
_PROBE_ENTRY_BYTES = 64
# Per amplitude of the 2^(2n) register, the complex128 target and one noisy
# copy of it, and the float64 cumulative |amplitude|^2 law each of them
# keeps. A copy branched on several qubits briefly holds two complex128
# arrays beside the target and its law (56 bytes); the support arrays are
# freed by then, and their bytes cover the rest (64 C(2n,n) >= 8 4^n, n <= 20)
_REGISTER_AMP_BYTES = 48
# The most uniforms one draw of KrausChannel.trajectories takes (512 KB)
_CHUNK_UNIFORMS = 1 << 16


def check_bytes_limit(n: int, bytes_of, what: str) -> None:
    """Raise ValueError, naming the largest n accepted, when bytes_of(n),
    the bytes of ``what`` at this n (growing with n), exceeds
    SUPPORT_BYTES_LIMIT."""
    if bytes_of(n) <= SUPPORT_BYTES_LIMIT:
        return
    largest = 3
    while bytes_of(largest + 1) <= SUPPORT_BYTES_LIMIT:
        largest += 1
    raise ValueError(
        f"n={n} needs {bytes_of(n) / 2 ** 30:.3g} GiB of {what}, above the "
        f"{SUPPORT_BYTES_LIMIT / 2 ** 30:g} GiB limit; the largest n accepted is {largest}"
    )


def _probe_bytes(n: int) -> int:
    """Peak bytes of a verification session at n: the arrays built on the
    probe's support, and the target, a noisy copy and one measurement's
    weights on the 2^(2n) register."""
    return math.comb(2 * n, n) * _PROBE_ENTRY_BYTES + _REGISTER_AMP_BYTES * (1 << (2 * n))


def _probe_support(n: int, q0: float) -> np.ndarray:
    """The basis indices of weight 0, n and 2n, once (n, q0) is checked and
    the probe at n fits in SUPPORT_BYTES_LIMIT."""
    check_probe(n, q0)
    check_bytes_limit(n, _probe_bytes, "support arrays and 2^(2n) state vectors for the probe")
    return np.concatenate(([0], WeightBasis(2 * n, n).indices, [(1 << (2 * n)) - 1]))


def make_target(n: int, q0: float) -> PureState:
    """sqrt(q0)|GHZ_2n> + sqrt(1-q0)|D_2n^n> on 2n qubits, n >= 3, 0 < q0 < 1."""
    idx = _probe_support(n, q0)
    amps = np.zeros(1 << (2 * n), dtype=np.complex128)
    amps[idx] = probe_on(n, np.sqrt(q0), np.sqrt(1.0 - q0), idx)
    return PureState(2 * n, amps)


def evolve_phases(state: PureState, omegas: Sequence[float], t: float) -> PureState:
    """Apply prod_i exp(-i omega_i t Z_i / 2); qubit i picks up phase
    -omega_i t / 2 when its bit is 0 and +omega_i t / 2 when it is 1.

    The amplitudes are copied once and each qubit with a nonzero frequency
    scales its two halves in place by one phase factor each, so a call
    takes one complex exponential per such qubit and no index arrays.
    """
    omegas = np.asarray(omegas, dtype=float)
    m = state.num_qubits
    if omegas.shape != (m,):
        raise ValueError(f"omegas has shape {omegas.shape}, expected ({m},)")
    amps = state.amps.copy()
    # a qubit with zero frequency picks up no phase, so only the others cost a pass
    for q in np.flatnonzero(omegas):
        factor = cmath.exp(0.5j * omegas[q] * t)
        halves = amps.reshape(1 << q, 2, -1)
        halves[:, 0] *= factor
        halves[:, 1] *= factor.conjugate()
    return PureState(m, amps)


def draw_index(amps: np.ndarray, u: float, law: np.ndarray | None = None) -> int:
    """One joint Z measurement of every qubit of an amplitude vector: the
    index of the first basis state whose cumulative |amplitude|^2 (``law``,
    ``PureState.law``, formed when not given) exceeds ``u``, a uniform the
    caller draws from [0, 1), times the total, clamped to the last. Its
    bits on any set of qubits follow that set's joint law, so Z
    measurements of disjoint sets in sequence all read their outcomes off
    one index, and ``collapse`` cuts out the block that it leaves the other
    qubits.

    Every draw scales its uniform by the total weight it is given, so a
    block's norm is a scale factor no draw needs. Nor can the missing scale
    starve a draw: a block of weight w is drawn with probability w, so a
    block whose squares underflow (w < 1e-300) is never drawn in practice.
    """
    if law is None:
        law = _cumulative_law(amps)
    return min(int(law.searchsorted(u * law[-1], side="right")), law.size - 1)


def collapse(amps: np.ndarray, qubits: Sequence[int], index: int) -> np.ndarray:
    """The amplitudes that a Z measurement of ``qubits`` leaves the other
    qubits once it has drawn basis state ``index`` (``draw_index``): the
    block of ``amps`` that agrees with ``index`` on ``qubits``, in ascending
    qubit order, not rescaled. It has 2^(m-k) entries, so a later
    measurement addresses a qubit by its position among them. Fixing the
    leading qubits 0..k-1 returns a view of ``amps``, which is never
    written.
    """
    m = amps.shape[0].bit_length() - 1
    # block fixes each measured axis to its bit in the drawn basis state
    block = [slice(None)] * m
    for q in qubits:
        block[q] = (index >> (m - 1 - q)) & 1
    return amps.reshape((2,) * m)[tuple(block)].reshape(-1)


def _cumulative_law(amps: np.ndarray) -> np.ndarray:
    """Cumulative |amplitude|^2 of amps, formed in one buffer."""
    law = np.abs(amps)
    law *= law
    return np.add.accumulate(law, out=law)


def _apply_local(u: np.ndarray, amps: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix u to one qubit of an amplitude vector."""
    return (u @ amps.reshape(1 << qubit, 2, -1)).reshape(-1)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Mixture of unitaries, held as its branch table.

    ``branches`` lists each branch off the identity as (w, U): w is its
    weight and U either a 2x2 unitary applied independently to every qubit,
    or a reflection (support, u) of the whole state, I - 2 u u^dag with u a
    unit vector on the distinct basis indices ``support``; a reflection is
    the channel's only branch. The identity takes the remaining weight
    1 - sum w. The swap of orthonormal real psi and phi (the identity on the
    rest), I - psi psi^dag - phi phi^dag + phi psi^dag + psi phi^dag, is
    that reflection with u = (psi - phi)/sqrt(2), supported where they are.
    ``trajectories`` samples a stream of noisy copies from the table and
    ``apply_to_pure`` one copy. Channels compare by identity: the branch
    tables hold arrays, and equal labels and strengths do not make equal
    channels (coherent_mix depends on q0).
    """

    label: str
    strength: float
    num_qubits: int
    branches: tuple[tuple[float, np.ndarray | tuple[np.ndarray, np.ndarray]], ...] = ()

    def __post_init__(self) -> None:
        weights = [w for w, _ in self.branches]
        if not (min(weights, default=0.0) >= 0.0 and sum(weights) <= 1.0 + 1e-12):
            raise ValueError(f"each branch needs a weight in [0, 1], with a sum of at most 1 "
                             f"within 1e-12; got {weights}")
        if any(isinstance(unitary, tuple) for _, unitary in self.branches):
            (_, (support, u)), *rest = self.branches
            if rest or np.shape(u) != np.shape(support) or not abs(np.linalg.norm(u) - 1.0) <= 1e-12:
                raise ValueError("a reflection needs a unit vector u on its support, within 1e-12, "
                                 "and no other branch")
        # branch j happens with probability w_j, the identity (j = 0) with the rest
        cum = np.cumsum([1.0 - sum(weights), *weights])
        object.__setattr__(self, "_cum", cum / cum[-1] if max(weights, default=0.0) > 0.0 else None)

    def trajectories(self, state: PureState, rng: np.random.Generator, count: int) -> Iterator[PureState]:
        """Sample ``count`` trajectories of ``state``, one at a time.

        Branch j happens with probability w_j whatever the state, so one
        uniform per application site (each qubit, or the whole state for a
        reflection) picks every branch at once and only the non-identity
        unitaries act; an unbranched copy is ``state`` itself. The uniforms
        are drawn a chunk of copies at a time, at most 2^m of them (one
        register's worth) and at most _CHUNK_UNIFORMS, in the order that
        ``count`` calls of apply_to_pure draw them. A channel with no weight
        off the identity draws nothing.
        """
        if state.num_qubits != self.num_qubits:
            raise ValueError(f"channel acts on {self.num_qubits} qubits, the state has {state.num_qubits}")
        if self._cum is None:
            return itertools.repeat(state, count)
        return self._sample(state, rng, count)

    def apply_to_pure(self, state: PureState, rng: np.random.Generator) -> PureState:
        """Sample one trajectory, as the first of ``trajectories``."""
        return next(self.trajectories(state, rng, 1))

    def _sample(self, state: PureState, rng: np.random.Generator, count: int) -> Iterator[PureState]:
        sites = 1 if isinstance(self.branches[0][1], tuple) else state.num_qubits
        chunk = min(1 << state.num_qubits, _CHUNK_UNIFORMS) // sites
        for start in range(0, count, chunk):
            drawn = np.searchsorted(self._cum, rng.random((min(chunk, count - start), sites)), side="right")
            for i, hit in enumerate(drawn.any(axis=1).tolist()):
                yield self._branch(state, drawn[i]) if hit else state

    def _branch(self, state: PureState, drawn: np.ndarray) -> PureState:
        """``state`` with branch drawn[site] applied at each site."""
        unitary = self.branches[0][1]
        if isinstance(unitary, tuple):
            support, u = unitary
            amps = state.amps.copy()
            amps[support] -= 2.0 * np.vdot(u, amps[support]) * u
            return PureState(state.num_qubits, amps)
        amps = state.amps
        for site in drawn.nonzero()[0]:
            amps = _apply_local(self.branches[drawn[site] - 1][1], amps, site)
        return PureState(state.num_qubits, amps)


def standard_channel(kind: str, strength: float, n: int, q0: float | None = None) -> KrausChannel:
    """Build one of the named preparation-noise channels on 2n qubits from
    its branch table.

    kind "dephase": on every qubit, Z with weight g/2.
    kind "depolarize": on every qubit, X, Y and Z with weight s/4 each.
    kind "coherent_mix": with weight s, the swap of the ideal state psi and
    phi = sqrt(q0)|D> - sqrt(1-q0)|GHZ>, the reflection with
    u = (psi - phi)/sqrt(2); the fidelity is exactly 1-s. Requires q0.
    kind "none": no branch; its strength must be 0.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"channel strength must lie in [0, 1], got {strength}")
    m = 2 * n
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    if kind == "none":
        if strength != 0.0:
            raise ValueError(f"channel kind 'none' takes strength 0, got {strength}")
        return KrausChannel("none", 0.0, m)
    if kind == "dephase":
        return KrausChannel(kind, strength, m, ((strength / 2, z),))
    if kind == "depolarize":
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
        return KrausChannel(kind, strength, m, tuple((strength / 4, p) for p in (x, y, z)))
    if kind == "coherent_mix":
        if q0 is None:
            raise ValueError("coherent_mix needs q0 to locate the ideal state")
        support = _probe_support(n, q0)
        psi = probe_on(n, np.sqrt(q0), np.sqrt(1.0 - q0), support)
        phi = probe_on(n, -np.sqrt(1.0 - q0), np.sqrt(q0), support)
        return KrausChannel(kind, strength, m, ((strength, (support, (psi - phi) / np.sqrt(2))),))
    raise ValueError(f"unknown channel kind {kind!r}")


def eig_top2(op: np.ndarray) -> tuple[float, float]:
    """Two largest eigenvalues of a Hermitian operator by dense diagonalization.

    A real symmetric input stays real (float64), which makes the solve
    several times cheaper than on its complex128 copy; any other input is
    taken as complex128. Raises if the input is not a square matrix of size
    at least 2 that is Hermitian within 1e-10.
    """
    a = np.asarray(op)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("operator must be at least 2x2")
    if np.max(np.abs(a - a.conj().T)) > 1e-10:
        raise ValueError("operator not Hermitian within 1e-10")
    w = np.linalg.eigvalsh(a)
    return float(w[-1]), float(w[-2])
