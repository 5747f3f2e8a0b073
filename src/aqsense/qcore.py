"""Minimal multi-qubit state engine.

Pure states over m qubits with a big-endian index convention (qubit 0 is
the most significant bit), GHZ/Dicke amplitudes on any basis indices, local
phase evolution generated by single-qubit Z terms, noise channels that are
mixtures of unitaries and sample trajectories from a state-independent
branch law, one joint measurement of any set of qubits in per-qubit bases,
seeded random streams, and the two largest eigenvalues of a Hermitian matrix
by dense diagonalization. The probe psi and phi = sqrt(q0)|D> - sqrt(1-q0)|GHZ>,
which ``coherent_mix`` swaps, live on the C(2n,n) + 2 basis states of weight
0, n and 2n, so the swap is the reflection I - 2 u u^dag, u = (psi - phi)/sqrt(2),
on those states alone: no 2^(2n) x 2^(2n) operator is built.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .symcomb import WeightBasis, binom

__all__ = [
    "PureState",
    "KrausChannel",
    "RngStream",
    "probe_on",
    "make_target",
    "evolve_phases",
    "measure",
    "standard_channel",
    "eig_top2",
]


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on ``num_qubits`` qubits, big-endian indexing."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.shape != (2 ** self.num_qubits,):
            raise ValueError(
                f"amplitude vector has shape {amps.shape}, expected ({2 ** self.num_qubits},)"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state vector not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "amps", amps)


class RngStream:
    """Deterministic random stream addressed by a seed and a spawn key.

    ``substream(*ids)`` derives an independent child stream; equal
    (seed, key) pairs always reproduce the same draws. The root stream
    (empty key) draws from PCG64 seeded by SeedSequence(seed). A stream with
    key (..., i) is item i of its parent: a Philox generator keyed by a seed
    sequence that the parent builds once, with its counter starting at
    i * 2^192. Sibling streams therefore never overlap, and making one
    builds no SeedSequence.
    """

    def __init__(self, seed: int, key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.key = tuple(int(k) for k in key)
        self._gen: np.random.Generator | None = None
        self._parent: RngStream | None = None
        self._item_seq: np.random.SeedSequence | None = None

    @property
    def gen(self) -> np.random.Generator:
        if self._gen is None:
            if self.key:
                parent = self._parent or RngStream(self.seed, self.key[:-1])
                bits = np.random.Philox(parent._items(), counter=[0, 0, 0, self.key[-1]])
            else:
                bits = np.random.PCG64(np.random.SeedSequence(self.seed))
            self._gen = np.random.Generator(bits)
        return self._gen

    def _items(self) -> np.random.SeedSequence:
        """The seed sequence that keys this stream's one-id substreams."""
        if self._item_seq is None:
            # a pool of 8 words keeps the key apart from this stream's own PCG64 seed
            self._item_seq = np.random.SeedSequence(self.seed, spawn_key=self.key, pool_size=8)
        return self._item_seq

    def substream(self, *ids: int) -> "RngStream":
        child = RngStream(self.seed, self.key + ids)
        if len(ids) == 1:
            child._parent = self
        return child

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, key={self.key})"


def probe_on(n: int, ghz: float, dicke: float, idx: np.ndarray) -> np.ndarray:
    """Amplitudes of ghz |GHZ_2n> + dicke |D_2n^n> on the basis indices idx
    (real). The probe is probe_on(n, sqrt(q0), sqrt(1-q0), idx) and
    coherent_mix's phi is probe_on(n, -sqrt(1-q0), sqrt(q0), idx)."""
    weight = np.bitwise_count(idx)
    ghz_amp = np.where((weight == 0) | (weight == 2 * n), 1 / np.sqrt(2), 0.0)
    dicke_amp = np.where(weight == n, 1 / np.sqrt(binom(2 * n, n)), 0.0)
    return ghz * ghz_amp + dicke * dicke_amp


def _probe_support(n: int, q0: float) -> np.ndarray:
    """The basis indices of weight 0, n and 2n, once (n, q0) is checked."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie strictly between 0 and 1, got {q0}")
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


def measure(
    amps: np.ndarray,
    qubits: Sequence[int],
    rng: np.random.Generator,
    bases: Sequence[np.ndarray] | None = None,
) -> tuple[tuple[int, ...], np.ndarray]:
    """Measure several qubits of a normalized amplitude vector at once.

    ``bases[j]`` is a 2x2 matrix whose orthonormal rows are the kets measured
    on ``qubits[j]``; without ``bases`` every listed qubit is measured in Z.
    Each listed qubit is rotated so that row o of its basis becomes |o>; one
    uniform draw then picks a basis state from |amplitude|^2, whose bits on
    the listed qubits follow their joint marginal law and are the outcome.
    The vector is projected onto that outcome and renormalized but not
    rotated back: each measured qubit is left in |o> of its rotated frame,
    and the other qubits hold the projected conditional state. Returns the
    outcome bits in the order of ``qubits`` and those amplitudes.
    """
    m = amps.shape[0].bit_length() - 1
    if bases is not None:
        for q, rows in zip(qubits, bases):
            amps = _apply_local(rows.conj(), amps, q)
    weights = np.abs(amps)
    weights *= weights
    cum = weights.cumsum()
    drawn = min(int(cum.searchsorted(rng.random() * cum[-1], side="right")), cum.size - 1)
    # block fixes each measured axis to its bit in the drawn basis state
    block = [slice(None)] * m
    for q in qubits:
        block[q] = (drawn >> (m - 1 - q)) & 1
    block = tuple(block)
    psi = amps.reshape((2,) * m)
    post = np.zeros(psi.shape, dtype=np.complex128)
    post[block] = psi[block] * (1.0 / math.sqrt(weights.reshape(psi.shape)[block].sum()))
    return tuple(block[q] for q in qubits), post.reshape(-1)


def _apply_local(u: np.ndarray, amps: np.ndarray, qubit: int) -> np.ndarray:
    """Apply the 2x2 matrix u to one qubit of an amplitude vector."""
    return (u @ amps.reshape(1 << qubit, 2, -1)).reshape(-1)


@dataclass(frozen=True)
class KrausChannel:
    """Mixture of unitaries, K_j = sqrt(w_j) U_j, applied per qubit or as one
    reflection.

    ``ops`` is either 2x2 Kraus operators applied independently to every
    qubit, rejected unless a mixture of unitaries (K_j^dag K_j = w_j I, as
    trajectories draw each branch from the fixed weights w_j), or a
    reflection (support, u): distinct basis indices and a unit vector on
    them, the identity with weight 1 - strength and I - 2 u u^dag with weight
    ``strength``. The swap of orthonormal real psi and phi (the identity on
    the rest), I - psi psi^dag - phi phi^dag + phi psi^dag + psi phi^dag, is
    that reflection with u = (psi - phi)/sqrt(2), supported where they are.
    """

    label: str
    strength: float
    num_qubits: int
    ops: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        reflection = None
        if np.ndim(self.ops[0]) == 1:
            reflection = support, u = self.ops
            unit = np.shape(u) == np.shape(support) and abs(np.linalg.norm(u) - 1.0) <= 1e-12
            if not unit or not 0.0 <= self.strength <= 1.0:
                raise ValueError("a reflection needs a unit vector u on its support, within 1e-12, "
                                 "and a weight in [0, 1]")
            weights, unitaries, moves = [1.0 - self.strength, self.strength], (), [False, self.strength > 0.0]
        else:
            ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.ops)
            object.__setattr__(self, "ops", ops)
            # branch j happens with probability w_j; None marks an identity branch
            weights, unitaries = [], []
            for k in ops:
                if k.shape != (2, 2):
                    raise ValueError(f"Kraus operator has shape {k.shape}, expected (2, 2)")
                gram = k.conj().T @ k
                weights.append(np.trace(gram).real / 2)
                gram[np.diag_indices(2)] -= weights[-1]
                if np.max(np.abs(gram)) > 1e-12:
                    raise ValueError("Kraus operator is not sqrt(w) times a unitary within 1e-12")
                u = k / np.sqrt(weights[-1]) if weights[-1] > 0 else None
                unitaries.append(None if u is None or np.max(np.abs(u - np.eye(2))) <= 1e-12 else u)
            if abs(sum(weights) - 1.0) > 1e-12:
                raise ValueError("Kraus operators do not satisfy sum K^dag K = I within 1e-12")
            moves = [u is not None for u in unitaries]
        cum = np.cumsum(weights)
        object.__setattr__(self, "_cum", cum / cum[-1])
        object.__setattr__(self, "_unitaries", tuple(unitaries))
        object.__setattr__(self, "_moves", np.array(moves))
        object.__setattr__(self, "_reflection", reflection)

    def apply_to_pure(self, state: PureState, rng: np.random.Generator) -> PureState:
        """Sample one trajectory.

        Branch j happens with probability w_j whatever the state, so one
        uniform draw per application site (each qubit, or the whole state for
        a reflection) picks every branch at once and only the non-identity
        unitaries act. A channel whose branches are all the identity draws
        nothing and returns ``state`` itself.
        """
        if not self._moves.any():
            return state
        m = state.num_qubits
        if self._reflection is not None:
            if rng.random() < self._cum[0]:
                return state
            support, u = self._reflection
            amps = state.amps.copy()
            amps[support] -= 2.0 * np.vdot(u, amps[support]) * u
            return PureState(m, amps)
        branches = np.searchsorted(self._cum, rng.random(m), side="right")
        amps = state.amps
        for site in self._moves[branches].nonzero()[0]:
            u = self._unitaries[branches[site]]
            amps = _apply_local(u, amps, site)
        return state if amps is state.amps else PureState(m, amps)


def standard_channel(kind: str, strength: float, n: int, q0: float | None = None) -> KrausChannel:
    """Build one of the named preparation-noise channels on 2n qubits.

    kind "dephase": per-qubit {sqrt(1-g/2) I, sqrt(g/2) Z}.
    kind "depolarize": per-qubit {sqrt(1-3s/4) I, sqrt(s/4) X, Y, Z}.
    kind "coherent_mix": with probability s, the swap of the ideal state psi
    and phi = sqrt(q0)|D> - sqrt(1-q0)|GHZ>, the reflection with
    u = (psi - phi)/sqrt(2); the fidelity is exactly 1-s. Requires q0.
    kind "none": identity channel; its strength must be 0.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"channel strength must lie in [0, 1], got {strength}")
    m = 2 * n
    eye2 = np.eye(2, dtype=np.complex128)
    if kind == "none":
        if strength != 0.0:
            raise ValueError(f"channel kind 'none' takes strength 0, got {strength}")
        return KrausChannel("none", 0.0, m, (eye2,))
    if kind == "dephase":
        z = np.diag([1.0, -1.0]).astype(np.complex128)
        ops = (np.sqrt(1 - strength / 2) * eye2, np.sqrt(strength / 2) * z)
        return KrausChannel(kind, strength, m, ops)
    if kind == "depolarize":
        x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
        y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
        z = np.diag([1.0, -1.0]).astype(np.complex128)
        ops = (
            np.sqrt(1 - 3 * strength / 4) * eye2,
            np.sqrt(strength / 4) * x,
            np.sqrt(strength / 4) * y,
            np.sqrt(strength / 4) * z,
        )
        return KrausChannel(kind, strength, m, ops)
    if kind == "coherent_mix":
        if q0 is None:
            raise ValueError("coherent_mix needs q0 to locate the ideal state")
        support = _probe_support(n, q0)
        psi = probe_on(n, np.sqrt(q0), np.sqrt(1.0 - q0), support)
        phi = probe_on(n, -np.sqrt(1.0 - q0), np.sqrt(q0), support)
        return KrausChannel(kind, strength, m, (support, (psi - phi) / np.sqrt(2)))
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
