"""Minimal multi-qubit state engine.

Pure states over m qubits with a big-endian index convention (qubit 0 is
the most significant bit), local phase evolution generated by
single-qubit Z terms, noise channels that are mixtures of unitaries and
sample trajectories from a state-independent branch law, one joint
measurement of any set of qubits in per-qubit bases, seeded random
streams, and the two largest eigenvalues of a Hermitian matrix by
dense diagonalization.
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
    "make_ghz",
    "make_dicke",
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

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def inner(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "PureState") -> float:
        return float(abs(self.inner(other)) ** 2)

    def expectation(self, op: np.ndarray) -> float:
        return float(np.vdot(self.amps, op @ self.amps).real)


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


def make_ghz(num_qubits: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on ``num_qubits`` >= 2 qubits."""
    if num_qubits < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(num_qubits, amps)


def make_dicke(num_qubits: int, excitations: int) -> PureState:
    """Uniform superposition of all weight-``excitations`` basis states."""
    if not 0 <= excitations <= num_qubits:
        raise ValueError(f"excitations must lie in [0, {num_qubits}], got {excitations}")
    basis = WeightBasis(num_qubits, excitations)
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[basis.indices] = 1 / np.sqrt(basis.size)
    return PureState(num_qubits, amps)


def make_target(n: int, q0: float) -> PureState:
    """sqrt(q0)|GHZ_2n> + sqrt(1-q0)|D_2n^n> on 2n qubits, n >= 3, 0 < q0 < 1."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie strictly between 0 and 1, got {q0}")
    ghz = make_ghz(2 * n).amps
    dicke = make_dicke(2 * n, n).amps
    return PureState(2 * n, np.sqrt(q0) * ghz + np.sqrt(1.0 - q0) * dicke)


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
    """Mixture of unitaries, K_j = sqrt(w_j) U_j, applied per qubit or globally.

    ``per_qubit`` channels carry 2x2 operators applied independently to
    every qubit; global channels carry full 2^m x 2^m operators. Kraus sets
    that are not a mixture of unitaries (K_j^dag K_j != w_j I) are rejected,
    because trajectories draw each branch from the fixed weights w_j.
    """

    label: str
    strength: float
    num_qubits: int
    ops: tuple[np.ndarray, ...]
    per_qubit: bool

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.ops)
        dim = 2 if self.per_qubit else 2 ** self.num_qubits
        for k in ops:
            if k.shape != (dim, dim):
                raise ValueError(f"Kraus operator has shape {k.shape}, expected ({dim}, {dim})")
        object.__setattr__(self, "ops", ops)
        diag = np.diag_indices(dim)
        weights = []
        for k in ops:
            gram = k.conj().T @ k
            weights.append(np.trace(gram).real / dim)
            gram[diag] -= weights[-1]
            if np.max(np.abs(gram)) > 1e-12:
                raise ValueError("Kraus operator is not sqrt(w) times a unitary within 1e-12")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("Kraus operators do not satisfy sum K^dag K = I within 1e-12")
        # branch j happens with probability w_j; None marks an identity branch
        unitaries = []
        for k, w in zip(ops, weights):
            u = k / np.sqrt(w) if w > 0 else None
            if u is not None and np.max(np.abs(u - np.eye(dim))) <= 1e-12:
                u = None
            unitaries.append(u)
        cum = np.cumsum(weights)
        object.__setattr__(self, "_cum", cum / cum[-1])
        object.__setattr__(self, "_unitaries", tuple(unitaries))
        object.__setattr__(self, "_moves", np.array([u is not None for u in unitaries]))

    def apply_to_pure(self, state: PureState, rng: np.random.Generator) -> PureState:
        """Sample one trajectory.

        Branch j happens with probability w_j whatever the state, so one
        uniform draw per application site picks every branch at once and
        only the non-identity unitaries act. A channel whose branches are all
        the identity draws nothing and returns ``state`` itself.
        """
        if not self._moves.any():
            return state
        m = state.num_qubits
        branches = np.searchsorted(self._cum, rng.random(m if self.per_qubit else 1), side="right")
        amps = state.amps
        for site in self._moves[branches].nonzero()[0]:
            u = self._unitaries[branches[site]]
            amps = _apply_local(u, amps, site) if self.per_qubit else u @ amps
        return state if amps is state.amps else PureState(m, amps)


def standard_channel(kind: str, strength: float, n: int, q0: float | None = None) -> KrausChannel:
    """Build one of the named preparation-noise channels on 2n qubits.

    kind "dephase": per-qubit {sqrt(1-g/2) I, sqrt(g/2) Z}.
    kind "depolarize": per-qubit {sqrt(1-3s/4) I, sqrt(s/4) X, Y, Z}.
    kind "coherent_mix": global unitary mixing that rotates the ideal state
    toward its in-span orthogonal complement, leaving fidelity exactly 1-s;
    requires q0.
    kind "none": identity channel; its strength must be 0.
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"channel strength must lie in [0, 1], got {strength}")
    m = 2 * n
    eye2 = np.eye(2, dtype=np.complex128)
    if kind == "none":
        if strength != 0.0:
            raise ValueError(f"channel kind 'none' takes strength 0, got {strength}")
        return KrausChannel("none", 0.0, m, (eye2,), per_qubit=True)
    if kind == "dephase":
        z = np.diag([1.0, -1.0]).astype(np.complex128)
        ops = (np.sqrt(1 - strength / 2) * eye2, np.sqrt(strength / 2) * z)
        return KrausChannel(kind, strength, m, ops, per_qubit=True)
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
        return KrausChannel(kind, strength, m, ops, per_qubit=True)
    if kind == "coherent_mix":
        if q0 is None:
            raise ValueError("coherent_mix needs q0 to locate the ideal state")
        target = make_target(n, q0).amps
        perp = np.sqrt(q0) * make_dicke(m, n).amps - np.sqrt(1 - q0) * make_ghz(m).amps
        # unitary swapping |target> <-> |perp|, identity elsewhere
        u = (
            np.eye(2 ** m, dtype=np.complex128)
            - np.outer(target, target.conj())
            - np.outer(perp, perp.conj())
            + np.outer(perp, target.conj())
            + np.outer(target, perp.conj())
        )
        ops = (np.sqrt(1 - strength) * np.eye(2 ** m, dtype=np.complex128), np.sqrt(strength) * u)
        return KrausChannel(kind, strength, m, ops, per_qubit=False)
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
