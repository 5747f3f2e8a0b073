"""Verification-strategy operators in Hamming-weight block form.

Every strategy here is block structured by total excitation number: diagonal
sector blocks plus a small set of fixed cross-sector couplings. Operators
are stored that way (dense storage of the full 2^m matrix is only used for
the small brute-force assembly), which keeps spectra computable far beyond
the reach of dense diagonalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from ..qcore import DensityOperator, PureState
from ..symcomb import (
    SubsetFamily,
    WeightBasis,
    binom,
    containment_adjacency,
    johnson_adjacency,
    sector_projector,
)

__all__ = [
    "GhzLikeParams",
    "StrategyOperator",
    "q_min",
    "lambda_map",
    "strategy_ghz_like",
    "strategy_dicke",
    "assemble_strategy_bruteforce",
    "assemble_strategy_decomposed",
]


@dataclass(frozen=True)
class GhzLikeParams:
    """Parameters of the GHZ-like verification strategy.

    p is the probability of the all-Z test; (lambda0, lambda1) are the
    squared amplitudes of the verified state sqrt(lambda0)|0...0> +
    sqrt(lambda1)|1...1| with lambda0 >= 1/2 and lambda1 = 1 - lambda0 > 0.
    """

    p: float
    lambda0: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.lambda0 < 0.5 - 1e-12:
            raise ValueError(
                f"lambda0 must be at least 1/2 (got {self.lambda0}); for the "
                "mirrored state conjugate the strategy by X on every qubit"
            )
        if self.lambda0 >= 1.0:
            raise ValueError(f"lambda0 must be below 1, got {self.lambda0}")

    @property
    def lambda1(self) -> float:
        return 1.0 - self.lambda0


class StrategyOperator:
    """Hermitian operator stored as Hamming-weight sector blocks.

    ``blocks`` maps (j, k) with j <= k to the matrix acting from sector k
    into sector j (shape C(m,j) x C(m,k)); the (k, j) block is implied by
    Hermiticity. Diagonal blocks must be Hermitian. A real block is stored
    as float64 and a complex one as complex128; ``dtype`` is the common
    type of the blocks, which the dense matrices built from them share, so
    a strategy with real blocks is diagonalized in real arithmetic.
    """

    def __init__(self, num_qubits: int, blocks: Mapping[tuple[int, int], np.ndarray]):
        self.num_qubits = int(num_qubits)
        m = self.num_qubits
        stored: dict[tuple[int, int], np.ndarray] = {}
        for (j, k), block in blocks.items():
            if not (0 <= j <= k <= m):
                raise ValueError(f"sector pair ({j}, {k}) out of range for {m} qubits")
            arr = np.asarray(block)
            arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
            expected = (binom(m, j), binom(m, k))
            if arr.shape != expected:
                raise ValueError(f"block ({j}, {k}) has shape {arr.shape}, expected {expected}")
            if j == k and np.max(np.abs(arr - arr.conj().T)) > 1e-12:
                raise ValueError(f"diagonal block ({j}, {j}) not Hermitian within 1e-12")
            stored[(j, k)] = arr
        self.blocks = stored
        self.dtype = np.result_type(np.float64, *stored.values())
        self._bases: dict[int, WeightBasis] = {}

    def basis(self, w: int) -> WeightBasis:
        if w not in self._bases:
            self._bases[w] = WeightBasis(self.num_qubits, w)
        return self._bases[w]

    def block(self, j: int, k: int) -> np.ndarray:
        return self.blocks[(j, k)]

    @property
    def weights(self) -> tuple[int, ...]:
        ws: set[int] = set()
        for j, k in self.blocks:
            ws.update((j, k))
        return tuple(sorted(ws))

    def component_groups(self) -> list[tuple[int, ...]]:
        """Connected components of the sector-coupling graph."""
        parent = {w: w for w in self.weights}

        def find(w: int) -> int:
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        for j, k in self.blocks:
            parent[find(j)] = find(k)
        groups: dict[int, list[int]] = {}
        for w in self.weights:
            groups.setdefault(find(w), []).append(w)
        return [tuple(sorted(g)) for g in sorted(groups.values())]

    def component_matrix(self, group: Iterable[int]) -> np.ndarray:
        """Dense matrix of the operator restricted to the given sectors."""
        group = tuple(sorted(group))
        sizes = [self.basis(w).size for w in group]
        offsets = dict(zip(group, np.concatenate([[0], np.cumsum(sizes)[:-1]])))
        dim = int(np.sum(sizes))
        out = np.zeros((dim, dim), dtype=self.dtype)
        for (j, k), block in self.blocks.items():
            if j not in offsets or k not in offsets:
                continue
            oj, ok = offsets[j], offsets[k]
            out[oj : oj + block.shape[0], ok : ok + block.shape[1]] = block
            if j != k:
                out[ok : ok + block.shape[1], oj : oj + block.shape[0]] = block.conj().T
        return out

    def eigenvalues(self, include_zero_sectors: bool = False) -> np.ndarray:
        """Spectrum over the stored sectors, sorted ascending.

        With ``include_zero_sectors`` the exact zeros from unrepresented
        weight sectors are appended, giving the full 2^m spectrum. A
        component whose matrix is exactly diagonal contributes its diagonal
        without an eigensolver.
        """
        parts = []
        for group in self.component_groups():
            mat = self.component_matrix(group)
            diag = np.diagonal(mat).real
            diagonal = np.count_nonzero(mat) == np.count_nonzero(diag)
            parts.append(diag if diagonal else np.linalg.eigvalsh(mat))
        vals = np.concatenate(parts) if parts else np.empty(0)
        if include_zero_sectors:
            covered = sum(self.basis(w).size for w in self.weights)
            vals = np.concatenate([vals, np.zeros(2 ** self.num_qubits - covered)])
        return np.sort(vals)

    def to_dense(self) -> np.ndarray:
        dim = 2 ** self.num_qubits
        out = np.zeros((dim, dim), dtype=self.dtype)
        for (j, k), block in self.blocks.items():
            rows = self.basis(j).indices
            cols = self.basis(k).indices
            out[np.ix_(rows, cols)] += block
            if j != k:
                out[np.ix_(cols, rows)] += block.conj().T
        return out

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """Matrix-vector product on a full 2^m amplitude vector."""
        vec = np.asarray(vec, dtype=np.complex128)
        out = np.zeros_like(vec)
        for (j, k), block in self.blocks.items():
            rows = self.basis(j).indices
            cols = self.basis(k).indices
            out[rows] += block @ vec[cols]
            if j != k:
                out[cols] += block.conj().T @ vec[rows]
        return out

    def expectation_vector(self, vec: np.ndarray) -> float:
        vec = np.asarray(vec, dtype=np.complex128)
        total = 0.0
        for (j, k), block in self.blocks.items():
            vj = vec[self.basis(j).indices]
            vk = vec[self.basis(k).indices]
            val = np.vdot(vj, block @ vk)
            total += val.real if j == k else 2.0 * val.real
        return float(total)

    def expectation(self, state: PureState | DensityOperator) -> float:
        """<psi|Omega|psi> or Tr[Omega rho]."""
        if isinstance(state, PureState):
            return self.expectation_vector(state.amps)
        total = 0.0
        for (j, k), block in self.blocks.items():
            rows = self.basis(j).indices
            cols = self.basis(k).indices
            val = np.sum(block * state.mat[np.ix_(cols, rows)].T)
            total += val.real if j == k else 2.0 * val.real
        return float(total)

    def add(self, other: "StrategyOperator") -> "StrategyOperator":
        if other.num_qubits != self.num_qubits:
            raise ValueError("qubit counts differ")
        merged: dict[tuple[int, int], np.ndarray] = {k: v.copy() for k, v in self.blocks.items()}
        for key, block in other.blocks.items():
            if key in merged:
                merged[key] = merged[key] + block
            else:
                merged[key] = block.copy()
        return StrategyOperator(self.num_qubits, merged)

    def x_conjugate(self) -> "StrategyOperator":
        """Conjugation by X on every qubit: sector w maps to m - w with
        basis strings complemented.
        """
        m = self.num_qubits
        mask = (1 << m) - 1
        perms: dict[int, np.ndarray] = {}
        for w in self.weights:
            perms[w] = np.searchsorted(
                WeightBasis(m, m - w).indices, mask ^ self.basis(w).indices
            )
        new_blocks: dict[tuple[int, int], np.ndarray] = {}
        for (j, k), block in self.blocks.items():
            nj, nk = m - j, m - k
            permuted = np.zeros((binom(m, nj), binom(m, nk)), dtype=block.dtype)
            permuted[np.ix_(perms[j], perms[k])] = block
            if nj <= nk:
                key, arr = (nj, nk), permuted
            else:
                key, arr = (nk, nj), permuted.conj().T
            if key in new_blocks:
                new_blocks[key] = new_blocks[key] + arr
            else:
                new_blocks[key] = arr
        return StrategyOperator(m, new_blocks)

    @classmethod
    def from_dense(
        cls,
        mat: np.ndarray,
        num_qubits: int,
        couplings: Iterable[tuple[int, int]] = (),
        atol: float = 1e-12,
    ) -> "StrategyOperator":
        """Extract sector blocks from a dense Hermitian matrix.

        Only diagonal blocks and the declared cross-sector couplings are
        kept; any residual weight elsewhere above ``atol`` is an error.
        """
        mat = np.asarray(mat)
        dim = 2 ** num_qubits
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix has shape {mat.shape}, expected ({dim}, {dim})")
        if np.max(np.abs(mat - mat.conj().T)) > atol:
            raise ValueError("matrix not Hermitian within tolerance")
        blocks: dict[tuple[int, int], np.ndarray] = {}
        for w in range(num_qubits + 1):
            idx = WeightBasis(num_qubits, w).indices
            sub = mat[np.ix_(idx, idx)]
            if np.max(np.abs(sub)) > atol:
                blocks[(w, w)] = sub
        for j, k in couplings:
            rows = WeightBasis(num_qubits, j).indices
            cols = WeightBasis(num_qubits, k).indices
            sub = mat[np.ix_(rows, cols)]
            if np.max(np.abs(sub)) > atol:
                blocks[(j, k)] = sub
        op = cls(num_qubits, blocks)
        residual = float(np.max(np.abs(mat - op.to_dense())))
        if residual > atol:
            raise ValueError(
                f"matrix has weight {residual:.3e} outside the declared sector structure"
            )
        return op


def q_min(n: int) -> float:
    """Smallest admissible GHZ weight 2/(C(2n,n)+2)."""
    return 2.0 / (binom(2 * n, n) + 2)


def lambda_map(n: int, q0: float) -> tuple[float, float]:
    """Squared amplitudes of the post-selected GHZ-like state.

    lambda0 = C q0 / (C q0 + 2 q1) and lambda1 = 2 q1 / (C q0 + 2 q1)
    with C = C(2n,n); requires q0 >= q_min(n) so that lambda0 >= 1/2.
    lambda1 is not formed as 1 - lambda0, which rounds to 0 once C q0
    passes about 1e16 (n >= 30 at q0 = 0.33).
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 <= 1.0:
        raise ValueError(f"q0 must lie in (0, 1], got {q0}")
    if q0 < q_min(n):
        raise ValueError(f"q0={q0} below the admissible minimum {q_min(n)}")
    c = binom(2 * n, n)
    denom = c * q0 + 2 * (1.0 - q0)
    return c * q0 / denom, 2 * (1.0 - q0) / denom


def strategy_ghz_like(m: int, p: float, lambda0: float) -> StrategyOperator:
    """Acceptance operator of the GHZ-like protocol on m qubits.

    Sector blocks: scalar p + (1-p)lambda_z at weights 0 and m, coupling
    (1-p)sqrt(lambda0 lambda1) between them, and (1-p)(lambda0 +
    a(1-2lambda0)/m) times the identity on each intermediate weight a.
    """
    if m < 2:
        raise ValueError(f"m must be at least 2, got {m}")
    params = GhzLikeParams(p, lambda0)
    lam0, lam1 = params.lambda0, params.lambda1
    blocks: dict[tuple[int, int], np.ndarray] = {
        (0, 0): np.array([[p + (1 - p) * lam0]]),
        (m, m): np.array([[p + (1 - p) * lam1]]),
        (0, m): np.array([[(1 - p) * np.sqrt(lam0 * lam1)]]),
    }
    for a in range(1, m):
        coeff = (1 - p) * (lam0 + a * (1 - 2 * lam0) / m)
        blocks[(a, a)] = coeff * np.eye(binom(m, a))
    return StrategyOperator(m, blocks)


def strategy_dicke(m: int, k: int) -> StrategyOperator:
    """Acceptance operator of the Dicke protocol for |D_m^k>.

    All coefficients over the common denominator m(m-1): the weight-k block
    [m(m-1) - k(m-k)] I + J(m,k), identity blocks C(m-k+1,2) I at weight
    k-1 and C(k+1,2) I at weight k+1, and the containment coupling between
    weights k-1 and k+1.
    """
    if m < 3:
        raise ValueError(f"m must be at least 3, got {m}")
    if not 1 <= k <= m - 1:
        raise ValueError(f"k={k} out of range 1..{m - 1}")
    denom = m * (m - 1)
    blocks: dict[tuple[int, int], np.ndarray] = {
        (k, k): ((denom - k * (m - k)) * np.eye(binom(m, k)) + johnson_adjacency(m, k)) / denom,
        (k - 1, k - 1): binom(m - k + 1, 2) / denom * np.eye(binom(m, k - 1)),
        (k + 1, k + 1): binom(k + 1, 2) / denom * np.eye(binom(m, k + 1)),
        (k - 1, k + 1): containment_adjacency(m, k - 1, k + 1) / denom,
    }
    return StrategyOperator(m, blocks)


def assemble_strategy_bruteforce(n: int, q0: float, p: float) -> StrategyOperator:
    """Average the full strategy over every n-subset R by explicit dense
    summation; feasible only for n <= 4.

    For each R the verifier Z-measures R and dispatches on the outcome
    weight w: the GHZ-like strategy (w = 0), its X conjugate (w = n), or
    the Dicke strategy for n - w excitations (otherwise), acting on the
    complement.
    """
    if n > 4:
        raise ValueError(f"brute-force assembly enumerates C(2n,n) subsets; n={n} too large")
    lam0, _ = lambda_map(n, q0)
    m = 2 * n
    dim = 1 << m

    ghz_op = strategy_ghz_like(n, p, lam0)
    ops_by_weight = {0: ghz_op.to_dense(), n: ghz_op.x_conjugate().to_dense()}
    for w in range(1, n):
        ops_by_weight[w] = strategy_dicke(n, n - w).to_dense()

    # the reordered-kron operator is identical for every subset
    all_qubits = tuple(range(n))
    kernel = np.zeros((dim, dim), dtype=np.complex128)
    for w, op in ops_by_weight.items():
        kernel += np.kron(np.diag(sector_projector(n, all_qubits, w).astype(float)), op)

    idx = np.arange(dim)
    omega = np.zeros((dim, dim), dtype=np.complex128)
    for subset in SubsetFamily(m, n):
        rest = tuple(q for q in range(m) if q not in subset)
        xmap = np.zeros(dim, dtype=np.int64)
        for pos, q in enumerate(subset):
            xmap |= ((idx >> (m - 1 - q)) & 1) << (m - 1 - pos)
        for pos, q in enumerate(rest):
            xmap |= ((idx >> (m - 1 - q)) & 1) << (n - 1 - pos)
        omega += kernel[np.ix_(xmap, xmap)]
    omega /= binom(m, n)
    return StrategyOperator.from_dense(
        omega, m, couplings=[(0, n), (n, m), (n - 1, n + 1)], atol=1e-12
    )


def _block_coefficients(n: int, q0: float, p: float):
    """Closed-form block coefficients of the subset-averaged strategy.

    Returns (lam0, lam1, a, b, c, d, alpha, omega3): the ``lambda_map`` pair,
    a on the weight-0 and 2n scalars, b I + c J(2n,n) on the weight-n
    block, d on every entry of the couplings
    between weights 0, n and 2n, alpha on the identity blocks of weights n-1
    and n+1, and omega3[l-1] on the identity blocks of weights l and 2n-l
    for l = 1..n-2, strictly decreasing in l.
    """
    lam0, lam1 = lambda_map(n, q0)
    c_big = binom(2 * n, n)
    a = p + (1 - p) * lam0
    b = (3 * n - 2) / (2 * (2 * n - 1)) - 2 * (1 - p) * lam0 / c_big
    c = 1.0 / (2 * n * (2 * n - 1))
    d = (1 - p) * np.sqrt(lam0 * lam1) / c_big
    alpha = (n + 1) * (1.0 / (4 * (2 * n - 1)) + (1 - p) / c_big * (1 - 1.0 / n - (1 - 2.0 / n) * lam0))
    omega3 = tuple(
        (1 - p) / (n * c_big) * binom(2 * n - l, n) * (n * lam0 - l * (2 * lam0 - 1))
        for l in range(1, n - 1)
    )
    return lam0, lam1, a, b, c, d, alpha, omega3


def strategy_orbits(n: int, q0: float, p: float) -> dict[tuple[int, int, int], float]:
    """Orbit coefficients of the subset-averaged strategy: <x|Omega|y> for
    |x| = i, |y| = j, |x AND y| = t, keyed (i, j, t); unlisted triples are 0.
    They are the entries of the ``assemble_strategy_decomposed`` blocks.
    """
    _, _, a, b, c, d, alpha, omega3 = _block_coefficients(n, q0, p)
    m = 2 * n
    orbits = {
        (0, 0, 0): a,
        (m, m, m): a,
        (n, n, n): b,
        (n, n, n - 1): c,
        (0, n, 0): d,
        (n, 0, 0): d,
        (n, m, n): d,
        (m, n, n): d,
        (n - 1, n - 1, n - 1): alpha,
        (n + 1, n + 1, n + 1): alpha,
        (n - 1, n + 1, n - 1): c,
        (n + 1, n - 1, n - 1): c,
    }
    for l, coeff in enumerate(omega3, start=1):
        orbits[(l, l, l)] = orbits[(m - l, m - l, m - l)] = coeff
    return orbits


def assemble_strategy_decomposed(
    n: int, q0: float, p: float
) -> tuple[StrategyOperator, StrategyOperator, StrategyOperator]:
    """The subset-averaged strategy as three sector-disjoint closed-form
    pieces: the GHZ/Dicke core on weights {0, n, 2n}, the adjacent-weight
    piece on {n-1, n+1}, and the diagonal remainder on the other weights.
    """
    _, _, a, b, c, d, alpha, omega3_values = _block_coefficients(n, q0, p)
    m = 2 * n
    c_big = binom(m, n)
    # b I + c J formed in place: J is C(2n,n)^2, 94 MB at n = 7
    core = johnson_adjacency(m, n)
    core *= c
    core.flat[:: c_big + 1] += b

    omega1 = StrategyOperator(
        m,
        {
            (0, 0): np.array([[a]]),
            (m, m): np.array([[a]]),
            (n, n): core,
            (0, n): d * np.ones((1, c_big)),
            (n, m): d * np.ones((c_big, 1)),
        },
    )

    omega2 = StrategyOperator(
        m,
        {
            (n - 1, n - 1): alpha * np.eye(binom(m, n - 1)),
            (n + 1, n + 1): alpha * np.eye(binom(m, n + 1)),
            (n - 1, n + 1): containment_adjacency(m, n - 1, n + 1) * c,
        },
    )

    blocks3: dict[tuple[int, int], np.ndarray] = {}
    for l, coeff in enumerate(omega3_values, start=1):
        blocks3[(l, l)] = coeff * np.eye(binom(m, l))
        blocks3[(m - l, m - l)] = coeff * np.eye(binom(m, l))
    omega3 = StrategyOperator(m, blocks3)
    return omega1, omega2, omega3
