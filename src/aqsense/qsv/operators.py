"""The subset-averaged verification strategy in Hamming-weight block form.

The strategy Omega is block structured by total excitation number:
diagonal sector blocks plus a few fixed cross-sector couplings. Its
closed-form coefficients have one source, the orbit table
``strategy_orbits``: the closed-form spectrum reads it by orbit key and its
symmetric-block check diagonalizes it, and ``assemble_strategy_decomposed``
lays the same entries out as dense sector blocks for cross-checks at small n.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from ..qcore import check_probe
from ..symcomb import binom, containment_adjacency, johnson_adjacency

__all__ = [
    "N_MAX",
    "StrategyOperator",
    "q_min",
    "lambda_map",
    "assemble_strategy_decomposed",
]


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

    def component_matrix(self, group: Iterable[int]) -> np.ndarray:
        """Dense matrix of the operator restricted to the given sectors."""
        group = tuple(sorted(group))
        sizes = [binom(self.num_qubits, w) for w in group]
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


# largest n with C(2n, n) + 8n - 6 inside float64 range (qopt's q_beta
# denominator); q_min, and so every strategy computation, stops there
N_MAX = 514


def q_min(n: int) -> float:
    """Smallest admissible GHZ weight 2/(C(2n,n)+2); the one check of the
    strategy's n domain 3 <= n <= N_MAX (ValueError outside)."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if n > N_MAX:
        raise ValueError(f"n={n} exceeds {N_MAX}, the largest n accepted (C(2n, n) leaves float64 range above it)")
    return 2.0 / (binom(2 * n, n) + 2)


def check_p(p: float) -> None:
    """Raise ValueError unless the Z-test probability p lies in [0, 1)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")


def lambda_map(n: int, q0: float) -> tuple[float, float]:
    """Squared amplitudes of the post-selected GHZ-like state.

    lambda0 = C q0 / (C q0 + 2 q1) and lambda1 = 2 q1 / (C q0 + 2 q1)
    with C = C(2n,n); verification's (n, q0) check: ``q_min``'s n domain,
    then ``check_probe``, then q0 >= q_min(n) so that lambda0 >= 1/2. lambda1
    is not formed as 1 - lambda0, which rounds to 0 once C q0 passes about 1e16.
    """
    lowest = q_min(n)
    check_probe(n, q0)
    if q0 < lowest:
        raise ValueError(f"q0={q0} below the admissible minimum {lowest}")
    c = binom(2 * n, n)
    denom = c * q0 + 2 * (1.0 - q0)
    return c * q0 / denom, 2 * (1.0 - q0) / denom


def strategy_orbits(n: int, q0: float, p: float) -> dict[tuple[int, int, int], float]:
    """Orbit coefficients of the subset-averaged strategy: <x|Omega|y> for
    |x| = i, |y| = j, |x AND y| = t, keyed (i, j, t); unlisted triples are 0.

    The strategy's one source of closed forms (C = C(2n,n), lambda0 and
    lambda1 from ``lambda_map``): a on weights 0 and 2n, b I + c J(2n,n) on
    weight n, d on the couplings of weights 0, n and 2n, alpha I on weights
    n-1 and n+1 with c on their coupling, and omega3_l = (1-p)/(n C) C(2n-l,n)
    ((n-l) lambda0 + l lambda1), positive terms strictly decreasing in l, on
    weights l and 2n-l for l = 1..n-2. ``check_p`` runs ahead of
    ``lambda_map``'s (n, q0) check.
    """
    check_p(p)
    lam0, lam1 = lambda_map(n, q0)
    m = 2 * n
    c_big = binom(m, n)
    a = p + (1 - p) * lam0
    b = (3 * n - 2) / (2 * (2 * n - 1)) - 2 * (1 - p) * lam0 / c_big
    c = 1.0 / (2 * n * (2 * n - 1))
    d = (1 - p) * np.sqrt(lam0 * lam1) / c_big
    alpha = (n + 1) * (1.0 / (4 * (2 * n - 1)) + (1 - p) / c_big * (1 - 1.0 / n - (1 - 2.0 / n) * lam0))
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
    # n C(2n,n) passes the float64 range from n = 511: it enters scaled by
    # 2^-64 (int true division, correctly rounded) and ldexp undoes that
    share = (1 - p) / (n * c_big / 2**64)
    for l in range(1, n - 1):
        coeff = math.ldexp(share * binom(m - l, n) * ((n - l) * lam0 + l * lam1), -64)
        orbits[(l, l, l)] = orbits[(m - l, m - l, m - l)] = coeff
    return orbits


def assemble_strategy_decomposed(
    n: int, q0: float, p: float
) -> tuple[StrategyOperator, StrategyOperator, StrategyOperator]:
    """The subset-averaged strategy as three sector-disjoint closed-form
    pieces: the GHZ/Dicke core on weights {0, n, 2n}, the adjacent-weight
    piece on {n-1, n+1}, and the diagonal remainder on the other weights.
    """
    orbits = strategy_orbits(n, q0, p)
    m = 2 * n
    c_big = binom(m, n)
    a, b, c = orbits[(0, 0, 0)], orbits[(n, n, n)], orbits[(n, n, n - 1)]
    d, alpha = orbits[(0, n, 0)], orbits[(n - 1, n - 1, n - 1)]
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
    for l in range(1, n - 1):
        blocks3[(l, l)] = orbits[(l, l, l)] * np.eye(binom(m, l))
        blocks3[(m - l, m - l)] = orbits[(l, l, l)] * np.eye(binom(m, l))
    omega3 = StrategyOperator(m, blocks3)
    return omega1, omega2, omega3
