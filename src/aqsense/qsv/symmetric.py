"""Operators on m qubits that commute with every qubit permutation.

Such an operator A has <x|A|y> = f(|x|, |y|, |x AND y|): a table of orbit
coefficients f(i, j, t) fixes it. Schrijver's block diagonalization of the
Terwilliger algebra of the Hamming cube (A. Schrijver, IEEE Trans. Inf.
Theory 51, 2859 (2005)) maps A to blocks B_0..B_{m//2}. B_k acts on the
weights k..m-k, so it has size m-2k+1, and it occurs C(m,k) - C(m,k-1)
times in A; its entry (i, j) is

    sum_t f(i,j,t) beta^t_{i,j,k} / sqrt(C(m-2k,i-k) C(m-2k,j-k)),
    beta^t_{i,j,k} = sum_u (-1)^(u-t) C(u,t) C(m-2k,u-k) C(m-k-u,i-u) C(m-k-u,j-u).

So the spectrum of A, with multiplicities, comes from at most m//2 + 1
matrices of size at most m + 1, with no 2^m matrix at any m.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

import numpy as np

from ..symcomb import johnson_multiplicity

__all__ = ["schrijver_blocks", "block_spectrum"]


def _beta(m: int, i: int, j: int, t: int, k: int) -> int:
    """Schrijver's beta^t_{i,j,k} in exact integers."""
    return sum(
        (-1) ** (u - t)
        * math.comb(u, t)
        * math.comb(m - 2 * k, u - k)
        * math.comb(m - k - u, i - u)
        * math.comb(m - k - u, j - u)
        for u in range(max(t, k), min(i, j) + 1)
    )


def schrijver_blocks(m: int, orbits: Mapping[tuple[int, int, int], float]) -> list[np.ndarray]:
    """The blocks B_0..B_{m//2} of the operator with orbit coefficients
    ``orbits`` (every triple not listed is 0); row r of B_k is weight k + r.

    beta is exact and is only formed for the listed triples. The operator is
    Hermitian iff every f(i, j, t) equals f(j, i, t), which is checked.
    """
    blocks = [np.zeros((m - 2 * k + 1, m - 2 * k + 1)) for k in range(m // 2 + 1)]
    for (i, j, t), f in orbits.items():
        if not (0 <= i <= m and 0 <= j <= m and max(0, i + j - m) <= t <= min(i, j)):
            raise ValueError(f"({i}, {j}, {t}) is no orbit of {m} qubits")
        if orbits.get((j, i, t), 0.0) != f:
            raise ValueError(f"orbit coefficients of ({i}, {j}, {t}) and ({j}, {i}, {t}) differ")
        if i == j == t:
            # f times the weight-i projector: beta = C(m-2k, i-k), so the
            # entry is exactly f
            for k in range(min(i, m - i) + 1):
                blocks[k][i - k, i - k] += f
            continue
        for k in range(min(i, j, m - i, m - j) + 1):
            beta = _beta(m, i, j, t, k)
            norm = math.comb(m - 2 * k, i - k) * math.comb(m - 2 * k, j - k)
            # beta^2 / norm is an exactly rounded int division, so huge
            # binomials never pass through float
            blocks[k][i - k, j - k] += f * math.copysign(math.sqrt(beta * beta / norm), beta)
    return blocks


def block_spectrum(blocks: list[np.ndarray], weights: Iterable[int] | None = None) -> tuple[np.ndarray, list[int]]:
    """Eigenvalues and their multiplicities, from ``eigvalsh`` of each block.

    With ``weights``, only the rows and columns of those weights are kept,
    which gives the spectrum of A on those weight sectors when A couples
    them to no other weight. Multiplicities are exact Python integers.
    """
    m = blocks[0].shape[0] - 1
    keep = sorted(range(m + 1) if weights is None else set(weights))
    values, mults = [], []
    for k, block in enumerate(blocks):
        rows = [w - k for w in keep if k <= w <= m - k]
        if rows:
            vals = np.linalg.eigvalsh(block[np.ix_(rows, rows)])
            values.append(vals)
            mults += [johnson_multiplicity(m, k)] * len(vals)
    return np.concatenate(values), mults
