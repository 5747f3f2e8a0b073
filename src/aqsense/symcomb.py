"""Hamming-weight bases and the Johnson graph; binomials are ``math.comb``.

Shared by every operator builder in the package.  All basis orderings are
lexicographic over bit strings, which (with the big-endian bit convention
used throughout: qubit 0 is the most significant bit of a basis index)
coincides with ascending integer order.  Fixing one canonical ordering is
what makes brute-force and closed-form operator matrices byte-comparable.

Everything here is pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def _weight_indices(m: int, k: int) -> np.ndarray:
    """Ascending array of all m-bit integers with Hamming weight k, 0 <= k <= m.

    The m bits split into a high part of m - m//2 bits and a low part of
    m//2 bits. Each high part h of weight w is followed, in ascending
    order, by the low parts of weight k - w; popcount scans of the two
    halves (about 2^(m/2) integers each) list both, so the work and memory
    are O(C(m, k) + 2^(m/2)) and nothing of size 2^m is made.
    """
    low_bits = m // 2
    high = np.arange(1 << (m - low_bits), dtype=np.int64)
    low_weight = np.bitwise_count(np.arange(1 << low_bits, dtype=np.int64))
    # the low parts sorted by weight (ascending within a weight), and where
    # each weight's block starts
    by_weight = np.argsort(low_weight, kind="stable")
    first = np.searchsorted(low_weight[by_weight], np.arange(low_bits + 2))
    need = k - np.bitwise_count(high).astype(np.int64)
    keep = (need >= 0) & (need <= low_bits)
    high, need = high[keep], need[keep]
    counts = first[need + 1] - first[need]
    ends = np.cumsum(counts)
    # position in by_weight of every output entry: its block start plus its rank in the block
    at = np.arange(ends[-1])
    at += np.repeat(first[need] - ends + counts, counts)
    out = np.repeat(high << low_bits, counts)
    out += by_weight[at]
    return out


@dataclass(frozen=True)
class WeightBasis:
    """The set B_{m,k} of m-bit strings with Hamming weight k.

    ``indices`` lists the elements as integers (big-endian bit strings) in
    lexicographic order, so an element's rank in 0..C(m,k)-1 is its
    position there.
    """

    m: int
    k: int
    indices: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m <= 0:
            raise ValueError(f"qubit count must be positive, got {self.m}")
        if not 0 <= self.k <= self.m:
            raise ValueError(f"weight k={self.k} out of range 0..{self.m}")
        object.__setattr__(self, "indices", _weight_indices(self.m, self.k))


def johnson_adjacency(m: int, k: int) -> np.ndarray:
    """Adjacency matrix of the Johnson graph on B_{m,k}.

    Entry (u, v) is 1 iff u xor v has Hamming weight 2, i.e. u and v share
    exactly k-1 ones.  Basis order is the canonical lexicographic one.
    """
    if not 1 <= k <= m - 1:
        raise ValueError(f"k={k} out of range 1..{m - 1}")
    idx = _weight_indices(m, k)
    return (np.bitwise_count(idx[:, None] & idx[None, :]) == k - 1).astype(np.float64)


def containment_adjacency(m: int, j: int, k: int) -> np.ndarray:
    """0/1 matrix over B_{m,j} x B_{m,k} marking the pairs with u subset v.

    Rows are weight-j strings, columns weight-k strings, both in canonical
    lexicographic order; entry 1 iff every one-bit of u is also set in v.
    """
    if not 0 <= j < k <= m:
        raise ValueError(f"need 0 <= j < k <= m, got j={j}, k={k}, m={m}")
    rows, cols = _weight_indices(m, j), _weight_indices(m, k)
    return (np.bitwise_count(rows[:, None] & cols[None, :]) == j).astype(np.float64)


def johnson_eigenvalue(m: int, k: int, l: int) -> float:
    """The (l+1)-th largest Johnson-graph eigenvalue k(m-k) - l(m+1-l)."""
    if not 0 <= l <= min(k, m - k):
        raise ValueError(f"l={l} out of range 0..{min(k, m - k)}")
    return float(k * (m - k) - l * (m + 1 - l))


def johnson_multiplicity(m: int, l: int) -> int:
    """Multiplicity C(m,l) - C(m,l-1) of the (l+1)-th largest eigenvalue."""
    return math.comb(m, l) - (math.comb(m, l - 1) if l else 0)
