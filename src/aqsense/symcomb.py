"""Exact combinatorics over Hamming-weight classes and the Johnson graph.

Shared by every operator builder in the package.  All basis orderings are
lexicographic over bit strings, which (with the big-endian bit convention
used throughout: qubit 0 is the most significant bit of a basis index)
coincides with ascending integer order.  Fixing one canonical ordering is
what makes brute-force and closed-form operator matrices byte-comparable.

Everything here is pure and reentrant; iterators are independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


def binom(m: int, k: int) -> int:
    """Exact binomial coefficient C(m, k); returns 0 when k > m or k < 0."""
    if m < 0:
        raise ValueError(f"negative population m={m}")
    if k < 0 or k > m:
        return 0
    return math.comb(m, k)


def _weight_indices(m: int, k: int) -> np.ndarray:
    """Ascending array of all m-bit integers with Hamming weight k."""
    if k < 0 or k > m:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(np.bitwise_count(np.arange(1 << m, dtype=np.int64)) == k)


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

    @property
    def size(self) -> int:
        return int(self.indices.size)


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
    return binom(m, l) - binom(m, l - 1)


def sector_projector(num_qubits: int, qubits: tuple[int, ...], weight: int) -> np.ndarray:
    """Diagonal of the projector onto 'the given qubits carry this weight'.

    Returns an integer 0/1 vector of length 2**num_qubits (the operator is
    diagonal in the computational basis).  A negative weight yields the zero
    operator by convention.
    """
    if weight < 0 or weight > len(qubits):
        return np.zeros(2 ** num_qubits, dtype=np.int64)
    idx = np.arange(2 ** num_qubits, dtype=np.int64)
    w = np.zeros(2 ** num_qubits, dtype=np.int64)
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise ValueError(f"qubit {q} outside register of {num_qubits}")
        w += (idx >> (num_qubits - 1 - q)) & 1
    return (w == weight).astype(np.int64)


@dataclass(frozen=True)
class SubsetFamily:
    """All size-`size` subsets of {0..universe-1}, in a fixed deterministic order."""

    universe: int
    size: int

    def __post_init__(self):
        if not 0 <= self.size <= self.universe:
            raise ValueError(f"subset size {self.size} out of range 0..{self.universe}")

    def __iter__(self):
        return itertools.combinations(range(self.universe), self.size)

    def __len__(self) -> int:
        return binom(self.universe, self.size)
