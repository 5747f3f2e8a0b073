"""Tests for the Hamming-weight combinatorics layer.

Oracles used here are deliberately independent of the implementation:
Pascal-triangle recurrence for binomials, full enumeration for ranking,
dense numpy diagonalization for Johnson spectra, and brute-force subset
sums for the projector composition identity.
"""

import itertools

import numpy as np
import pytest

from aqsense.symcomb import (
    WeightBasis,
    _weight_indices,
    binom,
    johnson_adjacency,
    johnson_eigenvalue,
    johnson_multiplicity,
)


def sector_projector(num_qubits, qubits, weight):
    """Diagonal 0/1 vector of the projector onto 'the given qubits carry this
    weight', qubit 0 the most significant bit; by popcount of a mask."""
    mask = sum(1 << (num_qubits - 1 - q) for q in qubits)
    return (np.bitwise_count(np.arange(2 ** num_qubits) & mask) == weight).astype(np.int64)


def pascal_binom(m, k):
    """Pascal-triangle oracle, exact integers, no factorials."""
    if k < 0 or k > m:
        return 0
    row = [1]
    for _ in range(m):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def enumerate_weight_class(m, k):
    """All m-bit integers of Hamming weight k in ascending (lexicographic) order."""
    return [x for x in range(2 ** m) if bin(x).count("1") == k]


class TestBinom:
    def test_standard_identity(self):
        assert binom(6, 3) == 20

    def test_boundary(self):
        for m in range(10):
            assert binom(m, 0) == 1

    def test_large_exact(self):
        # frozen from the Pascal-triangle oracle
        assert binom(40, 20) == 137846528820
        assert binom(40, 20) == pascal_binom(40, 20)

    def test_k_above_m_is_zero(self):
        assert binom(3, 5) == 0

    def test_matches_pascal_oracle_grid(self):
        for m in range(0, 16):
            for k in range(0, m + 2):
                assert binom(m, k) == pascal_binom(m, k)


class TestWeightBasis:
    def test_size(self):
        assert WeightBasis(6, 3).indices.size == 20
        assert WeightBasis(4, 2).indices.size == 6

    def test_rank_lexicographic_minimum(self):
        assert WeightBasis(4, 2).indices[0] == 0b0011

    def test_rank_frozen_example(self):
        # full-enumeration oracle: B_{4,2} ascending is
        # 0011, 0101, 0110, 1001, 1010, 1100 -> "1100" sits at index 5
        assert WeightBasis(4, 2).indices[5] == 0b1100

    def test_indices_match_enumeration_oracle(self):
        for m in range(1, 15):
            for k in range(0, m + 1):
                basis = WeightBasis(m, k)
                assert basis.indices.dtype == np.int64
                assert list(basis.indices) == enumerate_weight_class(m, k)


class TestWeightIndices:
    def test_matches_popcount_scan(self):
        # the full 2^m popcount scan that the direct enumeration replaced
        for m in range(0, 17):
            weights = np.bitwise_count(np.arange(1 << m, dtype=np.int64))
            for k in range(0, m + 1):
                got = _weight_indices(m, k)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, np.flatnonzero(weights == k))

    def test_size_is_the_binomial_without_a_full_scan(self):
        # 2^40 integers could not be scanned; C(40, 3) are listed directly
        got = _weight_indices(40, 3)
        assert got.size == binom(40, 3)
        assert np.all(np.diff(got) > 0) and np.all(np.bitwise_count(got) == 3)


class TestJohnsonAdjacency:
    def brute_adjacency(self, m, k):
        idx = enumerate_weight_class(m, k)
        size = len(idx)
        a = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                if bin(idx[i] ^ idx[j]).count("1") == 2:
                    a[i, j] = 1.0
        return a

    def test_matches_bruteforce(self):
        for m, k in [(4, 2), (5, 2), (6, 3), (7, 3)]:
            np.testing.assert_array_equal(johnson_adjacency(m, k), self.brute_adjacency(m, k))

    def test_row_sums_regular(self):
        # J(2n,n) is k(m-k)-regular; for m=6, k=3 the degree is 9
        j = johnson_adjacency(6, 3)
        np.testing.assert_array_equal(j.sum(axis=1), np.full(20, 9.0))

    def test_top_eigenpair_is_uniform_vector(self):
        j = johnson_adjacency(6, 3)
        w, v = np.linalg.eigh(j)
        assert w[-1] == pytest.approx(9.0, abs=1e-10)
        top = v[:, -1]
        uniform = np.full(20, 1 / np.sqrt(20))
        assert abs(abs(top @ uniform) - 1.0) < 1e-10

    def test_j42_spectrum_frozen(self):
        # dense-diagonalization oracle: {4, 0 x3, -2 x2}
        w = np.sort(np.linalg.eigvalsh(johnson_adjacency(4, 2)))
        np.testing.assert_allclose(w, [-2, -2, 0, 0, 0, 4], atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            johnson_adjacency(4, 0)
        with pytest.raises(ValueError):
            johnson_adjacency(4, 4)


class TestJohnsonEigenvalue:
    def test_frozen_values(self):
        assert johnson_eigenvalue(6, 3, 0) == 9
        assert johnson_eigenvalue(4, 2, 1) == 0

    def test_l_zero_is_strict_maximum(self):
        for m in range(2, 11):
            for k in range(1, m):
                lmax = min(k, m - k)
                vals = [johnson_eigenvalue(m, k, l) for l in range(lmax + 1)]
                assert all(vals[0] > v for v in vals[1:])

    def test_l_out_of_range(self):
        with pytest.raises(ValueError):
            johnson_eigenvalue(6, 3, 4)
        with pytest.raises(ValueError):
            johnson_eigenvalue(6, 3, -1)

    def test_full_spectrum_with_multiplicities(self):
        # The multiset {johnson_eigenvalue(m,k,l) x johnson_multiplicity(m,l)}
        # must equal the numeric spectrum of the adjacency matrix.
        for m in range(2, 11):
            for k in range(1, m):
                expected = []
                for l in range(min(k, m - k) + 1):
                    expected += [johnson_eigenvalue(m, k, l)] * johnson_multiplicity(m, l)
                expected = np.sort(np.asarray(expected, dtype=float))
                numeric = np.sort(np.linalg.eigvalsh(johnson_adjacency(m, k)))
                assert expected.shape == numeric.shape
                np.testing.assert_allclose(numeric, expected, atol=1e-10)


class TestSectorProjector:
    def test_weight_zero_two_qubits(self):
        diag = sector_projector(2, (0, 1), 0)
        np.testing.assert_array_equal(diag, [1, 0, 0, 0])

    def test_negative_weight_is_zero_operator(self):
        np.testing.assert_array_equal(sector_projector(3, (0, 1), -1), np.zeros(8, dtype=np.int64))

    def test_projectors_partition_identity(self):
        total = sum(sector_projector(4, (0, 1, 2, 3), w) for w in range(5))
        np.testing.assert_array_equal(total, np.ones(16, dtype=np.int64))

    def test_subset_weights(self):
        # weight of qubits {0, 2} in a 3-qubit register; index bits are
        # big-endian so index 5 = 101 has both of those bits set
        diag = sector_projector(3, (0, 2), 2)
        np.testing.assert_array_equal(diag, [0, 0, 0, 0, 0, 1, 0, 1])

    def test_composition_identity_exact(self):
        # sum over n-subsets R of Z_R^a (x) Z_Rbar^b equals
        # C(a+b, a) * C(V - (a+b), |R| - a) * Z^{a+b}, exactly in integers
        v, r = 6, 3
        family = list(itertools.combinations(range(v), r))
        for a in range(0, r + 1):
            for b in range(0, (v - r) + 1):
                total = np.zeros(2 ** v, dtype=np.int64)
                for subset in family:
                    rest = tuple(q for q in range(v) if q not in subset)
                    total += sector_projector(v, subset, a) * sector_projector(v, rest, b)
                coeff = binom(a + b, a) * binom(v - (a + b), r - a)
                np.testing.assert_array_equal(total, coeff * sector_projector(v, tuple(range(v)), a + b))

    def test_composition_identity_other_sizes(self):
        for v, r in [(4, 2), (5, 2), (8, 4)]:
            family = list(itertools.combinations(range(v), r))
            for a, b in [(0, 0), (1, 1), (r, v - r), (0, 2)]:
                total = np.zeros(2 ** v, dtype=np.int64)
                for subset in family:
                    rest = tuple(q for q in range(v) if q not in subset)
                    total += sector_projector(v, subset, a) * sector_projector(v, rest, b)
                coeff = binom(a + b, a) * binom(v - (a + b), r - a)
                np.testing.assert_array_equal(total, coeff * sector_projector(v, tuple(range(v)), a + b))


class TestContainmentAdjacency:
    def test_brute_force_small(self):
        from aqsense.symcomb import containment_adjacency

        rows = enumerate_weight_class(4, 1)
        cols = enumerate_weight_class(4, 3)
        adj = containment_adjacency(4, 1, 3)
        for r, u in enumerate(rows):
            for c, v in enumerate(cols):
                expected = 1.0 if (u & v) == u else 0.0
                assert adj[r, c] == expected

    def test_degrees(self):
        from aqsense.symcomb import containment_adjacency

        adj = containment_adjacency(6, 2, 4)
        # each weight-2 string extends to C(4,2) weight-4 supersets
        np.testing.assert_array_equal(adj.sum(axis=1), np.full(15, 6.0))
        # each weight-4 string contains C(4,2) weight-2 subsets
        np.testing.assert_array_equal(adj.sum(axis=0), np.full(15, 6.0))

    def test_zero_row_contained_everywhere(self):
        from aqsense.symcomb import containment_adjacency

        adj = containment_adjacency(5, 0, 2)
        np.testing.assert_array_equal(adj, np.ones((1, 10)))

    def test_range_errors(self):
        from aqsense.symcomb import containment_adjacency

        with pytest.raises(ValueError):
            containment_adjacency(4, 2, 2)
        with pytest.raises(ValueError):
            containment_adjacency(4, 3, 1)
