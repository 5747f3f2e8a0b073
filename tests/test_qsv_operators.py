"""Tests for strategy operators: block storage, GHZ-like, Dicke, assembly.

Oracles: full verifier-choice enumeration (oracles.brute_ghz_like_dense),
pair-sum enumeration (oracles.brute_dicke_dense), their average over every
subset (oracles.brute_strategy_dense), dense numpy linear algebra, and the
projection cross-check for the lambda map.
"""

import numpy as np
import pytest

from oracles import (
    X_GATE,
    brute_dicke_dense,
    brute_ghz_like_dense,
    brute_strategy_dense,
    expectation,
    make_dicke,
    make_ghz,
    orbit_operator_dense,
    x_conjugate_dense,
)
from test_qcore import collapse_subset

from aqsense.qcore import make_target
from aqsense.symcomb import binom, johnson_adjacency
from aqsense.qsv import (
    StrategyOperator,
    assemble_strategy_decomposed,
    lambda_map,
    q_min,
)


def in_unit_interval(mat):
    w = np.linalg.eigvalsh(mat)
    return w.min() >= -1e-10 and w.max() <= 1 + 1e-10


class TestLambdaMap:
    def test_boundary_equalizes(self):
        lam0, lam1 = lambda_map(3, q_min(3))
        assert lam0 == pytest.approx(0.5, abs=1e-15)
        assert lam1 == pytest.approx(0.5, abs=1e-15)

    def test_frozen_value(self):
        lam0, lam1 = lambda_map(3, 0.33)
        assert lam0 == pytest.approx(0.8312342569269522, abs=1e-15)
        assert lam0 + lam1 == pytest.approx(1.0, abs=1e-15)

    def test_projection_cross_check(self):
        # measuring the first n qubits of the target all-zero leaves
        # sqrt(lam0)|0^n> + sqrt(lam1)|1^n>
        st = make_target(3, 0.33)
        sub, _ = collapse_subset(st.amps, 6, (0, 1, 2), (0, 0, 0))
        lam0, lam1 = lambda_map(3, 0.33)
        assert abs(sub[0]) ** 2 == pytest.approx(lam0, abs=1e-13)
        assert abs(sub[-1]) ** 2 == pytest.approx(lam1, abs=1e-13)

    def test_q0_to_one(self):
        lam0, _ = lambda_map(3, 1 - 1e-9)
        assert lam0 > 1 - 1e-8

    def test_below_minimum_rejected(self):
        with pytest.raises(ValueError):
            lambda_map(3, q_min(3) - 1e-6)

    def test_q_min_frozen(self):
        assert q_min(3) == pytest.approx(2 / 22, abs=1e-16)


class TestStrategyOperator:
    def make_example(self):
        # small hand-built operator on 3 qubits: sectors 0,1,3 with a 0-3 coupling
        blocks = {
            (0, 0): np.array([[0.5]]),
            (1, 1): 0.25 * np.eye(3),
            (3, 3): np.array([[0.5]]),
            (0, 3): np.array([[0.1]]),
        }
        return StrategyOperator(3, blocks)

    def test_to_dense_hermitian(self):
        op = self.make_example()
        dense = op.to_dense()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-15)
        assert dense[0, 7] == pytest.approx(0.1)
        assert dense[7, 0] == pytest.approx(0.1)

    def test_eigenvalues_match_dense(self):
        # the coupled sectors {0, 3}, the lone sector 1 and the three exact
        # zeros of the unrepresented weight-2 sector
        op = self.make_example()
        parts = [np.linalg.eigvalsh(op.component_matrix(g)) for g in ((0, 3), (1,))]
        full = np.sort(np.concatenate(parts + [np.zeros(3)]))
        dense = np.sort(np.linalg.eigvalsh(op.to_dense()))
        np.testing.assert_allclose(full, dense, atol=1e-12)

    def test_x_conjugate_matches_dense(self):
        # the index-complement oracle against X on every qubit as a matrix
        dense = self.make_example().to_dense()
        x3 = np.kron(np.kron(X_GATE, X_GATE), X_GATE)
        np.testing.assert_allclose(x_conjugate_dense(dense, 3), x3 @ dense @ x3, atol=1e-14)

    def test_bad_block_shape_rejected(self):
        with pytest.raises(ValueError):
            StrategyOperator(3, {(1, 1): np.eye(2)})

    def test_non_hermitian_diagonal_rejected(self):
        bad = np.eye(3) + 0.1 * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ValueError):
            StrategyOperator(3, {(1, 1): bad})


class TestGhzLike:
    @pytest.mark.parametrize("m,p,lam0", [(3, 0.0, 0.7), (3, 0.3, 0.5), (4, 0.2, 0.8312342569269522)])
    def test_matches_protocol_enumeration(self, m, p, lam0):
        # closed form: p + (1-p)lambda_z at weights 0 and m, coupling
        # (1-p)sqrt(lambda0 lambda1) between them, and (1-p)(lambda0 +
        # a(1-2lambda0)/m) on every weight a (which covers 0 and m too)
        lam1 = 1 - lam0
        orbits = {(a, a, a): (1 - p) * (lam0 + a * (1 - 2 * lam0) / m) for a in range(m + 1)}
        orbits[(0, 0, 0)] += p
        orbits[(m, m, m)] += p
        orbits[(0, m, 0)] = orbits[(m, 0, 0)] = (1 - p) * np.sqrt(lam0 * lam1)
        closed = orbit_operator_dense(m, orbits)
        np.testing.assert_allclose(brute_ghz_like_dense(m, p, lam0), closed, atol=1e-13)

    def test_unit_eigenvalue_on_ghz_like_state(self):
        for p in (0.0, 0.4, 0.9):
            lam0 = 0.72
            dense = brute_ghz_like_dense(3, p, lam0)
            v = np.zeros(8, dtype=complex)
            v[0] = np.sqrt(lam0)
            v[7] = np.sqrt(1 - lam0)
            np.testing.assert_allclose(dense @ v, v, atol=1e-13)

    def test_p_one_is_z_test(self):
        dense = brute_ghz_like_dense(3, 1.0, 0.6)
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[7, 7] = 1.0
        np.testing.assert_allclose(dense, expected, atol=1e-15)

    def test_spectrum_closed_form(self):
        m, p, lam0 = 3, 0.2, 0.65
        dense = brute_ghz_like_dense(m, p, lam0)
        expected = [1.0, p]
        for a in range(1, m):
            expected += [(1 - p) * (lam0 + a * (1 - 2 * lam0) / m)] * binom(m, a)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(dense)), np.sort(expected), atol=1e-12)

    def test_eigenvalues_in_unit_interval(self):
        for m, p, lam0 in [(3, 0.0, 0.5), (4, 0.3, 0.9), (5, 0.7, 0.55)]:
            assert in_unit_interval(brute_ghz_like_dense(m, p, lam0))

    def test_x_conjugate_swaps_lambdas(self):
        m, p, lam0 = 3, 0.25, 0.77
        conj = x_conjugate_dense(brute_ghz_like_dense(m, p, lam0), m)
        brute_swapped = brute_ghz_like_dense(m, p, 1 - lam0)
        np.testing.assert_allclose(conj, brute_swapped, atol=1e-13)


class TestDicke:
    @pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)])
    def test_matches_pair_enumeration(self, m, k):
        # closed form over the denominator m(m-1): [m(m-1) - k(m-k)] I + J(m,k)
        # at weight k, C(m-k+1,2) I at weight k-1, C(k+1,2) I at weight k+1,
        # and the containment coupling between weights k-1 and k+1
        orbits = {
            (k, k, k): m * (m - 1) - k * (m - k),
            (k, k, k - 1): 1,
            (k - 1, k - 1, k - 1): binom(m - k + 1, 2),
            (k + 1, k + 1, k + 1): binom(k + 1, 2),
            (k - 1, k + 1, k - 1): 1,
            (k + 1, k - 1, k - 1): 1,
        }
        closed = orbit_operator_dense(m, orbits) / (m * (m - 1))
        np.testing.assert_allclose(brute_dicke_dense(m, k), closed, atol=1e-14)

    def test_unit_eigenvalue_on_dicke_state(self):
        for m, k in [(3, 1), (4, 2), (5, 3)]:
            v = make_dicke(m, k).amps
            np.testing.assert_allclose(brute_dicke_dense(m, k) @ v, v, atol=1e-13)

    def test_eigenvalues_in_unit_interval(self):
        for m in (4, 5, 6):
            for k in range(1, m):
                assert in_unit_interval(brute_dicke_dense(m, k))


class TestAssemble:
    def test_bruteforce_equals_decomposed(self):
        brute = brute_strategy_dense(3, 0.33, 0.0)
        total = sum(o.to_dense() for o in assemble_strategy_decomposed(3, 0.33, 0.0))
        np.testing.assert_allclose(brute, total, atol=1e-13)

    def test_bruteforce_equals_decomposed_nonzero_p(self):
        brute = brute_strategy_dense(3, 0.2, 0.3)
        total = sum(o.to_dense() for o in assemble_strategy_decomposed(3, 0.2, 0.3))
        np.testing.assert_allclose(brute, total, atol=1e-13)

    def test_target_has_unit_acceptance(self):
        omega = brute_strategy_dense(3, 0.33, 0.0)
        st = make_target(3, 0.33)
        assert expectation(st, omega) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(omega @ st.amps, st.amps, atol=1e-12)

    def test_orthogonal_state_eigenvalue(self):
        # sqrt(q1)|GHZ> - sqrt(q0)|D> carries the lower coupled-core eigenvalue
        n, q0, p = 3, 0.33, 0.0
        omega = brute_strategy_dense(n, q0, p)
        lam0, _ = lambda_map(n, q0)
        v = np.sqrt(1 - q0) * make_ghz(6).amps - np.sqrt(q0) * make_dicke(6, 3).amps
        lam_minus = p + lam0 * (1 - p) * (1 - 2 / binom(6, 3))
        assert lam_minus == pytest.approx(0.7481108312342570, abs=1e-13)
        np.testing.assert_allclose(omega @ v, lam_minus * v, atol=1e-12)

    def test_components_annihilate_target(self):
        _, o2, o3 = assemble_strategy_decomposed(3, 0.33, 0.0)
        st = make_target(3, 0.33)
        assert np.max(np.abs(o2.to_dense() @ st.amps)) < 1e-13
        assert np.max(np.abs(o3.to_dense() @ st.amps)) < 1e-13

    def test_pairwise_orthogonal(self):
        o1, o2, o3 = assemble_strategy_decomposed(3, 0.4, 0.1)
        d = [o.to_dense() for o in (o1, o2, o3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.max(np.abs(d[i] @ d[j])) < 1e-13

    def test_omega3_diagonal_coefficients(self):
        n, q0, p = 4, 0.33, 0.0
        lam0, _ = lambda_map(n, q0)
        _, _, o3 = assemble_strategy_decomposed(n, q0, p)
        c = binom(2 * n, n)
        for l in (1, 2):
            coeff = (1 - p) / (n * c) * binom(2 * n - l, n) * (n * lam0 - l * (2 * lam0 - 1))
            block = o3.blocks[(l, l)]
            np.testing.assert_allclose(block, coeff * np.eye(binom(2 * n, l)), atol=1e-14)
            far = o3.blocks[(2 * n - l, 2 * n - l)]
            np.testing.assert_allclose(far, coeff * np.eye(binom(2 * n, l)), atol=1e-14)

    def test_all_eigenvalues_in_unit_interval(self):
        w = np.linalg.eigvalsh(brute_strategy_dense(3, 0.33, 0.0))
        assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
        assert w.max() == pytest.approx(1.0, abs=1e-12)

    def test_johnson_block_structure(self):
        # the weight-n diagonal block of omega1 is b*I + c*J(2n, n)
        n, q0, p = 3, 0.33, 0.0
        lam0, lam1 = lambda_map(n, q0)
        c_big = binom(2 * n, n)
        o1, _, _ = assemble_strategy_decomposed(n, q0, p)
        b = (3 * n - 2) / (2 * (2 * n - 1)) - 2 * (1 - p) * lam0 / c_big
        c = 1 / (2 * n * (2 * n - 1))
        expected = b * np.eye(c_big) + c * johnson_adjacency(2 * n, n)
        np.testing.assert_allclose(o1.blocks[(n, n)], expected, atol=1e-14)

    def test_q0_pre_enforced(self):
        with pytest.raises(ValueError):
            assemble_strategy_decomposed(3, 0.05, 0.0)
