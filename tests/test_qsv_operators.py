"""Tests for strategy operators: block storage, GHZ-like, Dicke, assembly.

Oracles: full verifier-choice enumeration (oracles.brute_ghz_like_dense),
pair-sum enumeration (oracles.brute_dicke_dense), their average over every
subset (oracles.brute_strategy_dense), dense numpy linear algebra, and the
projection cross-check for the lambda map.
"""

import re
from fractions import Fraction
from math import comb, ulp

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
    to_dense,
    x_conjugate_dense,
)
from test_qcore import collapse_subset

from aqsense.qcore import RngStream, make_target
from aqsense.symcomb import johnson_adjacency
from aqsense.qsv import (
    StrategyOperator,
    VerificationPlan,
    analytic_spectrum,
    assemble_strategy_decomposed,
    lambda_map,
    q_min,
    sample_complexity_terms,
    verify_copy,
)
from aqsense.qsv.operators import N_MAX, strategy_orbits


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

    def test_ghz_only_q0_rejected(self):
        # the probe's domain is 0 < q0 < 1, so lambda_map refuses q0 = 1 like every other check
        with pytest.raises(ValueError, match="^q0 must lie strictly between 0 and 1, got 1.0$"):
            lambda_map(3, 1.0)

    def test_n_range(self):
        # C(2n, n) leaves float64 range above N_MAX, so q_min and the map do too
        lam0, lam1 = lambda_map(N_MAX, 0.33)
        assert 0.5 <= lam0 <= 1.0 and 0.0 < lam1
        for n in (N_MAX + 1, 600):
            with pytest.raises(ValueError, match=f"n={n} exceeds {N_MAX}, the largest n accepted"):
                lambda_map(n, 0.33)
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            lambda_map(2, 0.33)

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
        dense = to_dense(op)
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-15)
        assert dense[0, 7] == pytest.approx(0.1)
        assert dense[7, 0] == pytest.approx(0.1)

    def test_eigenvalues_match_dense(self):
        # the coupled sectors {0, 3}, the lone sector 1 and the three exact
        # zeros of the unrepresented weight-2 sector
        op = self.make_example()
        parts = [np.linalg.eigvalsh(op.component_matrix(g)) for g in ((0, 3), (1,))]
        full = np.sort(np.concatenate(parts + [np.zeros(3)]))
        dense = np.sort(np.linalg.eigvalsh(to_dense(op)))
        np.testing.assert_allclose(full, dense, atol=1e-12)

    def test_x_conjugate_matches_dense(self):
        # the index-complement oracle against X on every qubit as a matrix
        dense = to_dense(self.make_example())
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
            expected += [(1 - p) * (lam0 + a * (1 - 2 * lam0) / m)] * comb(m, a)
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
            (k - 1, k - 1, k - 1): comb(m - k + 1, 2),
            (k + 1, k + 1, k + 1): comb(k + 1, 2),
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
        total = sum(to_dense(o) for o in assemble_strategy_decomposed(3, 0.33, 0.0))
        np.testing.assert_allclose(brute, total, atol=1e-13)

    def test_bruteforce_equals_decomposed_nonzero_p(self):
        brute = brute_strategy_dense(3, 0.2, 0.3)
        total = sum(to_dense(o) for o in assemble_strategy_decomposed(3, 0.2, 0.3))
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
        lam_minus = p + lam0 * (1 - p) * (1 - 2 / comb(6, 3))
        assert lam_minus == pytest.approx(0.7481108312342570, abs=1e-13)
        np.testing.assert_allclose(omega @ v, lam_minus * v, atol=1e-12)

    def test_components_annihilate_target(self):
        _, o2, o3 = assemble_strategy_decomposed(3, 0.33, 0.0)
        st = make_target(3, 0.33)
        assert np.max(np.abs(to_dense(o2) @ st.amps)) < 1e-13
        assert np.max(np.abs(to_dense(o3) @ st.amps)) < 1e-13

    def test_pairwise_orthogonal(self):
        o1, o2, o3 = assemble_strategy_decomposed(3, 0.4, 0.1)
        d = [to_dense(o) for o in (o1, o2, o3)]
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert np.max(np.abs(d[i] @ d[j])) < 1e-13

    def test_omega3_diagonal_coefficients(self):
        n, q0, p = 4, 0.33, 0.0
        lam0, _ = lambda_map(n, q0)
        _, _, o3 = assemble_strategy_decomposed(n, q0, p)
        c = comb(2 * n, n)
        for l in (1, 2):
            coeff = (1 - p) / (n * c) * comb(2 * n - l, n) * (n * lam0 - l * (2 * lam0 - 1))
            block = o3.blocks[(l, l)]
            np.testing.assert_allclose(block, coeff * np.eye(comb(2 * n, l)), atol=1e-14)
            far = o3.blocks[(2 * n - l, 2 * n - l)]
            np.testing.assert_allclose(far, coeff * np.eye(comb(2 * n, l)), atol=1e-14)

    def test_omega3_orbits_match_exact_rational_to_n_max(self):
        # n C(2n, n) passes float64 range from n = 511; the exact value of the
        # same formula at the returned lambda0, within 8e-16 relative times the
        # condition number of its bracket n lambda0 - l(2 lambda0 - 1)
        p = 0.3
        for n in range(3, N_MAX + 1):
            orbits = strategy_orbits(n, 0.33, p)
            lam0 = Fraction(lambda_map(n, 0.33)[0])
            for l in {1, 2, n // 2, n - 3, n - 2} & set(range(1, n - 1)):
                bracket = n * lam0 - l * (2 * lam0 - 1)
                exact = (1 - Fraction(p)) * comb(2 * n - l, n) * bracket / (n * comb(2 * n, n))
                kappa = (n * lam0 + l * (2 * lam0 - 1)) / bracket
                assert orbits[(l, l, l)] == orbits[(2 * n - l, 2 * n - l, 2 * n - l)]
                assert abs(Fraction(orbits[(l, l, l)]) - exact) <= Fraction(8, 10**16) * kappa * exact, (n, l)

    def test_omega3_orbits_within_4_ulp_of_exact(self):
        # the exact value at the float q0 and p, lambda0 and lambda1 formed in
        # fractions; the bracket (n-l) lambda0 + l lambda1 has positive terms only
        for n in (*range(3, 41), 60, 100):
            c_big = comb(2 * n, n)
            for q0 in (0.05, 0.15, 0.33, 0.5, 0.6, 0.9):
                if q0 < q_min(n):
                    continue
                denom = c_big * Fraction(q0) + 2 * (1 - Fraction(q0))
                lam0, lam1 = c_big * Fraction(q0) / denom, 2 * (1 - Fraction(q0)) / denom
                for p in (0.0, 0.3, 0.9):
                    orbits = strategy_orbits(n, q0, p)
                    for l in range(1, n - 1):
                        exact = (1 - Fraction(p)) * comb(2 * n - l, n) * ((n - l) * lam0 + l * lam1) / (n * c_big)
                        ulps = abs(Fraction(orbits[(l, l, l)]) - exact) / Fraction(ulp(float(exact)))
                        assert ulps <= 4, (n, q0, p, l, float(ulps))

    @pytest.mark.parametrize("p", [-0.5, 1.0, 1.5, float("nan")])
    def test_p_outside_unit_interval_rejected(self, p):
        # one check of p for every strategy computation, reported ahead of the (n, q0) check
        copy = make_target(3, 0.33)
        builds = (strategy_orbits, assemble_strategy_decomposed, analytic_spectrum,
                  lambda n, q0, p: sample_complexity_terms(n, q0, 0.1, 0.01, p),
                  lambda n, q0, p: VerificationPlan(n, q0, 0.1, 0.01, p),
                  lambda n, q0, p: verify_copy(copy, n, q0, p, RngStream(1).gen))
        message = "^" + re.escape(f"p must lie in [0, 1), got {p}") + "$"
        for build in builds:
            for n, q0 in ((3, 0.33), (2, 0.01)):
                with pytest.raises(ValueError, match=message):
                    build(n, q0, p)

    def test_all_eigenvalues_in_unit_interval(self):
        w = np.linalg.eigvalsh(brute_strategy_dense(3, 0.33, 0.0))
        assert w.min() >= -1e-10 and w.max() <= 1 + 1e-10
        assert w.max() == pytest.approx(1.0, abs=1e-12)

    def test_johnson_block_structure(self):
        # the weight-n diagonal block of omega1 is b*I + c*J(2n, n)
        n, q0, p = 3, 0.33, 0.0
        lam0, lam1 = lambda_map(n, q0)
        c_big = comb(2 * n, n)
        o1, _, _ = assemble_strategy_decomposed(n, q0, p)
        b = (3 * n - 2) / (2 * (2 * n - 1)) - 2 * (1 - p) * lam0 / c_big
        c = 1 / (2 * n * (2 * n - 1))
        expected = b * np.eye(c_big) + c * johnson_adjacency(2 * n, n)
        np.testing.assert_allclose(o1.blocks[(n, n)], expected, atol=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("q0,p", [(0.33, 0.0), (0.2, 0.3)])
    def test_pieces_lay_out_the_orbit_table_exactly(self, n, q0, p):
        # the pieces sum to the entrywise table operator bit for bit, and each
        # table entry (i <= j) sits in one piece, whose sectors hold i and j
        m = 2 * n
        orbits = strategy_orbits(n, q0, p)
        pieces = assemble_strategy_decomposed(n, q0, p)
        assert np.array_equal(sum(to_dense(piece) for piece in pieces), orbit_operator_dense(m, orbits))
        groups = [{0, n, m}, {n - 1, n + 1}, set(range(1, m)) - {n - 1, n, n + 1}]
        for i, j, t in orbits:
            if i <= j:
                holders = [k for k, piece in enumerate(pieces) if (i, j) in piece.blocks]
                assert len(holders) == 1 and {i, j} <= groups[holders[0]], (i, j, t, holders)

    def test_q0_pre_enforced(self):
        with pytest.raises(ValueError):
            assemble_strategy_decomposed(3, 0.05, 0.0)
