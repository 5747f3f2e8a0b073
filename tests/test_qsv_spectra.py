"""Tests for the closed-form spectral summary against dense diagonalization.

Frozen anchors were evaluated independently (16 digits) before the
implementation; numeric cross-checks diagonalize the assembled sector
blocks directly, and the symmetric blocks behind ``check_numeric`` are
checked against dense matrices built entry by entry.
"""

import dataclasses
import warnings
from fractions import Fraction
from math import comb, ulp

import numpy as np
import pytest

from aqsense.qcore import make_target
from aqsense.symcomb import johnson_eigenvalue, johnson_multiplicity
from aqsense.qsv import (
    SpectralSummary,
    StrategyOperator,
    analytic_spectrum,
    assemble_strategy_decomposed,
    lambda_map,
    q_min,
    spectra,
)
from aqsense.qsv.operators import strategy_orbits
from aqsense.qsv.symmetric import _beta, block_spectrum, schrijver_blocks
from oracles import (
    bipartite_top,
    block_spectrum_per_block,
    make_dicke,
    make_ghz,
    omega3_profile,
    orbit_operator_dense,
    pauli_witness_bound,
    to_dense,
)


class TestFrozenValues:
    def test_branch_a_point(self):
        s = analytic_spectrum(3, 0.33, 0.0)
        assert s.branch == "a"
        assert s.beta == pytest.approx(0.8312342569269522, abs=1e-15)
        assert s.nu == pytest.approx(0.1687657430730478, abs=1e-15)
        assert s.lambda_plus == pytest.approx(1.0, abs=1e-12)
        assert s.lambda_minus == pytest.approx(0.7481108312342570, abs=1e-13)
        assert s.lambda_a == pytest.approx(0.8312342569269522, abs=1e-15)
        assert s.lambda_bc1 == pytest.approx(0.7168765743073047, abs=1e-13)
        assert s.lambda1_omega2 == pytest.approx(0.4779177162048699, abs=1e-13)
        assert s.lambda1_omega3 == pytest.approx(0.3052057094878254, abs=1e-13)

    def test_alpha_plus_closed_form(self):
        s = analytic_spectrum(3, 0.33, 0.0)
        lam0, lam1 = lambda_map(3, 0.33)
        assert s.alpha_plus == pytest.approx(np.sqrt(lam0 / lam1), rel=1e-12)
        assert s.alpha_minus == pytest.approx(-np.sqrt(comb(6, 3) * 0.67 / (2 * 0.33)), rel=1e-12)

    def test_branch_bc1_point(self):
        s = analytic_spectrum(3, 0.10, 0.0)
        assert s.branch == "bc1"
        assert s.beta == pytest.approx(0.7473684210526316, abs=1e-15)

    def test_boundary_branch(self):
        s = analytic_spectrum(3, 4 / 19, 0.0)
        assert s.branch == "boundary"
        assert s.lambda_a == pytest.approx(s.lambda_bc1, abs=1e-12)

    def test_p_one_rejected(self):
        with pytest.raises(ValueError):
            analytic_spectrum(3, 0.33, 1.0)


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SpectralSummary) if f.type == "float"]


class TestSummaryChecks:
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_float_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} is not finite at n=3: float64 range exceeded$"):
            dataclasses.replace(analytic_spectrum(3, 0.33), **{name: value})

    def test_non_finite_omega3_value_refused(self):
        s = analytic_spectrum(4, 0.33)
        for bad in ((s.omega3_values[0], np.nan), (np.inf, s.omega3_values[1])):
            with pytest.raises(ValueError, match="^omega3_values is not finite at n=4"):
                dataclasses.replace(s, omega3_values=bad)

    def test_top_eigenvalue_other_than_one_refused(self):
        with pytest.raises(ValueError, match="^top eigenvalue should be 1"):
            dataclasses.replace(analytic_spectrum(3, 0.33), lambda_plus=1.0 + 1e-8)

    @pytest.mark.parametrize("nu", [0.0, -0.5])
    def test_gap_not_positive_refused(self, nu):
        with pytest.raises(ValueError, match="^spectral gap must be positive"):
            dataclasses.replace(analytic_spectrum(3, 0.33), nu=nu, beta=1.0 - nu)

    def test_gap_other_than_one_minus_beta_refused(self):
        s = analytic_spectrum(3, 0.33)
        with pytest.raises(ValueError, match="^gap must equal 1 - beta$"):
            dataclasses.replace(s, nu=s.nu + 1e-12)


class TestNumericAgreement:
    @pytest.mark.parametrize("n,q0,p", [(3, 0.33, 0.0), (3, 0.10, 0.0), (4, 0.33, 0.3), (4, 0.6, 0.0)])
    def test_residuals_small(self, n, q0, p):
        s = analytic_spectrum(n, q0, p, check_numeric=True)
        assert s.residuals is not None
        for name, value in s.residuals.items():
            assert value < 1e-10, f"residual {name} = {value}"

    def test_omega1_full_spectrum_with_multiplicities(self):
        n, q0, p = 3, 0.33, 0.0
        s = analytic_spectrum(n, q0, p)
        o1, _, _ = assemble_strategy_decomposed(n, q0, p)
        numeric = np.sort(np.linalg.eigvalsh(o1.component_matrix((0, n, 2 * n))))
        expected = [s.lambda_plus, s.lambda_minus, s.lambda_a]
        for l in range(1, n + 1):
            val = s.b + s.c * johnson_eigenvalue(2 * n, n, l)
            expected += [val] * johnson_multiplicity(2 * n, l)
        np.testing.assert_allclose(numeric, np.sort(expected), atol=1e-10)

    def test_theorem1_eigenvectors(self):
        n, q0, p = 3, 0.33, 0.0
        s = analytic_spectrum(n, q0, p)
        o1, _, _ = assemble_strategy_decomposed(n, q0, p)
        m, c_big = 2 * n, comb(2 * n, n)
        ghz = make_ghz(m).amps
        dicke = make_dicke(m, n).amps
        for alpha, lam in [(s.alpha_plus, s.lambda_plus), (s.alpha_minus, s.lambda_minus)]:
            v = alpha * ghz + np.sqrt(c_big / 2) * dicke
            np.testing.assert_allclose(to_dense(o1) @ v, lam * v, atol=1e-9 * np.linalg.norm(v))

    def test_theorem2_eigenvector_expectation_exact(self):
        n, q0, p = 4, 0.33, 0.1
        s = analytic_spectrum(n, q0, p)
        _, o2, _ = assemble_strategy_decomposed(n, q0, p)
        v = (make_dicke(2 * n, n - 1).amps + make_dicke(2 * n, n + 1).amps) / np.sqrt(2)
        assert np.vdot(v, to_dense(o2) @ v).real == pytest.approx(s.lambda1_omega2, abs=1e-13)

    def test_target_is_top_eigenvector(self):
        for n, q0, p in [(3, 0.33, 0.0), (4, 0.5, 0.2)]:
            o1, _, _ = assemble_strategy_decomposed(n, q0, p)
            st = make_target(n, q0)
            np.testing.assert_allclose(to_dense(o1) @ st.amps, st.amps, atol=1e-12)


class TestCheckRoutes:
    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_gram_route_matches_full_bipartite_block(self, n, p):
        _, o2, _ = assemble_strategy_decomposed(n, 0.33, p)
        full = o2.component_matrix((n - 1, n + 1)).astype(np.complex128)
        top = np.linalg.eigvalsh(full)[-1]
        assert bipartite_top(o2, n - 1, n + 1) == pytest.approx(top, abs=1e-12)

    def test_gram_route_rejects_non_scalar_diagonal(self):
        _, o2, _ = assemble_strategy_decomposed(3, 0.33, 0.0)
        blocks = dict(o2.blocks)
        blocks[(2, 2)] = blocks[(2, 2)] + np.diag(np.linspace(0, 1e-3, blocks[(2, 2)].shape[0]))
        with pytest.raises(ValueError):
            bipartite_top(StrategyOperator(6, blocks), 2, 4)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_diagonal_shortcut_matches_eigvalsh(self, n):
        # the remainder is diagonal, so its diagonal is its spectrum
        _, _, o3 = assemble_strategy_decomposed(n, 0.33, 0.2)
        for l in range(1, n - 1):
            mat = o3.component_matrix((l, 2 * n - l))
            diag = np.diagonal(mat)
            assert np.count_nonzero(mat) == np.count_nonzero(diag)
            np.testing.assert_allclose(np.linalg.eigvalsh(mat), np.sort(diag), rtol=0, atol=1e-15)

    def test_real_blocks_stay_real_and_complex_stay_complex(self):
        real = StrategyOperator(2, {(0, 0): [[1]], (1, 1): np.eye(2), (0, 2): [[0.5]], (2, 2): [[1.0]]})
        assert real.dtype == np.float64
        assert all(b.dtype == np.float64 for b in real.blocks.values())
        for mat in (real.component_matrix((0, 2)), to_dense(real)):
            assert mat.dtype == np.float64
        cplx = StrategyOperator(2, {(0, 0): [[1.0]], (0, 2): [[0.5j]], (2, 2): [[1.0]]})
        assert cplx.blocks[(0, 2)].dtype == np.complex128
        for mat in (cplx.component_matrix((0, 2)), to_dense(cplx)):
            assert mat.dtype == np.complex128


def full_spectrum(blocks):
    """Every eigenvalue of the symmetric blocks, repeated by multiplicity;
    block 0 has one row per weight."""
    vals, mults = block_spectrum(blocks, range(len(blocks[0])))
    return np.sort(np.repeat(vals, mults))


def random_orbit_table(m, draw):
    """Any symmetric table on valid triples of m qubits: half of them, with
    coefficients uniform in [-1, 1]."""
    triples = [
        (i, j, t)
        for i in range(m + 1)
        for j in range(i, m + 1)
        for t in range(max(0, i + j - m), min(i, j) + 1)
    ]
    orbits = {}
    for idx in draw.choice(len(triples), size=len(triples) // 2, replace=False):
        i, j, t = triples[idx]
        orbits[(i, j, t)] = orbits[(j, i, t)] = float(draw.uniform(-1, 1))
    return orbits


class TestSymmetricRoute:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    @pytest.mark.parametrize("p", [0.0, 0.3])
    def test_strategy_spectrum_matches_dense_pieces(self, n, p):
        for q0 in (q_min(n), 0.33, 0.9):
            blocks = schrijver_blocks(2 * n, strategy_orbits(n, q0, p))
            o1, o2, o3 = assemble_strategy_decomposed(n, q0, p)
            pieces = [(o1, (0, n, 2 * n)), (o2, (n - 1, n + 1))]
            pieces += [(o3, (l, 2 * n - l)) for l in range(1, n - 1)]
            dense = np.concatenate([np.linalg.eigvalsh(op.component_matrix(g)) for op, g in pieces])
            assert dense.size == 2 ** (2 * n)
            np.testing.assert_allclose(full_spectrum(blocks), np.sort(dense), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
    def test_random_orbit_coefficients_match_entrywise_operator(self, m):
        # independent of the strategy: any symmetric table on valid triples
        orbits = random_orbit_table(m, np.random.default_rng(6000 + m))
        dense = np.linalg.eigvalsh(orbit_operator_dense(m, orbits))
        np.testing.assert_allclose(full_spectrum(schrijver_blocks(m, orbits)), dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_stacked_spectrum_equals_per_block_calls(self, m):
        # the same (value, multiplicity) pairs, bit for bit, as one eigvalsh call per block;
        # {m // 2} keeps one row of every block, {0} rows of block 0 only
        draw = np.random.default_rng(6100 + m)
        blocks = schrijver_blocks(m, random_orbit_table(m, draw))
        subsets = [set(range(m + 1)), {0}, {m // 2}, {0, m // 2, m}]
        subsets += [set(draw.choice(m + 1, size=size, replace=False).tolist()) for size in range(1, m + 2)]
        for weights in subsets:
            got, want = block_spectrum(blocks, weights), block_spectrum_per_block(blocks, weights)
            assert sorted(zip(map(float.hex, got[0].tolist()), got[1])) == sorted(
                zip(map(float.hex, want[0].tolist()), want[1]))

    def test_one_eigvalsh_call_per_block_size(self, monkeypatch):
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        block_spectrum(schrijver_blocks(8, strategy_orbits(4, 0.33, 0.0)), (0, 1, 4, 7, 8))
        # rows kept: 5 of block 0, 3 of block 1 (weights 1, 4, 7), 1 of blocks 2..4 (weight 4)
        assert sorted(shapes) == [(1, 3, 3), (1, 5, 5), (3, 1, 1)]

    @pytest.mark.parametrize("m", range(1, 13))
    def test_weight_projector_beta(self, m):
        # schrijver_blocks enters an orbit (i, i, i) as f on the diagonal
        for i in range(m + 1):
            for k in range(min(i, m - i) + 1):
                assert _beta(m, i, i, i, k) == comb(m - 2 * k, i - k)

    def test_asymmetric_table_rejected(self):
        with pytest.raises(ValueError):
            schrijver_blocks(4, {(1, 3, 1): 0.5})
        with pytest.raises(ValueError):
            schrijver_blocks(4, {(1, 1, 2): 0.5})

    def test_wrong_closed_form_fails_the_check(self, monkeypatch):
        monkeypatch.setattr(spectra, "johnson_eigenvalue", lambda m, k, l: johnson_eigenvalue(m, k, l) + 1)
        s = analytic_spectrum(3, 0.33, 0.0, check_numeric=True)
        assert max(s.residuals.values()) > 1e-9

    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_check_runs_to_n50(self, p):
        for n in (7, 12, 20, 50):
            s = analytic_spectrum(n, 0.33, p, check_numeric=True)
            assert max(s.residuals.values()) <= 1e-12


def exact_gap(n, q0, p):
    """1 - max(lambda_a, lambda_bc1) in exact rational arithmetic."""
    q0, p = Fraction(q0), Fraction(p)
    c_big = comb(2 * n, n)
    lam0 = c_big * q0 / (c_big * q0 + 2 * (1 - q0))
    lambda_a = p + (1 - p) * lam0
    b = Fraction(3 * n - 2, 2 * (2 * n - 1)) - 2 * (1 - p) * lam0 / c_big
    lambda_bc1 = b + Fraction(n * n - 2 * n, 2 * n * (2 * n - 1))
    return 1 - max(lambda_a, lambda_bc1)


def within_ulps_of_sqrt(x, square, ulps):
    """Whether |x| lies within ulps * ulp(x) of sqrt(square), decided on exact squares."""
    x, step = Fraction(abs(x)), ulps * Fraction(ulp(x))
    return (x - step) ** 2 <= square <= (x + step) ** 2


class TestCoreClosedForms:
    @pytest.mark.parametrize("n", [*range(3, 41), 60, 100, 200, 300, 339])
    def test_eigenpairs_within_ulps_of_exact(self, n):
        # alpha_plus^2 = lambda0/lambda1, alpha_minus = -C/(2 alpha_plus) and
        # lambda_minus = 1 - (1-p)(lambda1 + 2 lambda0/C), exact at the given q0 and p
        c_big = comb(2 * n, n)
        for q0 in (0.05, 0.15, 0.33, 0.5, 0.6, 0.9):
            if q0 < q_min(n):
                continue
            q = Fraction(q0)
            lam0 = c_big * q / (c_big * q + 2 * (1 - q))
            plus_sq = lam0 / (1 - lam0)
            for p in (0.0, 0.3, 0.9):
                s = analytic_spectrum(n, q0, p)
                lam_minus = 1 - (1 - Fraction(p)) * (1 - lam0 + 2 * lam0 / c_big)
                assert abs(Fraction(s.lambda_minus) - lam_minus) <= Fraction(ulp(s.lambda_minus)), (q0, p)
                assert s.alpha_plus > 0 > s.alpha_minus
                assert within_ulps_of_sqrt(s.alpha_plus, plus_sq, Fraction(3, 2)), (q0, p)
                assert within_ulps_of_sqrt(s.alpha_minus, Fraction(c_big**2, 4) / plus_sq, Fraction(3, 2)), (q0, p)


class TestLargeN:
    @pytest.mark.parametrize("n", [20, 30, 40, 50])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_gap_matches_exact_rational(self, n, p):
        for q0 in (0.33, 2 * q_min(n)):
            s = analytic_spectrum(n, q0, p)
            exact = exact_gap(n, q0, p)
            assert abs(Fraction(s.nu) - exact) <= Fraction(1, 10 ** 12) * exact
            assert s.nu == pytest.approx(1 - s.beta, abs=1e-15)

    @pytest.mark.parametrize("n", [20, 30, 40, 50, 200, 300])
    @pytest.mark.parametrize("p", [0.0, 0.1])
    def test_core_amplitudes_match_exact_rational(self, n, p):
        # alpha_plus^2 = lambda0/lambda1 = C q0 / (2 q1) and alpha_plus alpha_minus
        # = -C/2, compared through the squares, which are rational; q0 = 0.9
        # > 1/2 gives alpha_plus > -alpha_minus, the other two the reverse
        c_big = comb(2 * n, n)
        for q0 in (0.33, 0.9, 2 * q_min(n)):
            s = analytic_spectrum(n, q0, p)
            plus_sq = c_big * Fraction(q0) / (2 * (1 - Fraction(q0)))
            minus_sq = Fraction(c_big**2, 4) / plus_sq
            assert s.alpha_plus > 0 > s.alpha_minus
            assert abs(Fraction(s.alpha_plus) ** 2 - plus_sq) <= Fraction(2, 10**12) * plus_sq
            assert abs(Fraction(s.alpha_minus) ** 2 - minus_sq) <= Fraction(2, 10**12) * minus_sq

    @pytest.mark.parametrize("n,q0", [(345, 0.33), (400, 0.33)])
    def test_subnormal_core_coupling_rejected(self, n, q0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="smallest normal float64"):
                analytic_spectrum(n, q0, 0.0)

    @pytest.mark.parametrize("q0", [0.0, 1.0, 1.5])
    def test_q0_outside_the_probe_domain_rejected(self, q0):
        # q0 = 1 (GHZ only) lies outside the probe's domain, so it is refused before d = 0 is formed
        with pytest.raises(ValueError, match=f"^q0 must lie strictly between 0 and 1, got {q0}$"):
            analytic_spectrum(3, q0, 0.0)

    def test_lambda1_keeps_its_digits_at_n50(self):
        lam0, lam1 = lambda_map(50, 0.33)
        exact = Fraction(2 * (1 - Fraction(0.33))) / (comb(100, 50) * Fraction(0.33) + 2 * (1 - Fraction(0.33)))
        assert lam0 == 1.0
        assert abs(Fraction(lam1) - exact) <= Fraction(1, 10 ** 14) * exact


class TestOrderings:
    def test_appendix_orderings_grid(self):
        for n in (3, 4, 5):
            for p in (0.0, 0.3):
                for q0 in (q_min(n), 0.2, 0.33, 0.6, 0.9):
                    s = analytic_spectrum(n, q0, p)
                    assert s.lambda1_omega2 < s.lambda_bc1
                    assert s.lambda1_omega2 <= s.lambda_a + 1e-15
                    assert s.lambda1_omega3 < s.lambda_bc1
                    assert s.lambda1_omega3 < s.lambda_a
                    assert s.beta == max(s.lambda_a, s.lambda_bc1)
                    assert s.beta < 1
                    assert s.nu == pytest.approx(1 - s.beta, abs=1e-15)

    def test_gap_maximized_at_p_zero(self):
        for q0 in (0.2, 0.6):
            nu0 = analytic_spectrum(3, q0, 0.0).nu
            for p in np.arange(0.1, 1.0, 0.1):
                assert analytic_spectrum(3, q0, float(p)).nu <= nu0 + 1e-15

    def test_inverse_gap_band_branch_bc1(self):
        # on the bc1 branch the inverse gap stays below 2n - 1
        s = analytic_spectrum(3, 0.10, 0.0)
        assert 1.0 / s.nu < 2 * 3 - 1


class TestOmega3Profile:
    def test_single_entry_for_n3(self):
        prof = omega3_profile(3, 0.33, 0.0)
        assert len(prof) == 1
        assert prof[0] == pytest.approx(0.3052057094878254, abs=1e-13)

    def test_strictly_decreasing(self):
        for n in range(4, 9):
            for q0 in (q_min(n), 0.33, 0.7, 0.95):
                prof = omega3_profile(n, q0, 0.0)
                assert len(prof) == n - 2
                assert all(b < a for a, b in zip(prof, prof[1:]))

    def test_head_matches_summary(self):
        for n in (4, 5):
            s = analytic_spectrum(n, 0.4, 0.2)
            prof = omega3_profile(n, 0.4, 0.2)
            assert prof[0] == pytest.approx(s.lambda1_omega3, abs=1e-15)


class TestWitnessBound:
    def test_frozen_value(self):
        assert pauli_witness_bound(3, 0.33) == pytest.approx(0.2973886346180701, abs=1e-15)

    def test_small_at_edges(self):
        assert pauli_witness_bound(3, 1e-12) < 1e-5
        assert pauli_witness_bound(3, 1 - 1e-12) < 1e-5

    def test_self_check_passes_on_grid(self):
        for n in (3, 4):
            for q0 in (0.1, 0.33, 0.5, 0.9):
                assert pauli_witness_bound(n, q0) > 0

    def test_expectation_dominates_bound(self):
        # independent recomputation of the witness expectation for n=3
        q0 = 0.33
        st = make_target(3, q0).amps
        flip = (2 ** 3 - 1) << 3
        idx = np.arange(64)
        expectation = float(np.real(np.sum(st.conj() * st[idx ^ flip])))
        assert expectation >= pauli_witness_bound(3, q0) - 1e-12
