"""Tests for the initial-weight optimization study."""

from __future__ import annotations

import dataclasses
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import companion_roots, dense_scan_H, minimize_H_eigvals, minimize_H_rowwise, sweep_csv_reference

from aqsense.qopt import (
    ANGLE_EXAMPLES,
    N_MAX,
    AngleExample,
    OptimumReport,
    beta_p0,
    gamma_eta,
    minimize_H,
    objective_H,
    q_landmarks,
    sweep,
    write_sweep_csv,
)
from aqsense.qsv import analytic_spectrum, q_min
from aqsense.sensing import g_minus, g_plus

A = (np.pi / 4, -np.pi / 6)
K = (np.pi / 2, -np.pi / 3)
CSV_FIELDS = ("q_min", "q_beta", "q_G", "q_H", "H_min")
N_MAX_MESSAGE = rf"^n=\d+ exceeds {N_MAX}, the largest n accepted \(C\(2n, n\) leaves float64 range above it\)$"


class TestAngleExamples:
    def test_twelve_labeled_pairs(self):
        assert [ex.label for ex in ANGLE_EXAMPLES] == list("ABCDEFGHIJKL")
        table = {ex.label: (ex.theta_plus, ex.theta_minus) for ex in ANGLE_EXAMPLES}
        assert table["A"] == (np.pi / 4, -np.pi / 6)
        assert table["B"] == (np.pi / 3, -np.pi / 6)
        assert table["C"] == (np.pi / 2, -np.pi / 6)
        assert table["D"] == (2 * np.pi / 3, -np.pi / 6)
        assert table["E"] == (3 * np.pi / 4, -np.pi / 6)
        assert table["F"] == (5 * np.pi / 6, -np.pi / 6)
        assert table["G"] == (np.pi / 3, -np.pi / 4)
        assert table["H"] == (np.pi / 2, -np.pi / 4)
        assert table["I"] == (2 * np.pi / 3, -np.pi / 4)
        assert table["J"] == (3 * np.pi / 4, -np.pi / 4)
        assert table["K"] == (np.pi / 2, -np.pi / 3)
        assert table["L"] == (2 * np.pi / 3, -np.pi / 3)

    def test_angles_inside_sensing_domain(self):
        for ex in ANGLE_EXAMPLES:
            assert 0.0 < ex.theta_plus <= np.pi
            assert -np.pi / 2 <= ex.theta_minus < 0.0

    @pytest.mark.parametrize("label", ["a,b", 'say "A"', "A\n", "A\r", "\r\n"])
    def test_label_the_csv_cannot_hold_rejected(self, label):
        # the sweep CSV writes labels unquoted, so one of these would split
        # or break its row
        with pytest.raises(ValueError, match="comma, quote or line break"):
            AngleExample(label, 1.0, -0.5)

    def test_other_labels_round_trip_the_csv(self, tmp_path):
        examples = [AngleExample(label, 1.0, -0.5) for label in ("x y", "it's", "\u03b8+", "")]
        write_sweep_csv(sweep(3, 3, examples), tmp_path / "s.csv")
        lines = (tmp_path / "s.csv").read_bytes().decode().split("\r\n")
        assert [line.split(",")[1] for line in lines[1:-1]] == [ex.label for ex in examples]
        assert {len(line.split(",")) for line in lines[:-1]} == {9}


class TestGammaEta:
    def test_frozen_example_a(self):
        gamma, eta = gamma_eta(3, *A)
        assert gamma == pytest.approx(1.894096472979752, rel=1e-14)
        assert eta == pytest.approx(0.585786437626905, rel=1e-14)

    def test_boundary_collapse(self):
        gamma, eta = gamma_eta(3, 0.0, 0.0)
        assert gamma == 0.0 and eta == 0.0


class TestLandmarks:
    def test_frozen_n3(self):
        qm, qb, qg = q_landmarks(3, *A)
        assert qm == pytest.approx(1.0 / 11.0, abs=1e-15)
        assert qb == pytest.approx(4.0 / 19.0, abs=1e-15)
        assert qg == pytest.approx(0.3270615100847084, abs=1e-15)

    def test_matches_package_q_min(self):
        for n in (3, 4, 7):
            assert q_landmarks(n, *A)[0] == q_min(n)

    def test_qg_vanishes_with_theta_plus(self):
        assert q_landmarks(3, 0.0, -np.pi / 6)[2] == 0.0

    def test_qg_undefined_where_gamma_and_eta_vanish(self):
        with np.errstate(invalid="ignore"):
            assert np.isnan(q_landmarks(3, 1e-200, -1e-200)[2])

    def test_q_min_below_q_beta(self):
        for n in range(3, 30):
            qm, qb, _ = q_landmarks(n, *A)
            assert qm < qb

    @pytest.mark.parametrize("n, message", [(2, "n must be at least 3, got 2$"), (N_MAX + 1, N_MAX_MESSAGE)])
    def test_n_outside_the_strategy_domain_names_it(self, n, message):
        # q_min refuses n before a binomial past float64 range is turned into a float
        with pytest.raises(ValueError, match=message):
            q_landmarks(n, *A)
        with pytest.raises(ValueError, match=message):
            beta_p0(n, 0.3)


class TestBetaP0:
    def test_frozen_branch_values(self):
        assert beta_p0(3, 0.33) == pytest.approx(0.8312342569269522, abs=1e-15)
        assert beta_p0(3, 0.10) == pytest.approx(0.7473684210526316, abs=1e-15)

    def test_matches_spectrum_on_grid(self):
        for n in (3, 4, 5):
            for q0 in np.linspace(q_min(n) + 1e-9, 0.99, 21):
                expected = analytic_spectrum(n, float(q0), 0.0).beta
                assert beta_p0(n, float(q0)) == pytest.approx(expected, abs=1e-12)

    def test_branches_agree_at_crossing(self):
        n = 3
        c = 20.0
        qb = 4.0 * (n - 1) / (c + 8 * n - 6)
        branch1 = 1 - 1 / (2 * n - 1) - 2 * qb / (2 + (c - 2) * qb)
        branch2 = c * qb / (2 + (c - 2) * qb)
        assert branch1 == pytest.approx(branch2, abs=1e-12)
        assert beta_p0(n, qb) == pytest.approx(branch2, abs=1e-12)

    def test_vectorized_matches_scalar(self):
        qs = np.linspace(0.15, 0.9, 13)
        vec = beta_p0(3, qs)
        assert vec.shape == qs.shape
        for q0, val in zip(qs, vec):
            assert val == beta_p0(3, float(q0))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            beta_p0(3, q_min(3) / 2)
        with pytest.raises(ValueError):
            beta_p0(3, 1.0)
        with pytest.raises(ValueError):
            beta_p0(3, np.array([0.3, 1.2]))
        with pytest.raises(ValueError, match=r"got nan at n = 3"):
            beta_p0(3, np.nan)
        with pytest.raises(ValueError, match=r"got nan at n = 4$"):
            beta_p0(np.array([3, 4]), np.array([0.3, np.nan]))


class TestObjectiveH:
    def test_product_of_the_three_factors(self):
        n, q0 = 3, 0.33
        expected = g_plus(q0) * g_minus(n, q0, *A) * beta_p0(n, q0)
        assert objective_H(n, q0, *A) == pytest.approx(expected, rel=1e-14)

    def test_positive_on_domain(self):
        grid = np.linspace(q_min(3) + 1e-9, 0.999, 500)
        assert np.all(objective_H(3, grid, *A) > 0.0)

    def test_unique_interior_minimum_on_grid(self):
        _, _, qg = q_landmarks(3, *A)
        grid = np.linspace(qg, 1 - 1e-9, 1000)
        vals = objective_H(3, grid, *A)
        interior = [
            i for i in range(1, 999) if vals[i] < vals[i - 1] and vals[i] < vals[i + 1]
        ]
        assert len(interior) == 1

    def test_gplus_beta_product_decreasing(self):
        # on the upper branch the product collapses to C/(2+(C-2)q0)
        n, c = 3, 20.0
        _, qb, _ = q_landmarks(n, *A)
        upper = np.linspace(qb + 1e-6, 0.95, 101)
        prod = g_plus(upper) * beta_p0(n, upper)
        assert np.all(np.diff(prod) < 0.0)
        np.testing.assert_allclose(prod, c / (2 + (c - 2) * upper), rtol=1e-13)
        lower = np.linspace(q_min(n) + 1e-9, qb - 1e-6, 101)
        assert np.all(np.diff(g_plus(lower) * beta_p0(n, lower)) < 0.0)


class TestDickeBoundShape:
    def test_derivative_sign_pattern_around_qg(self):
        # central differences: negative below q_G, zero at q_G, positive above
        for n, angles in [(3, A), (5, K)]:
            _, _, qg = q_landmarks(n, *angles)
            h = 1e-5
            at = (g_minus(n, qg + h, *angles) - g_minus(n, qg - h, *angles)) / (2 * h)
            assert abs(at) < 1e-8
            below = qg - 0.05
            fd = (g_minus(n, below + h, *angles) - g_minus(n, below - h, *angles)) / (2 * h)
            assert fd < 0.0
            above = qg + 0.05
            fd = (g_minus(n, above + h, *angles) - g_minus(n, above - h, *angles)) / (2 * h)
            assert fd > 0.0


class TestMinimize:
    def test_grid_oracle_example_a(self):
        report = minimize_H(3, *A)
        assert abs(report.q_H - 0.54397246497073) < 2e-6
        assert report.H_min == pytest.approx(18.328721550230817, rel=1e-9)

    def test_grid_oracle_example_k(self):
        report = minimize_H(3, *K)
        assert abs(report.q_H - 0.5409546523793785) < 2e-6
        assert report.H_min == pytest.approx(17.485599048061104, rel=1e-9)

    def test_report_invariants(self):
        ns = np.repeat(np.arange(3, N_MAX + 1), len(ANGLE_EXAMPLES))
        count = N_MAX - 2
        theta_plus = np.tile([ex.theta_plus for ex in ANGLE_EXAMPLES], count)
        theta_minus = np.tile([ex.theta_minus for ex in ANGLE_EXAMPLES], count)
        report = minimize_H(ns, theta_plus, theta_minus)
        assert np.all(report.q_min <= report.q_beta)
        assert not report.warned_full_domain.any()
        assert np.all(report.q_H >= report.q_G)
        np.testing.assert_allclose(report.H_min, objective_H(ns, report.q_H, theta_plus, theta_minus),
                                   rtol=1e-12, atol=0)
        assert ns.size <= report.evaluations <= 4 * ns.size

    def test_full_domain_search_flagged(self):
        # a theta+ small enough that q_G drops below q_beta
        report = minimize_H(3, np.pi / 12, -np.pi / 6)
        assert report.q_G < report.q_beta
        assert report.warned_full_domain.item() is True
        assert abs(report.q_H - 0.48063181775312325) < 2e-6

    @pytest.mark.parametrize(
        "n, theta_plus, theta_minus",
        [pytest.param(n, ex.theta_plus, ex.theta_minus, id=f"{ex.label}-n{n}")
         for n in (3, 10, 50) for ex in ANGLE_EXAMPLES if ex.label in "AFL"]
        + [pytest.param(3, np.pi / 12, -np.pi / 6, id="full_domain-n3")],
    )
    def test_matches_dense_scan(self, n, theta_plus, theta_minus):
        report = minimize_H(n, theta_plus, theta_minus)
        lo = report.q_min if report.warned_full_domain else report.q_G
        q_scan, h_scan, spacing = dense_scan_H(n, theta_plus, theta_minus, lo, 1 - 1e-9)
        assert abs(report.q_H - q_scan) <= spacing
        assert report.H_min <= h_scan * (1 + 1e-12)

    @pytest.mark.parametrize(
        "theta_plus, theta_minus",
        [(1.0, 0.0), (4.0, -0.5), (1.0, 0.3), (1.0, -2.0), (np.nan, -0.5), (1.0, np.nan), (np.inf, -0.5)],
    )
    def test_angles_outside_sensing_domain_rejected(self, theta_plus, theta_minus):
        with pytest.raises(ValueError, match="angles must lie"):
            minimize_H(3, theta_plus, theta_minus)
        with pytest.raises(ValueError, match="angles must lie"):
            minimize_H(3, np.array([A[0], theta_plus]), np.array([A[1], theta_minus]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("theta_minus", [-1e-154, -1e-160, -5e-324])
    def test_h_beyond_float64_rejected(self, theta_minus):
        # H grows like 1/theta-^2 and leaves float64 range this close to 0
        with pytest.raises(ValueError, match=r"is not a finite float64 \(largest 1.798e\+308\)"):
            minimize_H(3, 1.0, theta_minus)
        with pytest.raises(ValueError, match=r"n = 4, .* is not a finite float64 \(largest 1.798e\+308\)"):
            minimize_H(np.array([3, 4]), np.array([1.0, 1.0]), np.array([-0.5, theta_minus]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_both_angles_underflowing_refused(self):
        # sin^2 of either angle underflows to 0, so gamma = eta = 0 and q_G = 0/0
        with pytest.raises(ValueError, match=r"^H at n = 3, theta\+ = 1e-200, theta- = -1e-200 is not a finite"):
            minimize_H(3, 1e-200, -1e-200)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_largest_finite_h_is_kept(self):
        report = minimize_H(3, 1.0, -1e-153)
        # exact values (80-digit mpmath): q_H 0.57609458924398762, H_min 5.19563177378689767e306;
        # q_H is the correctly rounded float
        assert (report.q_H, report.H_min) == (0.5760945892439876, 5.195631773786899e306)
        pair = minimize_H(np.array([3, 3]), np.array([1.0, 1.0]), np.array([-1e-153, -0.5]))
        assert (pair.q_H[0], pair.H_min[0]) == (report.q_H, report.H_min)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_small_angles_keep_their_digits(self):
        # H depends on the angles only through their ratio as both go to 0,
        # so angles 1e4 times smaller give the same optimum to O(1e-10); the
        # form 1 - cos(theta+/2) cos(theta-/2) cancels to 0 below ~1e-8 and
        # read H_min 15.46 at q_H 0.614 here
        small, ref = minimize_H(3, 2e-9, -1e-9), minimize_H(3, 2e-5, -1e-5)
        assert small.q_H == pytest.approx(ref.q_H, rel=1e-8)
        assert small.H_min == pytest.approx(ref.H_min, rel=1e-8)
        gamma, eta = gamma_eta(3, 2e-9, -1e-9)
        assert gamma / eta == pytest.approx(np.divide(*gamma_eta(3, 2e-5, -1e-5)), rel=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_q_g_stays_finite_for_a_vanishing_theta_minus(self):
        # the limit of q_G = sqrt(r (1 + r)) - r as theta- -> 0, r = eta/gamma
        # at theta- = 0; sqrt(r (1 + r)) overflowed once r passed ~1e154
        report = minimize_H(N_MAX, 1e-10, -1e-150)
        gamma, eta = gamma_eta(N_MAX, 1e-10, 0.0)
        r = eta / gamma
        assert report.q_G == pytest.approx(math.sqrt(r * (1 + r)) - r, rel=1e-12)
        assert report.q_G <= report.q_H < 1.0 and math.isfinite(report.H_min)

    def test_q_g_closed_form(self):
        for n in (3, 10, N_MAX):
            for tp, tm in (A, K, (3.0, -1.5), (0.01, -0.002)):
                gamma, eta = gamma_eta(n, tp, tm)
                r = eta / gamma
                assert q_landmarks(n, tp, tm)[2] == pytest.approx(math.sqrt(r * (1 + r)) - r, rel=1e-14)

    def test_n_max_is_the_float_range_of_the_central_binomial(self):
        assert np.isfinite(float(math.comb(2 * N_MAX, N_MAX) + 8 * N_MAX))
        with pytest.raises(OverflowError):
            float(math.comb(2 * N_MAX + 2, N_MAX + 1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_runs_to_n_max_without_warnings(self):
        _, _, report = sweep(N_MAX - 3, N_MAX)
        assert all(np.isfinite(getattr(report, key)).all() for key in CSV_FIELDS)
        assert np.all((report.q_G <= report.q_H) & (report.q_H < 1.0))
        with pytest.raises(ValueError, match=f"n={N_MAX + 1} exceeds {N_MAX}, the largest n accepted"):
            minimize_H(N_MAX + 1, *A)
        with pytest.raises(ValueError, match=f"exceeds {N_MAX}, the largest n accepted"):
            sweep(3, N_MAX + 1)

    @pytest.mark.parametrize(
        "n, label", [(n, label) for n in (3, 10, 50, N_MAX) for label in "AFL"]
    )
    def test_matches_decimal_bisection(self, n, label):
        # 50-digit bisection on the sign of H's central-difference slope,
        # with H built from the definitions of g+, g- and the upper branch
        # of beta; the trigonometric values are the float ones
        ex = next(e for e in ANGLE_EXAMPLES if e.label == label)
        report = minimize_H(n, ex.theta_plus, ex.theta_minus)
        with localcontext() as ctx:
            ctx.prec = 50
            d = Decimal
            f = 1 - d(1) / n
            sp, cp = d(math.sin(ex.theta_plus / 2)), d(math.cos(ex.theta_plus / 2))
            sm, cm = d(math.sin(ex.theta_minus / 2)), d(math.cos(ex.theta_minus / 2))
            c = d(math.comb(2 * n, n))

            def h(q):
                q1 = 1 - q
                g_minus_q = 1 / q1 + f * f * sp * sp / (q * q1 * sm * sm) + 2 * f * (1 - cp * cm) / (q1 * sm * sm)
                return (1 / q) * g_minus_q * c * q / (2 + (c - 2) * q)

            def rising(q, step=d("1e-20")):
                return h(q + step) > h(q - step)

            lo, hi = d(float(max(report.q_G, report.q_beta))), 1 - d("1e-6")
            assert not rising(lo) and rising(hi)
            while hi - lo > d("1e-30"):
                mid = (lo + hi) / 2
                lo, hi = (lo, mid) if rising(mid) else (mid, hi)
            q_exact = float((lo + hi) / 2)
        assert abs(report.q_H - q_exact) <= 1e-12 * q_exact

    def test_H_decreasing_below_q_beta(self):
        # backs the docstring proof that no minimum lies on the lower branch
        rng = np.random.default_rng(20260)
        angles = np.column_stack([rng.uniform(0.01, np.pi, 6), rng.uniform(-np.pi / 2, -0.01, 6)])
        for n in range(3, 51):
            grid = np.geomspace(q_min(n), q_landmarks(n, *A)[1], 400)
            for theta_plus, theta_minus in angles:
                assert np.all(np.diff(objective_H(n, grid, theta_plus, theta_minus)) < 0.0), (n, theta_plus)

    def test_hmin_monotone_in_n(self):
        for label in ("A", "H", "L"):
            ex = next(e for e in ANGLE_EXAMPLES if e.label == label)
            values = [
                minimize_H(n, ex.theta_plus, ex.theta_minus).H_min for n in range(3, 9)
            ]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_hmin_angle_orderings(self):
        hmin = {
            ex.label: minimize_H(3, ex.theta_plus, ex.theta_minus).H_min
            for ex in ANGLE_EXAMPLES
        }
        # fixed theta-: H_min grows with theta+
        assert hmin["A"] < hmin["B"] < hmin["C"] < hmin["D"] < hmin["E"] < hmin["F"]
        assert hmin["G"] < hmin["H"] < hmin["I"] < hmin["J"]
        assert hmin["K"] < hmin["L"]
        # fixed theta+: H_min grows with theta- (toward zero)
        assert hmin["C"] > hmin["H"] > hmin["K"]
        assert hmin["D"] > hmin["I"] > hmin["L"]


THETA_PLUS = np.array([ex.theta_plus for ex in ANGLE_EXAMPLES])
THETA_MINUS = np.array([ex.theta_minus for ex in ANGLE_EXAMPLES])
FIELDS = ("q_G", "q_H", "H_min", "warned_full_domain")


def assert_matches_nested_grid(got, oracle):
    """Landmarks exactly; the closed-form minimum at most 1e-13 above the
    grid's best value and within 1e-6 relative of its point."""
    for key in ("q_min", "q_beta", "q_G"):
        assert got[key] == getattr(oracle, key), key
    assert got["H_min"] <= oracle.H_min * (1 + 1e-13)
    assert abs(got["q_H"] - oracle.q_H) <= 1e-6 * got["q_H"]


class TestBatchedSearch:
    def test_sweep_matches_nested_grid_oracle(self):
        ns, examples, report = sweep(3, 50)
        assert report.q_H.shape == (48, len(ANGLE_EXAMPLES))
        for i, n in enumerate(ns):
            for j, ex in enumerate(examples):
                oracle = minimize_H_rowwise(n, ex.theta_plus, ex.theta_minus)
                assert oracle.evaluations == 2048 + 5 * 65
                got = {key: getattr(report, key)[i, j] for key in CSV_FIELDS}
                assert_matches_nested_grid(got, oracle)

    def test_one_call_per_sweep_counts_every_pair(self):
        ns = np.repeat(np.arange(3, 51), len(ANGLE_EXAMPLES))
        report = minimize_H(ns, np.tile(THETA_PLUS, 48), np.tile(THETA_MINUS, 48))
        singles = [minimize_H(n, ex.theta_plus, ex.theta_minus) for n in range(3, 51) for ex in ANGLE_EXAMPLES]
        assert isinstance(report.evaluations, int)
        assert report.evaluations == sum(single.evaluations for single in singles)
        assert ns.size <= report.evaluations <= 4 * ns.size
        for i, single in enumerate(singles):
            for key in FIELDS + ("q_min", "q_beta"):
                assert getattr(report, key)[i] == getattr(single, key)

    @pytest.mark.parametrize(
        "n, theta_plus, theta_minus", [(3, *A), (9, *K), (3, np.pi / 12, -np.pi / 6)]
    )
    def test_scalar_call_is_the_rowwise_report(self, n, theta_plus, theta_minus):
        report = minimize_H(n, theta_plus, theta_minus)
        oracle = minimize_H_rowwise(n, theta_plus, theta_minus)
        assert_matches_nested_grid(dataclasses.asdict(report), oracle)
        assert report.warned_full_domain == oracle.warned_full_domain
        for key in ("q_G", "q_H", "H_min"):
            assert (getattr(report, key).shape, getattr(report, key).dtype) == ((), np.float64), key
        assert (report.warned_full_domain.shape, report.warned_full_domain.dtype) == ((), np.bool_)

    @pytest.mark.parametrize(
        "n, theta_plus, theta_minus, shape",
        [(3, *A, ()), (3, A[0], THETA_MINUS, (12,)), (np.array([[3], [9]]), THETA_PLUS[:4], THETA_MINUS[:4], (2, 4))],
        ids=["scalar", "theta_minus_array", "broadcast"],
    )
    def test_every_pair_field_has_the_broadcast_shape(self, n, theta_plus, theta_minus, shape):
        report = minimize_H(n, theta_plus, theta_minus)
        for key in ("q_min", "q_beta") + FIELDS:
            assert np.shape(getattr(report, key)) == shape, key
        assert type(report.evaluations) is int
        for value in (*gamma_eta(n, theta_plus, theta_minus), *q_landmarks(n, theta_plus, theta_minus)):
            assert (np.shape(value), value.dtype) == (shape, np.float64)
        assert (np.shape(beta_p0(n, np.full(shape, 0.5))), beta_p0(n, 0.5).dtype) == (shape, np.float64)

    def test_domain_errors_name_the_first_bad_pair(self):
        ns = 3 + np.arange(600) % 512
        theta_plus, q0 = np.full(600, 1.0), np.full(600, 0.5)
        theta_plus[[417, 500]] = 3.5
        q0[[417, 500]] = 1.0
        domain = r"^angles must lie in theta\+ in \(0, pi\], theta- in \[-pi/2, 0\), "
        with pytest.raises(ValueError, match=domain + r"got theta\+ = 3.5, theta- = -0.5 at n = 420$") as info:
            minimize_H(ns, theta_plus, -0.5)
        assert len(str(info.value)) < 200
        with pytest.raises(ValueError, match=r"^q0 must lie in \[q_min\(n\), 1\), got 1.0 at n = 420$") as info:
            beta_p0(ns, q0)
        assert len(str(info.value)) < 200

    def test_n_broadcasts_with_the_angles(self):
        report = minimize_H(np.array([[3], [9]]), THETA_PLUS[:4], THETA_MINUS[:4])
        assert report.q_H.shape == report.q_min.shape == (2, 4)
        for row, n in enumerate((3, 9)):
            single = minimize_H(n, THETA_PLUS[:4], THETA_MINUS[:4])
            assert np.all(report.q_min[row] == single.q_min)
            for key in FIELDS:
                assert np.array_equal(getattr(report, key)[row], getattr(single, key)), key

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_n_outside_the_domain_names_the_smallest_bad_n(self):
        with pytest.raises(ValueError, match="^n must be at least 3, got 2$"):
            minimize_H(np.array([3, 2, 600]), 1.0, -0.5)
        with pytest.raises(ValueError, match=f"^n={N_MAX + 1} exceeds"):
            minimize_H(np.array([3, 600, N_MAX + 1]), 1.0, -0.5)
        # the angles are checked first: at (0, 0) the landmarks would form 0/0
        with pytest.raises(ValueError, match="angles must lie"):
            minimize_H(2, 0.0, 0.0)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        n=st.integers(3, 50),
        pairs=st.lists(
            st.tuples(st.floats(0.05, np.pi), st.floats(-np.pi / 2, -0.05)), min_size=1, max_size=6
        ),
    )
    def test_array_call_equals_one_scalar_call_per_pair(self, n, pairs):
        theta_plus, theta_minus = (np.array(side) for side in zip(*pairs))
        report = minimize_H(n, theta_plus, theta_minus)
        singles = [minimize_H(n, tp, tm) for tp, tm in pairs]
        assert report.evaluations == sum(single.evaluations for single in singles)
        for i, single in enumerate(singles):
            for key in FIELDS + ("q_min", "q_beta"):
                assert getattr(report, key)[i] == getattr(single, key), key


def root_grid(seed, size):
    """size pairs over n = 3..N_MAX: half with uniform angles over the
    sensing domain, half log-uniform, theta+ down to 1e-12 and theta- down
    to -1e-150, where some cubics have one real root."""
    rng = np.random.default_rng(seed)
    half = size // 2
    n = rng.integers(3, N_MAX + 1, size)
    theta_plus = np.concatenate([np.pi - rng.uniform(0.0, np.pi, half),
                                 10.0 ** rng.uniform(-12.0, np.log10(np.pi), size - half)])
    theta_minus = -np.concatenate([np.pi / 2 - rng.uniform(0.0, np.pi / 2, half),
                                   10.0 ** rng.uniform(-150.0, np.log10(np.pi / 2), size - half)])
    return n, theta_plus, theta_minus


class TestClosedFormRoots:
    """The closed-form roots against the companion-matrix eigvals route."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_optimum_matches_the_eigvals_route(self):
        n, theta_plus, theta_minus = root_grid(2929, 40_000)
        complex_pair = (companion_roots(n, theta_plus, theta_minus).imag != 0.0).any(axis=1)
        assert 0 < complex_pair.sum() < n.size  # both one and three real roots occur
        got, oracle = minimize_H(n, theta_plus, theta_minus), minimize_H_eigvals(n, theta_plus, theta_minus)
        for key in ("q_H", "H_min"):
            assert np.max(np.abs(getattr(got, key) / getattr(oracle, key) - 1.0)) <= 1e-14, key
        for key in ("q_min", "q_beta", "q_G", "warned_full_domain"):
            assert np.array_equal(getattr(got, key), getattr(oracle, key)), key
        # a near-double root that eigvals returns as a complex pair can add a candidate
        assert n.size <= got.evaluations <= 4 * n.size

    @pytest.mark.parametrize("n_max", [50, N_MAX])
    def test_sweep_counts_the_eigvals_route_candidates(self, n_max):
        ns = np.arange(3, n_max + 1)[:, None]
        got = minimize_H(ns, THETA_PLUS, THETA_MINUS)
        assert got.evaluations == minimize_H_eigvals(ns, THETA_PLUS, THETA_MINUS).evaluations
        assert ns.size * 12 <= got.evaluations <= 4 * ns.size * 12

    def test_sweep_csv_equals_the_eigvals_route(self, tmp_path, monkeypatch):
        write_sweep_csv(sweep(3, N_MAX), tmp_path / "closed_form.csv")
        monkeypatch.setattr("aqsense.qopt.minimize_H", minimize_H_eigvals)
        write_sweep_csv(sweep(3, N_MAX), tmp_path / "eigvals.csv")
        assert (tmp_path / "closed_form.csv").read_bytes() == (tmp_path / "eigvals.csv").read_bytes()


class TestSweep:
    def test_rows_and_determinism(self):
        ns, examples, report = sweep(3, 5)
        assert ns.tolist() == [3, 4, 5]
        assert examples == ANGLE_EXAMPLES
        again = sweep(3, 5)
        assert np.array_equal(again[0], ns) and again[1] == examples
        assert again[2].evaluations == report.evaluations
        for key in ("q_min", "q_beta") + FIELDS:
            assert getattr(report, key).shape == (3, len(ANGLE_EXAMPLES)), key
            assert np.array_equal(getattr(again[2], key), getattr(report, key)), key

    def test_landmarks_increase_with_n(self):
        ns, examples, report = sweep(3, 5)
        assert ns.tolist() == [3, 4, 5]
        assert [ex.label for ex in examples] == list("ABCDEFGHIJKL")
        for key in ("q_G", "q_H", "H_min"):
            assert np.all(np.diff(getattr(report, key), axis=0) > 0), key

    def test_qh_and_qg_orderings_coincide(self):
        _, examples, report = sweep(4, 4)
        labels = np.array([ex.label for ex in examples])
        order_qg, order_qh, order_hm = (
            labels[np.argsort(getattr(report, key)[0], kind="stable")].tolist() for key in ("q_G", "q_H", "H_min")
        )
        assert sorted(order_qg) == sorted("ABCDEFGHIJKL")
        assert order_qg == order_qh
        assert order_hm != order_qg

    def test_subset_of_examples(self):
        subset = tuple(ex for ex in ANGLE_EXAMPLES if ex.label in "KA")[::-1]
        ns, examples, report = sweep(3, 4, subset)
        assert [(n, ex.label) for n in ns for ex in examples] == [(3, "K"), (3, "A"), (4, "K"), (4, "A")]
        for j, ex in enumerate(subset):
            single = minimize_H(ns, ex.theta_plus, ex.theta_minus)
            for key in ("q_min", "q_beta") + FIELDS:
                assert np.array_equal(getattr(report, key)[:, j], getattr(single, key)), key

    def test_zero_pairs_give_an_empty_report(self, tmp_path):
        ns, examples, report = sweep(3, 5, [])
        assert ns.tolist() == [3, 4, 5] and examples == ()
        assert report.evaluations == 0
        for key in ("q_min", "q_beta") + FIELDS:
            assert getattr(report, key).shape == (3, 0), key
        none = np.array([], dtype=int)
        empty = minimize_H(none, [], [])
        assert empty.evaluations == 0 and empty.q_H.shape == (0,)
        assert [x.shape for x in q_landmarks(none, [], [])] == [(0,)] * 3
        assert beta_p0(none, []).shape == (0,)
        write_sweep_csv((ns, examples, report), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == b"n,label,theta_plus,theta_minus,q_min,q_beta,q_G,q_H,H_min\r\n"

    def test_bad_range(self):
        with pytest.raises(ValueError):
            sweep(4, 3)
        with pytest.raises(ValueError):
            sweep(2, 5)

    @pytest.mark.parametrize(
        "n_min, n_max, message",
        [(2, 5, "^n must be at least 3, got 2$"), (3, 600, N_MAX_MESSAGE), (4, 3, "^n_max=3 is below n_min=4$"),
         (2, 600, "^n must be at least 3, got 2$"), (600, 3, N_MAX_MESSAGE)],
    )
    def test_bad_range_names_the_end_outside(self, n_min, n_max, message):
        # n_min is checked first, then the order of the ends, then n_max
        with pytest.raises(ValueError, match=message):
            sweep(n_min, n_max)

    def test_csv_exact_header_and_values(self, tmp_path):
        table = sweep(3, 3)
        _, examples, report = table
        path = tmp_path / "sweep.csv"
        write_sweep_csv(table, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "n,label,theta_plus,theta_minus,q_min,q_beta,q_G,q_H,H_min"
        assert len(lines) == 1 + report.q_H.size
        for j, (line, ex) in enumerate(zip(lines[1:], examples)):
            fields = line.split(",")
            assert len(fields) == 9
            assert int(fields[0]) == 3
            assert fields[1] == ex.label
            values = [ex.theta_plus, ex.theta_minus] + [getattr(report, key)[0, j] for key in CSV_FIELDS]
            for text, value in zip(fields[2:], values):
                assert float(text) == pytest.approx(value, rel=1e-11)

    @staticmethod
    def _hand_made_table():
        """Signed zeros, nan, infinities and extremes in every place the
        writer formats: each example's angles, each n's (q_min, q_beta) and
        each pair's (q_G, q_H, H_min). Label C carries four angle pairs and
        n = 7 four (q_min, q_beta) pairs, among them zeros that compare equal
        but print "-0" and "0", so a writer that keyed a repeated field on its
        value instead of its position would be caught."""
        nan, inf = float("nan"), float("inf")
        examples = (AngleExample("C", 1.5, -0.5), AngleExample("C", 0.0, -0.0), AngleExample("C", -0.0, 0.0),
                    AngleExample("C", 2.5, -0.5), AngleExample("K", nan, -inf), AngleExample("", 1e300, 5e-324))
        ns = np.array([7, 7, 7, 7, 8])
        q_min = np.array([0.1, -0.0, 0.0, 0.15, nan])
        q_beta = np.array([0.2, 0.0, -0.0, 0.2, -inf])
        shape = (ns.size, len(examples))
        specials = np.array([0.3, 0.4, 5.0, nan, inf, -inf, 1e300, -1e-300, 5e-324, -0.0, 0.0, 1 / 3, 1.0])
        found = specials[np.arange(3 * ns.size * len(examples)) % specials.size].reshape(3, *shape)
        report = OptimumReport(
            q_min=np.broadcast_to(q_min[:, None], shape),
            q_beta=np.broadcast_to(q_beta[:, None], shape),
            q_G=found[0],
            q_H=found[1],
            H_min=found[2],
            evaluations=0,
            warned_full_domain=np.zeros(shape, bool),
        )
        return ns, examples, report

    @pytest.mark.parametrize("case", ["3..50", "N_MAX-3..N_MAX", "K,A at 3..4", "hand-made"])
    def test_csv_bytes_equal_csv_writer(self, tmp_path, case):
        table = {
            "3..50": lambda: sweep(3, 50),
            "N_MAX-3..N_MAX": lambda: sweep(N_MAX - 3, N_MAX),
            "K,A at 3..4": lambda: sweep(3, 4, (ANGLE_EXAMPLES[10], ANGLE_EXAMPLES[0])),
            "hand-made": self._hand_made_table,
        }[case]()
        write_sweep_csv(table, tmp_path / "new.csv")
        sweep_csv_reference(table, tmp_path / "reference.csv")
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "reference.csv").read_bytes()
        assert written.endswith(b"\r\n") and written.count(b"\r\n") == 1 + table[2].q_H.size
