"""Tests for sample-complexity formulas and the failure bound."""

import math

import numpy as np
import pytest

from aqsense.qsv import (
    analytic_spectrum,
    exact_sample_bound,
    failure_bound,
    q_min,
    sample_complexity,
    sample_complexity_terms,
)
from aqsense.qsv.operators import N_MAX


class TestSampleComplexity:
    def test_frozen_terms(self):
        t1, t2 = sample_complexity_terms(3, 0.33, 0.1, 0.01)
        assert (t1, t2) == (231, 283)
        assert sample_complexity(3, 0.33, 0.1, 0.01) == 283

    def test_term_one_independent_arithmetic(self):
        # (2n-1) ln(1/delta) / eps, ceiled, recomputed here from scratch
        n, eps, delta = 3, 0.1, 0.01
        t1, _ = sample_complexity_terms(n, 0.33, eps, delta)
        assert t1 == int(np.ceil((2 * n - 1) * np.log(1 / delta) / eps))

    def test_term_two_independent_arithmetic(self):
        n, q0, eps, delta = 3, 0.33, 0.1, 0.01
        _, t2 = sample_complexity_terms(n, q0, eps, delta)
        factor = q0 * 4.0 ** n / (2 * (1 - q0) * np.sqrt(np.pi * n)) + 1
        assert t2 == int(np.ceil(factor * np.log(1 / delta) / eps))

    def test_term_two_unchanged_up_to_the_float64_edge(self):
        # 4^n is formed as two factors of 2^n; wherever 4.0 ** n and the term
        # stay finite the value is the one the single power gives
        draw = np.random.default_rng(8)
        for n in [*range(3, 40), *range(500, 512)]:
            for q0 in (0.33, q_min(n), *draw.uniform(0.01, 0.99, size=4).tolist()):
                factor = q0 * 4.0 ** n / (2 * (1 - q0) * math.sqrt(math.pi * n)) + 1.0
                term = factor * (math.log(1 / 0.01) / 0.1) / (1 - 0.2)
                if math.isinf(term):
                    with pytest.raises(ValueError, match=f"the copy count at n={n} leaves float64 range"):
                        sample_complexity_terms(n, q0, 0.1, 0.01, 0.2)
                else:
                    assert sample_complexity_terms(n, q0, 0.1, 0.01, 0.2)[1] == math.ceil(term)

    def test_n_range(self):
        assert sample_complexity_terms(512, 0.33, 0.1, 0.01)[1] > 1e307
        with pytest.raises(ValueError, match="the copy count at n=513 leaves float64 range"):
            sample_complexity_terms(513, 0.33, 0.1, 0.01)
        with pytest.raises(ValueError, match=f"n=520 exceeds {N_MAX}, the largest n accepted"):
            sample_complexity_terms(520, 0.33, 0.1, 0.01)
        with pytest.raises(ValueError, match="n must be at least 3, got 2"):
            sample_complexity_terms(2, 0.33, 0.1, 0.01)

    def test_q0_below_q_min_rejected(self):
        # the verification bound of lambda_map, so complexity refuses what verify refuses
        assert sample_complexity_terms(3, q_min(3), 0.1, 0.01) == (231, 95)
        with pytest.raises(ValueError, match=f"^q0=0.001 below the admissible minimum {q_min(3)}$"):
            sample_complexity_terms(3, 0.001, 0.1, 0.01)

    def test_delta_near_one(self):
        assert sample_complexity(3, 0.33, 0.5, 1 - 1e-12) <= 1

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ValueError):
            sample_complexity(3, 0.33, 0.0, 0.01)
        with pytest.raises(ValueError):
            sample_complexity(3, 0.33, 1.5, 0.01)
        with pytest.raises(ValueError):
            sample_complexity(3, 0.33, 0.1, 0.0)
        with pytest.raises(ValueError):
            sample_complexity(3, 0.33, 0.1, 1.0)

    def test_exact_bound_never_exceeds_formula(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            q0 = float(rng.uniform(q_min(n), 0.95))
            eps = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(0.001, 0.5))
            p = float(rng.choice([0.0, rng.uniform(0.0, 0.9)]))
            nu = analytic_spectrum(n, q0, p).nu
            m_formula = sample_complexity(n, q0, eps, delta, p=p)
            assert exact_sample_bound(nu, eps, delta) <= m_formula

    def test_p_zero_default_matches_explicit(self):
        assert sample_complexity(3, 0.33, 0.1, 0.01) == sample_complexity(3, 0.33, 0.1, 0.01, p=0.0)


class TestExactBound:
    def test_frozen_example(self):
        nu = analytic_spectrum(3, 0.33, 0.0).nu
        assert exact_sample_bound(nu, 0.67, 0.01) == 39

    def test_full_gap_needs_zero_copies_domain(self):
        assert exact_sample_bound(1.0, 1.0, 0.5) == 0

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            exact_sample_bound(0.0, 0.5, 0.01)

    @pytest.mark.parametrize("x", [1e-16, 1e-20])
    def test_tiny_gap_keeps_its_digits(self, x):
        # ln(1 - x) = -x - x^2/2 - x^3/3 to float precision for x <= 1e-6;
        # 1 - x rounds to 1 here, which a plain log turns into 0 or a 10 % error
        series = math.log(0.01) / (-x - x * x / 2 - x ** 3 / 3)
        assert exact_sample_bound(x, 1.0, 0.01) == pytest.approx(series, rel=1e-15)

    def test_paper_gap_count_finite_and_below_the_formula(self):
        # the gap falls like 4^-n, so nu * epsilon passes 1e-17 from n = 28
        for n in range(3, 344):
            copies = exact_sample_bound(analytic_spectrum(n, 0.33).nu, 0.1, 0.01)
            assert 0 < copies <= sample_complexity(n, 0.33, 0.1, 0.01), n


class TestFailureBound:
    def test_trivials(self):
        assert failure_bound(0.5, 0.5, 0) == 1.0
        assert failure_bound(1.0, 1.0, 5) == 0.0

    def test_frozen_value(self):
        nu = analytic_spectrum(3, 0.33, 0.0).nu
        assert failure_bound(nu, 0.67, 10) == pytest.approx(3.0121633873169329e-01, rel=1e-12)

    def test_tiny_gap_many_copies(self):
        # (1 - 1e-17)^(1e17) is about e^-1, while 1 - 1e-17 rounds to 1
        assert failure_bound(1e-17, 1.0, 10 ** 17) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            failure_bound(2.0, 1.0, 3)
        with pytest.raises(ValueError):
            failure_bound(0.5, 0.5, -1)
