"""Tests for the sensing protocol: POVM, probabilities, estimators, bounds.

Independent oracles:
  * dense-operator expectation values vs the fast inner-product path,
  * the law by evolution on the kets' supports, and the dense 2^(2n)
    evolution route for it, against the closed form the sampler draws from,
  * a finite-difference Fisher-information matrix of the 4-outcome
    multinomial, inverted, as the oracle for the sensitivity bounds,
  * frozen hand-evaluated probability values.
"""

import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsense.qcore import SUPPORT_BYTES_LIMIT, PureState, RngStream
from aqsense.sensing import (
    OutcomeDistribution,
    Povm,
    SensitivityBound,
    SensingScenario,
    analytic_probs,
    anonymity_audit,
    check_support_budget,
    estimate_angles,
    g_minus,
    g_plus,
    placement_probabilities,
    sample_run,
    sensitivity_bounds,
    _support_bytes,
)
from oracles import (
    DenseKetPovm,
    build_povm,
    dense_kets,
    expectation,
    make_dicke,
    make_ghz,
    placement_probabilities_by_evolution,
    placement_probabilities_float64,
    simulate_probs,
    simulate_probs_dense,
    validate_povm,
)

# (omega_a, omega_b, t) settings at which the placement law is checked
PLACEMENT_SETTINGS = ((0.3, 0.7, 1.0), (1.1, 0.2, 0.9), (0.05, 1.5, 2.0))

# theta+ = pi/2 and theta- = -pi/6 at t = 1: omega1,2 = (theta+ +- theta-) / 2t
SCENARIO = SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=(np.pi / 2 - np.pi / 6) / 2,
                           omega2=(np.pi / 2 + np.pi / 6) / 2, t=1.0)


def fisher_inverse(n, q0, theta_plus, theta_minus, h=1e-6):
    """Finite-difference Fisher information of the outcome distribution with
    respect to (theta_plus, theta_minus), inverted. Oracle for the bounds.
    """

    def probs(tp, tm):
        d = analytic_probs(n, q0, tp, tm)
        return np.array([d.p1, d.p2, d.p3, d.p4])

    p0 = probs(theta_plus, theta_minus)
    dp_dtp = (probs(theta_plus + h, theta_minus) - probs(theta_plus - h, theta_minus)) / (2 * h)
    dp_dtm = (probs(theta_plus, theta_minus + h) - probs(theta_plus, theta_minus - h)) / (2 * h)
    grads = np.stack([dp_dtp, dp_dtm])
    info = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            info[j, k] = np.sum(grads[j] * grads[k] / p0)
    return np.linalg.inv(info)


def dense_elements(povm):
    """The four POVM elements as dense matrices, built from the kets."""
    projs = [np.outer(k, k.conj()) for k in dense_kets(povm)]
    projs.append(np.eye(projs[0].shape[0]) - sum(projs))
    return projs


class TestPovm:
    def test_completeness(self):
        total = sum(dense_elements(build_povm(3)))
        np.testing.assert_allclose(total, np.eye(64), atol=1e-12)

    def test_e2_orthogonal_to_ghz(self):
        e2 = dense_elements(build_povm(3))[1]
        assert expectation(make_ghz(6), e2) == pytest.approx(0.0, abs=1e-14)

    def test_e4_positive(self):
        e4 = dense_elements(build_povm(3))[3]
        assert np.linalg.eigvalsh(e4).min() >= -1e-12

    def test_first_three_rank_one(self):
        for op in dense_elements(build_povm(3))[:3]:
            assert np.trace(op).real == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(op @ op, op, atol=1e-12)

    def test_fast_probabilities_match_operators(self):
        povm = build_povm(3)
        rng = np.random.default_rng(4)
        amps = rng.normal(size=64) + 1j * rng.normal(size=64)
        st = PureState(6, amps / np.linalg.norm(amps))
        fast = povm.probabilities(st)
        dense = np.array([expectation(st, op) for op in dense_elements(povm)])
        np.testing.assert_allclose(fast, dense, atol=1e-13)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_kets_kept_on_their_supports(self, n):
        m = 2 * n
        povm = build_povm(n)
        weight_n = np.flatnonzero(np.bitwise_count(np.arange(1 << m)) == n)
        assert [idx.tolist() for idx, _ in povm.kets] == [[0, (1 << m) - 1]] * 2 + [weight_n.tolist()]
        dense = [make_ghz(m).amps, make_ghz(m).amps * np.where(np.arange(1 << m) == (1 << m) - 1, -1, 1),
                 make_dicke(m, n).amps]
        for (idx, amps), ket in zip(povm.kets, dense):
            assert amps.dtype == np.complex128
            np.testing.assert_array_equal(amps, ket[idx])
            np.testing.assert_array_equal(np.delete(ket, idx), 0.0)

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            build_povm(2)

    def test_non_orthonormal_kets_rejected(self):
        # |GHZ+> and |0...0> overlap, so I minus the projectors is not positive
        ghz, zero = make_ghz(6).amps, np.eye(64)[0]
        with pytest.raises(ValueError, match="orthonormal"):
            validate_povm(DenseKetPovm(3, (ghz, zero, dense_kets(build_povm(3))[2])))


class TestAnalyticProbs:
    def test_zero_angles(self):
        d = analytic_probs(3, 0.33, 0.0, 0.0)
        np.testing.assert_allclose([d.p1, d.p2, d.p3, d.p4], [0.33, 0, 0.67, 0], atol=1e-15)

    def test_frozen_pi_zero(self):
        d = analytic_probs(3, 0.33, np.pi, 0.0)
        assert d.p1 == pytest.approx(0.0, abs=1e-15)
        assert d.p2 == pytest.approx(0.33, abs=1e-15)
        assert d.p3 == pytest.approx(0.2412, abs=1e-15)
        assert d.p4 == pytest.approx(0.4288, abs=1e-15)

    def test_ghz_only_initial_state(self):
        # at q0 = 1 the Dicke component vanishes and the second angle is gone
        for tp, tm in [(0.3, -0.2), (np.pi / 2, -np.pi / 6), (2.0, -1.0)]:
            d = analytic_probs(3, 1.0, tp, tm)
            assert d.p3 == 0.0
            assert d.p4 == 0.0

    def test_normalization_grid(self):
        tps = np.linspace(1e-3, np.pi, 50)
        tms = np.linspace(-np.pi / 2, -1e-3, 50)
        for n in range(3, 7):
            for tp in tps:
                for tm in tms:
                    d = analytic_probs(n, 0.4, tp, tm)
                    assert abs(d.p1 + d.p2 + d.p3 + d.p4 - 1) < 1e-12

    def test_q0_domain(self):
        with pytest.raises(ValueError):
            analytic_probs(3, 0.0, 0.1, -0.1)
        with pytest.raises(ValueError):
            analytic_probs(3, 1.1, 0.1, -0.1)

    @pytest.mark.parametrize("theta_plus, theta_minus", [(np.nan, -0.1), (0.1, np.nan)])
    def test_non_finite_angle_refused(self, theta_plus, theta_minus):
        # a NaN probability fails the law's range check instead of passing it
        with pytest.raises(ValueError, match=r"^probabilities out of \[0, 1\]"):
            analytic_probs(3, 0.33, theta_plus, theta_minus)


class TestReportChecks:
    @pytest.mark.parametrize("probs", [(1.5, -0.5, 0.0, 0.0), (0.2, 0.2, -1e-11, 0.6), (np.nan, 0.5, 0.25, 0.25),
                                       (0.5, 0.5, 0.0, np.inf)])
    def test_probability_outside_unit_interval_refused(self, probs):
        with pytest.raises(ValueError, match=r"^probabilities out of \[0, 1\]"):
            OutcomeDistribution(*probs)

    @pytest.mark.parametrize("probs", [(0.5, 0.5, 0.5, 0.0), (0.25, 0.25, 0.25, 0.25 + 1e-11)])
    def test_probabilities_not_summing_to_one_refused(self, probs):
        with pytest.raises(ValueError, match="^probabilities sum to .*, not 1$"):
            OutcomeDistribution(*probs)

    def test_rounding_within_tolerance_kept(self):
        assert OutcomeDistribution(1.0 + 1e-13, -1e-13, 0.0, 0.0).as_array().tolist() == [1.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_bound_not_finite_and_positive_refused(self, bad):
        with pytest.raises(ValueError, match="^g_plus must be finite and positive"):
            SensitivityBound(bad, 1.0)
        with pytest.raises(ValueError, match="^g_minus must be finite and positive"):
            SensitivityBound(1.0, bad)


class TestScenario:
    def test_derived_angles(self):
        sc = SensingScenario(n=3, q0=0.33, t1=1, t2=4, omega1=np.pi / 6, omega2=np.pi / 3, t=1.0)
        assert sc.theta_plus == pytest.approx(np.pi / 2)
        assert sc.theta_minus == pytest.approx(-np.pi / 6)

    def test_invariants(self):
        with pytest.raises(ValueError):
            SensingScenario(n=2, q0=0.33, t1=1, t2=2, omega1=0.1, omega2=0.2, t=1.0)
        with pytest.raises(ValueError):  # frequencies out of order
            SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=0.3, omega2=0.2, t=1.0)
        with pytest.raises(ValueError):  # exceeds pi/(2t)
            SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=0.3, omega2=2.0, t=1.0)
        with pytest.raises(ValueError):  # same position
            SensingScenario(n=3, q0=0.33, t1=2, t2=2, omega1=0.1, omega2=0.2, t=1.0)

    @pytest.mark.parametrize(
        "omega1, omega2, t, message",
        [(0.1, 0.2, np.nan, "^interaction time must be positive, got nan$"),
         (0.1, np.inf, 0.0, "^frequencies must be finite and satisfy 0 < omega1 < omega2$"),
         (np.nan, 0.2, 1.0, "^frequencies must be finite"),
         (0.1, np.nan, 1.0, "^frequencies must be finite")],
    )
    def test_non_finite_values_refused(self, omega1, omega2, t, message):
        # NaN fails every comparison, so each check is written to fail on it
        with pytest.raises(ValueError, match=message):
            SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=omega1, omega2=omega2, t=t)


class TestSimulateProbs:
    def test_matches_analytic_random(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.choice([3, 4]))
            q0 = rng.uniform(0.05, 0.95)
            t = rng.uniform(0.5, 2.0)
            omega2 = rng.uniform(0.2, 1.0) * np.pi / (2 * t)
            omega1 = rng.uniform(0.05, 0.95) * omega2
            t1, t2 = rng.choice(2 * n, size=2, replace=False) + 1
            sc = SensingScenario(n=n, q0=q0, t1=int(t1), t2=int(t2), omega1=omega1, omega2=omega2, t=t)
            sim = simulate_probs(sc)
            ana = analytic_probs(n, q0, sc.theta_plus, sc.theta_minus)
            np.testing.assert_allclose(
                [sim.p1, sim.p2, sim.p3, sim.p4], [ana.p1, ana.p2, ana.p3, ana.p4], atol=1e-12
            )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_dense_route(self, n):
        rng = np.random.default_rng(300 + n)
        for _ in range(6):
            t = rng.uniform(0.5, 2.0)
            omega2 = rng.uniform(0.2, 1.0) * np.pi / (2 * t)
            omega1 = rng.uniform(0.05, 0.95) * omega2
            t1, t2 = rng.choice(2 * n, size=2, replace=False) + 1
            sc = SensingScenario(n=n, q0=rng.uniform(0.05, 0.95), t1=int(t1), t2=int(t2),
                                 omega1=omega1, omega2=omega2, t=t)
            got, dense = simulate_probs(sc), simulate_probs_dense(sc)
            np.testing.assert_allclose(
                [got.p1, got.p2, got.p3, got.p4], [dense.p1, dense.p2, dense.p3, dense.p4], rtol=0, atol=1e-15
            )

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 7),
        q0=st.floats(0.01, 0.99),
        t=st.floats(0.25, 4.0),
        omega2_frac=st.floats(0.01, 1.0),
        omega1_frac=st.floats(0.01, 0.99),
        placement=st.data(),
    )
    def test_matches_analytic_law_property(self, n, q0, t, omega2_frac, omega1_frac, placement):
        t1, t2 = placement.draw(st.permutations(range(1, 2 * n + 1)))[:2]
        omega2 = omega2_frac * np.pi / (2 * t)
        sc = SensingScenario(n=n, q0=q0, t1=t1, t2=t2, omega1=omega1_frac * omega2, omega2=omega2, t=t)
        sim = simulate_probs(sc)
        ana = analytic_probs(n, q0, sc.theta_plus, sc.theta_minus)
        np.testing.assert_allclose(
            [sim.p1, sim.p2, sim.p3, sim.p4], [ana.p1, ana.p2, ana.p3, ana.p4], rtol=0, atol=1e-12
        )

    def test_zero_time(self):
        # a scenario needs t > 0; the placement law takes t = 0, where no field acts
        with pytest.raises(ValueError, match=r"^interaction time must be positive, got 0.0$"):
            SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=0.1, omega2=0.2, t=0.0)
        law = placement_probabilities(3, 0.33, 0.1, 0.2, 0.0)
        assert law.shape == (30, 4)
        np.testing.assert_allclose(law, np.tile([0.33, 0, 0.67, 0], (30, 1)), rtol=0, atol=1e-12)

    def test_position_swap_invariance(self):
        base = None
        for t1, t2 in [(1, 2), (3, 6), (5, 1), (2, 4)]:
            sc = SensingScenario(n=3, q0=0.4, t1=t1, t2=t2, omega1=0.3, omega2=0.7, t=1.0)
            d = simulate_probs(sc)
            arr = np.array([d.p1, d.p2, d.p3, d.p4])
            if base is None:
                base = arr
            else:
                np.testing.assert_allclose(arr, base, atol=1e-12)


class TestSampleRun:
    def test_single_shot(self):
        sc = SCENARIO
        counts = sample_run(sc, 1, RngStream(3).gen)
        assert counts.sum() == 1 and (counts != 0).sum() == 1

    def test_reproducible(self):
        sc = SCENARIO
        a = sample_run(sc, 1000, RngStream(7).gen)
        b = sample_run(sc, 1000, RngStream(7).gen)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [3, 40, 200])
    def test_draws_from_the_closed_form(self, n):
        # no support arrays: the law sampled is the closed form, at any n
        sc = SensingScenario(n=n, q0=0.33, t1=1, t2=2, omega1=(np.pi / 2 - np.pi / 4) / 2,
                             omega2=(np.pi / 2 + np.pi / 4) / 2, t=1.0)
        law = analytic_probs(n, 0.33, np.pi / 2, -np.pi / 4).as_array()
        np.testing.assert_array_equal(sample_run(sc, 100_000, RngStream(1).gen),
                                      RngStream(1).gen.multinomial(100_000, law))

    def test_frequencies_within_four_sigma(self):
        sc = SCENARIO
        shots = 100_000
        counts = sample_run(sc, shots, RngStream(11).gen)
        d = analytic_probs(3, 0.33, np.pi / 2, -np.pi / 6)
        for c, p in zip(counts, [d.p1, d.p2, d.p3, d.p4]):
            sigma = np.sqrt(p * (1 - p) / shots)
            assert abs(c / shots - p) < 4 * sigma


class TestEstimateAngles:
    def test_round_trip(self):
        d = analytic_probs(3, 0.33, np.pi / 2, -np.pi / 6)
        tp, tm = estimate_angles(d.p1, d.p2, d.p3, 3, 0.33)
        assert tp == pytest.approx(np.pi / 2, abs=1e-9)
        assert tm == pytest.approx(np.pi / 6, abs=1e-9)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 50),
        q0=st.floats(0.05, 0.95),
        theta_plus=st.floats(0.01, np.pi - 0.01),
        theta_minus=st.floats(-np.pi / 2, -0.01),
    )
    def test_round_trip_property(self, n, q0, theta_plus, theta_minus):
        d = analytic_probs(n, q0, theta_plus, theta_minus)
        tp, tm = estimate_angles(d.p1, d.p2, d.p3, n, q0)
        assert abs(tp - theta_plus) <= 1e-9
        assert abs(tm - abs(theta_minus)) <= 1e-9

    def test_trivial_point(self):
        tp, tm = estimate_angles(0.33, 0.0, 0.67, 3, 0.33)
        assert tp == pytest.approx(0.0, abs=1e-12)
        assert tm == pytest.approx(0.0, abs=1e-12)

    def test_clamping_no_domain_error(self):
        # deliberately inconsistent finite-sample frequencies
        tp, tm = estimate_angles(0.5, 0.0, 0.5, 3, 0.33)
        assert np.isfinite(tp) and np.isfinite(tm)
        assert 0 <= tp <= np.pi and 0 <= tm <= np.pi

    def test_ghz_collapse(self):
        # q0 = 1 lies outside the probe's domain; p3 < 0 leaves theta- unrecoverable
        with pytest.raises(ValueError, match=r"^q0 must lie strictly between 0 and 1, got 1.0$"):
            estimate_angles(0.6, 0.4, 0.0, 3, 1.0)
        with pytest.raises(ValueError, match="^no Dicke weight available: theta- is unrecoverable$"):
            estimate_angles(0.3, 0.3, -0.01, 3, 0.33)

    @pytest.mark.parametrize("which", range(3))
    def test_non_finite_frequency_rejected(self, which):
        freqs = [0.3, 0.1, 0.5]
        freqs[which] = np.nan
        with pytest.raises(ValueError, match="^frequencies must be finite, got p1="):
            estimate_angles(*freqs, 3, 0.33)


class TestSensitivityBounds:
    def test_g_plus_frozen(self):
        sb = sensitivity_bounds(3, 0.33, np.pi / 4, -np.pi / 6)
        assert sb.g_plus == pytest.approx(3.0303030303030303, abs=1e-12)

    def test_g_minus_frozen(self):
        sb = sensitivity_bounds(3, 0.33, np.pi / 4, -np.pi / 6)
        assert sb.g_minus == pytest.approx(9.0836925619087303, rel=1e-12)

    def test_matches_fisher_inverse(self):
        for (tp, tm) in [(np.pi / 4, -np.pi / 6), (np.pi / 2, -np.pi / 3), (2.1, -0.8)]:
            for n, q0 in [(3, 0.33), (4, 0.6), (5, 0.2)]:
                inv = fisher_inverse(n, q0, tp, tm)
                sb = sensitivity_bounds(n, q0, tp, tm)
                assert inv[0, 0] == pytest.approx(sb.g_plus, rel=1e-6)
                assert inv[1, 1] == pytest.approx(sb.g_minus, rel=1e-6)

    def test_blow_up_toward_zero(self):
        vals = [sensitivity_bounds(3, 0.33, np.pi / 2, -(10.0 ** -k)).g_minus for k in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_small_angles_keep_their_digits(self):
        # g- depends on the angles only through their ratio as both go to 0,
        # so angles 1e4 times smaller give the same bound to O(1e-10); the
        # form 1 - cos(theta+/2) cos(theta-/2) cancels to 0 below ~1e-8
        for q0 in (0.2, 0.5, 0.8):
            small = sensitivity_bounds(3, q0, 2e-9, -1e-9).g_minus
            assert small == pytest.approx(sensitivity_bounds(3, q0, 2e-5, -1e-5).g_minus, rel=1e-8)

    def test_theta_minus_zero_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_bounds(3, 0.33, np.pi / 2, 0.0)

    def test_n_below_3_rejected(self):
        with pytest.raises(ValueError, match="^n must be at least 3, got 2$"):
            sensitivity_bounds(2, 0.33, np.pi / 2, -np.pi / 6)

    def test_vectorized_helpers(self):
        q0s = np.linspace(0.1, 0.9, 7)
        gp = g_plus(q0s)
        gm = g_minus(3, q0s, np.pi / 2, -np.pi / 6)
        for i, q0 in enumerate(q0s):
            sb = sensitivity_bounds(3, float(q0), np.pi / 2, -np.pi / 6)
            assert gp[i] == pytest.approx(sb.g_plus, rel=1e-14)
            assert gm[i] == pytest.approx(sb.g_minus, rel=1e-14)


class TestAnonymityAudit:
    @pytest.mark.parametrize("q0", [-0.2, 0.0, 1.0, 1.5])
    def test_q0_outside_the_probe_domain_rejected(self, q0):
        # the probe exists only for 0 < q0 < 1, so there is no law to return
        message = f"^q0 must lie strictly between 0 and 1, got {q0}$"
        with pytest.raises(ValueError, match=message):
            placement_probabilities(3, q0, 0.3, 0.7, 1.0)
        with pytest.raises(ValueError, match=message):
            anonymity_audit(3, q0, 0.3, 0.7, 1.0)

    def test_passes_for_protocol_povm(self):
        report = anonymity_audit(3, 0.33, 0.3, 0.7, 1.0)
        assert report.passed
        assert report.num_pairs == 30
        assert report.max_distance < 1e-12

    def test_protocol_povm_exact_at_large_n(self):
        # every placement meets the same integer bit counts, so no round-off
        # separates them (sums over C(20, 10) entries read 5.4e-13 apart)
        report = anonymity_audit(10, 0.33, np.pi / 8, 3 * np.pi / 8, 1.0)
        assert report.passed
        assert report.max_distance <= 1e-14

    def test_diagonal_projector_control_stays_green(self):
        # replacing the first element by |0^6><0^6| does NOT break the audit:
        # a single diagonal basis state only acquires a global phase, so its
        # probability never depends on where the fields sit
        povm = dense_kets(build_povm(3))
        e0 = np.zeros(64, dtype=complex)
        e0[0] = 1.0
        diagonal = DenseKetPovm(3, (e0, povm[1], povm[2]))
        report = anonymity_audit(3, 0.33, 0.3, 0.7, 1.0, povm=diagonal)
        assert report.passed

    def test_negative_control_fails(self):
        # a projector interfering two complementary weight-3 strings is
        # sensitive to which qubits carry the fields, so the audit must fail
        povm = dense_kets(build_povm(3))
        v = np.zeros(64, dtype=complex)
        v[0b000111] = v[0b111000] = 1 / np.sqrt(2)
        broken = DenseKetPovm(3, (v, povm[1], povm[2]))
        report = anonymity_audit(3, 0.33, 0.3, 0.7, 1.0, povm=broken)
        assert not report.passed
        assert report.max_distance > 1e-3

    @pytest.mark.parametrize("n", range(3, 10))
    def test_placement_law_equals_the_float64_route(self, n):
        # the float32 bit counts are exact integers, so the protocol law is
        # bit for bit the one the float64 bit matrix gave
        for omega_a, omega_b, t in PLACEMENT_SETTINGS:
            fast = placement_probabilities(n, 0.33, omega_a, omega_b, t)
            assert np.array_equal(fast, placement_probabilities_float64(n, 0.33, omega_a, omega_b, t))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_placement_law_matches_per_placement_evolution(self, n):
        # the broken POVM of the negative control, and a random ket whose law
        # changes when the two fields trade places
        povm = dense_kets(build_povm(n))
        ket = np.zeros(2 ** (2 * n), dtype=complex)
        ket[(1 << n) - 1] = ket[((1 << n) - 1) << n] = 1 / np.sqrt(2)
        broken = DenseKetPovm(n, (ket, povm[1], povm[2]))
        draw = np.random.default_rng(90 + n)
        generic = draw.normal(size=ket.size) + 1j * draw.normal(size=ket.size)
        generic = DenseKetPovm(n, (generic / np.linalg.norm(generic), povm[1], povm[2]))
        for omega_a, omega_b, t in PLACEMENT_SETTINGS:
            for measurement in (None, broken, generic):
                fast = placement_probabilities(n, 0.33, omega_a, omega_b, t, povm=measurement)
                slow = placement_probabilities_by_evolution(n, 0.33, omega_a, omega_b, t, povm=measurement)
                assert fast.shape == (2 * n * (2 * n - 1), 4)
                np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-13)


class TestSupportBudget:
    def test_largest_n_accepted(self):
        check_support_budget(11)
        with pytest.raises(ValueError, match="the largest n accepted is 11"):
            check_support_budget(12)

    def test_largest_support_admitted_counts_exactly_in_float32(self):
        # a bit count is an integer no larger than the support, at most 2^(2n)
        # basis states; float32 holds every integer up to 2^24 exactly
        with pytest.raises(ValueError, match="the largest n accepted is") as refused:
            check_support_budget(40)
        largest = int(re.search(r"the largest n accepted is (\d+)", str(refused.value))[1])
        assert 2 ** (2 * largest) == 2 ** 22 < 2 ** 24

    def test_library_entry_points_refuse_before_allocating(self):
        with pytest.raises(ValueError, match="GiB limit"):
            placement_probabilities(40, 0.33, 0.3, 0.7, 1.0)

    @pytest.mark.parametrize("n", [6, 8])
    def test_estimate_bounds_the_traced_peak(self, n):
        # the limit is only as good as the byte count behind it
        tracemalloc.start()
        try:
            placement_probabilities(n, 0.33, 0.3, 0.7, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _support_bytes(n) < SUPPORT_BYTES_LIMIT

    @pytest.mark.parametrize("n", [6, 8])
    def test_estimate_bounds_a_control_kets_traced_peak(self, n):
        # a Dicke-sized ket with random phases: v is not constant on it, so
        # dv's float64 products of the bit matrix come on top
        idx, amps = Povm(n).kets[2]
        phases = np.exp(1j * np.random.default_rng(n).uniform(0.0, 2 * np.pi, idx.size))
        control = SimpleNamespace(kets=((idx, amps * phases),))
        tracemalloc.start()
        try:
            placement_probabilities(n, 0.33, 0.3, 0.7, 1.0, povm=control)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _support_bytes(n)
