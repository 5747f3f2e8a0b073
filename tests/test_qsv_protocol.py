"""Tests for the executable verification protocols and the robust sensing loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

from aqsense.qcore import (
    PureState,
    RngStream,
    make_target,
    standard_channel,
)
from aqsense.qsv import (
    RestartCapError,
    VerificationPlan,
    analytic_spectrum,
    assemble_strategy_decomposed,
    failure_bound,
    lambda_map,
    q_min,
    run_robust_protocol,
    sample_complexity,
    verify_batch,
    verify_copy,
)
from aqsense.sensing import SensingScenario, analytic_probs
from oracles import expectation, make_dicke, make_ghz


def strategy_expectation(n, q0, p, state):
    """Independent per-copy acceptance probability Tr[Omega rho] of a
    PureState or a density matrix."""
    omega = sum(op.to_dense() for op in assemble_strategy_decomposed(n, q0, p))
    if isinstance(state, PureState):
        return expectation(state, omega)
    return float(np.trace(omega @ state).real)


def empirical_acceptance(copy, n, q0, p, trials, seed):
    gen = RngStream(seed).gen
    hits = 0
    for _ in range(trials):
        hits += verify_copy(copy, n, q0, p, gen).accept
    return hits / trials


class TestVerificationPlan:
    def test_default_copies_match_sample_complexity(self):
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01)
        assert plan.M == sample_complexity(3, 0.33, 0.1, 0.01) == 283

    def test_explicit_copies_above_bound_accepted(self):
        assert VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, M=300).M == 300

    def test_copies_below_bound_rejected(self):
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, M=282)

    def test_zero_copies_allowed_as_degenerate_plan(self):
        assert VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, M=0).M == 0

    def test_nonzero_p_raises_default_copies(self):
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, p=0.5)
        assert plan.M == sample_complexity(3, 0.33, 0.1, 0.01, p=0.5)
        assert plan.M > 283

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            VerificationPlan(3, q_min(3) / 2, epsilon=0.1, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 1.0, epsilon=0.1, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.0, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.1, delta=1.0)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, p=1.0)


class TestVerifyCopy:
    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            verify_copy(make_ghz(4), 3, 0.33, 0.0, RngStream(1).gen)

    def test_ideal_target_always_accepted(self):
        gen = RngStream(11).gen
        copy = make_target(3, 0.33)
        assert all(verify_copy(copy, 3, 0.33, 0.0, gen).accept for _ in range(2000))

    def test_transcript_internal_consistency(self):
        gen = RngStream(13).gen
        n = 3
        copy = make_dicke(2 * n, n)
        seen = set()
        for i in range(400):
            v = verify_copy(copy, n, 0.33, 0.2, gen, copy_index=i)
            assert v.copy_index == i
            assert len(v.subset) == n
            assert v.subset == tuple(sorted(set(v.subset)))
            assert all(0 <= q < 2 * n for q in v.subset)
            assert len(v.z_outcomes) == n
            assert set(v.z_outcomes) <= {0, 1}
            total = sum(v.z_outcomes)
            rest = tuple(q for q in range(2 * n) if q not in v.subset)
            seen.add(v.branch)
            if total == 0:
                assert v.branch == "i"
                assert v.sub["type"] == "ghz" and v.sub["x_conj"] is False
            elif total == n:
                assert v.branch == "iii"
                assert v.sub["type"] == "ghz" and v.sub["x_conj"] is True
            else:
                assert v.branch == "ii"
                assert v.sub["type"] == "dicke" and v.sub["k"] == n - total
            if v.sub["type"] == "ghz":
                if v.sub["a"] == 0:
                    assert v.sub["k"] is None and v.sub["r"] is None
                    assert v.accept == (len(set(v.sub["o"])) == 1)
                else:
                    assert v.sub["k"] in rest
                    r = v.sub["r"]
                    assert len(r) == n and sum(r) % 2 == 0
                    k_pos = rest.index(v.sub["k"])
                    assert v.accept == (v.sub["o"][k_pos] == 0)
            else:
                pair = tuple(v.sub["pair"])
                assert len(pair) == 2 and pair[0] < pair[1]
                assert all(q in rest for q in pair)
                s_rest = v.sub["s_rest"]
                assert s_rest == sum(v.sub["o_rest"])
                k = v.sub["k"]
                if s_rest == k:
                    assert v.sub["pair_basis"] == "Z"
                    assert v.accept == (tuple(v.sub["pair_outcomes"]) == (0, 0))
                elif s_rest == k - 2:
                    assert v.sub["pair_basis"] == "Z"
                    assert v.accept == (tuple(v.sub["pair_outcomes"]) == (1, 1))
                elif s_rest == k - 1:
                    assert v.sub["pair_basis"] == "X"
                    o1, o2 = v.sub["pair_outcomes"]
                    assert v.accept == (o1 == o2)
                else:
                    assert v.sub["pair_basis"] is None
                    assert v.sub["pair_outcomes"] is None
                    assert v.accept is False
        assert seen == {"i", "ii", "iii"}

    def test_empirical_acceptance_matches_strategy_on_ghz(self):
        n, q0, trials = 3, 0.33, 20000
        expected = strategy_expectation(n, q0, 0.0, make_ghz(2 * n))
        assert expected == pytest.approx(lambda_map(n, q0)[0], abs=1e-12)
        freq = empirical_acceptance(make_ghz(2 * n), n, q0, 0.0, trials, seed=21)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_matches_strategy_on_dicke(self):
        n, q0, trials = 3, 0.33, 20000
        expected = strategy_expectation(n, q0, 0.0, make_dicke(2 * n, n))
        freq = empirical_acceptance(make_dicke(2 * n, n), n, q0, 0.0, trials, seed=22)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_with_test_branch_probability(self):
        # nonzero p exercises the all-Z test inside branches i and iii
        n, q0, p, trials = 3, 0.4, 0.3, 15000
        expected = strategy_expectation(n, q0, p, make_ghz(2 * n))
        freq = empirical_acceptance(make_ghz(2 * n), n, q0, p, trials, seed=23)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_matches_strategy_on_random_state(self):
        n, q0, trials = 3, 0.33, 15000
        gen = RngStream(24).gen
        amps = gen.normal(size=2 ** (2 * n)) + 1j * gen.normal(size=2 ** (2 * n))
        amps /= np.linalg.norm(amps)
        copy = PureState(2 * n, amps)
        expected = strategy_expectation(n, q0, 0.0, copy)
        freq = empirical_acceptance(copy, n, q0, 0.0, trials, seed=25)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_density_operator_copy(self):
        n, q0, trials = 3, 0.33, 15000
        t_amps = make_target(n, q0).amps
        g_amps = make_ghz(2 * n).amps
        mat = 0.5 * np.outer(t_amps, t_amps.conj()) + 0.5 * np.outer(g_amps, g_amps.conj())
        expected = strategy_expectation(n, q0, 0.0, mat)
        # each copy is the target or the GHZ state with the mixture's weight 1/2
        components = (make_target(n, q0), make_ghz(2 * n))
        gen = RngStream(26).gen
        hits = sum(
            verify_copy(components[gen.integers(2)], n, q0, 0.0, gen).accept for _ in range(trials)
        )
        freq = hits / trials
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_reproducible_with_equal_streams(self):
        copy = make_dicke(6, 3)
        first = [verify_copy(copy, 3, 0.33, 0.1, RngStream(7, (i,)).gen) for i in range(50)]
        second = [verify_copy(copy, 3, 0.33, 0.1, RngStream(7, (i,)).gen) for i in range(50)]
        assert [v.as_record() for v in first] == [v.as_record() for v in second]


class TestVerifyBatch:
    def test_ideal_source_accepts(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copy = make_target(3, 0.33)
        accept, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(31))
        assert accept is True and transcript.accepted is True
        assert len(transcript.verdicts) == plan.M
        assert all(v.accept for v in transcript.verdicts)

    def test_verdict_depends_only_on_its_copy_stream(self):
        # copy i of a 283-copy session equals verify_copy on copy i alone with
        # copy i's own generator, so no verdict depends on the copies before it
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01)
        assert plan.M == 283
        copy = make_target(3, 0.33)
        accept, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(36, (5,)))
        assert accept and len(transcript.verdicts) == plan.M
        for i in (0, 141, 282):
            alone = verify_copy(copy, 3, 0.33, 0.0, RngStream(36, (5, i)).gen, copy_index=i)
            assert transcript.verdicts[i].as_record() == alone.as_record()

    def test_zero_copy_plan_accepts_vacuously(self):
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, M=0)
        accept, transcript = verify_batch(iter(()), plan, RngStream(32))
        assert accept is True and transcript.verdicts == ()

    def test_exhausted_source(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copies = [make_target(3, 0.33)] * (plan.M - 1)
        with pytest.raises(ValueError):
            verify_batch(iter(copies), plan, RngStream(33))

    def test_jsonl_records(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copy = make_target(3, 0.33)
        _, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(34))
        lines = transcript.to_jsonl().strip().split("\n")
        assert len(lines) == plan.M
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"copy", "R", "z_outcomes", "branch", "sub", "accept"}
            assert rec["copy"] == i
            assert rec["accept"] is True
            assert sorted(rec["R"]) == rec["R"] and len(rec["R"]) == 3

    def test_coherent_error_rejected_within_failure_bound(self):
        n, q0, eps = 3, 0.33, 0.67
        plan = VerificationPlan(n, q0, epsilon=eps, delta=0.1)
        nu = analytic_spectrum(n, q0, 0.0).nu
        channel = standard_channel("coherent_mix", eps, n, q0)
        target = make_target(n, q0)
        sessions = 60
        stream = RngStream(35)
        accepted = 0
        saw_early_exit = False
        for s in range(sessions):
            noise_gen = stream.substream(s, 0).gen
            source = (channel.apply_to_pure(target, noise_gen) for _ in range(plan.M))
            ok, transcript = verify_batch(source, plan, stream.substream(s, 1))
            accepted += ok
            if not ok:
                assert transcript.verdicts[-1].accept is False
                saw_early_exit = saw_early_exit or len(transcript.verdicts) < plan.M
        bound = failure_bound(nu, eps, plan.M)
        sigma = np.sqrt(bound * (1 - bound) / sessions)
        assert accepted / sessions <= bound + 4 * sigma
        assert saw_early_exit


class TestRobustProtocol:
    def test_identity_noise_reproduces_sensing(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        rounds = 400
        result = run_robust_protocol(scenario, plan, noise, rounds, RngStream(41))
        assert result.restarts == 0
        assert result.rounds == rounds and sum(result.counts) == rounds
        assert len(result.transcripts) == rounds
        probs = analytic_probs(3, 0.33, np.pi / 2, -np.pi / 4).as_array()
        for count, prob in zip(result.counts, probs):
            sigma = np.sqrt(rounds * prob * (1 - prob))
            assert abs(count - rounds * prob) < 5 * sigma + 1e-9
        assert result.theta_plus == pytest.approx(np.pi / 2, abs=0.45)
        assert result.theta_minus_abs == pytest.approx(np.pi / 4, abs=0.75)

    def test_zero_rounds(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        result = run_robust_protocol(scenario, plan, noise, 0, RngStream(42))
        assert result.rounds == 0 and result.counts == (0, 0, 0, 0)
        assert result.theta_plus is None and result.theta_minus_abs is None
        assert result.restarts == 0 and result.transcripts == ()

    def test_restart_cap_hit_under_strong_coherent_error(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        plan = VerificationPlan(3, 0.33, epsilon=0.67, delta=0.01)
        noise = standard_channel("coherent_mix", 0.67, 3, 0.33)
        with pytest.raises(RestartCapError):
            run_robust_protocol(scenario, plan, noise, 1, RngStream(43), restart_cap=25)

    def test_mild_noise_restarts_then_completes(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("coherent_mix", 0.1, 3, 0.33)
        result = run_robust_protocol(scenario, plan, noise, 30, RngStream(44))
        assert result.rounds == 30 and sum(result.counts) == 30
        assert result.restarts > 0
        assert len(result.transcripts) == 30 + result.restarts
        rejected = [t for t in result.transcripts if not t.accepted]
        assert len(rejected) == result.restarts

    def test_plan_scenario_mismatch(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        noise = standard_channel("none", 0.0, 3)
        plan_wrong_n = VerificationPlan(4, 0.33, epsilon=1.0, delta=0.5)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan_wrong_n, noise, 1, RngStream(45))
        plan_wrong_q0 = VerificationPlan(3, 0.4, epsilon=1.0, delta=0.5)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan_wrong_q0, noise, 1, RngStream(45))

    def test_negative_rounds_rejected(self):
        scenario = SensingScenario.from_angles(3, 0.33, np.pi / 2, -np.pi / 4)
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan, noise, -1, RngStream(46))
