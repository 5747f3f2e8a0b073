"""Acceptance gate: one test per shipped guarantee.

Each test is a single pass/fail line under pytest -v. Tolerances are part
of the contract and are pinned inline; seeds are fixed so every run is
reproducible. The criteria cover strategy assembly, spectral formulas,
protocol acceptance statistics, soundness, sensing statistics, estimator
quality, sample complexity, the weight-optimization sweep, and the
optimality of the gap at zero test probability.
"""

from __future__ import annotations

import math
import time

import numpy as np

from aqsense.qcore import PureState, RngStream, make_target, standard_channel
from aqsense.qopt import sweep
from aqsense.qsv import (
    VerificationPlan,
    analytic_spectrum,
    assemble_strategy_decomposed,
    exact_sample_bound,
    q_min,
    sample_complexity,
    sample_complexity_terms,
    verify_batch,
    verify_copy,
)
from aqsense.sensing import (
    SensingScenario,
    analytic_probs,
    anonymity_audit,
    estimate_angles,
    g_minus,
    g_plus,
)
from aqsense.qsv.operators import strategy_orbits
from oracles import (
    brute_strategy_dense,
    expectation,
    make_dicke,
    make_ghz,
    orbit_operator_dense,
    simulate_probs,
    to_dense,
)


def _full_strategy(n: int, q0: float, p: float) -> np.ndarray:
    return sum(to_dense(piece) for piece in assemble_strategy_decomposed(n, q0, p))


def test_criterion_01_bruteforce_equals_decomposition():
    """The strategy enumerated from first principles over every subset,
    the sum of the three sector pieces and the orbit table read entry by
    entry agree within 1e-13."""
    for n, q0, p in ((3, 0.33, 0.0), (3, 0.2, 0.3), (4, 0.33, 0.3)):
        start = time.perf_counter()
        brute = brute_strategy_dense(n, q0, p)
        deco = _full_strategy(n, q0, p)
        orbit = orbit_operator_dense(2 * n, strategy_orbits(n, q0, p))
        elapsed = time.perf_counter() - start
        assert np.max(np.abs(brute - deco)) <= 1e-13
        assert np.max(np.abs(brute - orbit)) <= 1e-13
        assert elapsed < 60.0


def test_criterion_02_spectral_formulas_match_numerics():
    """Every closed-form eigenvalue within 1e-9 of diagonalization, both of
    the symmetric blocks (check_numeric) and of the dense assembled blocks,
    plus the sector orderings, on the full (n, p, q0) grid."""
    for n in (3, 4, 5):
        for p in (0.0, 0.3):
            for q0 in (q_min(n), 0.2, 0.33, 0.6, 0.9):
                s = analytic_spectrum(n, q0, p, check_numeric=True)
                assert max(s.residuals.values()) <= 1e-9
                o1, o2, o3 = assemble_strategy_decomposed(n, q0, p)
                core = np.linalg.eigvalsh(o1.component_matrix((0, n, 2 * n)))
                assert abs(core[-1] - s.lambda_plus) <= 1e-9
                assert abs(core[-2] - s.beta) <= 1e-9
                for value in (s.lambda_a, s.lambda_bc1, s.lambda_minus):
                    assert np.min(np.abs(core - value)) <= 1e-9
                bipartite = np.linalg.eigvalsh(o2.component_matrix((n - 1, n + 1)))
                assert abs(bipartite[-1] - s.lambda1_omega2) <= 1e-9
                for l in range(1, n - 1):
                    top = float(np.max(np.linalg.eigvalsh(o3.component_matrix((l, 2 * n - l)))))
                    assert abs(top - s.omega3_values[l - 1]) <= 1e-9
                assert s.beta == max(s.lambda_a, s.lambda_bc1)
                assert s.lambda1_omega2 < s.lambda_bc1
                assert s.lambda1_omega2 <= s.lambda_a + 1e-12
                assert s.lambda1_omega3 < s.lambda_bc1
                assert s.lambda1_omega3 < s.lambda_a
                assert all(
                    hi > lo for hi, lo in zip(s.omega3_values, s.omega3_values[1:])
                )


def test_criterion_03_ideal_copies_always_accepted():
    """verify_copy accepts the exact target 10^4/10^4 at three weights."""
    trials = 10_000
    for idx, q0 in enumerate((0.2, 0.33, 0.6)):
        target = make_target(3, q0)
        gen = RngStream(301).substream(idx).gen
        accepted = sum(
            verify_copy(target, 3, q0, 0.0, gen, i).accept for i in range(trials)
        )
        assert accepted == trials


def test_criterion_04_acceptance_matches_strategy_expectation():
    """Empirical per-copy acceptance equals Tr[Omega rho] within 4 sigma
    over 10^5 trials, on GHZ, the central Dicke state, and random states."""
    n, q0, p = 3, 0.33, 0.3
    trials = 100_000
    omega = _full_strategy(n, q0, p)
    draw = np.random.default_rng(424242)
    states = [make_ghz(6), make_dicke(6, 3)]
    for _ in range(3):
        vec = draw.normal(size=64) + 1j * draw.normal(size=64)
        states.append(PureState(6, vec / np.linalg.norm(vec)))
    for idx, state in enumerate(states):
        expected = expectation(state, omega)
        gen = RngStream(404).substream(idx).gen
        accepted = sum(
            verify_copy(state, n, q0, p, gen, i).accept for i in range(trials)
        )
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(accepted / trials - expected) <= 4 * sigma


def test_criterion_05_soundness_bound_holds():
    """Sessions fed fidelity-0.9 copies accept no more often than the
    planned failure probability allows, over 200 sessions."""
    plan = VerificationPlan(3, 0.33, 0.1, 0.01)
    assert plan.M == 283
    channel = standard_channel("coherent_mix", 0.1, 3, q0=0.33)
    target = make_target(3, 0.33)
    stream = RngStream(505)
    sessions = 200
    accepts = 0
    for s in range(sessions):
        noise_gen = stream.substream(s).substream(0).gen

        def source():
            while True:
                yield channel.apply_to_pure(target, noise_gen)

        accepted, _ = verify_batch(source(), plan, stream.substream(s).substream(1))
        accepts += accepted
    assert accepts / sessions <= 0.01 + 3 * math.sqrt(0.01 / sessions)


def test_criterion_06_sensing_statistics():
    """Analytic outcome law == statevector simulation within 1e-12 on 100
    random scenarios; the anonymity audit passes; pure-GHZ probes put
    exactly zero weight on the Dicke outcomes."""
    draw = np.random.default_rng(606)
    for case in range(100):
        n = 3 if case % 2 == 0 else 4
        q0 = draw.uniform(0.05, 0.95)
        tm = -draw.uniform(0.02, 1.55)
        tp = draw.uniform(-tm + 0.02, math.pi - (-tm))
        t1 = int(draw.integers(1, 2 * n + 1))
        t2 = int(draw.integers(1, 2 * n))
        t2 += t2 >= t1
        scenario = SensingScenario(n=n, q0=q0, t1=t1, t2=t2, omega1=(tp + tm) / 2, omega2=(tp - tm) / 2, t=1.0)
        got = simulate_probs(scenario)
        want = analytic_probs(n, q0, scenario.theta_plus, scenario.theta_minus)
        for g, w in zip(
            (got.p1, got.p2, got.p3, got.p4), (want.p1, want.p2, want.p3, want.p4)
        ):
            assert abs(g - w) <= 1e-12
    for n, q0 in ((3, 0.33), (4, 0.2)):
        report = anonymity_audit(n, q0, np.pi / 8, 3 * np.pi / 8, 1.0)
        assert report.passed
        assert report.max_distance < 1e-12
    for n in (3, 4):
        for tp, tm in ((np.pi / 2, -np.pi / 4), (np.pi / 4, -np.pi / 6)):
            dist = analytic_probs(n, 1.0, tp, tm)
            assert dist.p3 == 0.0
            assert dist.p4 == 0.0


def test_criterion_07_estimator_roundtrip_and_variance():
    """Angles recovered to 1e-9 from exact probabilities on a 30x30 grid;
    at 10^6 shots the estimator variance respects both sensitivity bounds
    (N Var >= 0.95 G) for examples A, C, K."""
    n, q0 = 3, 0.33
    for tp in np.linspace(0.05, np.pi, 30):
        for tm in np.linspace(-np.pi / 2, -0.05, 30):
            dist = analytic_probs(n, q0, tp, tm)
            tp_hat, tm_hat = estimate_angles(dist.p1, dist.p2, dist.p3, n, q0)
            assert abs(tp_hat - tp) <= 1e-9
            assert abs(tm_hat - abs(tm)) <= 1e-9
    shots = 1_000_000
    reps = 20_000
    examples = {
        "A": (np.pi / 4, -np.pi / 6),
        "C": (np.pi / 2, -np.pi / 6),
        "K": (np.pi / 2, -np.pi / 3),
    }
    draw = np.random.default_rng(707)
    for tp, tm in examples.values():
        dist = analytic_probs(n, q0, tp, tm)
        probs = np.array([dist.p1, dist.p2, dist.p3, dist.p4])
        counts = draw.multinomial(shots, probs / probs.sum(), size=reps)
        freq = counts / shots
        estimates = np.array(
            [estimate_angles(f[0], f[1], f[2], n, q0) for f in freq]
        )
        assert shots * np.var(estimates[:, 0], ddof=1) >= 0.95 * g_plus(q0)
        assert shots * np.var(estimates[:, 1], ddof=1) >= 0.95 * g_minus(n, q0, tp, tm)


def test_criterion_08_sample_complexity():
    """The anchor copy count is 283 with both ceiling terms recomputed
    from scratch, and the exact geometric bound never exceeds the
    returned M on 100 random draws."""
    n, q0, eps, delta = 3, 0.33, 0.1, 0.01
    log_term = math.log(1.0 / delta)
    term_gap = math.ceil((2 * n - 1) * log_term / eps)
    wallis = q0 * 4.0**n / (2 * (1 - q0) * math.sqrt(math.pi * n))
    term_wallis = math.ceil((wallis + 1.0) * log_term / eps)
    assert (term_gap, term_wallis) == (231, 283)
    assert sample_complexity_terms(n, q0, eps, delta) == (term_gap, term_wallis)
    assert sample_complexity(n, q0, eps, delta) == 283
    draw = np.random.default_rng(808)
    for _ in range(100):
        rn = int(draw.integers(3, 7))
        rq = draw.uniform(q_min(rn) + 0.01, 0.95)
        re = draw.uniform(0.05, 1.0)
        rd = draw.uniform(0.001, 0.5)
        rp = draw.uniform(0.0, 0.9)
        nu = analytic_spectrum(rn, rq, rp).nu
        assert exact_sample_bound(nu, re, rd) <= sample_complexity(rn, rq, re, rd, rp)


def test_criterion_09_optimization_sweep_properties():
    """Full sweep n = 3..50 over all twelve examples: q_H >= q_G on the
    restricted branch, q_G/q_H/H_min increase with n, and the q_G and q_H
    example orderings coincide at every n; all inside five minutes."""
    start = time.perf_counter()
    rows = sweep(3, 50)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    assert len(rows) == 48 * 12
    labels = sorted({row["label"] for row in rows})
    ns = sorted({row["n"] for row in rows})
    by = {(row["n"], row["label"]): row for row in rows}
    for row in rows:
        if row["q_beta"] < row["q_G"]:
            assert row["q_H"] >= row["q_G"] - 1e-12
    for label in labels:
        for a, b in zip(ns, ns[1:]):
            assert by[(b, label)]["q_G"] > by[(a, label)]["q_G"]
            assert by[(b, label)]["q_H"] > by[(a, label)]["q_H"] - 1e-9
            assert by[(b, label)]["H_min"] > by[(a, label)]["H_min"]
    for n in ns:
        order_qg = sorted(labels, key=lambda lab: by[(n, lab)]["q_G"])
        order_qh = sorted(labels, key=lambda lab: by[(n, lab)]["q_H"])
        assert order_qg == order_qh


def test_criterion_10_gap_maximal_at_zero_p():
    """The spectral gap is strictly largest at zero test probability."""
    for n in (3, 4, 5):
        for q0 in (q_min(n), 0.2, 0.33, 0.6, 0.9):
            nu0 = analytic_spectrum(n, q0, 0.0).nu
            for p in np.arange(0.1, 0.95, 0.1):
                assert nu0 > analytic_spectrum(n, q0, float(p)).nu
