"""Tests of the benchmark itself: metric names, tracer, negative controls.

Each negative control feeds a check a deliberately wrong output and
requires the error rate to rise; the matching correct output must pass.
"""

from __future__ import annotations

import json
import math

import checks as ck
import probe
import run
import workloads as wl
from tracing import Tracer

wl.use_checkout_package()

from aqsense.qcore import RngStream, make_target  # noqa: E402
from aqsense.qsv import protocol  # noqa: E402
from aqsense.qsv.protocol import CopyVerdict, RobustResult, SessionTranscript  # noqa: E402

SPEC = json.loads((wl.ROOT / "BENCHMARK.json").read_text())


def names(kind: str) -> set[str]:
    return {m["name"] for m in SPEC[kind]}


def test_benchmark_json_names_the_workloads_and_paths():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert SPEC["paths"] == [wl.BENCH_DIR.name]


def test_emitted_end_to_end_names_match_benchmark_json():
    figures = {"item_ms": 1.0}
    assert set(run.end_to_end_metrics(0.5, figures)) == names("end_to_end")


def test_emitted_per_layer_names_match_benchmark_json():
    figures = {key: 1.0 for key in run.FIGURE_UNITS}
    traced = wl.Pass(wall_s=1.0, stages={"copy": 1e-3})
    max_n = {cmd: 3 for cmd in probe.GRIDS}
    assert set(run.per_layer_metrics(Tracer(), figures, traced, max_n)) == names("per_layer")


def verdict(index: int, accept: bool, branch: str = "ii") -> CopyVerdict:
    return CopyVerdict(index, (0, 1, 2), (0, 1, 0), branch, {}, accept)


def session(length: int, accepted: bool) -> SessionTranscript:
    verdicts = [verdict(i, True) for i in range(length - 1)] + [verdict(length - 1, accepted)]
    return SessionTranscript(tuple(verdicts), accepted)


def robust_result(transcripts, rounds=2) -> RobustResult:
    restarts = sum(not t.accepted for t in transcripts)
    return RobustResult(rounds, restarts, (1, 0, 1, 0), 1.0, 1.0, tuple(transcripts))


def test_robust_checks_pass_on_consistent_output():
    checks = ck.Checks()
    ck.check_robust(checks, "r", robust_result([session(5, True), session(3, False), session(5, True)]), 2, 5)
    assert checks.attempted > 0 and checks.error_rate == 0


def test_injected_reject_in_robust_output_raises_error_rate():
    checks = ck.Checks()
    # the second accepted session is replaced by a rejected one
    ck.check_robust(checks, "r", robust_result([session(5, True), session(5, False)]), 2, 5)
    assert checks.error_rate > 0


def test_branch_histogram_against_analytic_law():
    law = ck.branch_law(5, wl.Q0)
    total = 100_000
    exact = {b: round(total * p) for b, p in law.items()}
    shifted = dict(exact, i=exact["i"] + 2000, ii=exact["ii"] - 2000)
    good, bad = ck.Checks(), ck.Checks()
    ck.check_branches(good, "h", exact, 5, wl.Q0)
    ck.check_branches(bad, "h", shifted, 5, wl.Q0)
    assert good.error_rate == 0 and bad.error_rate > 0


def sense_payload(n: int, shift: float = 0.0) -> tuple[dict, dict]:
    ref = json.loads((wl.REFERENCE / "exact_pipeline.json").read_text())["sense"][str(n)]
    return {
        "audit": {"passed": True, "max_distance": 0.0, "num_pairs": 30},
        "counts": [wl.SENSE_SHOTS, 0, 0, 0],
        "probabilities": {k: ref[k] for k in ("p1", "p2", "p3", "p4")},
        "sensitivity": {k: ref[k] for k in ("g_plus", "g_minus")},
        "scenario": {"theta_plus": ref["theta_plus"], "theta_minus": ref["theta_minus"]},
        "estimates": {"theta_plus": ref["theta_plus"] + shift, "theta_minus_abs": abs(ref["theta_minus"])},
    }, ref


def test_perturbed_estimate_raises_error_rate():
    good, bad = ck.Checks(), ck.Checks()
    wl.check_sense(good, "s", *sense_payload(3))
    wl.check_sense(bad, "s", *sense_payload(3, shift=0.1))
    assert good.error_rate == 0 and bad.error_rate > 0


def test_exact_residual_and_sweep_perturbations_raise_error_rate():
    checks = ck.Checks()
    ck.check_residuals(checks, "x", {"beta": 1e-14})
    reference = ck.read_csv(wl.REFERENCE / "sweep_3_50.csv")
    ck.check_sweep(checks, "x", [dict(row) for row in reference], reference)
    assert checks.error_rate == 0
    ck.check_residuals(checks, "x", {"beta": 1e-6})
    perturbed = [dict(row) for row in reference]
    perturbed[7]["q_H"] = repr(float(perturbed[7]["q_H"]) * (1 + 1e-4))
    ck.check_sweep(checks, "x", perturbed, reference)
    ck.check_fields(checks, "x", {"beta": 0.5, "branch": "a"}, {"beta": 0.5 + 1e-6, "branch": "a"})
    assert checks.failed == 3


def test_tracer_records_nested_spans_and_restores_the_package():
    import layers

    original = protocol.verify_copy
    target = make_target(3, wl.Q0)
    plan = protocol.VerificationPlan(3, wl.Q0, wl.EPSILON, wl.DELTA)
    tracer = Tracer()
    layers.install(tracer)
    try:
        ok, transcript = protocol.verify_batch(iter([target] * plan.M), plan, RngStream(1))
    finally:
        tracer.restore()
    assert protocol.verify_copy is original
    metrics = layers.metrics(tracer)
    assert ok and metrics["qsv.verify_copy.calls"] == plan.M == len(transcript.verdicts)
    assert metrics["qsv.verify_batch.calls"] == 1
    assert metrics["qcore.rng_gen.calls"] == plan.M
    branches = sum(metrics[f"qsv.verify_copy.branch_{b}.count"] for b in layers.BRANCHES)
    assert branches == plan.M
    assert 0 < metrics["qsv.verify_batch.self_s"] < metrics["qsv.verify_batch.busy_s"]
    assert math.isclose(metrics["qsv.verify_copy.self_s"], metrics["qsv.verify_copy.busy_s"])
    assert 0 < metrics["qsv.verify_copy.p50_us"] <= metrics["qsv.verify_copy.p99_us"]
    parents = {span[0]: span[1] for span in tracer.spans}
    batch = next(span[0] for span in tracer.spans if span[2] == "qsv.verify_batch")
    assert all(parents[s[0]] == batch for s in tracer.spans if s[2] == "qsv.verify_copy")

