"""Where the tracer hooks into each layer, and the per-layer metrics it yields.

Layers are the package's modules: symcomb, qcore, sensing, qsv
(operators, spectra, complexity, protocol), qopt and cli.
"""

from __future__ import annotations

from tracing import Tracer

# span name -> the fields reported for it
SPANS = {
    "qcore.apply_to_pure": ("calls", "busy_s", "p50_us"),
    "qcore.rng_gen": ("calls", "busy_s"),
    "qcore.evolve_phases": ("calls", "busy_s"),
    "qcore.eig_top2": ("busy_s",),
    "qcore.make_target": ("busy_s",),
    "qcore.standard_channel": ("busy_s",),
    "symcomb.johnson_adjacency": ("busy_s",),
    "symcomb.containment_adjacency": ("busy_s",),
    "symcomb.weight_basis": ("calls", "busy_s"),
    "sensing.povm_probabilities": ("calls", "busy_s"),
    "sensing.anonymity_audit": ("busy_s",),
    "sensing.sample_run": ("busy_s",),
    "qsv.verify_copy": ("calls", "busy_s", "self_s", "p50_us", "p99_us"),
    "qsv.verify_batch": ("calls", "busy_s", "self_s"),
    "qsv.analytic_spectrum": ("busy_s",),
    "qsv.assemble_strategy_decomposed": ("busy_s",),
    "qsv.component_matrix": ("busy_s",),
    "qopt.minimize_H": ("calls", "busy_s"),
}
PERCENTILES = {"p50_us": 50, "p99_us": 99}
BRANCHES = ("i", "ii", "iii")
# minimize_H adds at most a few hundred golden-section evaluations to its
# 2048-point grid; a dense refinement scan adds 200 001 or 1 000 001
DENSE_SCAN_EVALUATIONS = 200_000


def _on_verdict(tracer: Tracer, verdict, elapsed: float) -> None:
    tracer.counts[f"qsv.verify_copy.branch_{verdict.branch}.count"] += 1
    tracer.counts[f"qsv.verify_copy.branch_{verdict.branch}.busy_s"] += elapsed


def _on_robust(tracer: Tracer, result, elapsed: float) -> None:
    tracer.counts["robust.attempts"] += len(result.transcripts)
    tracer.counts["robust.rounds"] += result.rounds
    for transcript in result.transcripts:
        tracer.counts["robust.copies"] += len(transcript.verdicts)
        if transcript.accepted:
            tracer.counts["robust.useful_copies"] += len(transcript.verdicts)


def _on_optimum(tracer: Tracer, report, elapsed: float) -> None:
    tracer.counts["qopt.objective_evaluations"] += report.evaluations
    tracer.counts["qopt.dense_fallbacks"] += report.evaluations > DENSE_SCAN_EVALUATIONS


def install(tracer: Tracer) -> None:
    """Wrap every traced callable; undo with tracer.restore()."""
    from aqsense import cli, qcore, qopt, sensing, symcomb
    from aqsense.qsv import operators, protocol, spectra

    tracer.patch_method(qcore.KrausChannel, "apply_to_pure", "qcore.apply_to_pure")
    tracer.patch_method(qcore.RngStream, "gen", "qcore.rng_gen")
    for attr in ("evolve_phases", "eig_top2", "make_target", "standard_channel"):
        tracer.patch_function(qcore, attr, f"qcore.{attr}")
    for attr in ("johnson_adjacency", "containment_adjacency"):
        tracer.patch_function(symcomb, attr, f"symcomb.{attr}")
    tracer.patch_method(symcomb.WeightBasis, "__post_init__", "symcomb.weight_basis")
    tracer.patch_method(sensing.Povm, "probabilities", "sensing.povm_probabilities")
    for attr in ("anonymity_audit", "sample_run"):
        tracer.patch_function(sensing, attr, f"sensing.{attr}")
    tracer.patch_function(protocol, "verify_copy", "qsv.verify_copy", _on_verdict)
    tracer.patch_function(protocol, "verify_batch", "qsv.verify_batch")
    tracer.patch_function(protocol, "run_robust_protocol", "qsv.robust", _on_robust)
    tracer.patch_function(spectra, "analytic_spectrum", "qsv.analytic_spectrum")
    tracer.patch_function(operators, "assemble_strategy_decomposed", "qsv.assemble_strategy_decomposed")
    tracer.patch_method(operators.StrategyOperator, "component_matrix", "qsv.component_matrix")
    tracer.patch_function(qopt, "minimize_H", "qopt.minimize_H", _on_optimum)
    tracer.patch_function(cli, "main", "cli.main")


def metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; 0 where a layer did no work."""
    out: dict[str, float] = {}
    for name, fields in SPANS.items():
        for f in fields:
            if f == "calls":
                out[f"{name}.calls"] = len(tracer.durations.get(name, ()))
            elif f == "busy_s":
                out[f"{name}.busy_s"] = tracer.busy.get(name, 0.0)
            elif f == "self_s":
                out[f"{name}.self_s"] = tracer.self_time.get(name, 0.0)
            else:
                out[f"{name}.{f}"] = tracer.percentile_us(name, PERCENTILES[f])
    c = tracer.counts
    for b in BRANCHES:
        for f in ("count", "busy_s"):
            key = f"qsv.verify_copy.branch_{b}.{f}"
            out[key] = c.get(key, 0)
    attempts, copies = c.get("robust.attempts", 0), c.get("robust.copies", 0)
    out["qsv.robust.attempts"] = attempts
    out["qsv.robust.attempt_accept_ratio"] = c.get("robust.rounds", 0) / attempts if attempts else 0.0
    out["qsv.robust.useful_copy_ratio"] = c.get("robust.useful_copies", 0) / copies if copies else 0.0
    out["qopt.objective_evaluations"] = c.get("qopt.objective_evaluations", 0)
    out["qopt.dense_fallbacks"] = c.get("qopt.dense_fallbacks", 0)
    out["cli.self_s"] = tracer.self_time.get("cli.main", 0.0)
    return out
