"""aqsense benchmark runner.

    python3 aqbench/run.py --workload robust_dephase --seed 1 --seconds 40 --trace 0

Builds inputs from --seed, runs passes of the workload's fixed work in one
process until --seconds have elapsed, checks every output, prints each
metric with its unit and, as the last line, one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
spends a quarter of --seconds on untraced passes, runs one more pass with
the tracer installed, runs the max-n probe, and reports the per-layer
metrics, the untraced figures (e2e.*) and the tracing overhead. Result
and span files go to .aqbench_out/ in the checkout; NOTES.md explains the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks as ck
import layers
import probe
import workloads as wl
from tracing import Tracer

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SETUP_REPEATS = 11
# untraced figures that a traced run reports next to the per-layer metrics
E2E_FIGURES = ("wall_s", "copies_per_s", "rounds_per_s", "spectrum_cmd_s", "opt_cmd_s",
               "sense_cmd_s", "error_rate")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the checkout root."""
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def setup_once(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: import plus construction."""
    out = subprocess.run([sys.executable, str(wl.BENCH_DIR / "workloads.py"), workload, str(seed)],
                         capture_output=True, text=True, check=True, cwd=wl.ROOT, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def run_passes(workload, checks: ck.Checks, seconds: float,
               setup=None) -> tuple[list[wl.Pass], list[float]]:
    """Untraced passes, closed loop, until seconds of passes have elapsed
    (at least one pass).

    setup, if given, times one fresh-process set-up. SETUP_REPEATS of them
    run between passes, spread evenly over the window so that they meet the
    same host as the passes; their time does not count toward the window.
    """
    passes, setups = [], []
    start, paused = perf_counter(), 0.0

    def elapsed() -> float:
        return perf_counter() - start - paused

    while not passes or elapsed() < seconds:
        passes.append(workload.run_pass(len(passes), checks))
        while setup and len(setups) < min(SETUP_REPEATS, SETUP_REPEATS * elapsed() / seconds):
            began = perf_counter()
            setups.append(setup())
            paused += perf_counter() - began
    while setup and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return passes, setups


def item_ms(passes: list[wl.Pass], pick) -> float:
    """Sum over the stages of a pass of pick(seconds of that stage over the
    passes), in ms: the time per copy (robust_dephase) or of the whole
    command list (exact_pipeline)."""
    return 1e3 * sum(pick([p.stages[stage] for p in passes]) for stage in passes[0].stages)


FIGURE_UNITS = {"wall_s": "s", "item_ms": "ms", "item_ms_median": "ms", "copies_per_s": "1/s",
                "rounds_per_s": "1/s", "error_rate": "ratio", "spectrum_cmd_s": "s",
                "opt_cmd_s": "s", "sense_cmd_s": "s"}


def summary(passes: list[wl.Pass], checks: ck.Checks) -> dict[str, float]:
    """Figures of the untraced passes; workload-specific ones are 0 elsewhere."""
    med = statistics.median
    out = {
        "wall_s": med(p.wall_s for p in passes),
        "item_ms": item_ms(passes, min),
        "item_ms_median": item_ms(passes, med),
        "copies_per_s": med(p.copies / p.wall_s for p in passes),
        "rounds_per_s": sum(p.rounds for p in passes) / sum(p.wall_s for p in passes),
        "error_rate": checks.error_rate,
    }
    for cmd in ("spectrum", "opt", "sense"):
        out[f"{cmd}_cmd_s"] = med(p.cmd_s.get(cmd, 0.0) for p in passes)
    return out


def end_to_end_metrics(setup_s: float, figures: dict[str, float]) -> dict[str, float]:
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"setup_s": setup_s, "item_ms": figures["item_ms"], "peak_rss_mb": peak_rss_mb}


def per_layer_metrics(tracer: Tracer, figures: dict[str, float], traced: wl.Pass,
                      max_n: dict[str, int]) -> dict[str, float]:
    metrics = layers.metrics(tracer)
    metrics["trace.overhead_frac"] = item_ms([traced], min) / figures["item_ms_median"] - 1.0
    metrics.update({f"cli.max_n.{cmd}": n for cmd, n in max_n.items()})
    metrics.update({f"e2e.{key}": figures[key] for key in E2E_FIGURES})
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported, here or in any child
        os.environ[var] = str(NPROC)
    units = declared_metrics(args.trace)
    wl.use_checkout_package()
    env = environment()
    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.setup()
    workload.warm()

    checks = ck.Checks()
    # a traced run spends a quarter of its time on untraced passes, no set-ups
    untraced, setups = run_passes(workload, checks, args.seconds / 4 if args.trace else args.seconds,
                                  None if args.trace else lambda: setup_once(args.workload, args.seed))
    # fastest set-up: contention only adds time, and work moved into set-up
    # raises every sample (NOTES.md compares this with the median)
    setup_s = min(setups) if setups else None
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": [vars(p) for p in untraced]}
    wl.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        try:
            traced = workload.run_pass(len(untraced), checks)
        finally:
            tracer.restore()
        tracer.write(wl.OUT_DIR / f"{stem}.spans.jsonl.gz")
        max_n, report["probe"] = probe.max_n(str(wl.SRC))
    workload.finish(checks)
    figures = summary(untraced, checks)

    if args.trace:
        metrics = per_layer_metrics(tracer, figures, traced, max_n)
    else:
        metrics = end_to_end_metrics(setup_s, figures)

    if set(metrics) != set(units):
        missing, extra = sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units))
        print(f"error: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 2

    report.update(checks=checks.results, metrics=metrics, figures=figures, setup_s=setup_s,
                  setup_samples=setups)
    (wl.OUT_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    print(json.dumps({"env": env}))
    for line in checks.failures():
        print(f"check failed: {line}", file=sys.stderr)
    for name, value in figures.items():
        print(f"{'untraced.' + name:48s} {value:14.6g} {FIGURE_UNITS[name]}")
    for name in units:
        print(f"{name:48s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
