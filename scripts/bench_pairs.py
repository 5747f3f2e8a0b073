"""Run the aqbench runner in two checkouts in alternated pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 6 \\
        --seconds 40 --seed 2101 --out BENCH_21.json

Pair i (from 1) runs ``aqbench/run.py --trace 0`` of each checkout, in a
fresh process and in that checkout, with seed --seed + i - 1; odd pairs run
the parent first, even pairs the change first. Each run's ``{"env": ...}``
line and last stdout line (the result JSON) are kept. Per workload and
end-to-end metric the file holds both sides' median and quartiles
(statistics.quantiles, inclusive), the pairs in which the change reads
lower, the relative change of the median and, for each end-to-end metric
of the change checkout's ``BENCHMARK.json``, a verdict read with that
metric's ``better`` and ``bound`` (see ``verdict``). After a workload's
pairs, three ``--trace 1`` runs of each side, on seeds --seed to --seed + 2
and with sides alternated as in the pairs, record the per-layer metrics and
their median per side, to show in which layer a change lands: one traced
pass moves a per-layer reading by 10-60 % between runs of unchanged code.
At --seconds 40 a traced run took 34-36 s and an untraced one 43 s (2 CPUs,
Python 3.11), so the four traced runs beyond one per side add about 140 s
per workload to the 20 runs of 10 pairs. Nothing is written into either
checkout's ``aqbench/``; the runner itself writes ``.aqbench_out/``.

It refuses to start when either checkout holds a ``__pycache__/*.pyc`` file
under ``src/`` or ``aqbench/``: a checkout that imports from cached bytecode
sets up faster, which would read as a ``setup_s`` change, and a cache left
stale by a move to another commit is recompiled on every import when
``PYTHONDONTWRITEBYTECODE`` is set. Remove those caches from both first.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
BYTECODE_ROOTS = ("src", "aqbench")
TRACED_RUNS = 3


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    argv = [sys.executable, "aqbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line)["env"] for line in lines if line.startswith('{"env"'))
    return {"env": env, "result": json.loads(lines[-1])}


def cached_bytecode(checkout: Path) -> str | None:
    """The first path, in sorted order, of a ``__pycache__/*.pyc`` file under
    the checkout's src/ or aqbench/; None when it holds none. Reads the tree only."""
    return min((path.relative_to(checkout).as_posix() for root in BYTECODE_ROOTS
                for path in (checkout / root).glob("**/__pycache__/*.pyc")), default=None)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failed: dict[str, int]) -> str:
    """How one end-to-end metric moved over paired runs (``parent[i]`` and
    ``change[i]`` ran in pair i); ``better`` is "lower" or "higher" and
    ``bound`` the largest relative worsening of the median that counts as
    none.

    - "gain": the change is better in at least 9 of 10 pairs (a tie counts
      for neither side), its median is better than the parent's by more than
      the parent's IQR, and no more operations failed than at the parent;
    - "worse": the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - "unresolved": the parent's IQR exceeds ``bound`` times its median,
      unless every change run is better than every parent run;
    - "within bound" otherwise.
    """
    sign = 1.0 if better == "lower" else -1.0  # sign * value falls as the metric improves
    p_stats, c_stats = spread(parent), spread(change)
    p_med, c_med = p_stats["median"], c_stats["median"]
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    if (10 * wins >= 9 * len(parent) and sign * (p_med - c_med) > p_stats["iqr"]
            and failed["change"] <= failed["parent"]):
        return "gain"
    if sign * (c_med - p_med) > bound * p_med:
        return "worse"
    if p_stats["iqr"] > bound * p_med and max(sign * c for c in change) >= min(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def summary(runs: list[dict], end_to_end: list[dict]) -> dict:
    results = {side: [run[side]["result"] for run in runs] for side in SIDES}
    failed = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    declared = {metric["name"]: metric for metric in end_to_end}
    out = {}
    for metric in results["parent"][0]["metrics"]:
        values = {side: [r["metrics"][metric]["value"] for r in results[side]] for side in SIDES}
        stats = {side: spread(values[side]) for side in SIDES}
        out[metric] = {
            **stats,
            "change_lower_in_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(runs),
            "median_change_rel": stats["change"]["median"] / stats["parent"]["median"] - 1.0,
        }
        if metric in declared:
            out[metric]["verdict"] = verdict(values["parent"], values["change"], declared[metric]["better"],
                                             declared[metric]["bound"], failed)
    out["failed"] = failed
    out["attempted"] = {side: [r["attempted"] for r in results[side]] for side in SIDES}
    return out


def traced_median(traced: list[dict]) -> dict:
    """Per side, the median of each metric over the traced runs."""
    return {side: {metric: statistics.median(run[side]["result"]["metrics"][metric]["value"] for run in traced)
                   for metric in traced[0][side]["result"]["metrics"]} for side in SIDES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--parent-label", default="parent commit")
    parser.add_argument("--change-label", default="change")
    parser.add_argument("--host", default="", help="hardware the runs shared, as recorded in the file")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in checkouts.items():
        cached = cached_bytecode(checkout)
        if cached is not None:
            parser.error(f"the {side} checkout holds {cached}; remove the __pycache__ files "
                         "under src/ and aqbench/ from both checkouts")
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]
    report = {
        "what": f"aqbench/run.py --seconds {args.seconds:g} --trace 0, {args.pairs} alternated pairs of "
                "parent and change per workload (odd pairs run the parent first, even pairs the change "
                f"first), seeds {args.seed}-{args.seed + args.pairs - 1}; then {TRACED_RUNS} --trace 1 runs "
                f"of each side per workload, seeds {args.seed}-{args.seed + TRACED_RUNS - 1}, sides alternated "
                "as in the pairs",
        "parent": args.parent_label,
        "change": args.change_label,
        "host": args.host,
        "workloads": {},
    }
    for name in names:
        runs = []
        for pair in range(1, args.pairs + 1):
            seed = args.seed + pair - 1
            order = SIDES if pair % 2 else SIDES[::-1]
            run = {"pair": pair, "seed": seed, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], name, seed, args.seconds)
                item = run[side]["result"]["metrics"]["item_ms"]["value"]
                print(f"{name} pair {pair} {side}: item_ms {item:.6g}", file=sys.stderr, flush=True)
            runs.append(run)
        traced = []
        for i in range(TRACED_RUNS):
            order = SIDES[::-1] if i % 2 else SIDES
            run = {"seed": args.seed + i, "first": order[0]}
            for side in order:
                run[side] = run_once(checkouts[side], name, args.seed + i, args.seconds, trace=1)
            traced.append(run)
        report["workloads"][name] = {"summary": summary(runs, spec["end_to_end"]), "runs": runs,
                                     "traced": traced, "traced_median": traced_median(traced)}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
