"""Run the aqbench runner in two checkouts in alternated pairs; write a BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pairs 6 \\
        --seconds 40 --seed 2101 --out BENCH_21.json

Pair i (from 1) runs ``aqbench/run.py --trace 0`` of each checkout, in a
fresh process and in that checkout, with seed --seed + i - 1; odd pairs run
the parent first, even pairs the change first. Each run's ``{"env": ...}``
line and last stdout line (the result JSON) are kept. Per workload and
end-to-end metric the file holds both sides' median and quartiles
(statistics.quantiles, inclusive), the pairs in which the change reads
lower, and the relative change of the median. After a workload's pairs,
one ``--trace 1`` run of each side, on seed --seed and in pair 1's order,
records the per-layer metrics, to show in which layer a change lands.
Nothing is written into either checkout's ``aqbench/``; the runner itself
writes ``.aqbench_out/``.

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


def summary(runs: list[dict]) -> dict:
    results = {side: [run[side]["result"] for run in runs] for side in SIDES}
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
    out["failed"] = {side: sum(r["failed"] for r in results[side]) for side in SIDES}
    out["attempted"] = {side: [r["attempted"] for r in results[side]] for side in SIDES}
    return out


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
                f"first), seeds {args.seed}-{args.seed + args.pairs - 1}; then one --trace 1 run of each "
                f"side per workload, seed {args.seed}, parent first",
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
        traced = {side: run_once(checkouts[side], name, args.seed, args.seconds, trace=1) for side in SIDES}
        report["workloads"][name] = {"summary": summary(runs), "runs": runs, "traced": traced}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
