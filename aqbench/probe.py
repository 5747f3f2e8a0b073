"""Largest n each CLI command finishes at, under a time and memory cap.

Every case runs ``aqsense.cli.main`` in a child process limited to the
command's CASE_SECONDS of wall time and CASE_ADDRESS_BYTES of address
space, so a case that would hang records ``timeout`` and one that would
exhaust memory records ``oom``; the parent waits for every child. Grid
points run in ascending n and a command stops at its first failure, so
max_n is the largest grid point that finished (0 if none did). Each grid
starts one step below the limit of the first recorded run and goes on to
n = 50, so a faster program can show a higher max_n; a probe takes about
35 s.
"""

from __future__ import annotations

import os
import subprocess
import sys
from time import perf_counter

# Host contention slows a case by up to about 1.5x. Each cap sits at least 2x
# above the quiet time of the last case that finishes and 2x below the quiet
# time of the first that runs out of time (NOTES.md lists both).
CASE_SECONDS = {"spectrum_check": 8.0, "verify": 10.0, "robust": 8.0, "sense_audit": 6.0}
CASE_ADDRESS_BYTES = 1 << 30
# exit 3 (rejected source) and 4 (restart cap) are verdicts of a finished run
FINISHED_CODES = (0, 3, 4)


def _argv(command: str, n: int) -> list[str]:
    if command == "spectrum_check":
        return ["qsv", "spectrum", "--n", str(n), "--q0", "0.33", "--check-numeric"]
    if command == "verify":
        return ["qsv", "verify", "--n", str(n), "--q0", "0.33", "--epsilon", "0.1",
                "--delta", "0.01", "--seed", "1"]
    if command == "robust":
        return ["robust", "--n", str(n), "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2",
                "--rounds", "1", "--noise", "coherent_mix:0.05", "--seed", "3"]
    if command == "sense_audit":
        return ["sense", "--n", str(n), "--q0", "0.33", "--omega-a", "0.3926990816987241",
                "--omega-b", "1.1780972450961724", "--t", "1.0", "--shots", "0", "--audit"]
    raise ValueError(command)


GRIDS = {
    "spectrum_check": (5, 6, 7, 10, 20, 50),
    "verify": (4, 5, 6, 10, 20, 50),
    "robust": (4, 5, 6, 7, 10, 20, 50),
    "sense_audit": (7, 8, 9, 10, 20, 50),
}


def run_case(src: str, argv: list[str], seconds: float) -> tuple[str, float]:
    """Run one CLI invocation in a capped child; return (status, seconds)."""
    code = ("import resource, sys; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({CASE_ADDRESS_BYTES}, {CASE_ADDRESS_BYTES})); "
            "from aqsense.cli import main; sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": src}
    start = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=seconds)
    except subprocess.TimeoutExpired:
        return "timeout", perf_counter() - start
    elapsed = perf_counter() - start
    if proc.returncode in FINISHED_CODES:
        return "ok", elapsed
    if b"MemoryError" in proc.stderr or b"Unable to allocate" in proc.stderr:
        return "oom", elapsed
    return f"exit {proc.returncode}", elapsed


def max_n(src: str) -> tuple[dict[str, int], list[dict]]:
    """Probe every command over its grid; return (max n per command, cases)."""
    best: dict[str, int] = {}
    cases = []
    for command, grid in GRIDS.items():
        best[command] = 0
        for n in grid:
            status, seconds = run_case(src, _argv(command, n), CASE_SECONDS[command])
            cases.append({"command": command, "n": n, "status": status, "seconds": round(seconds, 3)})
            if status != "ok":
                break
            best[command] = n
    return best, cases
