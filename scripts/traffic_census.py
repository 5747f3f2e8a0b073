"""List the executable lines of ``src/aqsense`` that no traffic runs.

Traffic is every case of ``scripts/cli_corpus.py`` run in-process through
``aqsense.cli.main``, then set-up, warm-up and one pass of each aqbench
workload. A ``sys.settrace`` line tracer, installed before the package is
imported, records the lines run in ``src/``; a line is executable when a
compiled code object of its module carries it. A line counts as run when any
part of it runs, so the census cannot see an arm of a one-line conditional
(``a if c else b``) that only tests take. Each stretch of lines with
none run in between prints as ``path:first-last`` and its first line; the
census's own run time goes to stderr:

    python3 scripts/traffic_census.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = str(ROOT / "src" / "aqsense")
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "aqbench")]
import checks, cli_corpus, workloads  # noqa: E401, E402  (checks and workloads are aqbench's)


def executable_lines(path: Path) -> list[int]:
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for *_, line in code.co_lines() if line)  # 0 and None mark no source line
        codes.extend(const for const in code.co_consts if isinstance(const, types.CodeType))
    return sorted(lines)


def traffic() -> None:
    cli_corpus.run_cases(cli_corpus.CASES, in_process=True)
    for workload in (cls(seed=1) for cls in workloads.WORKLOADS.values()):
        workload.setup()
        with contextlib.redirect_stdout(io.StringIO()):
            workload.warm()
            workload.run_pass(0, checks.Checks())


def main() -> None:
    start, ran = time.perf_counter(), set()

    def on_line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    sys.settrace(lambda frame, *_: on_line if frame.f_code.co_filename.startswith(PKG) else None)
    try:
        traffic()
    finally:
        sys.settrace(None)
    for path in sorted(Path(PKG).rglob("*.py")):
        source, lines, stretches = path.read_text().splitlines(), executable_lines(path), []
        for before, line in zip([0, *lines], lines):
            if (str(path), line) in ran:
                continue
            if stretches and stretches[-1][1] == before:
                stretches[-1][1] = line
            else:
                stretches.append([line, line])
        for first, last in stretches:
            print(f"{path.relative_to(ROOT)}:{first}-{last}  {source[first - 1].strip()}")
    print(f"census took {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
