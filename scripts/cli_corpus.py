"""Run a fixed corpus of aqsense CLI invocations and print what each did.

Each case runs in a fresh ``python -m aqsense.cli`` process, in an empty
temporary directory that holds only the case's input files. The report is
JSON on stdout: per case the argv, the exit code, stdout, stderr and the
contents of every file the run wrote, line ends as written. Run it in two
checkouts and compare the reports with ``diff``:

    python3 scripts/cli_corpus.py > corpus.json
    python3 scripts/cli_corpus.py --in-process > corpus-in-process.json

``--in-process`` runs the same cases through ``aqsense.cli.main`` in this
one interpreter (each in its own empty directory); its report must equal
the fresh-process one. Either way the package comes from ``src/`` of the
checkout this script sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

OMEGA_A, OMEGA_B = "0.3926990816987241", "1.1780972450961724"
SENSE = ["sense", "--q0", "0.33", "--omega-a", OMEGA_A, "--omega-b", OMEGA_B, "--t", "1.0"]
COMPLEXITY = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--delta", "0.01"]
SPECTRUM = ["qsv", "spectrum", "--n", "3", "--q0", "0.33"]
VERIFY = ["qsv", "verify", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01", "--seed", "11"]
ROBUST = ["robust", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--rounds", "20",
          "--seed", "3"]
NOISES = ("none", "dephase:0.05", "depolarize:0.05", "coherent_mix:0.67")


def _case(*argv: str, files: dict[str, str] | None = None) -> dict:
    return {"argv": list(argv), "files": files or {}}


def _config(text: str, *argv: str) -> dict:
    return _case(*argv, "--config", "run.cfg", files={"run.cfg": text})


CASES = [
    # the README's commands
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "100000", "--seed", "7"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "0", "--audit"),
    _case(*SPECTRUM, "--p", "0", "--check-numeric"),
    _case(*COMPLEXITY, "--epsilon", "0.1"),
    _case(*VERIFY, "--noise", "dephase:0.05", "--transcript", "session.jsonl"),
    _case("opt", "--n-min", "3", "--n-max", "50", "--out", "sweep.csv", "--self-check"),
    _case(*ROBUST[:-4], "--rounds", "1000", "--noise", "none", "--seed", "3"),
    # seeded sampling with the audit
    *[_case(*SENSE[:1], "--n", str(n), *SENSE[1:], "--shots", shots, "--seed", "7", "--audit")
      for n in range(3, 9) for shots in ("100", "100000")],
    # verification and the robust loop under each channel kind
    *[_case(*VERIFY, "--noise", noise, "--transcript", "session.jsonl") for noise in NOISES],
    _case(*VERIFY, "--p", "0.3", "--epsilon", "0.67", "--delta", "0.2", "--transcript", "session.jsonl"),
    # n = 4 and 5, where the GHZ-like test measures more than two other parties
    *[_case("qsv", "verify", "--n", str(n), "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--seed", "11",
            *extra, "--transcript", "session.jsonl")
      for n in (4, 5) for extra in (("--noise", "dephase:0.05"), ("--p", "0.3"))],
    *[_case(*ROBUST, "--noise", noise, "--out", "robust.json") for noise in NOISES],
    _case("opt", "--n-min", "3", "--n-max", "50", "--examples", "A,C,K", "--out", "sweep.csv", "--self-check"),
    # the top of the n range, where q_min (2.8e-308 at n = 514) nears the float64
    # floor, and a one-row sweep
    _case("opt", "--n-min", "511", "--n-max", "514", "--examples", "K,A", "--out", "sweep.csv", "--self-check"),
    _case("opt", "--n-min", "3", "--n-max", "3", "--examples", "L", "--out", "sweep.csv"),
    # the one (n, example) of 3..514 x A..L whose printed q_H sits within an ulp of a
    # 12-digit rounding boundary (exact root 0.59436332088449996...)
    _case("opt", "--n-min", "351", "--n-max", "351", "--examples", "A", "--out", "sweep.csv"),
    *[_case("qsv", "spectrum", "--n", str(n), "--q0", "0.33", "--check-numeric") for n in range(3, 7)],
    # the spectrum's other paths at n = 3: q0 >= 1/2 (alpha_plus > -alpha_minus), branch
    # bc1 (q0 <= 0.2) and the a/bc1 boundary tie
    *[_case("qsv", "spectrum", "--n", "3", "--q0", q0, "--check-numeric")
      for q0 in ("0.6", "0.15", "0.21052631578947367")],
    # large n: alpha_plus ~ 1e59 at n = 200, the last n before the core coupling d leaves
    # the normal float64 range at q0 = 0.33 and the first after it, and n = 513, where
    # n C(2n, n) is past float64 range
    _case("qsv", "spectrum", "--n", "200", "--q0", "0.33", "--p", "0.3"),
    *[_case("qsv", "spectrum", "--n", str(n), "--q0", "0.33") for n in (343, 344, 513)],
    # omega3 at l = 24 here is where n lambda0 - l(2 lambda0 - 1) cancels most on the
    # tests' grid; the table forms it as the positive sum (n - l) lambda0 + l lambda1
    _case("qsv", "spectrum", "--n", "26", "--q0", "0.6", "--p", "0.9", "--check-numeric"),
    _case(*ROBUST[:-4], "--rounds", "0", "--seed", "3"),
    # config files
    _config("n=3\nq0=0.33\nepsilon=0.1\ndelta=0.01\n", "qsv", "complexity"),
    _config("epsilon = 0.5\n", *COMPLEXITY, "--epsilon", "0.1"),
    _config("# spectrum self-check\ncheck-numeric = true\ntol = 1e-30\n", *SPECTRUM),
    _config("check_numeric = false\ntol = 1e-30\n", *SPECTRUM),
    _config("n=3\nq0=0.33\nepsilon=0.67\ndelta=0.2\nseed=7\nnoise=none\nrounds=50\n", "qsv", "verify"),
    _config("epsilon 0.5\n", *COMPLEXITY),
    _config("n = abc\n", *SPECTRUM),
    _config("q0 = 0.3x\n", "qsv", "spectrum", "--n", "3"),
    _config("check_numeric = maybe\n", *SPECTRUM),
    _config("check-numeric = ture\n", *SPECTRUM),
    _case(*SPECTRUM, "--config", "missing.cfg"),
    # usage and domain errors, and help
    _case(),
    _case("bogus"),
    _case("--help"),
    _case("qsv", "spectrum", "--help"),
    _case("qsv"),
    _case("qsv", "--help"),
    # the parser's other paths: an unknown flag, a stray positional, an abbreviated
    # flag and the --flag=value form
    _case(*SPECTRUM, "--bogus", "1"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "stray"),
    _case(*SPECTRUM, "--check"),
    _case("qsv", "spectrum", "--n=3", "--q0=0.33"),
    _case("sense", "--n", "3"),
    _case("robust"),
    _case(*SENSE[:1], "--n", "three", *SENSE[1:]),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "10", "--seed", "-1"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "-5"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "10"),
    _case(*SENSE[:1], "--n", "12", *SENSE[1:], "--audit"),
    _case("qsv", "spectrum", "--n", "3", "--q0", "1.5"),
    _case("qsv", "spectrum", "--n", "3", "--q0", "1"),
    _case(*SPECTRUM, "--p", "1"),
    _case("qsv", "complexity", "--n", "3", "--q0", "0.001", "--epsilon", "0.1", "--delta", "0.01"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:], "--shots", "100000000000000000000", "--seed", "1"),
    _case(*VERIFY, "--noise", "dephase"),
    _case(*VERIFY, "--noise", "bogus:0.1"),
    _case(*VERIFY, "--noise", "dephase:abc"),
    _case("opt", "--n-min", "3", "--n-max", "5", "--examples", "A,A", "--out", "sweep.csv"),
    _case("opt", "--n-min", "3", "--n-max", "5", "--examples", "AB", "--out", "sweep.csv"),
    _case("opt", "--n-min", "3", "--n-max", "600", "--out", "sweep.csv"),
    # past n = 514, where C(2n, n) leaves float64 range
    _case("qsv", "complexity", "--n", "520", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"),
    _case("qsv", "verify", "--n", "600", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01", "--seed", "1"),
    _case(*ROBUST, "--rounds", "-1"),
    _case("qsv", "verify", "--n", "16", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01", "--seed", "1"),
    _case(*ROBUST[:2], "13", *ROBUST[3:], "--noise", "coherent_mix:0.5"),
    # below n = 3, through q_min's check (check_probe's for sense), and with p = 1,
    # which every strategy command reports first; NaN and infinite values, each
    # refused before any work
    _case("opt", "--n-min", "2", "--n-max", "5", "--out", "sweep.csv"),
    _case(*SENSE[:1], "--n", "2", *SENSE[1:], "--shots", "10", "--seed", "1"),
    _case(*COMPLEXITY[:3], "2", *COMPLEXITY[4:], "--epsilon", "0.1", "--p", "1"),
    _case(*VERIFY[:3], "2", *VERIFY[4:], "--p", "1"),
    _case(*ROBUST[:2], "2", *ROBUST[3:], "--p", "1"),
    _case(*SPECTRUM, "--check-numeric", "--tol", "nan"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:-2], "--t", "nan"),
    _case(*SENSE[:1], "--n", "3", *SENSE[1:-4], "--omega-b", "inf", "--t", "0"),
    _case(*ROBUST, "--t", "nan"),
    # t = 0, where the probe senses nothing
    _case(*SENSE[:1], "--n", "3", *SENSE[1:-2], "--t", "0"),
    _case(*ROBUST, "--t", "0"),
]


def _run_fresh(argv: list[str], cwd: str) -> tuple[int, str, str]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "aqsense.cli", *argv], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    return done.returncode, done.stdout, done.stderr


def _run_in_process(argv: list[str], cwd: str) -> tuple[int, str, str]:
    from aqsense import cli

    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


def run_cases(cases: list[dict], in_process: bool = False) -> list[dict]:
    """One record per case: argv, exit code, stdout, stderr and the files
    the run wrote, text split into lines so that reports diff line by line."""
    run = _run_in_process if in_process else _run_fresh
    if in_process and str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    records = []
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in case["files"].items():
                Path(tmp, name).write_text(text)
            code, out, err = run(case["argv"], tmp)
            # decoded from the bytes, with no newline translation, so CRLF and LF differ in the report
            written = {path.name: path.read_bytes().decode().splitlines(keepends=True)
                       for path in sorted(Path(tmp).iterdir()) if path.name not in case["files"]}
        records.append({"argv": case["argv"], "exit": code, "stdout": out.splitlines(keepends=True),
                        "stderr": err.splitlines(keepends=True), "files": written})
    return records


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in-process", action="store_true", help="run every case through cli.main here")
    args = parser.parse_args()
    json.dump(run_cases(CASES, args.in_process), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
