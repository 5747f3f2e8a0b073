"""The three benchmark workloads: set-up, one pass of fixed work, checks.

Every workload is a closed loop with one client: the next call starts when
the previous one returned. A pass calls the package's public entry points,
the ones the CLI handlers call, looking each up on its module at call time
so that the tracer's wrappers see the call. Inputs come from the seed; the
package itself only sees the generated inputs.

Run ``python3 aqbench/workloads.py <workload> <seed>`` to print the set-up
time of one fresh process: import of the package plus construction of the
workload's plan, target and channel.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks as ck

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".aqbench_out"

Q0 = 0.33
EPSILON = 0.1
DELTA = 0.01
OMEGA_A = math.pi / 8
OMEGA_B = 3 * math.pi / 8
T = 1.0


def use_checkout_package():
    """Import aqsense from this checkout's src/, and refuse any other copy."""
    if not (SRC / "aqsense" / "__init__.py").is_file():
        raise RuntimeError(f"no aqsense package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aqsense

    if Path(aqsense.__file__).resolve().parent != (SRC / "aqsense").resolve():
        raise RuntimeError(f"imported aqsense from {aqsense.__file__}, not from {SRC}")


def stream_seed(seed: int, index: int) -> int:
    """A non-negative 31-bit seed for pass index of run seed."""
    return (seed * 1_000_003 + index) % (2 ** 31)


@dataclass
class Pass:
    """What one pass did: wall time, tallies, and seconds per item.

    stages maps each stage of the pass to its seconds: the pass wall time
    over the copies it tested (robust_dephase), or the seconds of each CLI
    command (exact_pipeline).
    """

    wall_s: float
    stages: dict[str, float]
    copies: int = 0
    rounds: int = 0
    cmd_s: dict[str, float] = field(default_factory=dict)


class RobustDephase:
    """run_robust_protocol at n=3, q0=0.33, eps=0.1, delta=0.01 (M=283) under
    dephase:0.01, for one accepted round per pass.

    Small vectors (64 amplitudes) and most attempts rejected: per-call
    overhead and wasted work dominate. The time per copy of a pass includes
    the rejected attempts and the sensing round. The field positions come
    from the seed; the outcome law does not depend on them.
    """

    name = "robust_dephase"
    n = 3
    noise = ("dephase", 0.01)
    rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.branches: Counter = Counter()

    def setup(self) -> None:
        from aqsense import qcore, sensing
        from aqsense.qsv import protocol

        self.qcore, self.protocol = qcore, protocol
        self.plan = protocol.VerificationPlan(self.n, Q0, EPSILON, DELTA)
        self.channel = qcore.standard_channel(*self.noise, self.n)
        self.target = qcore.make_target(self.n, Q0)
        t1, t2 = random.Random(self.seed).sample(range(1, 2 * self.n + 1), 2)
        self.scenario = sensing.SensingScenario(
            n=self.n, q0=Q0, t1=t1, t2=t2, omega1=OMEGA_A, omega2=OMEGA_B, t=T)

    def warm(self) -> None:
        gen = self.qcore.RngStream(0).gen
        for i in range(5):
            copy = self.channel.apply_to_pure(self.target, gen)
            self.protocol.verify_copy(copy, self.n, Q0, 0.0, gen, copy_index=i)

    def run_pass(self, index: int, checks: ck.Checks) -> Pass:
        stream = self.qcore.RngStream(stream_seed(self.seed, index))
        start = perf_counter()
        result = self.protocol.run_robust_protocol(
            self.scenario, self.plan, self.channel, self.rounds, stream)
        wall = perf_counter() - start
        ck.check_robust(checks, f"{self.name}[{index}]", result, self.rounds, self.plan.M)
        for transcript in result.transcripts:
            self.branches.update(v.branch for v in transcript.verdicts)
        copies = sum(len(t.verdicts) for t in result.transcripts)
        return Pass(wall, {"copy": wall / copies}, copies=copies, rounds=result.rounds)

    def finish(self, checks: ck.Checks) -> None:
        ck.check_branches(checks, self.name, self.branches, self.n, Q0)


SPECTRUM_NS = (3, 4, 5, 6)
SENSE_NS = (3, 4, 5, 6, 7, 8)
SENSE_SHOTS = 100_000
OPT_RANGE = (3, 50)


class ExactPipeline:
    """The README's exact CLI commands, in-process through aqsense.cli.main:
    qsv spectrum --check-numeric (n=3..6), qsv complexity, opt 3..50
    --self-check, sense --audit --shots 100000 (n=3..8).

    Dense linear algebra in symcomb/qsv plus qopt and sensing; no per-copy
    sampling. One pass runs every command once.
    """

    name = "exact_pipeline"

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = json.loads((REFERENCE / "exact_pipeline.json").read_text())
        self.sweep_reference = ck.read_csv(REFERENCE / "sweep_3_50.csv")
        OUT_DIR.mkdir(exist_ok=True)
        self.sweep_path = OUT_DIR / f"sweep-{seed}.csv"

    def setup(self) -> None:
        from aqsense import cli

        self.cli = cli

    def command(self, argv: list[str]) -> tuple[int, str, float]:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue(), perf_counter() - start

    def warm(self) -> None:
        for argv in (spectrum_argv(3), complexity_argv(), sense_argv(3, 0)):
            self.command(argv)

    def run_pass(self, index: int, checks: ck.Checks) -> Pass:
        label = f"{self.name}[{index}]"
        samples = {}
        start = perf_counter()
        for n in SPECTRUM_NS:
            code, out, samples[f"spectrum{n}"] = self.command(spectrum_argv(n))
            if checks.add(f"{label}.spectrum{n}.exit", code == 0, f"exit {code}"):
                got = json.loads(out)
                ck.check_residuals(checks, f"{label}.spectrum{n}", got["residuals"])
                ck.check_fields(checks, f"{label}.spectrum{n}", got, self.reference["spectrum"][str(n)])
        code, out, samples["complexity"] = self.command(complexity_argv())
        if checks.add(f"{label}.complexity.exit", code == 0, f"exit {code}"):
            ck.check_fields(checks, f"{label}.complexity", json.loads(out), self.reference["complexity"])
        code, _, samples["opt"] = self.command(opt_argv(self.sweep_path))
        if checks.add(f"{label}.opt.exit", code == 0, f"exit {code}"):
            ck.check_sweep(checks, f"{label}.opt", ck.read_csv(self.sweep_path), self.sweep_reference)
        for n in SENSE_NS:
            code, out, samples[f"sense{n}"] = self.command(sense_argv(n, stream_seed(self.seed, index)))
            if checks.add(f"{label}.sense{n}.exit", code == 0, f"exit {code}"):
                check_sense(checks, f"{label}.sense{n}", json.loads(out), self.reference["sense"][str(n)])
        wall = perf_counter() - start
        cmd_s = {cmd: sum(dt for key, dt in samples.items() if key.startswith(cmd))
                 for cmd in ("spectrum", "opt", "sense")}
        return Pass(wall, samples, cmd_s=cmd_s)

    def finish(self, checks: ck.Checks) -> None:
        pass


def spectrum_argv(n: int) -> list[str]:
    return ["qsv", "spectrum", "--n", str(n), "--q0", str(Q0), "--check-numeric"]


def complexity_argv() -> list[str]:
    return ["qsv", "complexity", "--n", "3", "--q0", str(Q0),
            "--epsilon", str(EPSILON), "--delta", str(DELTA)]


def opt_argv(path) -> list[str]:
    return ["opt", "--n-min", str(OPT_RANGE[0]), "--n-max", str(OPT_RANGE[1]),
            "--self-check", "--out", str(path)]


def sense_argv(n: int, seed: int) -> list[str]:
    return ["sense", "--n", str(n), "--q0", str(Q0), "--omega-a", repr(OMEGA_A),
            "--omega-b", repr(OMEGA_B), "--t", str(T), "--shots", str(SENSE_SHOTS),
            "--seed", str(seed), "--audit"]


def check_sense(checks: ck.Checks, label: str, got: dict, reference: dict) -> None:
    """Audit passes, counts sum to the shots, closed-form fields match the
    reference and both estimates lie within the stated tolerance."""
    audit = got.get("audit", {})
    checks.add(f"{label}.audit", audit.get("passed") is True and audit.get("max_distance", 1.0) < 1e-12,
               f"audit {audit}")
    checks.add(f"{label}.shots", sum(got["counts"]) == SENSE_SHOTS, f"sum {got['counts']}")
    closed = {**got["probabilities"], **got["sensitivity"],
              "theta_plus": got["scenario"]["theta_plus"], "theta_minus": got["scenario"]["theta_minus"]}
    ck.check_fields(checks, label, closed, reference)
    est = got["estimates"]
    ck.check_angles(checks, label, (est["theta_plus"], est["theta_minus_abs"]),
                    (reference["theta_plus"], abs(reference["theta_minus"])),
                    (reference["g_plus"], reference["g_minus"]), SENSE_SHOTS)


WORKLOADS = {w.name: w for w in (RobustDephase, ExactPipeline)}


def setup_seconds(name: str, seed: int) -> float:
    """Import the package and build one workload, timed in this process.

    The benchmark's own inputs (the references) load before the clock starts.
    """
    workload = WORKLOADS[name](seed)
    start = perf_counter()
    use_checkout_package()
    workload.setup()
    return perf_counter() - start


if __name__ == "__main__":
    print(repr(setup_seconds(sys.argv[1], int(sys.argv[2]))))
