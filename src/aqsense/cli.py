"""Command-line interface tying the sensing, verification, and optimization
modules together.

Subcommands: sense (outcome statistics and angle estimates), qsv
spectrum/verify/complexity (strategy eigenvalues, seeded verification
sessions, copy counts), opt (weight-optimization sweep to CSV), robust
(verification-gated sensing with restarts). Exit codes: 0 success, 1 usage
or domain error, 2 numeric self-check failure, 3 verification rejected or
estimator collapse, 4 restart cap exhausted. Single-run reports are JSON
with sorted keys; sweeps are CSV. Sampling subcommands require a seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .qcore import KrausChannel, RngStream, make_target, standard_channel
from .qopt import ANGLE_EXAMPLES, sweep, write_sweep_csv
from .qsv import (
    RestartCapError,
    VerificationPlan,
    analytic_spectrum,
    run_robust_protocol,
    sample_complexity_terms,
    verify_batch,
)
from .sensing import (
    GhzCollapseError,
    SensingScenario,
    analytic_probs,
    anonymity_audit,
    check_support_budget,
    estimate_angles,
    sample_run,
    sensitivity_bounds,
)

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_MISMATCH",
    "EXIT_REJECTED",
    "EXIT_RESTART_CAP",
    "RunConfig",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_REJECTED = 3
EXIT_RESTART_CAP = 4

_LABELS = "ABCDEFGHIJKL"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class RunConfig:
    """A parsed invocation: leaf subcommand plus its flag values."""

    subcommand: str
    options: Mapping[str, object]

    def need(self, *names: str) -> None:
        """Raise ValueError naming any options that are still unset."""
        missing = [f"--{k.replace('_', '-')}" for k in names if self.options.get(k) is None]
        if missing:
            raise ValueError("missing required flags: " + ", ".join(missing))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(val) for val in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj


def _emit(payload: dict, out: str | None) -> None:
    """Write a JSON report to the output path, or stdout when none given."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_noise(arg: str, n: int, q0: float) -> KrausChannel:
    """Build a channel from a kind:strength argument such as dephase:0.1;
    only kind none may omit the strength."""
    kind, sep, raw = arg.partition(":")
    if not sep and kind != "none":
        raise ValueError(f"noise {arg!r} needs a strength, as in {kind}:0.1")
    return standard_channel(kind, float(raw) if sep else 0.0, n, q0=q0)


def _parse_examples(arg: str):
    """Resolve a label range A..L or comma list A,C,K to angle examples."""
    if ".." in arg:
        start, _, end = arg.partition("..")
        if len(start) != 1 or len(end) != 1 or start not in _LABELS or end not in _LABELS:
            raise ValueError(f"bad example range {arg!r}")
        if _LABELS.index(start) > _LABELS.index(end):
            raise ValueError(f"empty example range {arg!r}")
        wanted = _LABELS[_LABELS.index(start) : _LABELS.index(end) + 1]
    else:
        wanted = [label.strip() for label in arg.split(",")]
        for label in wanted:
            if label not in _LABELS:
                raise ValueError(f"unknown example label {label!r}")
        if len(set(wanted)) < len(wanted):
            raise ValueError(f"repeated example label in {arg!r}")
    by_label = {ex.label: ex for ex in ANGLE_EXAMPLES}
    return [by_label[label] for label in wanted]


def _cmd_sense(cfg: RunConfig) -> int:
    cfg.need("n", "q0", "omega_a", "omega_b", "t")
    opt = cfg.options
    if opt["shots"] < 0:
        raise ValueError(f"--shots must be non-negative, got {opt['shots']}")
    scenario = SensingScenario(
        n=opt["n"],
        q0=opt["q0"],
        t1=opt["t1"],
        t2=opt["t2"],
        omega1=opt["omega_a"],
        omega2=opt["omega_b"],
        t=opt["t"],
    )
    dist = analytic_probs(scenario.n, scenario.q0, scenario.theta_plus, scenario.theta_minus)
    bound = sensitivity_bounds(scenario.n, scenario.q0, scenario.theta_plus, scenario.theta_minus)
    payload = {
        "scenario": {
            "n": scenario.n,
            "q0": scenario.q0,
            "t1": scenario.t1,
            "t2": scenario.t2,
            "omega1": scenario.omega1,
            "omega2": scenario.omega2,
            "t": scenario.t,
            "theta_plus": scenario.theta_plus,
            "theta_minus": scenario.theta_minus,
        },
        "probabilities": {"p1": dist.p1, "p2": dist.p2, "p3": dist.p3, "p4": dist.p4},
        "sensitivity": {"g_plus": bound.g_plus, "g_minus": bound.g_minus},
        "shots": opt["shots"],
        "seed": opt["seed"],
    }
    if opt["shots"] > 0 and opt["seed"] is None:
        raise ValueError("a --seed is required when --shots > 0")
    if opt["shots"] > 0 or opt["audit"]:
        check_support_budget(scenario.n, placements=opt["audit"])
    if opt["shots"] > 0:
        counts = sample_run(scenario, opt["shots"], RngStream(opt["seed"]).gen)
        freq = counts / opt["shots"]
        est = estimate_angles(freq[0], freq[1], freq[2], scenario.n, scenario.q0)
        payload["counts"] = counts
    else:
        est = estimate_angles(dist.p1, dist.p2, dist.p3, scenario.n, scenario.q0)
    payload["estimates"] = {"theta_plus": est[0], "theta_minus_abs": est[1]}
    audit = None
    if opt["audit"]:
        audit = anonymity_audit(
            scenario.n, scenario.q0, scenario.omega1, scenario.omega2, scenario.t
        )
        payload["audit"] = {
            "num_pairs": audit.num_pairs,
            "max_distance": audit.max_distance,
            "passed": audit.passed,
        }
    _emit(payload, opt["out"])
    if audit is not None and not audit.passed:
        print("error: anonymity audit failed", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_qsv_spectrum(cfg: RunConfig) -> int:
    cfg.need("n", "q0")
    opt = cfg.options
    summary = analytic_spectrum(opt["n"], opt["q0"], opt["p"], check_numeric=opt["check_numeric"])
    _emit(dataclasses.asdict(summary), opt["out"])
    if opt["check_numeric"]:
        worst = max(summary.residuals.values())
        if worst > opt["tol"]:
            print(
                f"error: analytic/numeric residual {worst:.3e} exceeds {opt['tol']:.3e}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_qsv_verify(cfg: RunConfig) -> int:
    cfg.need("n", "q0", "epsilon", "delta", "seed")
    opt = cfg.options
    plan = VerificationPlan(opt["n"], opt["q0"], opt["epsilon"], opt["delta"], opt["p"])
    channel = _parse_noise(opt["noise"], opt["n"], opt["q0"])
    target = make_target(opt["n"], opt["q0"])
    stream = RngStream(opt["seed"])
    noise_gen = stream.substream(0).gen

    def source():
        while True:
            yield channel.apply_to_pure(target, noise_gen)

    accepted, transcript = verify_batch(source(), plan, stream.substream(1))
    if opt["transcript"]:
        Path(opt["transcript"]).write_text(transcript.to_jsonl())
    payload = {
        "accepted": accepted,
        "copies_tested": len(transcript.verdicts),
        "plan": {
            "n": plan.n,
            "q0": plan.q0,
            "epsilon": plan.epsilon,
            "delta": plan.delta,
            "p": plan.p,
            "M": plan.M,
        },
        "noise": {"kind": channel.label, "strength": channel.strength},
        "seed": opt["seed"],
        "transcript": opt["transcript"],
    }
    _emit(payload, opt["out"])
    if not accepted:
        print("error: verification rejected the source", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_qsv_complexity(cfg: RunConfig) -> int:
    cfg.need("n", "q0", "epsilon", "delta")
    opt = cfg.options
    term_gap, term_wallis = sample_complexity_terms(
        opt["n"], opt["q0"], opt["epsilon"], opt["delta"], opt["p"]
    )
    payload = {
        "n": opt["n"],
        "q0": opt["q0"],
        "epsilon": opt["epsilon"],
        "delta": opt["delta"],
        "p": opt["p"],
        "term_gap": term_gap,
        "term_wallis": term_wallis,
        "M": max(term_gap, term_wallis),
    }
    _emit(payload, opt["out"])
    return EXIT_OK


def _cmd_opt(cfg: RunConfig) -> int:
    cfg.need("n_min", "n_max", "out")
    opt = cfg.options
    examples = _parse_examples(opt["examples"])
    rows = sweep(opt["n_min"], opt["n_max"], examples)
    write_sweep_csv(rows, opt["out"])
    print(f"wrote {len(rows)} rows to {opt['out']}")
    if opt["self_check"]:
        for ex in examples:
            q_gs = [row["q_G"] for row in rows if row["label"] == ex.label]
            if any(b <= a for a, b in zip(q_gs, q_gs[1:])):
                print(f"error: q_G not increasing in n for example {ex.label}", file=sys.stderr)
                return EXIT_MISMATCH
    return EXIT_OK


def _cmd_robust(cfg: RunConfig) -> int:
    cfg.need("n", "q0", "epsilon", "delta", "rounds", "seed")
    opt = cfg.options
    scenario = SensingScenario(
        n=opt["n"],
        q0=opt["q0"],
        t1=opt["t1"],
        t2=opt["t2"],
        omega1=opt["omega_a"],
        omega2=opt["omega_b"],
        t=opt["t"],
    )
    plan = VerificationPlan(opt["n"], opt["q0"], opt["epsilon"], opt["delta"], opt["p"])
    channel = _parse_noise(opt["noise"], opt["n"], opt["q0"])
    result = run_robust_protocol(
        scenario,
        plan,
        channel,
        opt["rounds"],
        RngStream(opt["seed"]),
        restart_cap=opt["restart_cap"],
    )
    payload = {
        "rounds": result.rounds,
        "restarts": result.restarts,
        "counts": list(result.counts),
        "estimates": {
            "theta_plus": result.theta_plus,
            "theta_minus_abs": result.theta_minus_abs,
        },
        "plan_M": plan.M,
        "noise": {"kind": channel.label, "strength": channel.strength},
        "seed": opt["seed"],
        "restart_cap": opt["restart_cap"],
    }
    _emit(payload, opt["out"])
    return EXIT_OK


_HANDLERS = {
    "sense": _cmd_sense,
    "qsv.spectrum": _cmd_qsv_spectrum,
    "qsv.verify": _cmd_qsv_verify,
    "qsv.complexity": _cmd_qsv_complexity,
    "opt": _cmd_opt,
    "robust": _cmd_robust,
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, help="flat key=value file; explicit flags win")
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def _build_parser():
    parser = _Parser(prog="aqsense", description="anonymous sensing with verified probes")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    leaves: dict[str, argparse.ArgumentParser] = {}

    sense = subs.add_parser("sense", help="outcome statistics, sampling, angle estimates")
    _add_common(sense)
    sense.add_argument("--n", type=int)
    sense.add_argument("--q0", type=float)
    sense.add_argument("--omega-a", type=float, help="lower local frequency")
    sense.add_argument("--omega-b", type=float, help="upper local frequency")
    sense.add_argument("--t", type=float, help="interaction time")
    sense.add_argument("--t1", type=int, default=1, help="position of omega-a (1-based)")
    sense.add_argument("--t2", type=int, default=2, help="position of omega-b (1-based)")
    sense.add_argument("--shots", type=int, default=0, help="samples to draw (0: analytic only)")
    sense.add_argument("--seed", type=int, default=None)
    sense.add_argument("--audit", action="store_true", help="run the anonymity audit")
    leaves["sense"] = sense

    qsv = subs.add_parser("qsv", help="strategy spectrum, verification, sample complexity")
    qsubs = qsv.add_subparsers(dest="qsv_command", required=True, parser_class=_Parser)

    spectrum = qsubs.add_parser("spectrum", help="closed-form strategy eigenvalues")
    _add_common(spectrum)
    spectrum.add_argument("--n", type=int)
    spectrum.add_argument("--q0", type=float)
    spectrum.add_argument("--p", type=float, default=0.0)
    spectrum.add_argument("--check-numeric", action="store_true")
    spectrum.add_argument("--tol", type=float, default=1e-9, help="residual tolerance")
    leaves["qsv.spectrum"] = spectrum

    verify = qsubs.add_parser("verify", help="run one seeded verification session")
    _add_common(verify)
    verify.add_argument("--n", type=int)
    verify.add_argument("--q0", type=float)
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--delta", type=float)
    verify.add_argument("--p", type=float, default=0.0)
    verify.add_argument("--noise", default="none", help="channel kind:strength")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--transcript", default=None, help="write per-copy records here (JSONL)")
    leaves["qsv.verify"] = verify

    complexity = qsubs.add_parser("complexity", help="copies per verification session")
    _add_common(complexity)
    complexity.add_argument("--n", type=int)
    complexity.add_argument("--q0", type=float)
    complexity.add_argument("--epsilon", type=float)
    complexity.add_argument("--delta", type=float)
    complexity.add_argument("--p", type=float, default=0.0)
    leaves["qsv.complexity"] = complexity

    opt = subs.add_parser("opt", help="weight-optimization sweep to CSV")
    _add_common(opt)
    opt.add_argument("--n-min", type=int)
    opt.add_argument("--n-max", type=int)
    opt.add_argument("--examples", default="A..L", help="label range A..L or list A,C,K")
    opt.add_argument("--self-check", action="store_true", help="fail if q_G is not increasing in n")
    leaves["opt"] = opt

    robust = subs.add_parser("robust", help="verification-gated sensing with restarts")
    _add_common(robust)
    robust.add_argument("--n", type=int)
    robust.add_argument("--q0", type=float)
    robust.add_argument("--epsilon", type=float)
    robust.add_argument("--delta", type=float)
    robust.add_argument("--p", type=float, default=0.0)
    robust.add_argument("--rounds", type=int, default=None)
    robust.add_argument("--noise", default="none", help="channel kind:strength")
    robust.add_argument("--seed", type=int, default=None)
    robust.add_argument("--restart-cap", type=int, default=10000)
    robust.add_argument("--omega-a", type=float, default=float(np.pi / 8))
    robust.add_argument("--omega-b", type=float, default=float(3 * np.pi / 8))
    robust.add_argument("--t", type=float, default=1.0)
    robust.add_argument("--t1", type=int, default=1)
    robust.add_argument("--t2", type=int, default=2)
    leaves["robust"] = robust

    return parser, leaves


def _leaf_name(args: argparse.Namespace) -> str:
    if args.command == "qsv":
        return f"qsv.{args.qsv_command}"
    return args.command


def _apply_config(parser: argparse.ArgumentParser, path: str) -> None:
    """Load key=value defaults from a file into one leaf parser.

    Keys mirror long flags with dashes or underscores; values pass through
    the flag's type converter; keys that match no flag of this subcommand
    are ignored so one file can serve several subcommands. Explicit flags
    win because they override parser defaults.
    """
    by_key: dict[str, argparse.Action] = {}
    for action in parser._actions:
        if action.dest in ("help", "config"):
            continue
        for opt_string in action.option_strings:
            by_key[opt_string.lstrip("-").replace("-", "_")] = action
    overrides: dict[str, object] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        action = by_key.get(key.strip().replace("-", "_"))
        if action is None:
            continue
        raw = raw.strip()
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            overrides[action.dest] = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            overrides[action.dest] = action.type(raw)
        else:
            overrides[action.dest] = raw
    parser.set_defaults(**overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser, leaves = _build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
        leaf = _leaf_name(args)
        if getattr(args, "config", None):
            _apply_config(leaves[leaf], args.config)
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    cfg = RunConfig(leaf, dict(vars(args)))
    try:
        return _HANDLERS[leaf](cfg)
    except GhzCollapseError as exc:
        print(f"error: estimator signalled GHZ collapse: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except RestartCapError as exc:
        print(f"error: restart cap exhausted: {exc}", file=sys.stderr)
        return EXIT_RESTART_CAP
    except OverflowError as exc:
        print(f"error: a value leaves float64 range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
