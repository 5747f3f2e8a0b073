"""Command-line interface tying the sensing, verification, and optimization
modules together.

Subcommands: sense (outcome statistics and angle estimates), qsv
spectrum/verify/complexity (strategy eigenvalues, seeded verification
sessions, copy counts), opt (weight-optimization sweep to CSV), robust
(verification-gated sensing with restarts). Exit codes: 0 success, 1 usage
or domain error, 2 numeric self-check failure, 3 verification rejected, 4
restart cap exhausted. Single-run reports are JSON with sorted keys; sweeps
are CSV. Sampling subcommands require a seed.

The two tables ``_FLAGS`` (each flag's type and help) and ``_LEAVES`` (each
subcommand's flags, required or with a default) are the one place a flag is
declared: the parser, the config-file reader and the missing-flag check are
all built from them.

The parsers (the root and one per ``_LEAVES`` entry) are built once per process, on the first
``main`` call. ``main`` parses a command line with the leaf its first words name and reports
leftovers through the root, as a root parse would; one that names no leaf (no words, an unknown
command, a bare ``qsv``, ``--help``) meets the root, which exits. Reuse is safe: every flag
defaults to ``argparse.SUPPRESS``, so a parse returns only the flags given, and ``main`` reads
the defaults, the required flags, the handler and the ``--config`` values on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from math import pi
from pathlib import Path
from typing import Sequence

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
    SensingScenario,
    analytic_probs,
    anonymity_audit,
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
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_REJECTED = 3
EXIT_RESTART_CAP = 4

# the largest --shots a multinomial draw takes (int64)
_SHOTS_MAX = 2 ** 63 - 1


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with status 1."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _emit(payload: dict, out: str | None) -> None:
    """Write a JSON report to the output path, or stdout when none given."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
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
    try:
        strength = float(raw) if sep else 0.0
    except ValueError:
        raise ValueError(f"--noise {arg!r}: strength {raw!r} is not a number") from None
    return standard_channel(kind, strength, n, q0=q0)


def _parse_examples(arg: str):
    """Resolve a label range A..L or comma list A,C,K to angle examples."""
    by_label = {ex.label: ex for ex in ANGLE_EXAMPLES}
    labels = list(by_label)
    if ".." in arg:
        start, _, end = arg.partition("..")
        if start not in by_label or end not in by_label:
            raise ValueError(f"bad example range {arg!r}")
        if labels.index(start) > labels.index(end):
            raise ValueError(f"empty example range {arg!r}")
        wanted = labels[labels.index(start) : labels.index(end) + 1]
    else:
        wanted = [label.strip() for label in arg.split(",")]
        for label in wanted:
            if label not in by_label:
                raise ValueError(f"unknown example label {label!r}")
        if len(set(wanted)) < len(wanted):
            raise ValueError(f"repeated example label in {arg!r}")
    return [by_label[label] for label in wanted]


def _scenario(opt: dict) -> SensingScenario:
    return SensingScenario(
        n=opt["n"],
        q0=opt["q0"],
        t1=opt["t1"],
        t2=opt["t2"],
        omega1=opt["omega_a"],
        omega2=opt["omega_b"],
        t=opt["t"],
    )


def _cmd_sense(opt: dict) -> int:
    if opt["shots"] < 0:
        raise ValueError(f"--shots must be non-negative, got {opt['shots']}")
    if opt["shots"] > _SHOTS_MAX:
        raise ValueError(f"--shots={opt['shots']} exceeds {_SHOTS_MAX}, the largest count a draw takes (2^63 - 1)")
    scenario = _scenario(opt)
    dist = analytic_probs(scenario.n, scenario.q0, scenario.theta_plus, scenario.theta_minus)
    bound = sensitivity_bounds(scenario.n, scenario.q0, scenario.theta_plus, scenario.theta_minus)
    payload = {
        "scenario": {
            **vars(scenario),
            "theta_plus": scenario.theta_plus,
            "theta_minus": scenario.theta_minus,
        },
        "probabilities": vars(dist),
        "sensitivity": vars(bound),
        "shots": opt["shots"],
        "seed": opt["seed"],
    }
    if opt["shots"] > 0 and opt["seed"] is None:
        raise ValueError("a --seed is required when --shots > 0")
    if opt["shots"] > 0:
        counts = sample_run(scenario, opt["shots"], RngStream(opt["seed"]).gen)
        freq = counts / opt["shots"]
        est = estimate_angles(freq[0], freq[1], freq[2], scenario.n, scenario.q0)
        payload["counts"] = counts.tolist()
    else:
        est = estimate_angles(dist.p1, dist.p2, dist.p3, scenario.n, scenario.q0)
    payload["estimates"] = {"theta_plus": est[0], "theta_minus_abs": est[1]}
    audit = None
    if opt["audit"]:
        audit = anonymity_audit(
            scenario.n, scenario.q0, scenario.omega1, scenario.omega2, scenario.t
        )
        payload["audit"] = vars(audit)
    _emit(payload, opt["out"])
    if audit is not None and not audit.passed:
        print("error: anonymity audit failed", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_qsv_spectrum(opt: dict) -> int:
    if not opt["tol"] >= 0.0:
        raise ValueError(f"--tol must be a non-negative number, got {opt['tol']}")
    summary = analytic_spectrum(opt["n"], opt["q0"], opt["p"], check_numeric=opt["check_numeric"])
    _emit(vars(summary), opt["out"])
    if opt["check_numeric"]:
        worst = np.max(list(summary.residuals.values()))  # NaN if any residual is NaN
        if not worst <= opt["tol"]:
            print(
                f"error: analytic/numeric residual {worst:.3e} exceeds {opt['tol']:.3e}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_qsv_verify(opt: dict) -> int:
    plan = VerificationPlan(opt["n"], opt["q0"], opt["epsilon"], opt["delta"], opt["p"])
    channel = _parse_noise(opt["noise"], opt["n"], opt["q0"])
    target = make_target(opt["n"], opt["q0"])
    stream = RngStream(opt["seed"])
    source = channel.trajectories(target, stream.substream(0).gen, plan.M)
    accepted, transcript = verify_batch(source, plan, stream.substream(1))
    if opt["transcript"]:
        Path(opt["transcript"]).write_text(transcript.to_jsonl())
    payload = {
        "accepted": accepted,
        "copies_tested": len(transcript.verdicts),
        "plan": vars(plan),
        "noise": {"kind": channel.label, "strength": channel.strength},
        "seed": opt["seed"],
        "transcript": opt["transcript"],
    }
    _emit(payload, opt["out"])
    if not accepted:
        print("error: verification rejected the source", file=sys.stderr)
        return EXIT_REJECTED
    return EXIT_OK


def _cmd_qsv_complexity(opt: dict) -> int:
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


def _cmd_opt(opt: dict) -> int:
    examples = _parse_examples(opt["examples"])
    table = sweep(opt["n_min"], opt["n_max"], examples)
    write_sweep_csv(table, opt["out"])
    q_g = table[2].q_G  # a row per n, a column per example in --examples order
    print(f"wrote {q_g.size} rows to {opt['out']}")
    if opt["self_check"]:
        falling = (np.diff(q_g, axis=0) <= 0).any(axis=0)
        if falling.any():
            print(f"error: q_G not increasing in n for example {examples[np.argmax(falling)].label}", file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_robust(opt: dict) -> int:
    # the plan first, so that (n, q0) meets the checks of qsv verify and complexity
    plan = VerificationPlan(opt["n"], opt["q0"], opt["epsilon"], opt["delta"], opt["p"])
    scenario = _scenario(opt)
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


_REQUIRED = object()

# Every flag, declared once: name -> (type, help). Type bool is a switch.
_FLAGS = {
    "config": (str, "flat key=value file; explicit flags win"),
    "out": (str, "output path (default: stdout)"),
    "n": (int, None),
    "q0": (float, None),
    "omega_a": (float, "lower local frequency"),
    "omega_b": (float, "upper local frequency"),
    "t": (float, "interaction time"),
    "t1": (int, "position of omega-a (1-based)"),
    "t2": (int, "position of omega-b (1-based)"),
    "shots": (int, "samples to draw (0: analytic only)"),
    "seed": (int, None),
    "audit": (bool, "run the anonymity audit"),
    "p": (float, None),
    "check_numeric": (bool, None),
    "tol": (float, "residual tolerance"),
    "epsilon": (float, None),
    "delta": (float, None),
    "noise": (str, "channel kind:strength"),
    "transcript": (str, "write per-copy records here (JSONL)"),
    "n_min": (int, None),
    "n_max": (int, None),
    "examples": (str, "label range A..L or list A,C,K"),
    "self_check": (bool, "fail if q_G is not increasing in n"),
    "rounds": (int, None),
    "restart_cap": (int, None),
}

# Flags of every subcommand; a subcommand may make one of them required.
_COMMON = {"config": None, "out": None}

# Subcommand -> (handler, help, flags). Flags are listed in the order of
# --help; each maps to its default, or to _REQUIRED (reported in this order).
_LEAVES = {
    "sense": (_cmd_sense, "outcome statistics, sampling, angle estimates", {
        "n": _REQUIRED, "q0": _REQUIRED, "omega_a": _REQUIRED, "omega_b": _REQUIRED, "t": _REQUIRED,
        "t1": 1, "t2": 2, "shots": 0, "seed": None, "audit": False,
    }),
    "qsv spectrum": (_cmd_qsv_spectrum, "closed-form strategy eigenvalues", {
        "n": _REQUIRED, "q0": _REQUIRED, "p": 0.0, "check_numeric": False, "tol": 1e-9,
    }),
    "qsv verify": (_cmd_qsv_verify, "run one seeded verification session", {
        "n": _REQUIRED, "q0": _REQUIRED, "epsilon": _REQUIRED, "delta": _REQUIRED, "p": 0.0,
        "noise": "none", "seed": _REQUIRED, "transcript": None,
    }),
    "qsv complexity": (_cmd_qsv_complexity, "copies per verification session", {
        "n": _REQUIRED, "q0": _REQUIRED, "epsilon": _REQUIRED, "delta": _REQUIRED, "p": 0.0,
    }),
    "opt": (_cmd_opt, "weight-optimization sweep to CSV", {
        "n_min": _REQUIRED, "n_max": _REQUIRED, "out": _REQUIRED, "examples": "A..L", "self_check": False,
    }),
    "robust": (_cmd_robust, "verification-gated sensing with restarts", {
        "n": _REQUIRED, "q0": _REQUIRED, "epsilon": _REQUIRED, "delta": _REQUIRED, "p": 0.0,
        "rounds": _REQUIRED, "noise": "none", "seed": _REQUIRED, "restart_cap": 10000,
        "omega_a": pi / 8, "omega_b": 3 * pi / 8, "t": 1.0, "t1": 1, "t2": 2,
    }),
}

_QSV_HELP = "strategy spectrum, verification, sample complexity"


@functools.cache
def _build_parser() -> dict[tuple[str, ...], _Parser]:
    """The root parser, keyed (), and one leaf parser per _LEAVES entry, keyed by its command
    words, as ("qsv", "spectrum"); built on the first call and reused. Every flag defaults
    to SUPPRESS, so a parsed namespace holds only the flags given on the command line."""
    root = _Parser(prog="aqsense", description="anonymous sensing with verified probes")
    subs = {"": root.add_subparsers(dest="command", required=True, parser_class=_Parser)}
    parsers = {(): root}
    for name, (_, leaf_help, flags) in _LEAVES.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:  # "qsv", made before its first leaf
            qsv = subs[""].add_parser(group, help=_QSV_HELP)
            subs[group] = qsv.add_subparsers(dest="qsv_command", required=True, parser_class=_Parser)
        parser = parsers[tuple(name.split())] = subs[group].add_parser(leaf, help=leaf_help)
        for flag in {**_COMMON, **flags}:
            kind, flag_help = _FLAGS[flag]
            option = "--" + flag.replace("_", "-")
            if kind is bool:
                parser.add_argument(option, action="store_true", default=argparse.SUPPRESS, help=flag_help)
            else:
                parser.add_argument(option, type=kind, default=argparse.SUPPRESS, help=flag_help)
    return parsers


_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _read_config(path: str, flags: dict) -> dict:
    """Values for the given flags from a file of flat key=value lines.

    Keys are flag names with dashes or underscores, and each value passes
    through its flag's type; a switch takes 1, true, yes or on, and 0,
    false, no or off (any case). A value its flag cannot take is an error
    naming the line and the key. Blank lines, # comments and keys of other
    subcommands are ignored.
    """
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value, got {line!r}")
        key, raw = key.strip(), raw.strip()
        flag = key.replace("-", "_")
        if flag in flags and flag != "config":
            kind = _FLAGS[flag][0]
            try:
                values[flag] = _SWITCH_WORDS[raw.lower()] if kind is bool else kind(raw)
            except (KeyError, ValueError):
                what = "switch" if kind is bool else kind.__name__
                hint = " (use 1, true, yes, on or 0, false, no, off)" if kind is bool else ""
                raise ValueError(f"config line {lineno}: {key}: invalid {what} value {raw!r}{hint}") from None
    return values


def main(argv: Sequence[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    parsers = _build_parser()
    words = next(tuple(args[:k]) for k in (2, 1, 0) if tuple(args[:k]) in parsers)  # a leaf, else the root
    try:
        parsed, extra = parsers[words].parse_known_args(args[len(words):])
        if extra:  # reported by the root, as its parse_args reports them
            parsers[()].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    given = vars(parsed)
    handler, _, leaf_flags = _LEAVES[" ".join(words)]
    flags = {**_COMMON, **leaf_flags}
    # precedence: explicit flag, then config file, then the table's default
    opt = {flag: default for flag, default in flags.items() if default is not _REQUIRED}
    try:
        if given.get("config"):
            opt.update(_read_config(given["config"], flags))
        opt.update(given)
        missing = [f"--{flag.replace('_', '-')}" for flag in leaf_flags if flag not in opt]
        if missing:
            raise ValueError("missing required flags: " + ", ".join(missing))
        if opt.get("seed") is not None and opt["seed"] < 0:
            raise ValueError(f"--seed must be non-negative, got {opt['seed']}")
        return handler(opt)
    except RestartCapError as exc:
        print(f"error: restart cap exhausted: {exc}", file=sys.stderr)
        return EXIT_RESTART_CAP
    except OverflowError as exc:
        print(f"error: a value leaves float64 range: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
