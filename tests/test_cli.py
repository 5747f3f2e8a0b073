"""Tests for the command-line interface: output schemas, exit codes,
seeded reproducibility, and the key=value config file."""

from __future__ import annotations

import argparse
import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from math import comb
from pathlib import Path

import numpy as np
import pytest

import aqsense
from aqsense import cli
from aqsense.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_REJECTED,
    EXIT_RESTART_CAP,
    EXIT_USAGE,
    main,
)
from aqsense.qopt import N_MAX, sweep
from aqsense.qsv import analytic_spectrum, q_min, sample_complexity
from aqsense.sensing import analytic_probs, check_support_budget, g_minus, g_plus

OMEGA_A = repr(np.pi / 8)
OMEGA_B = repr(3 * np.pi / 8)

SENSE_BASE = [
    "sense",
    "--n", "3",
    "--q0", "0.33",
    "--omega-a", OMEGA_A,
    "--omega-b", OMEGA_B,
    "--t", "1.0",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    return code, json.loads(out), err


README = Path(__file__).resolve().parents[1] / "README.md"

# each leaf's --flags and its no-flag error line: a table edit that drops, renames or
# reorders a required flag fails here
FLAG_SURFACE = {
    "sense": (
        {"--audit", "--config", "--help", "--n", "--omega-a", "--omega-b", "--out", "--q0", "--seed",
         "--shots", "--t", "--t1", "--t2"},
        "--n, --q0, --omega-a, --omega-b, --t",
    ),
    "qsv spectrum": (
        {"--check-numeric", "--config", "--help", "--n", "--out", "--p", "--q0", "--tol"},
        "--n, --q0",
    ),
    "qsv verify": (
        {"--config", "--delta", "--epsilon", "--help", "--n", "--noise", "--out", "--p", "--q0", "--seed",
         "--transcript"},
        "--n, --q0, --epsilon, --delta, --seed",
    ),
    "qsv complexity": (
        {"--config", "--delta", "--epsilon", "--help", "--n", "--out", "--p", "--q0"},
        "--n, --q0, --epsilon, --delta",
    ),
    "opt": (
        {"--config", "--examples", "--help", "--n-max", "--n-min", "--out", "--self-check"},
        "--n-min, --n-max, --out",
    ),
    "robust": (
        {"--config", "--delta", "--epsilon", "--help", "--n", "--noise", "--omega-a", "--omega-b", "--out",
         "--p", "--q0", "--restart-cap", "--rounds", "--seed", "--t", "--t1", "--t2"},
        "--n, --q0, --epsilon, --delta, --rounds, --seed",
    ),
}


class TestParsing:
    def test_no_arguments_is_usage(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == EXIT_USAGE

    def test_unknown_subcommand_is_usage(self, capsys):
        code, _, _ = run_cli(["bogus"], capsys)
        assert code == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == EXIT_OK
        assert "sense" in out and "robust" in out

    def test_missing_flags_reported_together(self, capsys):
        code, _, err = run_cli(["sense", "--n", "3"], capsys)
        assert code == EXIT_USAGE
        assert "--q0" in err and "--omega-a" in err

    def test_domain_error_is_usage(self, capsys):
        argv = list(SENSE_BASE)
        argv[argv.index("--q0") + 1] = "1.5"
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "q0" in err

    def test_non_numeric_flag_is_usage(self, capsys):
        argv = list(SENSE_BASE)
        argv[argv.index("--n") + 1] = "three"
        code, _, _ = run_cli(argv, capsys)
        assert code == EXIT_USAGE


@pytest.mark.parametrize("leaf", sorted(FLAG_SURFACE))
def test_flag_surface(leaf, capsys):
    flags, missing = FLAG_SURFACE[leaf]
    code, out, _ = run_cli(leaf.split() + ["--help"], capsys)
    assert code == EXIT_OK
    assert set(re.findall(r"--[a-z][a-z0-9-]*", out)) == flags
    code, out, err = run_cli(leaf.split(), capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: missing required flags: {missing}\n"


def readme_commands():
    block = README.read_text().split("## Command-line usage", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("aqsense ")]


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the README's dephased verify session is rejected, as its comment says
    codes = [run_cli(argv, capsys)[0] for argv in readme_commands()]
    assert codes == [EXIT_OK] * 4 + [EXIT_REJECTED] + [EXIT_OK] * 2


class TestFileErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--config", "missing.cfg"],
            ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01",
             "--out", "nodir/x.json"],
            ["opt", "--n-min", "3", "--n-max", "4", "--out", "nodir/s.csv"],
            ["qsv", "verify", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--seed", "1",
             "--transcript", "nodir/t.jsonl"],
        ],
    )
    def test_os_error_is_one_usage_line(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestSense:
    def test_analytic_only_report(self, capsys):
        code, payload, _ = run_json(SENSE_BASE + ["--shots", "0"], capsys)
        assert code == EXIT_OK
        dist = analytic_probs(3, 0.33, np.pi / 2, -np.pi / 4)
        for key, want in zip(("p1", "p2", "p3", "p4"), (dist.p1, dist.p2, dist.p3, dist.p4)):
            assert payload["probabilities"][key] == pytest.approx(want, rel=1e-14)
        assert payload["sensitivity"]["g_plus"] == pytest.approx(g_plus(0.33), rel=1e-14)
        assert payload["sensitivity"]["g_minus"] == pytest.approx(
            g_minus(3, 0.33, np.pi / 2, -np.pi / 4), rel=1e-14
        )
        assert payload["estimates"]["theta_plus"] == pytest.approx(np.pi / 2, abs=1e-12)
        assert payload["estimates"]["theta_minus_abs"] == pytest.approx(np.pi / 4, abs=1e-12)
        assert "counts" not in payload
        assert payload["scenario"]["theta_minus"] == pytest.approx(-np.pi / 4, abs=1e-15)

    def test_seeded_run_is_byte_identical(self, capsys):
        argv = SENSE_BASE + ["--shots", "400", "--seed", "17"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        counts = json.loads(out1)["counts"]
        assert sum(counts) == 400 and len(counts) == 4

    def test_sampled_estimates_converge(self, capsys):
        argv = SENSE_BASE + ["--shots", "200000", "--seed", "5"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["estimates"]["theta_plus"] == pytest.approx(np.pi / 2, abs=0.03)
        assert payload["estimates"]["theta_minus_abs"] == pytest.approx(np.pi / 4, abs=0.06)

    def test_sampling_without_seed_rejected(self, capsys):
        code, _, err = run_cli(SENSE_BASE + ["--shots", "10"], capsys)
        assert code == EXIT_USAGE
        assert "seed" in err

    def test_negative_shots_is_usage(self, capsys):
        code, out, err = run_cli(SENSE_BASE + ["--shots", "-5", "--seed", "1"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "--shots" in err

    @pytest.mark.parametrize("shots", [2 ** 63, 10 ** 20])
    def test_shots_past_int64_names_the_flag_and_its_limit(self, shots, capsys):
        code, out, err = run_cli(SENSE_BASE + ["--shots", str(shots), "--seed", "1"], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --shots={shots} exceeds {2 ** 63 - 1}, the largest count a draw takes (2^63 - 1)\n"

    def test_shots_at_int64_max_runs(self, capsys):
        code, payload, _ = run_json(SENSE_BASE + ["--shots", str(2 ** 63 - 1), "--seed", "1"], capsys)
        assert code == EXIT_OK
        assert sum(payload["counts"]) == 2 ** 63 - 1

    def test_audit_flag_reports_pass(self, capsys):
        code, payload, _ = run_json(SENSE_BASE + ["--audit"], capsys)
        assert code == EXIT_OK
        assert payload["audit"]["passed"] is True
        assert payload["audit"]["num_pairs"] == 30
        assert payload["audit"]["max_distance"] < 1e-12

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(SENSE_BASE + ["--out", str(path)], capsys)
        assert code == EXIT_OK
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["scenario"]["n"] == 3


class TestQsvSpectrum:
    def test_matches_library_values(self, capsys):
        code, payload, _ = run_json(["qsv", "spectrum", "--n", "3", "--q0", "0.33"], capsys)
        assert code == EXIT_OK
        summary = analytic_spectrum(3, 0.33, 0.0)
        assert payload["beta"] == pytest.approx(summary.beta, rel=1e-15)
        assert payload["nu"] == pytest.approx(summary.nu, rel=1e-15)
        assert payload["branch"] == summary.branch
        assert payload["residuals"] is None

    def test_check_numeric_passes(self, capsys):
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--check-numeric"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["residuals"]
        assert max(payload["residuals"].values()) < 1e-10

    @pytest.mark.parametrize("tol", ["nan", "-1e-9"])
    def test_tolerance_not_a_non_negative_number_is_usage(self, tol, capsys):
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--check-numeric", f"--tol={tol}"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --tol must be a non-negative number, got {float(tol)}\n"

    def test_infinite_tolerance_passes(self, capsys):
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--check-numeric", "--tol", "inf"]
        assert run_cli(argv, capsys)[0] == EXIT_OK

    @pytest.mark.parametrize("where", [0, -1])
    def test_nan_residual_trips_mismatch(self, where, monkeypatch, capsys):
        # a NaN residual fails the check wherever it sits in the table
        def nan_residual(*args, **kwargs):
            summary = analytic_spectrum(*args, **kwargs)
            key = list(summary.residuals)[where]
            return dataclasses.replace(summary, residuals={**summary.residuals, key: float("nan")})

        monkeypatch.setattr("aqsense.cli.analytic_spectrum", nan_residual)
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--check-numeric", "--tol", "1"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_MISMATCH
        assert json.loads(out)["residuals"]
        assert err == "error: analytic/numeric residual nan exceeds 1.000e+00\n"

    def test_tolerance_override_trips_mismatch(self, capsys):
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--check-numeric", "--tol", "1e-30"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_MISMATCH
        assert "residual" in err
        assert json.loads(out)["branch"] == "a"

    def test_nonzero_p(self, capsys):
        argv = ["qsv", "spectrum", "--n", "4", "--q0", "0.2", "--p", "0.3"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["beta"] == pytest.approx(analytic_spectrum(4, 0.2, 0.3).beta, rel=1e-15)

    @pytest.mark.parametrize("q0", ["0", "1", "1.5"])
    def test_q0_outside_the_probe_domain_names_it(self, q0, capsys):
        # q0 = 1 meets the domain check before the core coupling d = 0 it would give
        code, out, err = run_cli(["qsv", "spectrum", "--n", "3", "--q0", q0], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: q0 must lie strictly between 0 and 1, got {float(q0)}\n"

    def test_large_n_gap_without_warnings(self, capsys):
        argv = ["qsv", "spectrum", "--n", "50", "--q0", "0.33", "--p", "0.1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert 0 < payload["nu"] < 1e-27
        # alpha_plus = sqrt(lambda0/lambda1) = sqrt(C q0 / (2 q1)), alpha_plus alpha_minus = -C/2
        assert payload["alpha_plus"] == pytest.approx(np.sqrt(comb(100, 50) * 0.33 / 1.34), rel=1e-12)
        assert payload["alpha_minus"] == pytest.approx(-np.sqrt(comb(100, 50) * 0.67 / 0.66), rel=1e-12)


class TestQsvComplexity:
    def test_anchor_values(self, capsys):
        argv = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["M"] == 283
        assert payload["term_gap"] == 231
        assert payload["term_wallis"] == 283

    def test_p_inflates_wallis_term(self, capsys):
        base = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"]
        _, at_zero, _ = run_json(base, capsys)
        code, at_half, _ = run_json(base + ["--p", "0.5"], capsys)
        assert code == EXIT_OK
        assert at_half["term_wallis"] > at_zero["term_wallis"]
        assert at_half["term_gap"] == at_zero["term_gap"]
        assert at_half["M"] == max(at_half["term_gap"], at_half["term_wallis"])

    def test_q0_below_q_min_is_usage(self, capsys):
        argv = ["qsv", "complexity", "--n", "3", "--q0", "0.001", "--epsilon", "0.1", "--delta", "0.01"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: q0=0.001 below the admissible minimum {q_min(3)}\n"


@pytest.mark.parametrize(
    "n,q0", [("2", "0.33"), ("3", "0"), ("3", "1"), ("3", "1.5"), ("3", "0.001"), ("520", "0.33"),
             ("600", "1.5"), ("2", "1.5")]
)
def test_verification_commands_refuse_the_same_n_q0_alike(n, q0, capsys):
    plan = ["--n", n, "--q0", q0, "--epsilon", "0.1", "--delta", "0.01"]
    errors = []
    for argv in (["qsv", "complexity", *plan], ["qsv", "verify", *plan, "--seed", "1"],
                 ["robust", *plan, "--rounds", "1", "--seed", "1"]):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        errors.append(err)
    assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
    assert errors == [errors[0]] * 3


@pytest.mark.parametrize(
    "n, message",
    [(2, "n must be at least 3, got 2"),
     (600, f"n=600 exceeds {N_MAX}, the largest n accepted (C(2n, n) leaves float64 range above it)")],
)
def test_strategy_commands_refuse_n_outside_3_to_n_max_alike(n, message, tmp_path, capsys):
    plan = ["--n", str(n), "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"]
    ends = ["--n-min", "2", "--n-max", "5"] if n < 3 else ["--n-min", "3", "--n-max", str(n)]
    for argv in (["opt", *ends, "--out", str(tmp_path / "sweep.csv")], ["qsv", "spectrum", *plan[:4]],
                 ["qsv", "complexity", *plan], ["qsv", "verify", *plan, "--seed", "1"],
                 ["robust", *plan, "--rounds", "1", "--seed", "1"]):
        assert run_cli(argv, capsys) == (EXIT_USAGE, "", f"error: {message}\n"), argv
    assert not (tmp_path / "sweep.csv").exists()


def test_strategy_commands_report_p_first_alike(capsys):
    # p's one check runs ahead of the (n, q0) checks, so n = 2 is not what is reported
    plan = ["--n", "2", "--q0", "0.33", "--p", "1", "--epsilon", "0.1", "--delta", "0.01"]
    for argv in (["qsv", "spectrum", *plan[:6]], ["qsv", "complexity", *plan], ["qsv", "verify", *plan, "--seed", "1"],
                 ["robust", *plan, "--rounds", "1", "--seed", "1"]):
        assert run_cli(argv, capsys) == (EXIT_USAGE, "", "error: p must lie in [0, 1), got 1.0\n"), argv


# a valid value for every required flag and every float flag of a subcommand
VALID = {
    "n": "3", "q0": "0.33", "omega_a": OMEGA_A, "omega_b": OMEGA_B, "t": "1.0", "p": "0.1", "tol": "1e-9",
    "epsilon": "0.67", "delta": "0.2", "seed": "1", "rounds": "1",
}
FLOAT_FLAGS = [(leaf, flag) for leaf, (_, _, flags) in cli._LEAVES.items()
               for flag in flags if cli._FLAGS[flag][0] is float]


def _valid_argv(leaf: str, **values: str) -> list[str]:
    flags = cli._LEAVES[leaf][2]
    chosen = {flag: VALID[flag] for flag, default in flags.items()
              if default is cli._REQUIRED or cli._FLAGS[flag][0] is float}
    chosen.update(values)
    pairs = (("--" + flag.replace("_", "-"), value) for flag, value in chosen.items())
    return [*leaf.split(), *(arg for pair in pairs for arg in pair)]


@pytest.mark.parametrize("leaf, flag", FLOAT_FLAGS, ids=[f"{leaf} {flag}" for leaf, flag in FLOAT_FLAGS])
def test_nan_on_every_float_flag_is_usage(leaf, flag, capsys):
    assert run_cli(_valid_argv(leaf), capsys)[0] == EXIT_OK
    code, out, err = run_cli(_valid_argv(leaf, **{flag: "nan"}), capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestNonFiniteScenario:
    @pytest.mark.parametrize(
        "values, message",
        [({"t": "nan"}, "interaction time must be positive, got nan"),
         ({"omega_b": "inf", "t": "0"}, "frequencies must be finite and satisfy 0 < omega1 < omega2")],
    )
    @pytest.mark.parametrize("leaf", ["sense", "robust"])
    def test_refused_before_any_copy_is_verified(self, leaf, values, message, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the robust loop ran")

        monkeypatch.setattr("aqsense.cli.run_robust_protocol", refuse)
        assert run_cli(_valid_argv(leaf, **values), capsys) == (EXIT_USAGE, "", f"error: {message}\n")


class TestQsvVerify:
    def test_ideal_source_accepts(self, tmp_path, capsys):
        transcript = tmp_path / "session.jsonl"
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--noise", "none", "--seed", "7",
            "--transcript", str(transcript),
        ]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["accepted"] is True
        want_m = sample_complexity(3, 0.33, 0.67, 0.2)
        assert payload["plan"]["M"] == want_m
        assert payload["copies_tested"] == want_m
        lines = transcript.read_text().strip().splitlines()
        assert len(lines) == want_m
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"copy", "R", "z_outcomes", "branch", "sub", "accept"}
            assert record["accept"] is True

    def test_noisy_source_rejects(self, capsys):
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.01",
            "--noise", "coherent_mix:0.9", "--seed", "2",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_REJECTED
        payload = json.loads(out)
        assert payload["accepted"] is False
        assert payload["copies_tested"] <= payload["plan"]["M"]
        assert "rejected" in err

    def test_seeded_session_is_byte_identical(self, capsys):
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--noise", "dephase:0.05", "--seed", "13",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2
        assert out1 == out2

    def test_seed_required(self, capsys):
        argv = ["qsv", "verify", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2"]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "--seed" in err

    def test_unknown_noise_kind_is_usage(self, capsys):
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--noise", "sparkle:0.1", "--seed", "1",
        ]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "sparkle" in err

    @pytest.mark.parametrize("noise", ["dephase", "none:0.5"])
    def test_noise_strength_missing_or_misplaced_is_usage(self, noise, capsys):
        # a kind other than none must name its strength, and none takes none
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--noise", noise, "--seed", "1",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("noise, raw", [("dephase:abc", "abc"), ("dephase:", ""), ("depolarize:0.1x", "0.1x")])
    def test_noise_strength_not_a_number_names_the_flag(self, noise, raw, capsys):
        argv = [
            "qsv", "verify",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--noise", noise, "--seed", "1",
        ]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"error: --noise {noise!r}: strength {raw!r} is not a number\n"


class TestOpt:
    def test_sweep_csv_and_row_count(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        argv = ["opt", "--n-min", "3", "--n-max", "4", "--examples", "A,K", "--out", str(path)]
        code, out, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert "4 rows" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "n,label,theta_plus,theta_minus,q_min,q_beta,q_G,q_H,H_min"
        assert len(lines) == 5
        assert [line.split(",")[1] for line in lines[1:]] == ["A", "K", "A", "K"]

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        argv = ["opt", "--n-min", "3", "--n-max", "3", "--examples", "A..C", "--out", str(path)]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        first = path.read_bytes()
        assert run_cli(argv, capsys)[0] == EXIT_OK
        assert path.read_bytes() == first
        assert [line.split(",")[1] for line in first.decode().splitlines()[1:]] == ["A", "B", "C"]

    def test_self_check_passes(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        argv = ["opt", "--n-min", "3", "--n-max", "5", "--examples", "A", "--out", str(path),
                "--self-check"]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert err == ""

    @pytest.mark.parametrize("step", [-0.01, 0.0])
    def test_self_check_fails_on_q_g_not_increasing(self, tmp_path, capsys, monkeypatch, step):
        """q_G falls (or stays level) from n = 4 to 5 for both K and C: exit 2,
        one line naming K, the first failing example in --examples order."""
        def falling_sweep(n_min, n_max, examples):
            rows = sweep(n_min, n_max, examples)
            at_4 = {row["label"]: row["q_G"] for row in rows if row["n"] == 4}
            for row in rows:
                if row["n"] == 5:
                    row["q_G"] = at_4[row["label"]] + step
            return rows

        monkeypatch.setattr("aqsense.cli.sweep", falling_sweep)
        path = tmp_path / "sweep.csv"
        argv = ["opt", "--n-min", "3", "--n-max", "6", "--examples", "K,C", "--out", str(path),
                "--self-check"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_MISMATCH
        assert err == "error: q_G not increasing in n for example K\n"
        assert out == f"wrote 8 rows to {path}\n"
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        assert [line.split(",")[:2] for line in lines[5:7]] == [["5", "K"], ["5", "C"]]

    def test_bad_labels_are_usage(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        # "AB", "" and "A,,B" are substrings of the label string, not labels
        for bad in ("A,Z", "C..A", "AB..C", "AB", "", "A,,B"):
            argv = ["opt", "--n-min", "3", "--n-max", "3", "--examples", bad, "--out", str(path)]
            code, out, err = run_cli(argv, capsys)
            assert code == EXIT_USAGE
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1
            assert not path.exists()

    def test_repeated_label_is_usage(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        argv = ["opt", "--n-min", "3", "--n-max", "4", "--examples", "A,A", "--out", str(path),
                "--self-check"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not path.exists()

    def test_bad_range_and_missing_out(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.csv")
        code, _, _ = run_cli(["opt", "--n-min", "2", "--n-max", "3", "--out", path], capsys)
        assert code == EXIT_USAGE
        code, _, err = run_cli(["opt", "--n-min", "3", "--n-max", "3"], capsys)
        assert code == EXIT_USAGE
        assert "--out" in err


class TestRobust:
    def test_identity_noise_runs_clean(self, capsys):
        argv = [
            "robust",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.2",
            "--rounds", "40", "--noise", "none", "--seed", "11",
        ]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["rounds"] == 40
        assert payload["restarts"] == 0
        assert sum(payload["counts"]) == 40
        assert payload["plan_M"] == sample_complexity(3, 0.33, 0.67, 0.2)
        assert payload["estimates"]["theta_plus"] == pytest.approx(np.pi / 2, abs=1.0)
        assert payload["estimates"]["theta_minus_abs"] == pytest.approx(np.pi / 4, abs=1.0)

    def test_restart_cap_exhausted(self, capsys):
        argv = [
            "robust",
            "--n", "3", "--q0", "0.33",
            "--epsilon", "0.67", "--delta", "0.01",
            "--rounds", "2", "--noise", "coherent_mix:0.67",
            "--seed", "3", "--restart-cap", "4",
        ]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_RESTART_CAP
        assert "restart cap" in err

    def test_rounds_required(self, capsys):
        argv = ["robust", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2",
                "--seed", "1"]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "--rounds" in err

    def test_negative_rounds_is_usage(self, capsys):
        argv = ["robust", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2",
                "--rounds", "-1", "--noise", "none", "--seed", "1"]
        code, _, _ = run_cli(argv, capsys)
        assert code == EXIT_USAGE


class TestFloatRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["qsv", "spectrum", "--n", "400", "--q0", "0.33"],
            ["qsv", "spectrum", "--n", "520", "--q0", "0.33"],
            ["qsv", "complexity", "--n", "520", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"],
            ["opt", "--n-min", "520", "--n-max", "520", "--out", "{tmp}/sweep.csv"],
            ["opt", "--n-min", "3", "--n-max", "600", "--out", "{tmp}/sweep.csv"],
        ],
    )
    def test_large_n_is_usage(self, argv, tmp_path, capsys):
        # a RuntimeWarning raises here, so stderr holds the error line alone
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        assert not (tmp_path / "sweep.csv").exists()


    @pytest.mark.parametrize(
        "argv",
        [
            ["qsv", "complexity", "--n", "520", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"],
            ["qsv", "verify", "--n", "600", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01", "--seed", "1"],
            ["robust", "--n", "600", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01", "--rounds", "1",
             "--seed", "1"],
            ["qsv", "spectrum", "--n", "600", "--q0", "0.33"],
        ],
    )
    def test_large_n_names_n_and_the_largest_n_accepted(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        n = argv[argv.index("--n") + 1]
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: n={n} exceeds {N_MAX}, the largest n accepted "
                       "(C(2n, n) leaves float64 range above it)\n")

    def test_copy_count_past_float64_names_n(self, capsys):
        argv = ["qsv", "complexity", "--n", "513", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: the copy count at n=513 leaves float64 range") and err.count("\n") == 1

    def test_opt_names_the_largest_n_accepted(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(["opt", "--n-min", "3", "--n-max", "600", "--out", str(tmp_path / "s.csv")], capsys)
        assert code == EXIT_USAGE
        assert "the largest n accepted" in err and str(N_MAX) in err
        assert not (tmp_path / "s.csv").exists()


class TestSenseSupportBudget:
    @pytest.mark.parametrize("n", [14, 40, 200])
    @pytest.mark.parametrize(
        "flags", [["--audit"], ["--shots", "100000", "--seed", "1"], ["--shots", "10", "--seed", "1", "--audit"]]
    )
    def test_large_n_exits_before_allocating(self, n, flags, capsys):
        # the audit refuses above its support budget; sampling draws from the
        # closed form, which has no support arrays and so no limit on n
        argv = ["sense", "--n", str(n), "--q0", "0.33", "--omega-a", "0.3", "--omega-b", "0.7", "--t", "1", *flags]
        np.random.default_rng()  # numpy.random loads on first use, about 1 MB once per process
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(argv, capsys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if "--audit" in flags:
            assert code == EXIT_USAGE and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "the largest n accepted is" in err
        else:
            assert code == EXIT_OK and err == ""
            assert sum(json.loads(out)["counts"]) == 100000
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_audit_runs_at_the_largest_n_accepted(self, capsys):
        # sums over C(22, 11) entries once put 1.7e-12 between placements
        argv = ["sense", "--n", "11", "--q0", "0.33", "--omega-a", OMEGA_A, "--omega-b", OMEGA_B, "--t", "1.0",
                "--audit"]
        code, payload, err = run_json(argv, capsys)
        assert code == EXIT_OK and err == ""
        assert payload["audit"]["passed"] and payload["audit"]["num_pairs"] == 22 * 21

    def test_readme_states_the_audit_limit(self):
        (largest,) = re.findall(r"`--audit` to n = (\d+)", README.read_text())
        check_support_budget(int(largest))
        with pytest.raises(ValueError, match=f"the largest n accepted is {largest}"):
            check_support_budget(int(largest) + 1)

    def test_sense_builds_no_dense_state(self, monkeypatch, capsys):
        # every 2^(2n) route is refused: sampling and audit run on the supports
        def refuse(*args, **kwargs):
            raise AssertionError("a dense 2^(2n) route was called")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] != "aqsense":
                continue
            for attr in ("make_target", "make_ghz", "make_dicke", "evolve_phases"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
        argv = ["sense", "--n", "5", "--q0", "0.33", "--omega-a", OMEGA_A, "--omega-b", OMEGA_B,
                "--t", "1.0", "--shots", "1000", "--seed", "4", "--audit"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert sum(payload["counts"]) == 1000 and payload["audit"]["passed"]


class TestProbeBudgetCli:
    @pytest.mark.parametrize("n", [13, 16, 30])
    @pytest.mark.parametrize("command", ["qsv verify", "robust"])
    @pytest.mark.parametrize("noise", ["none", "coherent_mix:0.5"])
    def test_large_n_exits_before_allocating(self, n, command, noise, capsys):
        argv = [*command.split(), "--n", str(n), "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01",
                "--seed", "1", "--noise", noise]
        if command == "robust":
            argv += ["--rounds", "5"]
        np.random.default_rng()  # numpy.random loads on first use, about 1 MB once per process
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code, out, err = run_cli(argv, capsys)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "the largest n accepted is 12" in err
        assert elapsed < 1.0
        assert peak < 1 << 20

    def test_readme_states_the_probe_limit(self):
        (largest,) = re.findall(r"`qsv verify` and `robust` run to n = (\d+)", README.read_text())
        assert largest == "12"


def test_corpus_script_agrees_in_process():
    # the checked-in corpus script: a fresh process and cli.main report alike
    path = README.parent / "scripts" / "cli_corpus.py"
    spec = importlib.util.spec_from_file_location("cli_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    cases = [next(case for case in corpus.CASES if "--transcript" in case["argv"]),
             next(case for case in corpus.CASES if case["files"])]
    fresh = corpus.run_cases(cases)
    assert fresh == corpus.run_cases(cases, in_process=True)
    assert [record["exit"] for record in fresh] == [EXIT_REJECTED, EXIT_OK]
    assert set(fresh[0]["files"]) == {"session.jsonl"}


def test_cli_import_loads_no_scipy():
    src = str(Path(aqsense.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, aqsense.cli; print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        SENSE_BASE + ["--shots", "10", "--seed", "-1"],
        ["qsv", "verify", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--seed", "-1"],
        ["robust", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--rounds", "10",
         "--seed", "-1"],
    ],
    ids=["sense", "qsv verify", "robust"],
)
def test_negative_seed_is_usage(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == "error: --seed must be non-negative, got -1\n"


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nq0=0.33\nepsilon=0.1\ndelta=0.01\n")
        code, payload, _ = run_json(["qsv", "complexity", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert payload["M"] == 283

    def test_flags_beat_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nq0=0.33\nepsilon=0.5\ndelta=0.01\n")
        argv = ["qsv", "complexity", "--config", str(cfg), "--epsilon", "0.1"]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["epsilon"] == 0.1
        assert payload["M"] == 283

    def test_bool_and_float_conversion(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# spectrum self-check\ncheck-numeric = true\ntol = 1e-30\n")
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--config", str(cfg)]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_MISMATCH
        assert "residual" in err

    def test_config_can_supply_seed(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nq0=0.33\nepsilon=0.67\ndelta=0.2\nseed=7\nnoise=none\n")
        code, payload, _ = run_json(["qsv", "verify", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert payload["accepted"] is True
        assert payload["seed"] == 7

    def test_foreign_keys_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=3\nq0=0.33\nrounds=50\nepsilon=0.1\ndelta=0.01\n")
        code, payload, _ = run_json(["qsv", "complexity", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert payload["M"] == 283

    def test_malformed_line_is_usage(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epsilon 0.5\n")
        argv = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--delta", "0.01",
                "--config", str(cfg)]
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert "key=value" in err

    def test_explicit_flag_at_its_default_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 0.3\n")
        argv = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01",
                "--p", "0", "--config", str(cfg)]
        code, payload, _ = run_json(argv, capsys)
        assert code == EXIT_OK
        assert payload["p"] == 0.0
        assert payload["M"] == 283

    def test_config_switch_false_stays_off(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("check_numeric = false\ntol = 1e-30\n")
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--config", str(cfg)]
        code, payload, err = run_json(argv, capsys)
        assert code == EXIT_OK and err == ""
        assert payload["residuals"] is None

    @pytest.mark.parametrize("word, on", [("yes", True), ("ON", True), ("0", False), ("Off", False)])
    def test_every_switch_word_is_read(self, word, on, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"check-numeric = {word}\n")
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--config", str(cfg)]
        code, payload, err = run_json(argv, capsys)
        assert code == EXIT_OK and err == ""
        assert (payload["residuals"] is not None) == on

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n = abc", "config line 2: n: invalid int value 'abc'"),
            ("q0 = 0.3x", "config line 2: q0: invalid float value '0.3x'"),
            ("check_numeric = maybe", "config line 2: check_numeric: invalid switch value 'maybe'"),
            ("check-numeric = ture", "config line 2: check-numeric: invalid switch value 'ture'"),
        ],
        ids=["int", "float", "switch", "switch typo"],
    )
    def test_bad_value_names_line_and_key(self, line, message, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# values\n{line}\n")
        argv = ["qsv", "spectrum", "--n", "3", "--q0", "0.33", "--config", str(cfg)]
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


SPECTRUM = ["qsv", "spectrum", "--n", "3", "--q0", "0.33"]
COMPLEXITY = ["qsv", "complexity", "--n", "3", "--q0", "0.33", "--epsilon", "0.1", "--delta", "0.01"]
VERIFY = ["qsv", "verify", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--seed", "7"]
ROBUST = ["robust", "--n", "3", "--q0", "0.33", "--epsilon", "0.67", "--delta", "0.2", "--rounds", "5",
          "--seed", "3"]


class TestCachedParser:
    def test_later_calls_add_no_arguments(self, tmp_path, monkeypatch, capsys):
        run_cli(COMPLEXITY, capsys)  # builds the parser, if no earlier call did
        added = []
        real = argparse.ArgumentParser.add_argument

        def counting(parser, *args, **kwargs):
            added.append(args)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
        leaves = [SENSE_BASE, SPECTRUM, VERIFY, COMPLEXITY, ROBUST,
                  ["opt", "--n-min", "3", "--n-max", "4", "--out", str(tmp_path / "s.csv")]]
        assert [run_cli(argv, capsys)[0] for argv in leaves] == [EXIT_OK] * 6
        assert added == []

    @pytest.mark.parametrize(
        "first, second",
        [
            (SPECTRUM + ["--check-numeric"], SPECTRUM),
            (COMPLEXITY + ["--config", "{cfg}"], COMPLEXITY),
            (["qsv", "complexity", "--n", "abc"], COMPLEXITY),
            (["qsv", "spectrum", "--help"], SPECTRUM),
        ],
        ids=["check-numeric then without", "config then without", "usage error then valid", "help then command"],
    )
    def test_interleaved_calls_leak_no_state(self, first, second, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 0.3\ncheck-numeric = true\n")
        alone = run_cli(second, capsys)
        run_cli([arg.format(cfg=cfg) for arg in first], capsys)
        assert run_cli(second, capsys) == alone
        code, out, err = alone
        payload = json.loads(out)
        assert code == EXIT_OK and err == ""
        assert payload.get("residuals") is None and payload["p"] == 0.0
