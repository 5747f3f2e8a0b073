"""Regenerate the exact_pipeline reference from the package in this checkout.

    python3 aqbench/make_reference.py

Writes reference/exact_pipeline.json (closed-form spectrum, complexity and
sensing fields) and reference/sweep_3_50.csv (the opt sweep). The files
pin today's closed-form outputs; regenerate them only for a change that
is meant to alter those numbers, and say so where the change is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads as wl

SPECTRUM_FIELDS = ("n", "q0", "p", "a", "b", "c", "d", "lambda_a", "lambda_bc1", "alpha_plus",
                   "alpha_minus", "lambda_plus", "lambda_minus", "lambda1_omega2",
                   "lambda1_omega3", "omega3_values", "beta", "nu", "branch")


def run(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def main() -> None:
    wl.use_checkout_package()
    from aqsense import cli

    reference = {"spectrum": {}, "sense": {}}
    for n in wl.SPECTRUM_NS:
        got = json.loads(run(cli, wl.spectrum_argv(n)))
        reference["spectrum"][str(n)] = {k: got[k] for k in SPECTRUM_FIELDS}
    reference["complexity"] = json.loads(run(cli, wl.complexity_argv()))
    for n in wl.SENSE_NS:
        got = json.loads(run(cli, wl.sense_argv(n, 0)))
        reference["sense"][str(n)] = {
            **got["probabilities"], **got["sensitivity"],
            "theta_plus": got["scenario"]["theta_plus"],
            "theta_minus": got["scenario"]["theta_minus"],
        }
    wl.REFERENCE.mkdir(exist_ok=True)
    (wl.REFERENCE / "exact_pipeline.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    run(cli, wl.opt_argv(wl.REFERENCE / "sweep_3_50.csv"))


if __name__ == "__main__":
    main()
