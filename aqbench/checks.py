"""Output invariants that feed the benchmark's error rate.

The checks use exact counts, analytic laws and stated tolerances rather
than digests of seeded output, so a change in how much randomness a code
path draws does not trip them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

BRANCH_SIGMAS = 4.0
# The plug-in |theta-| estimator spreads up to 1.26 Cramer-Rao sigmas
# (2000 draws of 10^5 shots each, n = 3..8), so 6 are at least 4.7 of its own.
ANGLE_SIGMAS = 6.0
RESIDUAL_TOL = 1e-9
CLOSED_FORM_RTOL = 1e-10
SWEEP_RTOL = 1e-9
Q_H_RTOL = 1e-6  # q_H comes from a golden-section search


@dataclass
class Checks:
    """Named pass/fail results; error_rate = failed / attempted."""

    results: list[tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok, _ in self.results if not ok)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.results if not ok]


def branch_law(n: int, q0: float) -> dict[str, float]:
    """Probability of each verify_copy branch on the target state.

    Z-measuring a random half R gives weight 0 (branch i) or n (branch iii)
    with probability q0/2 + (1-q0)/C(2n,n) each; dephasing changes phases
    only, so the law holds for dephased copies as well.
    """
    p_edge = q0 / 2 + (1 - q0) / math.comb(2 * n, n)
    return {"i": p_edge, "ii": 1 - 2 * p_edge, "iii": p_edge}


def check_branches(checks: Checks, label: str, histogram: dict[str, int], n: int, q0: float) -> None:
    """Each branch count lies within BRANCH_SIGMAS binomial sigmas of its law."""
    total = sum(histogram.values())
    for branch, prob in branch_law(n, q0).items():
        seen = histogram.get(branch, 0)
        sigma = math.sqrt(total * prob * (1 - prob))
        checks.add(
            f"{label}.branch_{branch}",
            total > 0 and abs(seen - total * prob) <= BRANCH_SIGMAS * sigma,
            f"{seen} of {total} copies, expected {total * prob:.1f} +- {sigma:.1f}",
        )


def check_robust(checks: Checks, label: str, result, rounds: int, m_copies: int) -> None:
    """Round counts are exact and every transcript is consistent with M."""
    checks.add(f"{label}.rounds", result.rounds == rounds, f"{result.rounds} != {rounds}")
    checks.add(f"{label}.counts", sum(result.counts) == rounds, f"sum{result.counts} != {rounds}")
    accepted = [t for t in result.transcripts if t.accepted]
    rejected = [t for t in result.transcripts if not t.accepted]
    checks.add(
        f"{label}.attempts",
        len(accepted) == rounds and len(rejected) == result.restarts,
        f"{len(accepted)} accepted / {len(rejected)} rejected sessions, "
        f"{rounds} rounds / {result.restarts} restarts",
    )
    checks.add(
        f"{label}.session_lengths",
        all(len(t.verdicts) == m_copies for t in accepted)
        and all(0 < len(t.verdicts) <= m_copies and not t.verdicts[-1].accept for t in rejected),
        "an accepted session must test M copies; a rejected one must end on a reject",
    )


def check_angles(checks: Checks, label: str, estimate: tuple[float, float],
                 truth: tuple[float, float], bounds: tuple[float, float], shots: int) -> None:
    """Each estimate lies within ANGLE_SIGMAS Cramer-Rao sigmas of the truth.

    truth is (theta+, |theta-|); bounds are the per-repetition variance
    bounds (G+, G-). At 10^5 shots the tolerance is a few hundredths of a
    radian.
    """
    for name, est, true, g in zip(("theta_plus", "theta_minus_abs"), estimate, truth, bounds):
        tol = ANGLE_SIGMAS * math.sqrt(g / shots)
        checks.add(
            f"{label}.{name}",
            est is not None and math.isfinite(est) and abs(est - true) <= tol,
            f"estimate {est} vs {true:.6f}, tolerance {tol:.4f}",
        )


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(b))


def check_fields(checks: Checks, label: str, got: dict, want: dict, rtol: float = CLOSED_FORM_RTOL) -> None:
    """Every reference field is present and matches within rtol (relative,
    absolute below magnitude 1); strings, booleans and integers match exactly."""
    bad = []
    for key, ref in want.items():
        val = got.get(key)
        if isinstance(ref, list):
            ok = isinstance(val, list) and len(val) == len(ref) and all(
                close(v, r, rtol) for v, r in zip(val, ref))
        elif isinstance(ref, (str, int)):
            ok = val == ref
        else:
            ok = isinstance(val, (int, float)) and close(val, ref, rtol)
        if not ok:
            bad.append(f"{key}={val!r} (want {ref!r})")
    checks.add(f"{label}.fields", not bad, "; ".join(bad[:3]))


def check_residuals(checks: Checks, label: str, residuals: dict | None) -> None:
    worst = max(residuals.values()) if residuals else math.inf
    checks.add(f"{label}.residuals", worst <= RESIDUAL_TOL, f"worst residual {worst:.3e}")


def read_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(checks: Checks, label: str, rows: list[dict], reference: list[dict]) -> None:
    """Same (n, label) rows in the same order; numeric columns within rtol."""
    bad = []
    if len(rows) != len(reference):
        bad.append(f"{len(rows)} rows, reference has {len(reference)}")
    for got, want in zip(rows, reference):
        if got.keys() != want.keys() or (got["n"], got["label"]) != (want["n"], want["label"]):
            bad.append(f"row {got.get('n')},{got.get('label')} vs {want['n']},{want['label']}")
            continue
        for key in want.keys() - {"n", "label"}:
            rtol = Q_H_RTOL if key == "q_H" else SWEEP_RTOL
            if not close(float(got[key]), float(want[key]), rtol):
                bad.append(f"n={want['n']} {want['label']} {key}: {got[key]} vs {want[key]}")
    checks.add(f"{label}.sweep", not bad, "; ".join(bad[:3]))
