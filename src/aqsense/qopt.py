"""Optimization of the initial GHZ weight q0.

Combines the two estimation-variance bounds with the residual acceptance
of imperfect copies into a single figure of merit H(q0), locates its
landmark weights (domain minimum, eigenvalue-branch crossing, Dicke-bound
minimizer), and minimizes H per (n, angle pair), including the sweep that
generates the figure data.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsv.operators import q_min
from .sensing import g_minus, g_plus
from .symcomb import binom

__all__ = [
    "ANGLE_EXAMPLES",
    "AngleExample",
    "OptimumReport",
    "beta_p0",
    "gamma_eta",
    "minimize_H",
    "objective_H",
    "q_landmarks",
    "sweep",
    "write_sweep_csv",
]

_GRID_POINTS = 2048
_REFINE_POINTS = 65
_BRACKET_WIDTH = 1e-10
_CSV_HEADER = ("n", "label", "theta_plus", "theta_minus", "q_min", "q_beta", "q_G", "q_H", "H_min")


@dataclass(frozen=True)
class AngleExample:
    """A labeled (theta+, theta-) pair from the twelve study examples."""

    label: str
    theta_plus: float
    theta_minus: float


ANGLE_EXAMPLES: tuple[AngleExample, ...] = (
    AngleExample("A", np.pi / 4, -np.pi / 6),
    AngleExample("B", np.pi / 3, -np.pi / 6),
    AngleExample("C", np.pi / 2, -np.pi / 6),
    AngleExample("D", 2 * np.pi / 3, -np.pi / 6),
    AngleExample("E", 3 * np.pi / 4, -np.pi / 6),
    AngleExample("F", 5 * np.pi / 6, -np.pi / 6),
    AngleExample("G", np.pi / 3, -np.pi / 4),
    AngleExample("H", np.pi / 2, -np.pi / 4),
    AngleExample("I", 2 * np.pi / 3, -np.pi / 4),
    AngleExample("J", 3 * np.pi / 4, -np.pi / 4),
    AngleExample("K", np.pi / 2, -np.pi / 3),
    AngleExample("L", 2 * np.pi / 3, -np.pi / 3),
)


@dataclass(frozen=True)
class OptimumReport:
    """Landmark weights and the located minimum of the objective."""

    n: int
    theta_plus: float
    theta_minus: float
    q_min: float
    q_beta: float
    q_G: float
    q_H: float
    H_min: float
    evaluations: int
    bracket: tuple[float, float]
    warned_full_domain: bool

    def __post_init__(self) -> None:
        if self.q_min > self.q_beta + 1e-15:
            raise ValueError(f"q_min={self.q_min} exceeds q_beta={self.q_beta}")
        if not self.warned_full_domain and self.q_H < self.q_G - 1e-12:
            raise ValueError("q_H fell below q_G inside the restricted search")
        expected = float(objective_H(self.n, self.q_H, self.theta_plus, self.theta_minus))
        if not np.isclose(self.H_min, expected, rtol=1e-9, atol=0.0):
            raise ValueError(f"H_min={self.H_min} does not equal the objective {expected}")


def gamma_eta(n: int, theta_plus: float, theta_minus: float) -> tuple[float, float]:
    """Coefficients gamma and eta of the Dicke-bound minimizer.

    gamma = n^2 sin^2(theta-/2) + 2(n^2-n)(1 - cos(theta+/2)cos(theta-/2)),
    eta = (n-1)^2 sin^2(theta+/2); intended for theta+ in (0, pi] and
    theta- in [-pi/2, 0).
    """
    gamma = n ** 2 * np.sin(theta_minus / 2) ** 2 + 2 * (n ** 2 - n) * (
        1 - np.cos(theta_plus / 2) * np.cos(theta_minus / 2)
    )
    eta = (n - 1) ** 2 * np.sin(theta_plus / 2) ** 2
    return float(gamma), float(eta)


def _q_beta(n: int) -> float:
    """Branch crossing of the p = 0 strategy eigenvalue, 4(n-1)/(C(2n,n) + 8n - 6)."""
    return 4.0 * (n - 1) / (binom(2 * n, n) + 8 * n - 6)


def q_landmarks(n: int, theta_plus: float, theta_minus: float) -> tuple[float, float, float]:
    """The three landmark weights (q_min, q_beta, q_G).

    q_min bounds the admissible domain, q_beta marks the eigenvalue branch
    crossing at p = 0, and q_G minimizes the theta- variance bound.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    gamma, eta = gamma_eta(n, theta_plus, theta_minus)
    ratio = eta / gamma
    q_g = float(np.sqrt(ratio * (1 + ratio)) - ratio)
    return q_min(n), _q_beta(n), q_g


def beta_p0(n: int, q0):
    """Largest subunit strategy eigenvalue at p = 0 as a function of q0.

    Below the branch crossing: 1 - 1/(2n-1) - 2 q0/(2 + (C-2) q0); above:
    C q0/(2 + (C-2) q0) with C = C(2n,n). Vectorized in q0.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    q = np.asarray(q0, dtype=float)
    if np.any(q < q_min(n)) or np.any(q >= 1.0):
        raise ValueError(f"q0 must lie in [{q_min(n)}, 1), got {q0}")
    c = float(binom(2 * n, n))
    denom = 2.0 + (c - 2.0) * q
    value = np.where(q < _q_beta(n), 1.0 - 1.0 / (2 * n - 1) - 2.0 * q / denom, c * q / denom)
    return value if value.ndim else float(value)


def objective_H(n: int, q0, theta_plus: float, theta_minus: float):
    """Figure of merit: product of both variance bounds with beta at p = 0."""
    return g_plus(q0) * g_minus(n, q0, theta_plus, theta_minus) * beta_p0(n, q0)


def minimize_H(n: int, theta_plus: float, theta_minus: float) -> OptimumReport:
    """Minimize the figure of merit over the admissible weights.

    The search runs on [q_G, 1) when the branch crossing sits below q_G;
    otherwise the whole domain [q_min, 1) is scanned and the report is
    flagged. The objective is evaluated on a 2048-point grid, then on a
    65-point grid over the two cells around the best point (one cell at a
    domain edge), and so on until that bracket is at most 1e-10 wide. Each
    pass is one array evaluation; the report carries the last best point,
    its bracket and the total number of evaluations.
    """
    qm, qb, qg = q_landmarks(n, theta_plus, theta_minus)
    warned = qb >= qg
    grid = np.linspace(qm if warned else qg, 1.0 - 1e-9, _GRID_POINTS)
    evaluations = 0
    while True:
        vals = objective_H(n, grid, theta_plus, theta_minus)
        evaluations += grid.size
        best = int(np.argmin(vals))
        bracket = (float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)]))
        if bracket[1] - bracket[0] <= _BRACKET_WIDTH:
            break
        grid = np.linspace(bracket[0], bracket[1], _REFINE_POINTS)
    return OptimumReport(
        n=n,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        q_min=qm,
        q_beta=qb,
        q_G=qg,
        q_H=float(grid[best]),
        H_min=float(vals[best]),
        evaluations=evaluations,
        bracket=bracket,
        warned_full_domain=warned,
    )


def sweep(n_min: int, n_max: int, examples: Sequence[AngleExample] | None = None) -> list[dict]:
    """One optimization row per (n, example) pair; deterministic."""
    if n_min < 3:
        raise ValueError(f"n_min must be at least 3, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
    chosen = ANGLE_EXAMPLES if examples is None else tuple(examples)
    rows = []
    for n in range(n_min, n_max + 1):
        for ex in chosen:
            report = minimize_H(n, ex.theta_plus, ex.theta_minus)
            rows.append(
                {
                    "n": n,
                    "label": ex.label,
                    "theta_plus": ex.theta_plus,
                    "theta_minus": ex.theta_minus,
                    "q_min": report.q_min,
                    "q_beta": report.q_beta,
                    "q_G": report.q_G,
                    "q_H": report.q_H,
                    "H_min": report.H_min,
                }
            )
    return rows


def write_sweep_csv(rows: Sequence[dict], path) -> None:
    """Write sweep rows under the fixed header, 12 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for row in rows:
            writer.writerow(
                [row["n"], row["label"]]
                + [format(row[key], ".12g") for key in _CSV_HEADER[2:]]
            )
