"""Optimization of the initial GHZ weight q0.

Combines the two estimation-variance bounds with the residual acceptance
of imperfect copies into a single figure of merit H(q0), locates its
landmark weights (domain minimum, eigenvalue-branch crossing, Dicke-bound
minimizer), and minimizes H per (n, angle pair). One minimize_H call
searches every angle pair at one n together, so the sweep that generates
the figure data makes one call per n.
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
    """Landmark weights and the located minimum of the objective.

    The angle-dependent fields are floats for one angle pair and arrays for
    many (see ``minimize_H``); every check holds for each pair.
    """

    n: int
    theta_plus: float | np.ndarray
    theta_minus: float | np.ndarray
    q_min: float
    q_beta: float
    q_G: float | np.ndarray
    q_H: float | np.ndarray
    H_min: float | np.ndarray
    evaluations: int
    bracket: tuple[float, float] | np.ndarray
    warned_full_domain: bool | np.ndarray

    def __post_init__(self) -> None:
        if self.q_min > self.q_beta + 1e-15:
            raise ValueError(f"q_min={self.q_min} exceeds q_beta={self.q_beta}")
        restricted = ~np.asarray(self.warned_full_domain)
        if np.any(restricted & (np.asarray(self.q_H) < np.asarray(self.q_G) - 1e-12)):
            raise ValueError("q_H fell below q_G inside the restricted search")
        expected = objective_H(self.n, self.q_H, self.theta_plus, self.theta_minus)
        if not np.all(np.isclose(self.H_min, expected, rtol=1e-9, atol=0.0)):
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


def minimize_H(n: int, theta_plus, theta_minus) -> OptimumReport:
    """Minimize the figure of merit over the admissible weights, for one
    angle pair or for arrays of them (broadcast together) at one n.

    Per pair, the search runs on [q_G, 1) when the branch crossing sits
    below q_G; otherwise the whole domain [q_min, 1) is scanned and the pair
    is flagged. The objective is evaluated on a 2048-point grid, then on a
    65-point grid over the two cells around the best point (one cell at a
    domain edge), and so on until that bracket is at most 1e-10 wide. Each
    pass is one array evaluation over the pairs still searching, a
    (pairs, points) grid; a pair leaves once its own bracket is narrow
    enough, so every pair sees exactly the grids a search of it alone would.

    With scalar angles the report holds floats. With arrays, q_G, q_H,
    H_min and warned_full_domain are arrays of the broadcast shape, bracket
    is an array whose [0] and [1] hold the lower and upper ends, and
    evaluations is the total over the pairs. The angles are kept as given.
    """
    tp, tm = np.broadcast_arrays(np.asarray(theta_plus, float), np.asarray(theta_minus, float))
    shape, tp, tm = tp.shape, tp.ravel(), tm.ravel()
    qm, qb = q_min(n), _q_beta(n)
    qg = np.array([q_landmarks(n, a, b)[2] for a, b in zip(tp.tolist(), tm.tolist())])
    warned = qb >= qg
    q_h, h_min = np.empty(tp.size), np.empty(tp.size)
    lower, upper = np.empty(tp.size), np.empty(tp.size)
    active = np.arange(tp.size)
    grid = np.linspace(np.where(warned, qm, qg), 1.0 - 1e-9, _GRID_POINTS, axis=-1)
    evaluations = 0
    while active.size:
        vals = objective_H(n, grid, tp[active, None], tm[active, None])
        evaluations += grid.size
        rows = np.arange(active.size)
        best = np.argmin(vals, axis=1)
        lo = grid[rows, np.maximum(best - 1, 0)]
        hi = grid[rows, np.minimum(best + 1, grid.shape[1] - 1)]
        done = hi - lo <= _BRACKET_WIDTH
        finished = active[done]
        q_h[finished], h_min[finished] = grid[rows, best][done], vals[rows, best][done]
        lower[finished], upper[finished] = lo[done], hi[done]
        active = active[~done]
        grid = np.linspace(lo[~done], hi[~done], _REFINE_POINTS, axis=-1)
    if shape:
        qg, q_h, h_min, warned = (x.reshape(shape) for x in (qg, q_h, h_min, warned))
        bracket = np.stack([lower, upper]).reshape((2,) + shape)
    else:
        qg, q_h, h_min, warned = float(qg[0]), float(q_h[0]), float(h_min[0]), bool(warned[0])
        bracket = (float(lower[0]), float(upper[0]))
    return OptimumReport(
        n=n,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        q_min=qm,
        q_beta=qb,
        q_G=qg,
        q_H=q_h,
        H_min=h_min,
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
    theta_plus = np.array([ex.theta_plus for ex in chosen])
    theta_minus = np.array([ex.theta_minus for ex in chosen])
    rows = []
    for n in range(n_min, n_max + 1):
        report = minimize_H(n, theta_plus, theta_minus)
        for i, ex in enumerate(chosen):
            rows.append(
                {
                    "n": n,
                    "label": ex.label,
                    "theta_plus": ex.theta_plus,
                    "theta_minus": ex.theta_minus,
                    "q_min": report.q_min,
                    "q_beta": report.q_beta,
                    "q_G": float(report.q_G[i]),
                    "q_H": float(report.q_H[i]),
                    "H_min": float(report.H_min[i]),
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
