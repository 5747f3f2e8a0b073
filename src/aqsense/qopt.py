"""Optimization of the initial GHZ weight q0.

Combines the two estimation-variance bounds with the residual acceptance
of imperfect copies into a single figure of merit H(q0), locates its
landmark weights (domain minimum, eigenvalue-branch crossing, Dicke-bound
minimizer), and minimizes H per (n, angle pair). H is rational in q0, so
its minimum is a root of a cubic; one minimize_H call solves the cubics of
every angle pair at one n together, so the sweep that generates the figure
data makes one call per n.
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


def _scalar_or_array(x: np.ndarray):
    return x if x.ndim else float(x)


def gamma_eta(n: int, theta_plus, theta_minus):
    """Coefficients gamma and eta of the Dicke-bound minimizer.

    gamma = n^2 sin^2(theta-/2) + 2(n^2-n)(1 - cos(theta+/2)cos(theta-/2)),
    eta = (n-1)^2 sin^2(theta+/2); intended for theta+ in (0, pi] and
    theta- in [-pi/2, 0). The angles broadcast; scalars give floats.
    """
    tp, tm = np.asarray(theta_plus, dtype=float), np.asarray(theta_minus, dtype=float)
    gamma = n ** 2 * np.sin(tm / 2) ** 2 + 2 * (n ** 2 - n) * (1 - np.cos(tp / 2) * np.cos(tm / 2))
    eta = (n - 1) ** 2 * np.sin(tp / 2) ** 2
    return _scalar_or_array(gamma), _scalar_or_array(eta)


def _q_beta(n: int) -> float:
    """Branch crossing of the p = 0 strategy eigenvalue, 4(n-1)/(C(2n,n) + 8n - 6)."""
    return 4.0 * (n - 1) / (binom(2 * n, n) + 8 * n - 6)


def q_landmarks(n: int, theta_plus, theta_minus):
    """The three landmark weights (q_min, q_beta, q_G).

    q_min bounds the admissible domain, q_beta marks the eigenvalue branch
    crossing at p = 0, and q_G minimizes the theta- variance bound. q_G
    broadcasts over the angles like gamma_eta.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    gamma, eta = gamma_eta(n, theta_plus, theta_minus)
    ratio = eta / gamma
    return q_min(n), _q_beta(n), _scalar_or_array(np.sqrt(ratio * (1 + ratio)) - ratio)


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
    return _scalar_or_array(value)


def objective_H(n: int, q0, theta_plus: float, theta_minus: float):
    """Figure of merit: product of both variance bounds with beta at p = 0."""
    return g_plus(q0) * g_minus(n, q0, theta_plus, theta_minus) * beta_p0(n, q0)


def minimize_H(n: int, theta_plus, theta_minus) -> OptimumReport:
    """Minimize the figure of merit over the admissible weights, for one
    angle pair or for arrays of them (broadcast together) at one n.

    Angles must lie in the sensing domain theta+ in (0, pi], theta- in
    [-pi/2, 0), where every formula below holds; ValueError otherwise.

    With f = 1 - 1/n, s = sin^2(theta-/2) and C = C(2n, n), the theta-
    bound is g-(q) = (A q + B)/(q(1-q)) with
    A = 1 + 2f(1 - cos(theta+/2)cos(theta-/2))/s and
    B = f^2 sin^2(theta+/2)/s, so H(q) = (A q + B) beta(q)/(q^2 (1-q)).

    Below the branch crossing q_beta, H is strictly decreasing:
    d ln H/dq = A/(Aq+B) - 2/q + 1/(1-q) + d ln beta/dq, where
    A/(Aq+B) <= 1/q because B >= 0, beta is decreasing on that branch, and
    -1/q + 1/(1-q) < 0 because q < q_beta = 4(n-1)/(C+8n-6) <= 4/19 < 1/2
    for every n >= 3. So no minimum lies below q_beta. Above it,
    beta = C q/(2 + (C-2) q), and a stationary point of H is a real root of
    2A(C-2) q^3 + (3B(C-2) - A(C-4)) q^2 - 2B(C-4) q - 2B = 0.

    Per pair, the search starts at q_G, or at q_min (and the pair is
    flagged) when the branch crossing sits at or above q_G. With
    a = max(start, q_beta), H is continuous on [a, 1) and grows without
    bound as q -> 1, so q_H is the argmin of H over a and the real roots
    of the cubic in (a, 1): at most four evaluations per pair. The roots of
    every pair come from one eigvals call on a stack of companion matrices.

    With scalar angles the report holds floats. With arrays, q_G, q_H,
    H_min and warned_full_domain are arrays of the broadcast shape, and
    evaluations is the total over the pairs. The angles are kept as given.
    """
    tp, tm = np.broadcast_arrays(np.asarray(theta_plus, float), np.asarray(theta_minus, float))
    if np.any((tp <= 0.0) | (tp > np.pi)) or np.any((tm < -np.pi / 2) | (tm >= 0.0)):
        raise ValueError(
            f"angles must lie in theta+ in (0, pi], theta- in [-pi/2, 0), got {theta_plus}, {theta_minus}"
        )
    shape, tp, tm = tp.shape, tp.ravel(), tm.ravel()
    qm, qb, qg = q_landmarks(n, tp, tm)
    warned = qb >= qg
    # max(start, q_beta): q_G, or q_beta for a flagged pair
    lowest = np.maximum(qg, qb)
    f, s, c = 1.0 - 1.0 / n, np.sin(tm / 2) ** 2, float(binom(2 * n, n))
    a = 1.0 + 2.0 * f * (1.0 - np.cos(tp / 2) * np.cos(tm / 2)) / s
    b = f ** 2 * np.sin(tp / 2) ** 2 / s
    # monic cubic q^3 + c2 q^2 + c1 q + c0, one companion matrix per pair
    lead = 2.0 * a * (c - 2.0)
    companion = np.zeros((tp.size, 3, 3))
    companion[:, 0, 0] = -(3.0 * b * (c - 2.0) - a * (c - 4.0)) / lead
    companion[:, 0, 1] = 2.0 * b * (c - 4.0) / lead
    companion[:, 0, 2] = 2.0 * b / lead
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    roots = np.linalg.eigvals(companion)
    inside = (roots.imag == 0.0) & (roots.real > lowest[:, None]) & (roots.real < 1.0)
    candidates = np.concatenate([lowest[:, None], roots.real], axis=1)
    valid = np.concatenate([np.ones((tp.size, 1), bool), inside], axis=1)
    rows = np.nonzero(valid)[0]
    values = np.full(candidates.shape, np.inf)
    values[valid] = objective_H(n, candidates[valid], tp[rows], tm[rows])
    best = (np.arange(tp.size), np.argmin(values, axis=1))
    q_h, h_min = candidates[best], values[best]
    if shape:
        qg, q_h, h_min, warned = (x.reshape(shape) for x in (qg, q_h, h_min, warned))
    else:
        qg, q_h, h_min, warned = float(qg[0]), float(q_h[0]), float(h_min[0]), bool(warned[0])
    return OptimumReport(
        n=n,
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        q_min=qm,
        q_beta=qb,
        q_G=qg,
        q_H=q_h,
        H_min=h_min,
        evaluations=rows.size,
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
