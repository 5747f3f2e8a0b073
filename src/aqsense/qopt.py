"""Optimization of the initial GHZ weight q0.

Combines the two estimation-variance bounds with the residual acceptance
of imperfect copies into a single figure of merit H(q0), locates its
landmark weights (domain minimum, eigenvalue-branch crossing, Dicke-bound
minimizer), and minimizes H per (n, angle pair). H is rational in q0, so
its minimum is a root of a cubic, taken in closed form; n broadcasts with
the angles, so the sweep that generates the figure data solves its
(n, example) grid in one minimize_H call and writes it as CSV with CRLF
line ends, one line per pair. n runs up to N_MAX = 514, the largest n
whose C(2n, n) lies inside float64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsv.operators import N_MAX, q_min
from .sensing import g_minus, g_plus, one_minus_cos_cos
from .symcomb import binom

__all__ = [
    "ANGLE_EXAMPLES",
    "AngleExample",
    "N_MAX",
    "OptimumReport",
    "gamma_eta",
    "minimize_H",
    "sweep",
    "write_sweep_csv",
]

_CSV_HEADER = ("n", "label", "theta_plus", "theta_minus", "q_min", "q_beta", "q_G", "q_H", "H_min")
_TURNS = 2.0 * np.pi * np.arange(3)


@dataclass(frozen=True)
class AngleExample:
    """A labeled (theta+, theta-) pair from the twelve study examples."""

    label: str
    theta_plus: float
    theta_minus: float

    def __post_init__(self) -> None:
        if any(c in self.label for c in ',"\r\n'):
            raise ValueError(f"label {self.label!r} holds a comma, quote or line break, which the sweep CSV "
                             "writes unquoted")


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

    The pair fields are arrays of the broadcast shape of n and the angles
    (see ``minimize_H``).
    """

    q_min: np.ndarray
    q_beta: np.ndarray
    q_G: np.ndarray
    q_H: np.ndarray
    H_min: np.ndarray
    evaluations: int
    warned_full_domain: np.ndarray


def _per_n(n: np.ndarray):
    """q_min, q_beta and float(C(2n, n)) for every entry of the integer array
    n, from one pass over its distinct values; q_beta = 4(n-1)/(C(2n,n) + 8n - 6)
    is the branch crossing of the p = 0 strategy eigenvalue."""
    distinct, where = np.unique(n, return_inverse=True)
    table = np.array([(q_min(k), 4.0 * (k - 1) / (binom(2 * k, k) + 8 * k - 6), float(binom(2 * k, k)))
                      for k in map(int, distinct)]).reshape(-1, 3)  # (0, 3) for no n
    return tuple(column[where].reshape(n.shape) for column in table.T)


def gamma_eta(n, theta_plus, theta_minus):
    """Coefficients gamma and eta of the Dicke-bound minimizer.

    gamma = n^2 sin^2(theta-/2) + 2(n^2-n)(1 - cos(theta+/2)cos(theta-/2)),
    the last factor by ``sensing.one_minus_cos_cos``, and
    eta = (n-1)^2 sin^2(theta+/2); intended for theta+ in (0, pi] and
    theta- in [-pi/2, 0). Both have the broadcast shape of n and the angles.
    """
    tp, tm = np.broadcast_arrays(np.asarray(theta_plus, dtype=float), np.asarray(theta_minus, dtype=float))
    gamma = n ** 2 * np.sin(tm / 2) ** 2 + 2 * (n ** 2 - n) * one_minus_cos_cos(tp, tm)
    eta = (n - 1) ** 2 * np.sin(tp / 2) ** 2
    return gamma, eta


def _q_g(gamma, eta):
    """q_G, the minimizer of the theta- bound: with r = eta/gamma it is
    sqrt(r (1 + r)) - r, evaluated as sqrt(eta)/(sqrt(eta) + sqrt(eta + gamma)):
    no difference of large numbers, no overflow, and 0 where eta is 0 (NaN
    where gamma is 0 too)."""
    return np.sqrt(eta) / (np.sqrt(eta) + np.sqrt(eta + gamma))


def _beta_p0(n, q, q_beta, c):
    """Largest subunit strategy eigenvalue at p = 0 at weight q, from n's
    q_beta and C = float(C(2n, n)), with no domain check: below the branch
    crossing 1 - 1/(2n-1) - 2q/(2 + (C-2)q), above it Cq/(2 + (C-2)q)."""
    denom = 2.0 + (c - 2.0) * q
    return np.where(q < q_beta, 1.0 - 1.0 / (2 * n - 1) - 2.0 * q / denom, c * q / denom)


def minimize_H(n, theta_plus, theta_minus) -> OptimumReport:
    """Minimize the figure of merit over the admissible weights, for one
    (n, angle pair) or for arrays of them: n and the angles broadcast.

    n must lie in 3..N_MAX and the angles in the sensing domain
    theta+ in (0, pi], theta- in [-pi/2, 0), where every formula below
    holds, and H must be a finite float64, which fails as theta- -> 0 (for
    n = 3, theta+ = 1 below |theta-| ~ 1e-153); ValueError otherwise.

    With C = C(2n, n), the theta- bound is g-(q) = (A q + B)/(q(1-q)) with
    (A, B) = (gamma, eta)/(n^2 sin^2(theta-/2)) (see gamma_eta), so
    H(q) = (A q + B) beta(q)/(q^2 (1-q)).

    Below the branch crossing q_beta, H is strictly decreasing:
    d ln H/dq = A/(Aq+B) - 2/q + 1/(1-q) + d ln beta/dq, where
    A/(Aq+B) <= 1/q because B >= 0, beta is decreasing on that branch, and
    -1/q + 1/(1-q) < 0 because q < q_beta = 4(n-1)/(C+8n-6) <= 4/19 < 1/2
    for every n >= 3. So no minimum lies below q_beta. Above it,
    beta = C q/(2 + (C-2) q), and a stationary point of H is a real root of
    2A(C-2) q^3 + (3B(C-2) - A(C-4)) q^2 - 2B(C-4) q - 2B = 0, which is
    homogeneous in (A, B): gamma and eta give the same roots.

    Per pair, the search starts at q_G, or at q_min (and the pair is
    flagged) when the branch crossing sits at or above q_G. With
    a = max(start, q_beta), H is continuous on [a, 1) and grows without
    bound as q -> 1, so q_H is the argmin of H over a and the real roots
    of the cubic in (a, 1): at most four evaluations per pair. The roots are
    closed forms (three by the trigonometric form, or Cardano's one real
    root), each polished by two Newton steps.

    The report's pair fields are arrays of the broadcast shape, 0-d for one
    pair; evaluations is the total over the pairs.
    """
    n_all, tp, tm = np.broadcast_arrays(
        np.asarray(n), np.asarray(theta_plus, float), np.asarray(theta_minus, float)
    )
    shape, ns, tp, tm = tp.shape, n_all.ravel(), tp.ravel(), tm.ravel()
    in_domain = (0.0 < tp) & (tp <= np.pi) & (-np.pi / 2 <= tm) & (tm < 0.0)
    if not in_domain.all():
        k = np.argmin(in_domain)  # the first pair outside
        raise ValueError(f"angles must lie in theta+ in (0, pi], theta- in [-pi/2, 0), got theta+ = {tp[k]}, "
                         f"theta- = {tm[k]} at n = {ns[k]}")
    qm, qb, c = _per_n(ns)
    # gamma (and eta, making q_G 0/0) can underflow to 0: pairs whose H leaves float64 range are refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (gamma, eta), c = gamma_eta(ns[:, None], tp[:, None], tm[:, None]), c[:, None]
        qg = _q_g(gamma, eta)[:, 0]
        # max(start, q_beta): q_G, or q_beta for a flagged pair
        lowest = np.maximum(qg, qb)[:, None]
        # C enters the monic cubic through (C - 2) and (C - 4) in ratios only, so
        # a power of two scales it exactly and keeps every product in range
        scale = np.ldexp(1.0, -np.frexp(c)[1])
        c_2, c_4 = c * scale - 2.0 * scale, c * scale - 4.0 * scale
        lead = 2.0 * gamma * c_2
        # the monic cubic q^3 + a2 q^2 + a1 q + a0; q = t - s turns it into t^3 + 3 f t + 2 g,
        # which has three real roots, in trigonometric form, where d = g^2 + f^3 < 0
        a2, a1, a0 = (3.0 * eta * c_2 - gamma * c_4) / lead, -2.0 * eta * c_4 / lead, -2.0 * eta * scale / lead
        s = a2 / 3.0
        f, g = a1 / 3.0 - s * s, (s * s - a1 / 2.0) * s + a0 / 2.0
        d, m = g * g + f * f * f, np.sqrt(-f)
        three = 2.0 * m * np.cos((np.arccos(np.clip(-g / (m * m * m), -1.0, 1.0)) - _TURNS) / 3.0)
        # elsewhere Cardano's one real root, in the first column; NaN coefficients give NaN roots
        u = np.cbrt(-g - np.copysign(np.sqrt(d), g))
        roots = np.where(d < 0.0, three, np.where(_TURNS == 0.0, u - f / u, np.nan)) - s
        for _ in range(2):  # Newton steps on the monic cubic
            roots -= (((roots + a2) * roots + a1) * roots + a0) / ((3.0 * roots + 2.0 * a2) * roots + a1)
        inside = (roots > lowest) & (roots < 1.0)
        candidates = np.concatenate([lowest, roots], axis=1)
        valid = np.concatenate([np.ones((tp.size, 1), bool), inside], axis=1)
        rows = np.nonzero(valid)[0]  # H at each candidate q below, with its q_beta and C in hand
        q, n_q, values = candidates[valid], ns[rows], np.full(candidates.shape, np.inf)
        values[valid] = g_plus(q) * g_minus(n_q, q, tp[rows], tm[rows]) * _beta_p0(n_q, q, qb[rows], c[rows, 0])
    best = (np.arange(tp.size), np.argmin(values, axis=1))
    q_h, h_min = candidates[best], values[best]
    if not np.all(np.isfinite(h_min)):
        k = np.flatnonzero(~np.isfinite(h_min))[0]
        raise ValueError(f"H at n = {ns[k]}, theta+ = {tp[k]:.3g}, theta- = {tm[k]:.3g} is not a finite "
                         f"float64 (largest {np.finfo(float).max:.4g})")
    return OptimumReport(
        q_min=qm.reshape(shape),
        q_beta=qb.reshape(shape),
        q_G=qg.reshape(shape),
        q_H=q_h.reshape(shape),
        H_min=h_min.reshape(shape),
        evaluations=rows.size,
        warned_full_domain=(qb >= qg).reshape(shape),
    )


def sweep(n_min: int, n_max: int, examples: Sequence[AngleExample] | None = None):
    """Every (n, example) pair optimized by one minimize_H call; deterministic.
    Returns (ns, examples, report) with ns = n_min..n_max and the report's
    pair fields of shape (len(ns), len(examples)): row i for ns[i], column
    j for examples[j]."""
    q_min(n_min)  # refuses an n outside the strategy's range, naming it
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
    q_min(n_max)
    chosen = ANGLE_EXAMPLES if examples is None else tuple(examples)
    ns = np.arange(n_min, n_max + 1)
    theta_plus, theta_minus = [ex.theta_plus for ex in chosen], [ex.theta_minus for ex in chosen]
    return ns, chosen, minimize_H(ns[:, None], theta_plus, theta_minus)


def write_sweep_csv(table, path) -> None:
    """Write sweep's (ns, examples, report) as CSV with CRLF line ends: the
    fixed header, then one line per (n, example) pair, n-major, labels
    unquoted, floats to 12 significant digits. Each example's angles and
    each n's q_min and q_beta are formatted once."""
    ns, examples, report = table
    angles = ["%s,%.12g,%.12g," % (ex.label, ex.theta_plus, ex.theta_minus) for ex in examples]
    # q_min and q_beta depend on n only: column 0 holds them (none, and no line, without examples)
    per_n = ["%.12g,%.12g," % pair for pair in zip(report.q_min[:, :1].flat, report.q_beta[:, :1].flat)]
    found = zip(*(getattr(report, key).tolist() for key in _CSV_HEADER[6:]))  # (q_G, q_H, H_min) rows per n
    lines = [",".join(_CSV_HEADER)]
    for n, landmarks, rows in zip(ns.tolist(), per_n, found):
        lines += [f"{n},{ex}{landmarks}" + "%.12g,%.12g,%.12g" % pair for ex, pair in zip(angles, zip(*rows))]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([*lines, ""]))
