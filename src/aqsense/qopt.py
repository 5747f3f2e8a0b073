"""Optimization of the initial GHZ weight q0.

Combines the two estimation-variance bounds with the residual acceptance
of imperfect copies into a single figure of merit H(q0), locates its
landmark weights (domain minimum, eigenvalue-branch crossing, Dicke-bound
minimizer), and minimizes H per (n, angle pair). H is rational in q0, so
its minimum is a root of a cubic; n broadcasts with the angles, and one
minimize_H call solves the cubics of every (n, angle pair) together, so the
sweep that generates the figure data makes one call in all; its rows are
written as CSV with CRLF line ends, one line per (n, example) pair. n runs up
to N_MAX = 514, the largest n whose C(2n, n) lies inside float64 range.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
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
    "beta_p0",
    "gamma_eta",
    "minimize_H",
    "objective_H",
    "q_landmarks",
    "sweep",
    "write_sweep_csv",
]

_CSV_HEADER = ("n", "label", "theta_plus", "theta_minus", "q_min", "q_beta", "q_G", "q_H", "H_min")
_CSV_LINE = "%s,%s" + ",%.12g" * 7


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
                      for k in map(int, distinct)])
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


def q_landmarks(n, theta_plus, theta_minus):
    """The three landmark weights (q_min, q_beta, q_G).

    q_min bounds the admissible domain, q_beta marks the eigenvalue branch
    crossing at p = 0, and q_G minimizes the theta- variance bound. All three
    have the broadcast shape of n and the angles.

    With r = eta/gamma, q_G = sqrt(r (1 + r)) - r = 1/(1 + sqrt(1 + 1/r)),
    evaluated as sqrt(eta)/(sqrt(eta) + sqrt(eta + gamma)): no difference
    of large numbers, no overflow, and 0 where eta is 0.
    """
    gamma, eta = gamma_eta(n, theta_plus, theta_minus)
    root = np.sqrt(eta)
    q_g = root / (root + np.sqrt(eta + gamma))
    return *_per_n(np.broadcast_to(n, q_g.shape))[:2], q_g


def beta_p0(n, q0):
    """Largest subunit strategy eigenvalue at p = 0 as a function of q0.

    Below the branch crossing: 1 - 1/(2n-1) - 2 q0/(2 + (C-2) q0); above:
    C q0/(2 + (C-2) q0) with C = C(2n,n). n and q0 broadcast.
    """
    n_arr = np.asarray(n)
    q = np.asarray(q0, dtype=float)
    qm, qb, c = _per_n(n_arr)
    inside = (qm <= q) & (q < 1.0)
    if not inside.all():
        k = np.argmin(inside)  # the first pair outside, in flat order
        q_k, n_k = (np.broadcast_to(x, inside.shape).flat[k] for x in (q, n_arr))
        raise ValueError(f"q0 must lie in [q_min(n), 1), got {q_k} at n = {n_k}")
    denom = 2.0 + (c - 2.0) * q
    return np.where(q < qb, 1.0 - 1.0 / (2 * n_arr - 1) - 2.0 * q / denom, c * q / denom)


def objective_H(n: int, q0, theta_plus: float, theta_minus: float):
    """Figure of merit: product of both variance bounds with beta at p = 0."""
    return g_plus(q0) * g_minus(n, q0, theta_plus, theta_minus) * beta_p0(n, q0)


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
    of the cubic in (a, 1): at most four evaluations per pair. The roots of
    every pair come from one eigvals call on a stack of companion matrices.

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
    qm, qb, qg = q_landmarks(ns, tp, tm)
    warned = qb >= qg
    # max(start, q_beta): q_G, or q_beta for a flagged pair
    lowest = np.maximum(qg, qb)
    # gamma can underflow to 0 as theta- -> 0: pairs whose H leaves float64 range are refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (gamma, eta), c = gamma_eta(ns, tp, tm), _per_n(ns)[2]
        # C enters the monic cubic through (C - 2) and (C - 4) in ratios only, so
        # a power of two scales it exactly and keeps every product in range
        scale = np.ldexp(1.0, -np.frexp(c)[1])
        c_2, c_4 = c * scale - 2.0 * scale, c * scale - 4.0 * scale
        lead = 2.0 * gamma * c_2
        companion = np.zeros((tp.size, 3, 3))
        companion[:, 0, 0] = -(3.0 * eta * c_2 - gamma * c_4) / lead
        companion[:, 0, 1] = 2.0 * eta * c_4 / lead
        companion[:, 0, 2] = 2.0 * eta * scale / lead
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        # a non-finite coefficient means H is not finite at any candidate either
        roots = np.linalg.eigvals(np.where(np.isfinite(companion), companion, 0.0))
        inside = (roots.imag == 0.0) & (roots.real > lowest[:, None]) & (roots.real < 1.0)
        candidates = np.concatenate([lowest[:, None], roots.real], axis=1)
        valid = np.concatenate([np.ones((tp.size, 1), bool), inside], axis=1)
        rows = np.nonzero(valid)[0]
        values = np.full(candidates.shape, np.inf)
        values[valid] = objective_H(ns[rows], candidates[valid], tp[rows], tm[rows])
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
        warned_full_domain=warned.reshape(shape),
    )


def sweep(n_min: int, n_max: int, examples: Sequence[AngleExample] | None = None) -> list[dict]:
    """One optimization row per (n, example) pair, from one minimize_H call
    over all of them; deterministic."""
    q_min(n_min)  # refuses an n outside the strategy's range, naming it
    if n_max < n_min:
        raise ValueError(f"n_max={n_max} is below n_min={n_min}")
    q_min(n_max)
    chosen = ANGLE_EXAMPLES if examples is None else tuple(examples)
    ns = np.repeat(np.arange(n_min, n_max + 1), len(chosen))
    count = n_max - n_min + 1
    theta_plus = np.tile([ex.theta_plus for ex in chosen], count)
    theta_minus = np.tile([ex.theta_minus for ex in chosen], count)
    report = minimize_H(ns, theta_plus, theta_minus)
    columns = (ns.tolist(), [ex.label for ex in chosen] * count, theta_plus.tolist(), theta_minus.tolist(),
               *(getattr(report, key).tolist() for key in _CSV_HEADER[4:]))
    return [dict(zip(_CSV_HEADER, row)) for row in zip(*columns)]


def write_sweep_csv(rows: Sequence[dict], path) -> None:
    """Write sweep rows as CSV with CRLF line ends: the fixed header, then one
    line per row, labels unquoted, floats to 12 significant digits."""
    lines = [",".join(_CSV_HEADER), *map(_CSV_LINE.__mod__, map(itemgetter(*_CSV_HEADER), rows)), ""]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
