"""Anonymous two-field sensing on a GHZ/Dicke superposition.

A 2n-qubit probe sqrt(q0)|GHZ> + sqrt(1-q0)|D_2n^n> picks up local phases
from two unknown equal-coupling fields at unspecified positions. A fixed
four-outcome measurement exposes only the sum and difference angles
theta+ = (w1+w2)t and theta- = (w1-w2)t, never the positions. This module
provides the measurement, the outcome law (closed form and simulated), a
sampler, plug-in estimators, Cramer-Rao sensitivity bounds, and an audit
that checks the position independence numerically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qcore import PureState, evolve_phases, make_dicke, make_ghz, make_target

__all__ = [
    "GhzCollapseError",
    "SensingScenario",
    "Povm",
    "OutcomeDistribution",
    "SensitivityBound",
    "AuditReport",
    "build_povm",
    "analytic_probs",
    "simulate_probs",
    "sample_run",
    "estimate_angles",
    "g_plus",
    "g_minus",
    "sensitivity_bounds",
    "placement_probabilities",
    "anonymity_audit",
]


class GhzCollapseError(ValueError):
    """The difference angle is unrecoverable: no Dicke weight in the probe."""


@dataclass(frozen=True)
class SensingScenario:
    """One sensing run: probe shape, field positions, frequencies, time.

    Positions t1, t2 are 1-based and distinct; omega1 sits at t1 and omega2
    at t2 with 0 < omega1 < omega2 <= pi/(2t). All other local frequencies
    are zero. Derived angles: theta_plus = (omega1+omega2) t in (0, pi],
    theta_minus = (omega1-omega2) t in [-pi/2, 0).
    """

    n: int
    q0: float
    t1: int
    t2: int
    omega1: float
    omega2: float
    t: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"n must be at least 3, got {self.n}")
        if not 0.0 < self.q0 < 1.0:
            raise ValueError(f"q0 must lie strictly between 0 and 1, got {self.q0}")
        m = 2 * self.n
        if not (1 <= self.t1 <= m and 1 <= self.t2 <= m):
            raise ValueError(f"positions must lie in [1, {m}]")
        if self.t1 == self.t2:
            raise ValueError("the two field positions must differ")
        if not 0.0 < self.omega1 < self.omega2:
            raise ValueError("frequencies must satisfy 0 < omega1 < omega2")
        if self.t < 0.0:
            raise ValueError(f"interaction time must be nonnegative, got {self.t}")
        if self.t > 0.0 and self.omega2 > np.pi / (2 * self.t) + 1e-12:
            raise ValueError("omega2 exceeds pi/(2t)")

    @property
    def theta_plus(self) -> float:
        return (self.omega1 + self.omega2) * self.t

    @property
    def theta_minus(self) -> float:
        return (self.omega1 - self.omega2) * self.t

    @classmethod
    def from_angles(
        cls,
        n: int,
        q0: float,
        theta_plus: float,
        theta_minus: float,
        t1: int = 1,
        t2: int = 2,
        t: float = 1.0,
    ) -> "SensingScenario":
        """Scenario with given derived angles, solved for the frequencies."""
        omega1 = (theta_plus + theta_minus) / (2 * t)
        omega2 = (theta_plus - theta_minus) / (2 * t)
        return cls(n=n, q0=q0, t1=t1, t2=t2, omega1=omega1, omega2=omega2, t=t)


class Povm:
    """The four-outcome measurement: two GHZ-sector projectors, the Dicke
    projector, and the remainder.

    Holds the three orthonormal rank-1 kets; the fourth element, the
    identity minus their projectors, is never built. Call ``validate`` to
    check the kets (``build_povm`` does).
    """

    def __init__(self, n: int, kets: Sequence[np.ndarray] | None = None):
        self.n = n
        m = 2 * n
        if kets is None:
            ghz_plus = make_ghz(m).amps
            ghz_minus = ghz_plus.copy()
            ghz_minus[-1] = -ghz_minus[-1]
            kets = (ghz_plus, ghz_minus, make_dicke(m, n).amps)
        self.kets = tuple(np.asarray(k, dtype=np.complex128) for k in kets)

    def probabilities(self, state: PureState) -> np.ndarray:
        """Outcome probabilities via inner products, no dense operators."""
        p = np.array([abs(np.vdot(k, state.amps)) ** 2 for k in self.kets])
        return np.append(p, 1.0 - p.sum())

    def validate(self) -> None:
        """Check that the kets' Gram matrix is the identity within 1e-12.

        Orthonormal kets give orthogonal rank-1 projectors, so the remainder
        is a projector too: all four elements are positive and sum to I.
        """
        kets = np.array(self.kets)
        gram = kets.conj() @ kets.T
        if np.max(np.abs(gram - np.eye(len(kets)))) > 1e-12:
            raise ValueError("POVM kets are not orthonormal within 1e-12")


def build_povm(n: int) -> Povm:
    """Construct and validate the protocol measurement for 2n qubits."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    povm = Povm(n)
    povm.validate()
    return povm


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the four measurement outcomes."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        probs = np.array([self.p1, self.p2, self.p3, self.p4])
        if np.any(probs < -1e-12) or np.any(probs > 1 + 1e-12):
            raise ValueError(f"probabilities out of [0, 1]: {probs}")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")

    def as_array(self) -> np.ndarray:
        return np.clip(np.array([self.p1, self.p2, self.p3, self.p4]), 0.0, 1.0)


def analytic_probs(n: int, q0: float, theta_plus: float, theta_minus: float) -> OutcomeDistribution:
    """Closed-form outcome law of the four-outcome measurement.

    p1 = q0 (1 + cos theta+)/2, p2 = q0 (1 - cos theta+)/2,
    p3 = q1 [((n-1) cos(theta+/2) + n cos(theta-/2)) / (2n-1)]^2,
    p4 = remainder. Total function of the angles; q0 may be 1 (pure GHZ
    probe), in which case p3 = p4 = 0 identically.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 <= 1.0:
        raise ValueError(f"q0 must lie in (0, 1], got {q0}")
    q1 = 1.0 - q0
    p1 = q0 * (1 + np.cos(theta_plus)) / 2
    # complements keep p1+p2 = q0 and p3+p4 = q1 exact, so q0 = 1 gives
    # p3 = p4 = 0 identically
    p2 = q0 - p1
    amp = ((n - 1) * np.cos(theta_plus / 2) + n * np.cos(theta_minus / 2)) / (2 * n - 1)
    p3 = q1 * amp ** 2
    p4 = q1 - p3
    return OutcomeDistribution(float(p1), float(p2), float(p3), float(max(p4, 0.0)))


def simulate_probs(scenario: SensingScenario) -> OutcomeDistribution:
    """Outcome law computed by explicit state evolution and measurement.

    Prepares the probe, applies the local phases at positions t1 and t2,
    and evaluates the four outcome expectations. Serves as the brute-force
    cross-check of ``analytic_probs``.
    """
    n = scenario.n
    omegas = np.zeros(2 * n)
    omegas[scenario.t1 - 1] = scenario.omega1
    omegas[scenario.t2 - 1] = scenario.omega2
    state = evolve_phases(make_target(n, scenario.q0), omegas, scenario.t)
    p = Povm(n).probabilities(state)
    return OutcomeDistribution(float(p[0]), float(p[1]), float(p[2]), float(max(p[3], 0.0)))


def sample_run(scenario: SensingScenario, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` independent repetitions."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    return rng.multinomial(shots, simulate_probs(scenario).as_array())


def estimate_angles(p1: float, p2: float, p3: float, n: int, q0: float) -> tuple[float, float]:
    """Plug-in inversion of the outcome law on (possibly noisy) frequencies.

    Returns (theta+ estimate, |theta-| estimate); arccos arguments are
    clamped to [-1, 1] and the final magnitude to [0, pi]. Raises
    GhzCollapseError when p3 < 0 or q0 = 1, where theta- carries no signal.
    """
    if q0 <= 0.0:
        raise ValueError(f"q0 must be positive, got {q0}")
    q1 = 1.0 - q0
    if q1 == 0.0 or p3 < 0.0:
        raise GhzCollapseError("no Dicke weight available: theta- is unrecoverable")
    tp = float(np.arccos(np.clip((p1 - p2) / q0, -1.0, 1.0)))
    f = (2 * n - 1) / n * np.sqrt(p3 / q1) - (n - 1) / n * np.cos(tp / 2)
    tm = 2.0 * float(np.arccos(np.clip(f, -1.0, 1.0)))
    return tp, float(min(tm, np.pi))


def g_plus(q0):
    """Variance bound per repetition for theta+; vectorized in q0."""
    return 1.0 / np.asarray(q0, dtype=float)


def g_minus(n, q0, theta_plus, theta_minus):
    """Variance bound per repetition for theta-; vectorized in q0 and angles."""
    q0 = np.asarray(q0, dtype=float)
    q1 = 1.0 - q0
    s_minus = np.sin(np.asarray(theta_minus) / 2) ** 2
    c_plus = np.cos(np.asarray(theta_plus) / 2)
    c_minus = np.cos(np.asarray(theta_minus) / 2)
    frac = 1.0 - 1.0 / n
    term1 = 1.0 / q1
    term2 = frac ** 2 * np.sin(np.asarray(theta_plus) / 2) ** 2 / (q0 * q1 * s_minus)
    term3 = 2.0 * frac * (1.0 - c_plus * c_minus) / (q1 * s_minus)
    return term1 + term2 + term3


@dataclass(frozen=True)
class SensitivityBound:
    """Cramer-Rao variance bounds per repetition for the two angles."""

    g_plus: float
    g_minus: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.g_plus) and self.g_plus > 0):
            raise ValueError(f"g_plus must be finite and positive, got {self.g_plus}")
        if not (np.isfinite(self.g_minus) and self.g_minus > 0):
            raise ValueError(f"g_minus must be finite and positive, got {self.g_minus}")


def sensitivity_bounds(n: int, q0: float, theta_plus: float, theta_minus: float) -> SensitivityBound:
    """Evaluate both variance bounds; theta_minus = 0 is rejected since the
    bound for theta- diverges there.
    """
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie strictly between 0 and 1, got {q0}")
    if not -np.pi / 2 <= theta_minus < 0.0:
        raise ValueError(f"theta_minus must lie in [-pi/2, 0), got {theta_minus}")
    return SensitivityBound(float(g_plus(q0)), float(g_minus(n, q0, theta_plus, theta_minus)))


@dataclass(frozen=True)
class AuditReport:
    """Result of the position-independence check."""

    num_pairs: int
    max_distance: float
    passed: bool


def placement_probabilities(
    n: int, q0: float, omega_a: float, omega_b: float, t: float, povm: Povm | None = None
) -> np.ndarray:
    """Outcome law of the probe for every ordered placement of omega_a at
    qubit t1 and omega_b at qubit t2 != t1: one row per placement, ordered
    by t1 and then t2, and one column per POVM outcome.

    A qubit at frequency w scales a basis state by e^{+i w t/2} on bit 0 and
    e^{-i w t/2} on bit 1, i.e. by p0 + (p1 - p0) bit. So with v = conj(k) psi
    on its support and B that support's 0/1 bit matrix (qubit 0 most
    significant, as in ``evolve_phases``), every amplitude <k|U_{t1,t2}|psi>
    is a combination of sum(v), r = B^T v and S = B^T diag(v) B at (t1, t2):
    one matrix product per ket in place of one evolution per placement.
    """
    if povm is None:
        povm = Povm(n)
    m = 2 * n
    psi = make_target(n, q0).amps
    a0, b0 = cmath.exp(0.5j * omega_a * t), cmath.exp(0.5j * omega_b * t)
    da, db = a0.conjugate() - a0, b0.conjugate() - b0
    shifts = np.arange(m - 1, -1, -1)
    placed = ~np.eye(m, dtype=bool)
    probs = []
    for ket in povm.kets:
        v = ket.conj() * psi
        support = np.flatnonzero(v)
        v = v[support]
        bits = ((support[:, None] >> shifts) & 1).astype(float)
        r = bits.T @ v
        s = bits.T @ (v[:, None] * bits)
        amp = a0 * b0 * v.sum() + a0 * db * r[None, :] + da * b0 * r[:, None] + da * db * s
        probs.append(np.abs(amp[placed]) ** 2)
    probs = np.array(probs).T
    return np.column_stack([probs, 1.0 - probs.sum(axis=1)])


def anonymity_audit(
    n: int, q0: float, omega_a: float, omega_b: float, t: float, povm: Povm | None = None
) -> AuditReport:
    """Check that the outcome law is identical for every ordered placement
    of the two fields. Passes iff the max pairwise L-infinity distance
    between the distributions is below 1e-12. A ``povm`` override allows
    negative controls with asymmetric measurements.
    """
    dists = placement_probabilities(n, q0, omega_a, omega_b, t, povm)
    max_distance = float(np.max(dists.max(axis=0) - dists.min(axis=0)))
    return AuditReport(num_pairs=len(dists), max_distance=max_distance, passed=max_distance < 1e-12)
