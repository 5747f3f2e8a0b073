"""Anonymous two-field sensing on a GHZ/Dicke superposition.

A 2n-qubit probe sqrt(q0)|GHZ> + sqrt(1-q0)|D_2n^n> picks up local phases
from two unknown equal-coupling fields at unspecified positions. A fixed
four-outcome measurement exposes only the sum and difference angles
theta+ = (w1+w2)t and theta- = (w1-w2)t, never the positions. This module
provides the measurement, the closed-form outcome law, a sampler from that
law, plug-in estimators, Cramer-Rao sensitivity bounds, and an audit that
checks the position independence numerically.

The probe and the measurement kets live on the C(2n,n) + 2 basis states of
weight 0, n and 2n, so each ket is kept as its support (indices and
amplitudes) and the audit evaluates the probe on those indices only, never
on a 2^(2n) vector.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .qcore import PureState, check_bytes_limit, check_probe, probe_on
from .symcomb import WeightBasis, binom

__all__ = [
    "SensingScenario",
    "Povm",
    "OutcomeDistribution",
    "SensitivityBound",
    "AuditReport",
    "analytic_probs",
    "check_support_budget",
    "sample_run",
    "estimate_angles",
    "g_plus",
    "g_minus",
    "one_minus_cos_cos",
    "sensitivity_bounds",
    "placement_probabilities",
    "anonymity_audit",
]


@dataclass(frozen=True)
class SensingScenario:
    """One sensing run: probe shape, field positions, frequencies, time.

    Positions t1, t2 are 1-based and distinct; omega1 sits at t1 and omega2
    at t2 with 0 < omega1 < omega2 <= pi/(2t), both finite, and the time
    t > 0. All other local frequencies are zero. Derived angles:
    theta_plus = (omega1+omega2) t in (0, pi], theta_minus =
    (omega1-omega2) t in [-pi/2, 0).
    """

    n: int
    q0: float
    t1: int
    t2: int
    omega1: float
    omega2: float
    t: float

    def __post_init__(self) -> None:
        check_probe(self.n, self.q0)
        m = 2 * self.n
        if not (1 <= self.t1 <= m and 1 <= self.t2 <= m):
            raise ValueError(f"positions must lie in [1, {m}]")
        if self.t1 == self.t2:
            raise ValueError("the two field positions must differ")
        if not 0.0 < self.omega1 < self.omega2 < np.inf:
            raise ValueError("frequencies must be finite and satisfy 0 < omega1 < omega2")
        if not self.t > 0.0:
            raise ValueError(f"interaction time must be positive, got {self.t}")
        if self.omega2 > np.pi / (2 * self.t) + 1e-12:
            raise ValueError("omega2 exceeds pi/(2t)")

    @property
    def theta_plus(self) -> float:
        return (self.omega1 + self.omega2) * self.t

    @property
    def theta_minus(self) -> float:
        return (self.omega1 - self.omega2) * self.t


class Povm:
    """The four-outcome measurement: two GHZ-sector projectors, the Dicke
    projector, and the remainder.

    Holds the three orthonormal rank-1 kets, each as its support: a pair
    (indices, amplitudes) with the basis indices ascending and the
    complex128 amplitudes on them, built on {0, 2^(2n) - 1} and the
    weight-n indices. The fourth element, the identity minus the
    projectors, is never built.
    """

    def __init__(self, n: int):
        self.n = n
        m = 2 * n
        ends = np.array([0, (1 << m) - 1], dtype=np.int64)
        half = 1 / np.sqrt(2)
        dicke = WeightBasis(m, n).indices
        self.kets = (
            (ends, np.array([half, half], dtype=np.complex128)),
            (ends, np.array([half, -half], dtype=np.complex128)),
            (dicke, np.full(dicke.size, 1 / np.sqrt(dicke.size), dtype=np.complex128)),
        )

    def probabilities(self, state: PureState) -> np.ndarray:
        """Outcome probabilities of a dense state, gathered on each ket's support."""
        p = np.array([abs(np.vdot(amps, state.amps[idx])) ** 2 for idx, amps in self.kets])
        return np.append(p, 1.0 - p.sum())


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of the four measurement outcomes."""

    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        probs = (self.p1, self.p2, self.p3, self.p4)
        if not all(-1e-12 <= p <= 1 + 1e-12 for p in probs):
            raise ValueError(f"probabilities out of [0, 1]: {probs}")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {sum(probs)}, not 1")

    def as_array(self) -> np.ndarray:
        return np.clip(np.array([self.p1, self.p2, self.p3, self.p4]), 0.0, 1.0)


def analytic_probs(n: int, q0: float, theta_plus: float, theta_minus: float) -> OutcomeDistribution:
    """Closed-form outcome law of the four-outcome measurement.

    p1 = q0 (1 + cos theta+)/2, p2 = q0 (1 - cos theta+)/2,
    p3 = q1 [((n-1) cos(theta+/2) + n cos(theta-/2)) / (2n-1)]^2,
    p4 = remainder. Total function of the angles; q0 lies in (0, 1], as the
    law holds at q0 = 1 (GHZ only, outside check_probe) with p3 = p4 = 0.
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


# Bytes per entry of the largest ket (the Dicke ket, C(2n, n) entries) that
# one placement_probabilities call allocates. Every ket holds the int64
# index and its big-endian copy, the ket and probe amplitudes, v and dv
# (complex128), the unpacked ceil(2n/8) low index bytes and the float32 bit
# matrix. A ket on which v is not constant (the 2-entry GHZ-minus ket, the
# negative controls) adds two float64 copies of that matrix for dv's sums.
# Traced at n = 6..10: 140-170 bytes for the protocol, 320-440 for a
# Dicke-sized control ket, under the 352-480 of _ENTRY_BYTES + 64 + 32n,
# which keeps the audit to n = 11 under qcore.SUPPORT_BYTES_LIMIT (1 GiB).
_ENTRY_BYTES = 96


def _support_bytes(n: int) -> int:
    return binom(2 * n, n) * (_ENTRY_BYTES + 64 + 16 * 2 * n)


def check_support_budget(n: int) -> None:
    """Raise ValueError, naming the largest n accepted, when the support
    arrays of placement_probabilities at this n would exceed
    qcore.SUPPORT_BYTES_LIMIT."""
    check_bytes_limit(n, _support_bytes, "support arrays for the placement law (--audit)")


def sample_run(scenario: SensingScenario, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Multinomial outcome counts for ``shots`` independent repetitions,
    drawn from the closed-form law."""
    if shots < 1:
        raise ValueError(f"shots must be at least 1, got {shots}")
    law = analytic_probs(scenario.n, scenario.q0, scenario.theta_plus, scenario.theta_minus)
    return rng.multinomial(shots, law.as_array())


def estimate_angles(p1: float, p2: float, p3: float, n: int, q0: float) -> tuple[float, float]:
    """Plug-in inversion of the outcome law on (possibly noisy) frequencies.

    Returns (theta+ estimate, |theta-| estimate); arccos arguments are
    clamped to [-1, 1] and the final magnitude to [0, pi]. Raises
    ValueError off the probe's domain, for a frequency that is not finite,
    or when p3 < 0 (theta- is lost).
    """
    check_probe(n, q0)
    if not np.isfinite([p1, p2, p3]).all():
        raise ValueError(f"frequencies must be finite, got p1={p1}, p2={p2}, p3={p3}")
    if p3 < 0.0:
        raise ValueError("no Dicke weight available: theta- is unrecoverable")
    q1 = 1.0 - q0
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
    frac = 1.0 - 1.0 / n
    term1 = 1.0 / q1
    term2 = frac ** 2 * np.sin(np.asarray(theta_plus) / 2) ** 2 / (q0 * q1 * s_minus)
    term3 = 2.0 * frac * one_minus_cos_cos(theta_plus, theta_minus) / (q1 * s_minus)
    return term1 + term2 + term3


def one_minus_cos_cos(theta_plus, theta_minus):
    """1 - cos(theta+/2) cos(theta-/2) as sin^2((theta+ + theta-)/4) +
    sin^2((theta+ - theta-)/4), which keeps its digits where both angles are
    small and the difference form cancels to 0; vectorized in the angles."""
    tp, tm = np.asarray(theta_plus, dtype=float), np.asarray(theta_minus, dtype=float)
    return np.sin((tp + tm) / 4) ** 2 + np.sin((tp - tm) / 4) ** 2


@dataclass(frozen=True)
class SensitivityBound:
    """Cramer-Rao variance bounds per repetition for the two angles."""

    g_plus: float
    g_minus: float

    def __post_init__(self) -> None:
        if not 0.0 < self.g_plus < np.inf:
            raise ValueError(f"g_plus must be finite and positive, got {self.g_plus}")
        if not 0.0 < self.g_minus < np.inf:
            raise ValueError(f"g_minus must be finite and positive, got {self.g_minus}")


def sensitivity_bounds(n: int, q0: float, theta_plus: float, theta_minus: float) -> SensitivityBound:
    """Evaluate both variance bounds; theta_minus = 0 is rejected since the
    bound for theta- diverges there.
    """
    check_probe(n, q0)
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
    on the ket's support (where the probe is nonzero) and B that support's
    0/1 bit matrix (qubit 0 most significant, as in ``qcore.evolve_phases``),
    every amplitude <k|U_{t1,t2}|psi> is a combination of sum(v),
    r = B^T v and S = B^T diag(v) B at (t1, t2): a few matrix products per
    ket in place of one evolution per placement.

    v is split as v[0] + dv. The constant v[0] meets B, unpacked from the
    ceil(2n/8) low bytes of each index, through integer counts: the support
    size, and B^T B, whose diagonal is B's column sums, formed in float32
    and exact, as every partial sum is an integer no larger than the
    support (2^(2n) <= 2^22 < 2^24 under the support budget). So a ket on
    which v is constant, as on the protocol's GHZ-plus and Dicke kets,
    gives every placement the same float amplitude. B is real, so dv's
    share of r and S comes from its real and imaginary parts by real
    float64 products, skipped where they are 0.
    """
    check_probe(n, q0)
    check_support_budget(n)
    if povm is None:
        povm = Povm(n)
    m = 2 * n
    low = -(-m // 8)
    a0, b0 = cmath.exp(0.5j * omega_a * t), cmath.exp(0.5j * omega_b * t)
    da, db = a0.conjugate() - a0, b0.conjugate() - b0
    placed = ~np.eye(m, dtype=bool)
    probs = []
    for idx, amps in povm.kets:
        v = amps.conj() * probe_on(n, np.sqrt(q0), np.sqrt(1.0 - q0), idx)
        if not v.all():
            support = np.flatnonzero(v)
            v, idx = v[support], idx[support]
        ref = v[0] if v.size else 0.0
        dv = v - ref
        # qubit j's bit of each index, from the low big-endian bytes of the
        # index, as exact float32 counts; dv's sums promote B to float64
        octets = idx.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - low :]
        bits = np.unpackbits(octets, axis=1)[:, 8 * low - m :].astype(np.float32)
        counts = (bits.T @ bits).astype(np.float64)
        r_re, s_re = _weighted_sums(bits, dv.real)
        r_im, s_im = _weighted_sums(bits, dv.imag)
        r = ref * np.diag(counts) + r_re + 1j * r_im
        s = ref * counts + s_re + 1j * s_im
        amp = a0 * b0 * (ref * v.size + dv.sum()) + a0 * db * r[None, :] + da * b0 * r[:, None] + da * db * s
        probs.append(np.abs(amp[placed]) ** 2)
    probs = np.array(probs).T
    return np.column_stack([probs, 1.0 - probs.sum(axis=1)])


def _weighted_sums(bits: np.ndarray, w: np.ndarray):
    """(bits^T w, bits^T diag(w) bits) for real w by real products; 0 when w is 0."""
    return (bits.T @ w, bits.T @ (bits * w[:, None])) if w.any() else (0.0, 0.0)


def anonymity_audit(
    n: int, q0: float, omega_a: float, omega_b: float, t: float, povm: Povm | None = None
) -> AuditReport:
    """Check that the outcome law is identical for every ordered placement
    of the two fields. Passes iff the max pairwise L-infinity distance
    between the distributions is below 1e-12. A ``povm`` override, any
    object whose ``kets`` are (indices, amplitudes) pairs as in ``Povm``,
    allows negative controls with asymmetric measurements.
    """
    dists = placement_probabilities(n, q0, omega_a, omega_b, t, povm)
    max_distance = float(np.max(dists.max(axis=0) - dists.min(axis=0)))
    return AuditReport(num_pairs=len(dists), max_distance=max_distance, passed=max_distance < 1e-12)
