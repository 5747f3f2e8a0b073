"""Closed-form spectrum of the combined verification strategy.

The strategy splits into three sector-disjoint pieces; the second-largest
eigenvalue (hence the spectral gap) comes from the GHZ/Dicke core, whose
two coupled eigenvalues follow from a 2x2 reduction on the symmetric
subspace. Everything here is exact arithmetic on the block coefficients.
The strategy commutes with every qubit permutation, so ``check_numeric``
diagonalizes it through Schrijver's symmetric blocks (``symmetric``): each
piece is checked on its own rows of those blocks, which have size at most
2n+1, at every n the closed form covers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ..symcomb import binom, johnson_eigenvalue
from .operators import _block_coefficients, strategy_orbits
from .symmetric import block_spectrum, schrijver_blocks

__all__ = [
    "SpectralSummary",
    "analytic_spectrum",
]


@dataclass(frozen=True)
class SpectralSummary:
    """All analytic eigenvalue data of the combined strategy at (n, q0, p).

    a, b, c, d are the block coefficients of the GHZ/Dicke core; the
    lambda_* fields are its eigenvalues (lambda_plus = 1 on the target);
    beta is the second-largest eigenvalue of the whole strategy and
    nu = 1 - beta the spectral gap, on branch "a" evaluated as (1-p) lambda1,
    so it keeps its digits when beta rounds to 1. ``branch`` records which
    candidate won: "a", "bc1", or "boundary" on a tie.
    """

    n: int
    q0: float
    p: float
    a: float
    b: float
    c: float
    d: float
    lambda_a: float
    lambda_bc1: float
    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float
    lambda1_omega2: float
    lambda1_omega3: float
    omega3_values: tuple[float, ...]
    beta: float
    nu: float
    branch: str
    residuals: dict[str, float] | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, (float, tuple)) and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} is not finite at n={self.n}: float64 range exceeded")
        if abs(self.lambda_plus - 1.0) > 1e-9:
            raise ValueError(f"top eigenvalue should be 1, got {self.lambda_plus}")
        if not self.nu > 0.0:
            raise ValueError(f"spectral gap must be positive, got {self.nu}")
        if abs(self.nu - (1.0 - self.beta)) > 1e-15:
            raise ValueError("gap must equal 1 - beta")


def analytic_spectrum(n: int, q0: float, p: float = 0.0, check_numeric: bool = False) -> SpectralSummary:
    """Evaluate every closed-form eigenvalue and the spectral gap.

    The branch condition compares the two candidates for the second-largest
    eigenvalue of the core piece; p = 1 is rejected (no gap, the condition
    degenerates). ``check_numeric`` adds the distance of each closed-form
    eigenvalue from the symmetric-block spectrum of its piece. Its beta
    residual resolves the gap only while nu is well above the float64
    spacing near 1, nu > ~1e-6 (about n <= 12 at q0 = 0.33); beyond that
    nu rests on its closed form, which the tests check against exact
    rational arithmetic.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"p must lie in [0, 1), got {p}")
    lam0, lam1, a, b, c, d, alpha2, omega3_values = _block_coefficients(n, q0, p)
    m = 2 * n
    c_big = binom(m, n)
    # d ~ C(2n,n)^(-3/2) leaves the normal float64 range from about n = 340
    # (and is 0 at q0 = 1); the roots below divide by it
    if not d >= sys.float_info.min:
        raise ValueError(
            f"core coupling d = {float(d):.3g} at n={n}, q0={q0} is below the smallest normal float64"
        )

    # 2x2 reduction on span{(|0..0>+|1..1>)/sqrt2, uniform weight-n vector}:
    # alpha solves 2d alpha^2 - (a - s_mid) alpha - d C(2n,n) = 0. Both a and
    # s_mid = 1 - 2(1-p) lambda0 / C(2n,n) round to 1 at large n, so a - s_mid
    # is formed directly, the root without cancellation comes from the
    # formula and the other from the product alpha_plus alpha_minus = -C/2.
    # a - s_mid and d enter scaled by the power of two that brings the larger
    # into [1/2, 1), which is exact in binary, so the squares under the root
    # do not underflow (from about n = 150 at q0 = 0.33 they would).
    s_mid = b + c * n * n
    a_minus_s = (1 - p) * (2 * lam0 / c_big - lam1)
    e = -math.frexp(max(abs(a_minus_s), d))[1]
    a_minus_s, d_scaled = math.ldexp(a_minus_s, e), math.ldexp(d, e)
    disc = math.sqrt(a_minus_s**2 + 8 * d_scaled * d_scaled * c_big)
    if a_minus_s >= 0:
        alpha_plus = (a_minus_s + disc) / (4 * d_scaled)
        alpha_minus = -c_big / (2 * alpha_plus)
    else:
        alpha_minus = (a_minus_s - disc) / (4 * d_scaled)
        alpha_plus = -c_big / (2 * alpha_minus)
    lambda_plus = s_mid + 2 * d * alpha_plus
    lambda_minus = s_mid + 2 * d * alpha_minus

    lambda_a = a
    lambda_bc1 = b + c * johnson_eigenvalue(m, n, 1)
    diff = lambda_a - lambda_bc1
    if abs(diff) <= 1e-12:
        branch = "boundary"
    elif diff > 0:
        branch = "a"
    else:
        branch = "bc1"
    # 1 - lambda_a = (1-p) lambda1 loses every digit when formed by
    # subtraction at large n; 1 - lambda_bc1 >= 1/(2n-1) does not.
    if lambda_a >= lambda_bc1:
        beta, nu = lambda_a, (1 - p) * lam1
    else:
        beta, nu = lambda_bc1, 1.0 - lambda_bc1

    lambda1_omega2 = alpha2 + (n + 1) / (4 * (2 * n - 1))
    lambda1_omega3 = omega3_values[0]

    residuals: dict[str, float] | None = None
    if check_numeric:
        blocks = schrijver_blocks(m, strategy_orbits(n, q0, p))
        vals, mults = block_spectrum(blocks, (0, n, m))
        # each value at most twice: enough to read the top two with multiplicity
        w1 = np.sort(np.repeat(vals, [min(mult, 2) for mult in mults]))
        top2 = float(np.max(block_spectrum(blocks, (n - 1, n + 1))[0]))
        rest = [w for w in range(1, m) if abs(w - n) > 1]
        top3 = float(np.max(block_spectrum(blocks, rest)[0]))
        residuals = {
            "lambda_plus": abs(lambda_plus - w1[-1]),
            "beta": abs(beta - w1[-2]),
            "lambda_a": float(np.min(np.abs(w1 - lambda_a))),
            "lambda_bc1": float(np.min(np.abs(w1 - lambda_bc1))),
            "lambda_minus": float(np.min(np.abs(w1 - lambda_minus))),
            "lambda1_omega2": abs(lambda1_omega2 - top2),
            "lambda1_omega3": abs(lambda1_omega3 - top3),
        }

    return SpectralSummary(
        n=n,
        q0=q0,
        p=p,
        a=float(a),
        b=float(b),
        c=float(c),
        d=float(d),
        lambda_a=float(lambda_a),
        lambda_bc1=float(lambda_bc1),
        alpha_plus=float(alpha_plus),
        alpha_minus=float(alpha_minus),
        lambda_plus=float(lambda_plus),
        lambda_minus=float(lambda_minus),
        lambda1_omega2=float(lambda1_omega2),
        lambda1_omega3=float(lambda1_omega3),
        omega3_values=omega3_values,
        beta=float(beta),
        nu=float(nu),
        branch=branch,
        residuals=residuals,
    )
