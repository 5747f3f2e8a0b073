"""Closed-form spectrum of the combined verification strategy.

The strategy splits into three sector-disjoint pieces; the second-largest
eigenvalue (hence the spectral gap) comes from the GHZ/Dicke core. Its
two coupled eigenpairs are closed forms: the target is the eigenvector of
eigenvalue 1 of their 2x2 reduction on the symmetric subspace.
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

from ..symcomb import johnson_eigenvalue
from .operators import lambda_map, strategy_orbits
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
            items = value if isinstance(value, tuple) else [value] if isinstance(value, float) else []
            if not all(map(math.isfinite, items)):
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
    orbits = strategy_orbits(n, q0, p)
    lam0, lam1 = lambda_map(n, q0)
    m = 2 * n
    a, b, c = orbits[(0, 0, 0)], orbits[(n, n, n)], orbits[(n, n, n - 1)]
    d, alpha2 = orbits[(0, n, 0)], orbits[(n - 1, n - 1, n - 1)]
    omega3_values = tuple(orbits[(l, l, l)] for l in range(1, n - 1))
    c_big = math.comb(m, n)
    # d ~ C(2n,n)^(-3/2) leaves the normal float64 range from about n = 340;
    # the check guards the reported d
    if not d >= sys.float_info.min:
        raise ValueError(
            f"core coupling d = {float(d):.3g} at n={n}, q0={q0} is below the smallest normal float64"
        )

    # 2x2 reduction on span{|0..0>+|1..1>, sum of the weight-n basis states}:
    # alpha (|0..0>+|1..1>) + sum is an eigenvector of eigenvalue s_mid + 2 d alpha.
    # The target's alpha_plus = sqrt(lambda0/lambda1) gives 1, the alphas multiply
    # to -C(2n,n)/2, and the trace a + s_mid gives 1 - lambda_minus =
    # (1-p)(lambda1 + 2 lambda0/C(2n,n)): both terms positive, nothing cancels.
    s_mid = b + c * n * n
    alpha_plus = math.sqrt(lam0 / lam1)
    alpha_minus = -c_big / (2 * alpha_plus)
    lambda_plus = s_mid + 2 * d * alpha_plus
    lambda_minus = 1 - (1 - p) * (lam1 + 2 * lam0 / c_big)

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
        blocks = schrijver_blocks(m, orbits)
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
