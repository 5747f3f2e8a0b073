"""Copy-count bounds for the verification protocol."""

from __future__ import annotations

import math

from .operators import check_p, lambda_map

__all__ = [
    "sample_complexity",
    "sample_complexity_terms",
    "exact_sample_bound",
    "failure_bound",
]


def _validate(epsilon: float, delta: float) -> None:
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def sample_complexity_terms(
    n: int, q0: float, epsilon: float, delta: float, p: float = 0.0
) -> tuple[int, int]:
    """The two competing ceiling terms behind the copy-count formula.

    Term 1 covers the branch where the inverse gap is below 2n-1; term 2
    covers the other branch through the Wallis bound C(2n,n) < 4^n/sqrt(pi n)
    and carries the 1/(1-p) slowdown of a nonzero Z-test probability.
    p must pass check_p, then (n, q0) lambda_map; a term leaving float64 range is refused.
    """
    check_p(p)
    lambda_map(n, q0)
    _validate(epsilon, delta)
    budget = math.log(1.0 / delta) / epsilon
    # 4^n as two factors of 2^n, since 4.0 ** n alone overflows from n = 512
    factor = q0 * 2.0 ** n / (2 * (1.0 - q0) * math.sqrt(math.pi * n)) * 2.0 ** n + 1.0
    terms = ((2 * n - 1) * budget, factor * budget / (1.0 - p))
    if math.inf in terms:
        raise ValueError(f"the copy count at n={n} leaves float64 range (q0={q0}, epsilon={epsilon}, delta={delta})")
    return math.ceil(terms[0]), math.ceil(terms[1])


def sample_complexity(n: int, q0: float, epsilon: float, delta: float, p: float = 0.0) -> int:
    """Number of copies sufficient to reject every epsilon-far source with
    confidence 1 - delta: the larger of the two ceiling terms.
    """
    return max(sample_complexity_terms(n, q0, epsilon, delta, p))


def exact_sample_bound(nu: float, epsilon: float, delta: float) -> int:
    """The un-relaxed copy count ceil(ln delta / ln(1 - nu epsilon)).

    ln(1 - nu epsilon) is formed as log1p(-nu epsilon), which keeps every
    digit as nu epsilon shrinks, where 1 - nu epsilon loses them (it is 1
    in float64 once nu epsilon <= 2^-54), so the count never exceeds
    ``sample_complexity`` when nu is the strategy's gap.
    """
    _validate(epsilon, delta)
    if not 0.0 < nu <= 1.0:
        raise ValueError(f"nu must lie in (0, 1], got {nu}")
    x = nu * epsilon
    if x >= 1.0:
        return 0
    return math.ceil(math.log(delta) / math.log1p(-x))


def failure_bound(nu: float, epsilon: float, copies: int) -> float:
    """Acceptance-probability bound (1 - nu epsilon)^copies for a source
    whose every copy is epsilon-far from the target, formed as
    exp(copies log1p(-nu epsilon)); 1 for no copies.
    """
    if copies < 0:
        raise ValueError(f"copies must be nonnegative, got {copies}")
    x = nu * epsilon
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"nu*epsilon must lie in [0, 1], got {x}")
    if copies == 0:
        return 1.0
    return 0.0 if x == 1.0 else math.exp(copies * math.log1p(-x))
