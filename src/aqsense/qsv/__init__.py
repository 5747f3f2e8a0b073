"""Quantum-state-verification strategies, spectra, and executable protocols."""

from .complexity import (
    exact_sample_bound,
    failure_bound,
    sample_complexity,
    sample_complexity_terms,
)
from .operators import (
    StrategyOperator,
    assemble_strategy_decomposed,
    lambda_map,
    q_min,
)
from .protocol import (
    CopyVerdict,
    RestartCapError,
    RobustResult,
    SessionTranscript,
    VerificationPlan,
    run_robust_protocol,
    verify_batch,
    verify_copy,
)
from .spectra import (
    SpectralSummary,
    analytic_spectrum,
)

__all__ = [
    "CopyVerdict",
    "RestartCapError",
    "RobustResult",
    "SessionTranscript",
    "SpectralSummary",
    "StrategyOperator",
    "VerificationPlan",
    "analytic_spectrum",
    "assemble_strategy_decomposed",
    "exact_sample_bound",
    "failure_bound",
    "lambda_map",
    "q_min",
    "run_robust_protocol",
    "sample_complexity",
    "sample_complexity_terms",
    "verify_batch",
    "verify_copy",
]
