"""Executable verification protocols and the verified sensing loop.

The per-copy procedure Z-measures a uniformly random half of the qubits
and dispatches one of two subprotocols on the other half; its acceptance
probability on a copy rho equals the expectation of the assembled
strategy operator. A batch accepts only if every copy is accepted, and
the robust loop interleaves batch verification with sensing rounds,
restarting whenever a batch rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..qcore import (
    DensityOperator,
    KrausChannel,
    PureState,
    RngStream,
    evolve_phases,
    make_target,
    measure,
)
from ..sensing import Povm, SensingScenario, estimate_angles
from .complexity import sample_complexity
from .operators import lambda_map

__all__ = [
    "CopyVerdict",
    "RestartCapError",
    "RobustResult",
    "SessionTranscript",
    "VerificationPlan",
    "run_robust_protocol",
    "verify_batch",
    "verify_copy",
]

_SQ2 = np.sqrt(2.0)
_X_ROWS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / _SQ2


class RestartCapError(RuntimeError):
    """The robust loop exceeded its restart budget without finishing."""


@dataclass(frozen=True)
class VerificationPlan:
    """Parameters of one verification batch.

    M defaults to sample_complexity(n, q0, epsilon, delta, p). An explicit
    M must meet that bound; M = 0 is admitted as a degenerate dry-run plan
    (a zero-copy batch accepts vacuously).
    """

    n: int
    q0: float
    epsilon: float
    delta: float
    p: float = 0.0
    M: int | None = None

    def __post_init__(self) -> None:
        lambda_map(self.n, self.q0)
        if self.q0 >= 1.0:
            raise ValueError(f"q0 must be below 1, got {self.q0}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 <= self.p < 1.0:
            raise ValueError(f"p must lie in [0, 1), got {self.p}")
        bound = sample_complexity(self.n, self.q0, self.epsilon, self.delta, self.p)
        if self.M is None:
            object.__setattr__(self, "M", bound)
        else:
            copies = int(self.M)
            if copies < 0 or 0 < copies < bound:
                raise ValueError(
                    f"M = {copies} is below the required sample complexity {bound}"
                )
            object.__setattr__(self, "M", copies)


@dataclass(frozen=True)
class CopyVerdict:
    """Outcome record of one per-copy verification measurement."""

    copy_index: int
    subset: tuple[int, ...]
    z_outcomes: tuple[int, ...]
    branch: str
    sub: dict
    accept: bool

    def as_record(self) -> dict:
        """JSON-ready dictionary with the transcript field names."""
        return {
            "copy": int(self.copy_index),
            "R": [int(q) for q in self.subset],
            "z_outcomes": [int(o) for o in self.z_outcomes],
            "branch": self.branch,
            "sub": self.sub,
            "accept": bool(self.accept),
        }


@dataclass(frozen=True)
class SessionTranscript:
    """Per-copy verdicts of one verification batch plus the final word."""

    verdicts: tuple[CopyVerdict, ...]
    accepted: bool

    def __post_init__(self) -> None:
        if self.accepted != all(v.accept for v in self.verdicts):
            raise ValueError("final accept flag contradicts the per-copy verdicts")

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(v.as_record(), sort_keys=True) + "\n" for v in self.verdicts
        )


@dataclass(frozen=True)
class RobustResult:
    """Outcome of the verified sensing loop."""

    rounds: int
    restarts: int
    counts: tuple[int, int, int, int]
    theta_plus: float | None
    theta_minus_abs: float | None
    transcripts: tuple[SessionTranscript, ...]


def _ghz_rows(r: int, x_conj: bool) -> np.ndarray:
    """Basis for an untrusted party: rows S^r Z^o |+> (o = 0, 1)."""
    phase = 1j ** r
    rows = np.array([[1.0, phase], [1.0, -phase]], dtype=np.complex128) / _SQ2
    return rows[:, ::-1] if x_conj else rows


_GHZ_ROWS = {(r, x): _ghz_rows(r, x) for r in (0, 1) for x in (False, True)}


def _run_ghz_protocol(amps, parties, lam0, lam1, p, x_conj, rng):
    """GHZ-like subprotocol on the listed qubits; returns (accept, record).

    With probability p all parties are Z-measured and equal outcomes
    accept. Otherwise one trusted party k is chosen, the others measure
    with random phase settings r_i, and k measures in the basis derived
    from the parity data; outcome 0 accepts. x_conj conjugates every
    measurement by Pauli X.
    """
    if p > 0.0 and rng.random() < p:
        outcomes, _ = measure(amps, parties, rng)
        accept = len(set(outcomes)) == 1
        sub = {"type": "ghz", "a": 0, "k": None, "r": None, "o": list(outcomes), "x_conj": x_conj}
        return accept, sub
    k_pos = int(rng.integers(len(parties)))
    others = parties[:k_pos] + parties[k_pos + 1:]
    settings = int(rng.integers(1 << len(others)))
    r_others = [(settings >> j) & 1 for j in range(len(others))]
    o_others, amps = measure(amps, others, rng, [_GHZ_ROWS[r, x_conj] for r in r_others])
    r_k = sum(r_others) % 2
    total_r = sum(r_others) + r_k
    e = (sum(o_others) + total_r // 2) % 2
    sign = (-1.0) ** e * 1j ** r_k
    accept_ket = np.array([np.sqrt(lam0), sign * np.sqrt(lam1)], dtype=np.complex128)
    if x_conj:
        accept_ket = accept_ket[::-1]
    accept_ket /= np.linalg.norm(accept_ket)
    reject_ket = np.array([-np.conj(accept_ket[1]), np.conj(accept_ket[0])])
    (o_k,), _ = measure(amps, [parties[k_pos]], rng, [np.array([accept_ket, reject_ket])])
    sub = {
        "type": "ghz",
        "a": 1,
        "k": parties[k_pos],
        "r": r_others[:k_pos] + [r_k] + r_others[k_pos:],
        "o": list(o_others[:k_pos]) + [o_k] + list(o_others[k_pos:]),
        "x_conj": x_conj,
    }
    return o_k == 0, sub


def _run_dicke_protocol(amps, parties, k, rng):
    """Dicke subprotocol with excitation number k; returns (accept, record).

    A random pair is set aside, the rest are Z-measured, and the pair is
    measured in Z or X depending on how many excitations are missing.
    """
    count = len(parties)
    i = int(rng.integers(count))
    j = int(rng.integers(count - 1))
    if j >= i:
        j += 1
    pair = sorted((parties[i], parties[j]))
    rest = [q for q in parties if q not in pair]
    o_rest, amps = measure(amps, rest, rng)
    s_rest = sum(o_rest)
    pair_basis = None
    pair_outcomes = None
    accept = False
    if s_rest in (k, k - 2):
        pair_basis = "Z"
        pair_outcomes, _ = measure(amps, pair, rng)
        want = 0 if s_rest == k else 1
        accept = pair_outcomes == (want, want)
    elif s_rest == k - 1:
        pair_basis = "X"
        pair_outcomes, _ = measure(amps, pair, rng, [_X_ROWS, _X_ROWS])
        accept = pair_outcomes[0] == pair_outcomes[1]
    sub = {
        "type": "dicke",
        "k": k,
        "pair": pair,
        "o_rest": list(o_rest),
        "s_rest": s_rest,
        "pair_basis": pair_basis,
        "pair_outcomes": None if pair_outcomes is None else list(pair_outcomes),
    }
    return accept, sub


def _sample_pure_component(rho: DensityOperator, rng: np.random.Generator) -> np.ndarray:
    """Draw one eigenvector of rho with probability its eigenvalue."""
    vals, vecs = np.linalg.eigh(rho.mat)
    weights = np.clip(vals, 0.0, None)
    weights /= weights.sum()
    j = int(rng.choice(len(weights), p=weights))
    return np.ascontiguousarray(vecs[:, j])


def verify_copy(
    copy: PureState | DensityOperator,
    n: int,
    q0: float,
    p: float,
    rng: np.random.Generator,
    copy_index: int = 0,
) -> CopyVerdict:
    """Run the per-copy verification measurement on one 2n-qubit copy.

    A uniformly random half R of the qubits is Z-measured; the total
    excitation count on R selects the subprotocol run on the other half:
    zero dispatches the GHZ-like test, n dispatches its X-conjugated
    variant, anything in between dispatches the Dicke test with the
    complementary excitation number. The acceptance probability on any
    copy equals the expectation of the assembled strategy operator.
    """
    lam0, lam1 = lambda_map(n, q0)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    m = 2 * n
    if copy.num_qubits != m:
        raise ValueError(f"copy has {copy.num_qubits} qubits, expected {m}")
    if isinstance(copy, DensityOperator):
        amps = _sample_pure_component(copy, rng)
    else:
        amps = np.asarray(copy.amps, dtype=np.complex128)
    subset = tuple(sorted(rng.permutation(m)[:n].tolist()))
    z_outcomes, amps = measure(amps, subset, rng)
    total = sum(z_outcomes)
    parties = [q for q in range(m) if q not in subset]
    if total == 0:
        branch = "i"
        accept, sub = _run_ghz_protocol(amps, parties, lam0, lam1, p, False, rng)
    elif total == n:
        branch = "iii"
        accept, sub = _run_ghz_protocol(amps, parties, lam0, lam1, p, True, rng)
    else:
        branch = "ii"
        accept, sub = _run_dicke_protocol(amps, parties, n - total, rng)
    return CopyVerdict(copy_index, subset, z_outcomes, branch, sub, accept)


def verify_batch(
    source: Iterable[PureState | DensityOperator],
    plan: VerificationPlan,
    rng: RngStream,
) -> tuple[bool, SessionTranscript]:
    """Verify plan.M copies drawn from source; accept iff every copy accepts.

    Copies are drawn lazily and verification stops at the first rejection.
    Copy i draws from rng.substream(i), so a verdict depends only on (seed,
    key, i) and not on how many copies were consumed before it.
    """
    it = iter(source)
    verdicts = []
    accept = True
    for i in range(plan.M):
        try:
            copy = next(it)
        except StopIteration:
            raise ValueError(
                f"copy source exhausted after {i} of {plan.M} copies"
            ) from None
        verdict = verify_copy(copy, plan.n, plan.q0, plan.p, rng.substream(i).gen, copy_index=i)
        verdicts.append(verdict)
        if not verdict.accept:
            accept = False
            break
    return accept, SessionTranscript(tuple(verdicts), accept)


def run_robust_protocol(
    scenario: SensingScenario,
    plan: VerificationPlan,
    noise: KrausChannel,
    rounds: int,
    rng: RngStream,
    restart_cap: int = 10000,
) -> RobustResult:
    """Interleave batch verification with sensing rounds under preparation noise.

    Each attempt prepares plan.M noisy copies (trajectory-sampled),
    verifies them, and on acceptance sends one more noisy copy through
    the phase evolution and the four-outcome measurement; a rejection
    restarts the attempt. After the requested number of accepted rounds
    the accumulated frequencies are inverted into angle estimates.
    Raises RestartCapError once the rejected attempts exceed restart_cap.
    """
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    if restart_cap < 0:
        raise ValueError(f"restart_cap must be nonnegative, got {restart_cap}")
    if scenario.n != plan.n or scenario.q0 != plan.q0:
        raise ValueError("scenario and plan disagree on (n, q0)")
    n = scenario.n
    target = make_target(n, scenario.q0)
    povm = Povm(n)
    omegas = np.zeros(2 * n)
    omegas[scenario.t1 - 1] = scenario.omega1
    omegas[scenario.t2 - 1] = scenario.omega2
    counts = [0, 0, 0, 0]
    transcripts = []
    restarts = 0
    attempt = 0
    completed = 0
    while completed < rounds:
        streams = rng.substream(attempt)
        noise_gen = streams.substream(0).gen
        source = (noise.apply_to_pure(target, noise_gen) for _ in range(plan.M))
        ok, transcript = verify_batch(source, plan, streams.substream(1))
        transcripts.append(transcript)
        if not ok:
            restarts += 1
            if restarts > restart_cap:
                raise RestartCapError(
                    f"restart cap {restart_cap} exhausted after "
                    f"{completed} accepted rounds"
                )
            attempt += 1
            continue
        sense_copy = noise.apply_to_pure(target, noise_gen)
        evolved = evolve_phases(sense_copy, omegas, scenario.t)
        probs = np.clip(povm.probabilities(evolved), 0.0, None)
        probs /= probs.sum()
        outcome = int(streams.substream(2).gen.choice(4, p=probs))
        counts[outcome] += 1
        completed += 1
        attempt += 1
    if completed == 0:
        theta_plus = theta_minus_abs = None
    else:
        freq = [c / completed for c in counts]
        theta_plus, theta_minus_abs = estimate_angles(
            freq[0], freq[1], freq[2], n, scenario.q0
        )
    return RobustResult(
        completed, restarts, tuple(counts), theta_plus, theta_minus_abs, tuple(transcripts)
    )
