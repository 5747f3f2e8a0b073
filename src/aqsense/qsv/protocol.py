"""Executable verification protocols and the verified sensing loop.

The per-copy procedure Z-measures a uniformly random half of the qubits
and dispatches one of two subprotocols on the other half; its acceptance
probability on a copy rho equals the expectation of the assembled
strategy operator. A batch accepts only if every copy is accepted, and
the robust loop interleaves batch verification with sensing rounds,
restarting whenever a batch rejects.
"""

from __future__ import annotations

import itertools
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from ..qcore import (
    KrausChannel,
    PureState,
    RngStream,
    collapse,
    draw_index,
    evolve_phases,
    make_target,
)
from ..sensing import Povm, SensingScenario, estimate_angles
from .complexity import sample_complexity
from .operators import check_p, lambda_map

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
_H = float(1.0 / _SQ2)


class RestartCapError(RuntimeError):
    """The robust loop exceeded its restart budget without finishing."""


@dataclass(frozen=True)
class VerificationPlan:
    """Parameters of one verification batch; M, the number of copies tested,
    is sample_complexity(n, q0, epsilon, delta, p)."""

    n: int
    q0: float
    epsilon: float
    delta: float
    p: float = 0.0
    M: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", sample_complexity(self.n, self.q0, self.epsilon, self.delta, self.p))


class CopyVerdict(NamedTuple):
    """Outcome record of one per-copy verification measurement; its fields
    are the transcript record's keys."""

    copy: int
    R: tuple[int, ...]
    z_outcomes: tuple[int, ...]
    branch: str
    sub: dict
    accept: bool


@dataclass(frozen=True)
class SessionTranscript:
    """Per-copy verdicts of one verification batch plus the final word."""

    verdicts: tuple[CopyVerdict, ...]
    accepted: bool

    def __post_init__(self) -> None:
        if self.accepted != all(v.accept for v in self.verdicts):
            raise ValueError("final accept flag contradicts the per-copy verdicts")

    def to_jsonl(self) -> str:
        return "".join(json.dumps(v._asdict(), sort_keys=True) + "\n" for v in self.verdicts)


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
    """Basis for an untrusted party, conjugated: rows S^r Z^o |+> (o = 0, 1),
    so that the matrix maps the ket of row o to |o>."""
    phase = 1j ** r
    rows = np.array([[1.0, phase], [1.0, -phase]], dtype=np.complex128) / _SQ2
    return (rows[:, ::-1] if x_conj else rows).conj()


_GHZ_ROWS = {(r, x): _ghz_rows(r, x) for r in (0, 1) for x in (False, True)}


@lru_cache(maxsize=16)
def _trusted_rows(n: int, q0: float) -> dict:
    """The trusted party's accept and reject kets, conjugated, per (e, r_k,
    x_conj): the rows its one amplitude pair is projected on."""
    lam0, lam1 = lambda_map(n, q0)
    rows = {}
    for e, r_k, x_conj in itertools.product((0, 1), (0, 1), (False, True)):
        sign = (-1.0) ** e * 1j ** r_k
        accept_ket = np.array([np.sqrt(lam0), sign * np.sqrt(lam1)], dtype=np.complex128)
        if x_conj:
            accept_ket = accept_ket[::-1]
        accept_ket /= np.linalg.norm(accept_ket)
        reject_ket = np.array([-np.conj(accept_ket[1]), np.conj(accept_ket[0])])
        rows[e, r_k, x_conj] = np.array([accept_ket, reject_ket]).conj().tolist()
    return rows


def _draw(amps: Iterable[complex], u: float) -> int:
    """draw_index's rule on a few amplitudes held as Python numbers: the first
    basis state whose cumulative |amplitude|^2 exceeds the uniform u times
    the total, clamped to the last one."""
    total, cum = 0.0, []
    for a in amps:
        w = abs(a)
        total += w * w
        cum.append(total)
    return min(bisect_right(cum, u * total), len(cum) - 1)


def _run_ghz_protocol(amps, index, subset, parties, k, rows, p, x_conj, u):
    """GHZ-like subprotocol on the listed qubits; returns (accept, record).

    ``amps`` is the whole register and ``index`` its Z draw, whose bits on
    ``subset`` (R) selected this test. If u[1] < p all parties are
    Z-measured, their outcomes the index's bits, and equal outcomes accept.
    Otherwise party k is trusted, the others measure with phase settings
    r_i read off u[2] (rotated onto Z, then drawn with u[3]), and k measures
    with u[4] in the basis derived from the parity data, ``rows`` (from
    _trusted_rows); outcome 0 accepts.
    x_conj conjugates every measurement by Pauli X.
    """
    if u[1] < p:
        outcomes = [(index >> (2 * len(parties) - 1 - q)) & 1 for q in parties]
        accept = len(set(outcomes)) == 1
        sub = {"type": "ghz", "a": 0, "k": None, "r": None, "o": outcomes, "x_conj": x_conj}
        return accept, sub
    count = len(parties)
    amps = collapse(amps, subset, index)
    k_pos = parties.index(k)
    # the others' settings, exactly uniform bits: u[2] is a multiple of 2^-53
    settings = int(u[2] * (1 << (count - 1)))
    others = [j for j in range(count) if j != k_pos]
    r_others = [(settings >> j) & 1 for j in range(len(others))]
    # each other party's basis rotated onto Z, as one 2x2 product on its axis
    for q, r in zip(others, r_others):
        amps = (_GHZ_ROWS[r, x_conj] @ amps.reshape(1 << q, 2, -1)).reshape(-1)
    index = draw_index(amps, u[3])
    o = [(index >> (count - 1 - q)) & 1 for q in range(count)]
    r_k = sum(r_others) % 2
    total_r = sum(r_others) + r_k
    e = (sum(o) - o[k_pos] + total_r // 2) % 2
    # the trusted party's two amplitudes: the drawn block at its bit 0 and 1
    k_bit = 1 << (count - 1 - k_pos)
    a0, a1 = amps.item(index & ~k_bit), amps.item(index | k_bit)
    o[k_pos] = _draw((c0 * a0 + c1 * a1 for c0, c1 in rows[e, r_k, x_conj]), u[4])
    sub = {
        "type": "ghz",
        "a": 1,
        "k": k,
        "r": r_others[:k_pos] + [r_k] + r_others[k_pos:],
        "o": o,
        "x_conj": x_conj,
    }
    return o[k_pos] == 0, sub


def _run_dicke_protocol(amps, index, parties, pair, k, u):
    """Dicke subprotocol with excitation number k; returns (accept, record).

    ``amps`` is the whole register and ``index`` its Z draw; ``parties``
    (ascending) are the qubits outside R and ``pair`` (ascending) two of
    them, set aside while the rest are Z-measured. The pair is measured in
    Z or X depending on how many excitations are missing. Every Z outcome
    is the index's bit; the X pair is drawn with u[4] on its four
    amplitudes at the index's other bits.
    """
    m = 2 * len(parties)
    o_rest = [(index >> (m - 1 - q)) & 1 for q in parties if q not in pair]
    s_rest = sum(o_rest)
    pair_basis = pair_outcomes = None
    accept = False
    if s_rest in (k, k - 2):
        pair_basis = "Z"
        pair_outcomes = tuple([(index >> (m - 1 - q)) & 1 for q in pair])
        want = 0 if s_rest == k else 1
        accept = pair_outcomes == (want, want)
    elif s_rest == k - 1:
        pair_basis = "X"
        # the pair's amplitudes at the index's other bits, then the Hadamard on
        # the first qubit and on the second, each entry a sum of products as a
        # 2x2 rotation forms it, so the weights round alike
        first, second = 1 << (m - 1 - pair[0]), 1 << (m - 1 - pair[1])
        base = index & ~(first | second)
        a00, a01, a10, a11 = (amps.item(base | b) for b in (0, second, first, first | second))
        b00, b01 = _H * a00 + _H * a10, _H * a01 + _H * a11
        b10, b11 = _H * a00 - _H * a10, _H * a01 - _H * a11
        drawn = _draw((_H * b00 + _H * b01, _H * b00 - _H * b01,
                       _H * b10 + _H * b11, _H * b10 - _H * b11), u[4])
        pair_outcomes = (drawn >> 1, drawn & 1)
        accept = pair_outcomes[0] == pair_outcomes[1]
    sub = {
        "type": "dicke",
        "k": k,
        "pair": pair,
        "o_rest": o_rest,
        "s_rest": s_rest,
        "pair_basis": pair_basis,
        "pair_outcomes": None if pair_outcomes is None else list(pair_outcomes),
    }
    return accept, sub


def verify_copy(
    copy: PureState,
    n: int,
    q0: float,
    p: float,
    rng: np.random.Generator,
    copy_index: int = 0,
) -> CopyVerdict:
    """Run the per-copy verification measurement on one pure 2n-qubit copy.

    A uniformly random half R of the qubits is Z-measured; the total
    excitation count on R selects the subprotocol run on the other half:
    zero dispatches the GHZ-like test, n dispatches its X-conjugated
    variant, anything in between dispatches the Dicke test with the
    complementary excitation number. The acceptance probability on any
    copy equals the expectation of the assembled strategy operator. p must
    pass ``check_p``, ahead of ``lambda_map``'s (n, q0) check.
    """
    check_p(p)
    rows = _trusted_rows(n, q0)
    m = 2 * n
    if copy.num_qubits != m:
        raise ValueError(f"copy has {copy.num_qubits} qubits, expected {m}")
    # a copy's two draws: the qubits shuffled (the same draws as
    # rng.permutation(m)), R the first n and the trusted party or the Dicke
    # pair the next, and five uniforms, the register's draw and the tails'
    order = list(range(m))
    rng.shuffle(order)
    u = rng.random(5).tolist()
    subset = tuple(sorted(order[:n]))
    # one Z draw of the whole register: Z measurements of disjoint qubits in
    # sequence have its joint law, so R's outcome and every later Z outcome are its bits
    index = draw_index(copy.amps, u[0], copy.law)
    z_outcomes = tuple([(index >> (m - 1 - q)) & 1 for q in subset])
    total = sum(z_outcomes)
    parties = sorted(order[n:])
    if total == 0:
        branch = "i"
        accept, sub = _run_ghz_protocol(copy.amps, index, subset, parties, order[n], rows, p, False, u)
    elif total == n:
        branch = "iii"
        accept, sub = _run_ghz_protocol(copy.amps, index, subset, parties, order[n], rows, p, True, u)
    else:
        branch = "ii"
        accept, sub = _run_dicke_protocol(copy.amps, index, parties, sorted(order[n:n + 2]), n - total, u)
    return CopyVerdict(copy_index, subset, z_outcomes, branch, sub, accept)


def verify_batch(
    source: Iterable[PureState],
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
        del copy  # freed before the source builds the next copy
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

    Each attempt samples plan.M + 1 noisy trajectories of the target in one
    stream, verifies the first plan.M, and on acceptance sends the last through
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
    completed = 0
    while completed < rounds:
        streams = rng.substream(restarts + completed)  # every earlier attempt restarted or completed
        # the plan.M verified copies, then the sensing copy
        copies = noise.trajectories(target, streams.substream(0).gen, plan.M + 1)
        ok, transcript = verify_batch(copies, plan, streams.substream(1))
        transcripts.append(transcript)
        if not ok:
            restarts += 1
            if restarts > restart_cap:
                raise RestartCapError(
                    f"restart cap {restart_cap} exhausted after "
                    f"{completed} accepted rounds"
                )
            continue
        evolved = evolve_phases(next(copies), omegas, scenario.t)
        probs = np.clip(povm.probabilities(evolved), 0.0, None)
        probs /= probs.sum()
        outcome = int(streams.substream(2).gen.choice(4, p=probs))
        counts[outcome] += 1
        completed += 1
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
