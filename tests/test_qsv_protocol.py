"""Tests for the executable verification protocols and the robust sensing loop."""

from __future__ import annotations

import itertools
import json
from collections import Counter

import numpy as np
import pytest

from aqsense.qcore import (
    PureState,
    RngStream,
    make_target,
    standard_channel,
)
from aqsense.qsv import (
    RestartCapError,
    VerificationPlan,
    analytic_spectrum,
    assemble_strategy_decomposed,
    failure_bound,
    lambda_map,
    q_min,
    run_robust_protocol,
    sample_complexity,
    verify_batch,
    verify_copy,
)
from aqsense.qsv import protocol
from aqsense.sensing import SensingScenario, analytic_probs
import oracles
from oracles import expectation, make_dicke, make_ghz, to_dense, verify_copy_reference

# theta+ = pi/2 and theta- = -pi/4 at t = 1: omega1,2 = (theta+ +- theta-) / 2t
SCENARIO = SensingScenario(n=3, q0=0.33, t1=1, t2=2, omega1=(np.pi / 2 - np.pi / 4) / 2,
                           omega2=(np.pi / 2 + np.pi / 4) / 2, t=1.0)


def strategy_expectation(n, q0, p, state):
    """Independent per-copy acceptance probability Tr[Omega rho] of a
    PureState or a density matrix."""
    omega = sum(to_dense(op) for op in assemble_strategy_decomposed(n, q0, p))
    if isinstance(state, PureState):
        return expectation(state, omega)
    return float(np.trace(omega @ state).real)


def copy_cell(verdict):
    """The outcome cell of one verdict: (branch, s_rest, pair_basis,
    pair_outcomes) for the Dicke test, and (branch, a, weight of the
    parties' outcomes when a = 0) for the GHZ-like test."""
    sub = verdict.sub
    if verdict.branch == "ii":
        outcomes = sub["pair_outcomes"]
        return "ii", sub["s_rest"], sub["pair_basis"], None if outcomes is None else tuple(outcomes)
    return verdict.branch, sub["a"], sum(sub["o"]) if sub["a"] == 0 else None


def sequential_cell_law(amps, n, p):
    """The exact law of copy_cell for verify_copy, from projectors on the
    whole register: R Z-measured, then the parties' Z measurements and the
    pair's Z or X measurement. A run of such projectors on outcome bits x
    has probability |<x|U psi>|^2, where U is the identity, or a Hadamard on
    each pair qubit when the pair is measured in X (it commutes with the Z
    projectors of the other qubits); R, and the pair within the other half,
    are uniform."""
    m = 2 * n
    bits = (np.arange(1 << m)[:, None] >> (m - 1 - np.arange(m))) & 1
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    weight_z = np.abs(amps) ** 2
    law = Counter()
    subsets = list(itertools.combinations(range(m), n))
    for subset in subsets:
        parties = [q for q in range(m) if q not in subset]
        total = bits[:, list(subset)].sum(axis=1)
        for branch, hit in (("i", total == 0), ("iii", total == n)):
            law[branch, 1, None] += (1.0 - p) * weight_z[hit].sum() / len(subsets)
            weight = bits[hit][:, parties].sum(axis=1)
            for w in range(n + 1):
                law[branch, 0, w] += p * weight_z[hit][weight == w].sum() / len(subsets)
        pairs = list(itertools.combinations(parties, 2))
        k = n - total
        dicke = (total > 0) & (total < n)
        for a, b in pairs:
            rotation = np.ones((1, 1))
            for q in range(m):
                rotation = np.kron(rotation, hadamard if q in (a, b) else np.eye(2))
            weight_x = np.abs(rotation @ amps) ** 2
            s_rest = bits[:, [q for q in parties if q not in (a, b)]].sum(axis=1)
            for x in np.flatnonzero(dicke):
                if s_rest[x] in (k[x], k[x] - 2):
                    cell, weight = ("Z", (int(bits[x, a]), int(bits[x, b]))), weight_z[x]
                elif s_rest[x] == k[x] - 1:
                    cell, weight = ("X", (int(bits[x, a]), int(bits[x, b]))), weight_x[x]
                else:
                    cell, weight = (None, None), weight_z[x]
                law["ii", int(s_rest[x]), *cell] += weight / (len(subsets) * len(pairs))
    return law


def law_test_copy(n, copy_kind):
    """A seeded Haar-random 2n-qubit copy, or the target after a Z error on
    qubits 0 and 2, a dephasing trajectory."""
    m = 2 * n
    if copy_kind == "haar":
        draw = np.random.default_rng(515 + n)
        vec = draw.normal(size=1 << m) + 1j * draw.normal(size=1 << m)
        return PureState(m, vec / np.linalg.norm(vec))
    flips = ((np.arange(1 << m) >> (m - 1)) ^ (np.arange(1 << m) >> (m - 3))) & 1
    return PureState(m, make_target(n, 0.33).amps * (1 - 2 * flips))


def ghz_cell(verdict):
    """The cell of a GHZ-like a = 1 verdict, None for any other: (branch,
    the trusted party's position among the parties, the settings r, the
    others' parity e = (sum of their outcomes + sum(r) // 2) mod 2, the
    trusted outcome)."""
    sub = verdict.sub
    if verdict.branch == "ii" or sub["a"] == 0:
        return None
    parties = [q for q in range(2 * len(verdict.R)) if q not in verdict.R]
    k_pos = parties.index(sub["k"])
    o_k = sub["o"][k_pos]
    e = (sum(sub["o"]) - o_k + sum(sub["r"]) // 2) % 2
    return verdict.branch, k_pos, tuple(sub["r"]), e, o_k


def on_qubit(rows, amps, q):
    """Amplitude vector after the 2x2 matrix rows acts on qubit q."""
    return np.einsum("ab,ibj->iaj", rows, amps.reshape(1 << q, 2, -1)).reshape(-1)


def ghz_cell_law(amps, n, q0, p):
    """The exact law of ghz_cell for verify_copy, from projectors on the
    whole register: R Z-measured to all 0 (branch i) or all 1 (branch iii),
    then, with probability 1 - p, each other party in its basis
    S^r Z^o |+> and the trusted party in the accept/reject basis of (e,
    r_k), every basis X-conjugated in branch iii. Outcome bits x of that
    run have probability |<x|V psi>|^2, where V maps each measured ket to
    its outcome state; the trusted party's basis depends on x through e,
    so each e has its own V. R, the trusted party and the settings are
    uniform."""
    m = 2 * n
    lam0, lam1 = lambda_map(n, q0)
    bits = (np.arange(1 << m)[:, None] >> (m - 1 - np.arange(m))) & 1
    subsets = list(itertools.combinations(range(m), n))
    law = Counter()
    for subset, (branch, x_conj), k_pos in itertools.product(
        subsets, (("i", False), ("iii", True)), range(n)
    ):
        parties = [q for q in range(m) if q not in subset]
        hit = (bits[:, list(subset)] == int(x_conj)).all(axis=1)
        others = [q for j, q in enumerate(parties) if j != k_pos]
        k = parties[k_pos]
        for settings in itertools.product((0, 1), repeat=n - 1):
            r_k = sum(settings) % 2
            r = settings[:k_pos] + (r_k,) + settings[k_pos:]
            rotated = amps
            for q, r_q in zip(others, settings):
                kets = np.array([[1.0, 1j ** r_q], [1.0, -(1j ** r_q)]]) / np.sqrt(2.0)
                rotated = on_qubit((kets[:, ::-1] if x_conj else kets).conj(), rotated, q)
            parity = (bits[:, others].sum(axis=1) + sum(r) // 2) % 2
            for e in (0, 1):
                accept = np.array([np.sqrt(lam0), (-1.0) ** e * 1j ** r_k * np.sqrt(lam1)])
                accept = (accept[::-1] if x_conj else accept) / np.sqrt(lam0 + lam1)
                kets = np.array([accept, [-np.conj(accept[1]), np.conj(accept[0])]])
                weight = np.abs(on_qubit(kets.conj(), rotated, k)) ** 2
                for o_k in (0, 1):
                    cell = hit & (parity == e) & (bits[:, k] == o_k)
                    law[branch, k_pos, r, e, o_k] += (
                        (1.0 - p) * weight[cell].sum() / (len(subsets) * n * 2 ** (n - 1))
                    )
    return law


def empirical_acceptance(copy, n, q0, p, trials, seed):
    gen = RngStream(seed).gen
    hits = 0
    for _ in range(trials):
        hits += verify_copy(copy, n, q0, p, gen).accept
    return hits / trials


class TestVerificationPlan:
    def test_default_copies_match_sample_complexity(self):
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01)
        assert plan.M == sample_complexity(3, 0.33, 0.1, 0.01) == 283

    def test_nonzero_p_raises_default_copies(self):
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, p=0.5)
        assert plan.M == sample_complexity(3, 0.33, 0.1, 0.01, p=0.5)
        assert plan.M > 283

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            VerificationPlan(3, q_min(3) / 2, epsilon=0.1, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 1.0, epsilon=0.1, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.0, delta=0.01)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.1, delta=1.0)
        with pytest.raises(ValueError):
            VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01, p=1.0)


class TestVerifyCopy:
    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            verify_copy(make_ghz(4), 3, 0.33, 0.0, RngStream(1).gen)

    def test_ideal_target_always_accepted(self):
        gen = RngStream(11).gen
        copy = make_target(3, 0.33)
        assert all(verify_copy(copy, 3, 0.33, 0.0, gen).accept for _ in range(2000))

    def test_transcript_internal_consistency(self):
        gen = RngStream(13).gen
        n = 3
        copy = make_dicke(2 * n, n)
        seen = set()
        for i in range(400):
            v = verify_copy(copy, n, 0.33, 0.2, gen, copy_index=i)
            assert v.copy == i
            assert len(v.R) == n
            assert v.R == tuple(sorted(set(v.R)))
            assert all(0 <= q < 2 * n for q in v.R)
            assert len(v.z_outcomes) == n
            assert set(v.z_outcomes) <= {0, 1}
            total = sum(v.z_outcomes)
            rest = tuple(q for q in range(2 * n) if q not in v.R)
            seen.add(v.branch)
            if total == 0:
                assert v.branch == "i"
                assert v.sub["type"] == "ghz" and v.sub["x_conj"] is False
            elif total == n:
                assert v.branch == "iii"
                assert v.sub["type"] == "ghz" and v.sub["x_conj"] is True
            else:
                assert v.branch == "ii"
                assert v.sub["type"] == "dicke" and v.sub["k"] == n - total
            if v.sub["type"] == "ghz":
                if v.sub["a"] == 0:
                    assert v.sub["k"] is None and v.sub["r"] is None
                    assert v.accept == (len(set(v.sub["o"])) == 1)
                else:
                    assert v.sub["k"] in rest
                    r = v.sub["r"]
                    assert len(r) == n and sum(r) % 2 == 0
                    k_pos = rest.index(v.sub["k"])
                    assert v.accept == (v.sub["o"][k_pos] == 0)
            else:
                pair = tuple(v.sub["pair"])
                assert len(pair) == 2 and pair[0] < pair[1]
                assert all(q in rest for q in pair)
                s_rest = v.sub["s_rest"]
                assert s_rest == sum(v.sub["o_rest"])
                k = v.sub["k"]
                if s_rest == k:
                    assert v.sub["pair_basis"] == "Z"
                    assert v.accept == (tuple(v.sub["pair_outcomes"]) == (0, 0))
                elif s_rest == k - 2:
                    assert v.sub["pair_basis"] == "Z"
                    assert v.accept == (tuple(v.sub["pair_outcomes"]) == (1, 1))
                elif s_rest == k - 1:
                    assert v.sub["pair_basis"] == "X"
                    o1, o2 = v.sub["pair_outcomes"]
                    assert v.accept == (o1 == o2)
                else:
                    assert v.sub["pair_basis"] is None
                    assert v.sub["pair_outcomes"] is None
                    assert v.accept is False
        assert seen == {"i", "ii", "iii"}

    def test_empirical_acceptance_matches_strategy_on_ghz(self):
        n, q0, trials = 3, 0.33, 20000
        expected = strategy_expectation(n, q0, 0.0, make_ghz(2 * n))
        assert expected == pytest.approx(lambda_map(n, q0)[0], abs=1e-12)
        freq = empirical_acceptance(make_ghz(2 * n), n, q0, 0.0, trials, seed=21)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_matches_strategy_on_dicke(self):
        n, q0, trials = 3, 0.33, 20000
        expected = strategy_expectation(n, q0, 0.0, make_dicke(2 * n, n))
        freq = empirical_acceptance(make_dicke(2 * n, n), n, q0, 0.0, trials, seed=22)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_with_test_branch_probability(self):
        # nonzero p exercises the all-Z test inside branches i and iii
        n, q0, p, trials = 3, 0.4, 0.3, 15000
        expected = strategy_expectation(n, q0, p, make_ghz(2 * n))
        freq = empirical_acceptance(make_ghz(2 * n), n, q0, p, trials, seed=23)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_empirical_acceptance_matches_strategy_on_random_state(self):
        n, q0, trials = 3, 0.33, 15000
        gen = RngStream(24).gen
        amps = gen.normal(size=2 ** (2 * n)) + 1j * gen.normal(size=2 ** (2 * n))
        amps /= np.linalg.norm(amps)
        copy = PureState(2 * n, amps)
        expected = strategy_expectation(n, q0, 0.0, copy)
        freq = empirical_acceptance(copy, n, q0, 0.0, trials, seed=25)
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    def test_density_operator_copy(self):
        n, q0, trials = 3, 0.33, 15000
        t_amps = make_target(n, q0).amps
        g_amps = make_ghz(2 * n).amps
        mat = 0.5 * np.outer(t_amps, t_amps.conj()) + 0.5 * np.outer(g_amps, g_amps.conj())
        expected = strategy_expectation(n, q0, 0.0, mat)
        # each copy is the target or the GHZ state with the mixture's weight 1/2
        components = (make_target(n, q0), make_ghz(2 * n))
        gen = RngStream(26).gen
        hits = sum(
            verify_copy(components[gen.integers(2)], n, q0, 0.0, gen).accept for _ in range(trials)
        )
        freq = hits / trials
        sigma = np.sqrt(expected * (1 - expected) / trials)
        assert abs(freq - expected) < 4 * sigma

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("kind, strength", [("none", 0.0), ("dephase", 0.3), ("depolarize", 0.3),
                                                ("coherent_mix", 0.5)])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_records_equal_the_generic_measure_route(self, n, kind, strength, p):
        # the trusted party's qubit and the Dicke pair are drawn from their
        # amplitudes directly; the route that measures them with measure
        # must give the same record for every copy and copy stream
        target = make_target(n, 0.33)
        channel = standard_channel(kind, strength, n, q0=0.33)
        noise = RngStream(31).substream(n).gen
        mine, reference = RngStream(32), RngStream(32)
        tails = set()
        for i in range(1000):
            copy = channel.apply_to_pure(target, noise)
            verdict = verify_copy(copy, n, 0.33, p, mine.substream(i).gen, i)
            assert verdict == verify_copy_reference(copy, n, 0.33, p, reference.substream(i).gen, i)
            tails.add(verdict.sub["a"] if verdict.branch != "ii" else verdict.sub["pair_basis"])
        assert tails >= {1, "Z", "X"} | ({0} if p else set())

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_records_equal_the_generic_measure_route_on_random_states(self, n, p):
        # criterion 04's Haar-random states (normalized complex Gaussian
        # vectors), a new one per copy, so every stage sees generic amplitudes;
        # n = 7 gives 128-amplitude blocks and six rotated GHZ-like parties
        draw = np.random.default_rng(424242 + n)
        mine, reference = RngStream(33), RngStream(33)
        tails = set()
        for i in range(1000):
            vec = draw.normal(size=1 << (2 * n)) + 1j * draw.normal(size=1 << (2 * n))
            copy = PureState(2 * n, vec / np.linalg.norm(vec))
            verdict = verify_copy(copy, n, 0.33, p, mine.substream(i).gen, i)
            assert verdict == verify_copy_reference(copy, n, 0.33, p, reference.substream(i).gen, i)
            tails.add(verdict.sub["a"] if verdict.branch != "ii" else verdict.sub["pair_basis"])
        assert tails >= {1, "Z", "X"} | ({0} if p else set())

    @pytest.mark.parametrize("copy_kind", ["haar", "dephased"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_outcome_cells_follow_the_sequential_measurement_law(self, n, copy_kind):
        # one register draw must give each stage the law of measuring the
        # stages in sequence: the frequencies of every outcome cell over
        # 20 000 copies against the projectors' law, within 4 sigma each
        copy = law_test_copy(n, copy_kind)
        trials, p = 20000, 0.3
        gen = RngStream(516 + n).gen
        counts = Counter(copy_cell(verify_copy(copy, n, 0.33, p, gen)) for _ in range(trials))
        law = sequential_cell_law(copy.amps, n, p)
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(counts) <= set(law)
        for cell, exact in law.items():
            sigma = np.sqrt(exact * (1 - exact) / trials)
            assert abs(counts[cell] / trials - exact) <= 4 * sigma, cell

    @pytest.mark.parametrize("copy_kind", ["haar", "dephased"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_ghz_cells_follow_the_sequential_measurement_law(self, n, copy_kind):
        # the trusted party read off R's shuffled order, the settings off one
        # uniform and the two tail draws must give every GHZ-like a = 1 cell
        # the law of the measurements in sequence, within 4 sigma each; 50 000
        # copies keep a correct sampler's chance of failing some cell near 1 %
        # at n = 3 and 5 % at n = 4 (binomial tails over 96 and 256 cells)
        copy = law_test_copy(n, copy_kind)
        trials, p = 50000, 0.3
        gen = RngStream(616 + n).gen
        counts = Counter(ghz_cell(verify_copy(copy, n, 0.33, p, gen)) for _ in range(trials))
        law = ghz_cell_law(copy.amps, n, 0.33, p)
        a1 = sequential_cell_law(copy.amps, n, p)
        assert sum(law.values()) == pytest.approx(a1["i", 1, None] + a1["iii", 1, None], abs=1e-12)
        assert len(law) == 2 * n * 2 ** (n - 1) * 4
        assert set(counts) - {None} <= set(law)
        for cell, exact in law.items():
            sigma = np.sqrt(exact * (1 - exact) / trials)
            assert abs(counts[cell] / trials - exact) <= 4 * sigma, cell

    @pytest.mark.parametrize("p", [0.0, 0.3])
    @pytest.mark.parametrize("n", [3, 4])
    def test_each_copy_draws_one_shuffle_and_five_uniforms(self, n, p):
        # whatever its branch and tail, a copy leaves its generator where a
        # twin stands after one shuffle of the 2n qubits and five uniforms
        draw = np.random.default_rng(717 + n)
        vec = draw.normal(size=1 << (2 * n)) + 1j * draw.normal(size=1 << (2 * n))
        copy = PureState(2 * n, vec / np.linalg.norm(vec))
        tails = set()
        for i in range(600):
            gen, twin = RngStream(718).substream(i).gen, RngStream(718).substream(i).gen
            verdict = verify_copy(copy, n, 0.33, p, gen)
            twin.shuffle(list(range(2 * n)))
            twin.random(5)
            assert gen.random() == twin.random()
            tails.add((verdict.branch, verdict.sub["a"] if verdict.branch != "ii" else verdict.sub["pair_basis"]))
        ghz = {(branch, a) for branch in ("i", "iii") for a in ((0, 1) if p else (1,))}
        # at n = 3 the Dicke rest is one qubit, which always calls for Z or X
        assert tails == ghz | {("ii", "Z"), ("ii", "X")} | ({("ii", None)} if n > 3 else set())

    def test_settings_read_off_a_uniform_are_its_raw_word_leading_bits(self):
        # numpy's double is the top 53 bits of one raw 64-bit word times
        # 2^-53, so int(u * 2^j) is that word's top j bits: j exactly uniform
        # bits, as the GHZ-like settings need (j = count - 1 <= 11 here)
        for j in range(1, 12):
            g, h = RngStream(719).substream(j).gen, RngStream(719).substream(j).gen
            for _ in range(500):
                assert int(g.random() * 2 ** j) == h.bit_generator.random_raw() >> (64 - j)

    def test_reproducible_with_equal_streams(self):
        copy = make_dicke(6, 3)
        first = [verify_copy(copy, 3, 0.33, 0.1, RngStream(7).substream(i).gen) for i in range(50)]
        second = [verify_copy(copy, 3, 0.33, 0.1, RngStream(7).substream(i).gen) for i in range(50)]
        assert first == second


class TestVerifyBatch:
    def test_ideal_source_accepts(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copy = make_target(3, 0.33)
        accept, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(31))
        assert accept is True and transcript.accepted is True
        assert len(transcript.verdicts) == plan.M
        assert all(v.accept for v in transcript.verdicts)

    def test_verdict_depends_only_on_its_copy_stream(self):
        # copy i of a 283-copy session equals verify_copy on copy i alone with
        # copy i's own generator, so no verdict depends on the copies before it
        plan = VerificationPlan(3, 0.33, epsilon=0.1, delta=0.01)
        assert plan.M == 283
        copy = make_target(3, 0.33)
        accept, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(36).substream(5))
        assert accept and len(transcript.verdicts) == plan.M
        for i in (0, 141, 282):
            alone = verify_copy(copy, 3, 0.33, 0.0, RngStream(36).substream(5).substream(i).gen, copy_index=i)
            assert transcript.verdicts[i] == alone

    def test_exhausted_source(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copies = [make_target(3, 0.33)] * (plan.M - 1)
        with pytest.raises(ValueError):
            verify_batch(iter(copies), plan, RngStream(33))

    def test_jsonl_records(self):
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        copy = make_target(3, 0.33)
        _, transcript = verify_batch((copy for _ in range(plan.M)), plan, RngStream(34))
        lines = transcript.to_jsonl().strip().split("\n")
        assert len(lines) == plan.M
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert set(rec) == {"copy", "R", "z_outcomes", "branch", "sub", "accept"}
            assert rec["copy"] == i
            assert rec["accept"] is True
            assert sorted(rec["R"]) == rec["R"] and len(rec["R"]) == 3

    @pytest.mark.parametrize("n", [3, 4])
    def test_jsonl_line_is_the_verdict_written_field_by_field(self, n):
        # to_jsonl dumps each verdict's own fields: its tuples become arrays and
        # every value is already a plain int, str or bool, in all three branches
        copy = make_dicke(2 * n, n)
        verdicts = tuple(verify_copy(copy, n, 0.33, 0.3, RngStream(38).substream(i).gen, copy_index=i)
                         for i in range(200))
        transcript = protocol.SessionTranscript(verdicts, all(v.accept for v in verdicts))
        lines = transcript.to_jsonl().split("\n")
        assert lines.pop() == "" and len(lines) == len(verdicts)
        for i, (v, line) in enumerate(zip(verdicts, lines)):
            assert type(v.copy) is int and v.copy == i and type(v.accept) is bool
            assert all(type(x) is int for x in v.R + v.z_outcomes)
            record = {"copy": v.copy, "R": list(v.R), "z_outcomes": list(v.z_outcomes),
                      "branch": v.branch, "sub": v.sub, "accept": v.accept}
            assert line == json.dumps(record, sort_keys=True)
        assert {v.branch for v in verdicts} == {"i", "ii", "iii"}
        assert not transcript.accepted

    def test_coherent_error_rejected_within_failure_bound(self):
        n, q0, eps = 3, 0.33, 0.67
        plan = VerificationPlan(n, q0, epsilon=eps, delta=0.1)
        nu = analytic_spectrum(n, q0, 0.0).nu
        channel = standard_channel("coherent_mix", eps, n, q0)
        target = make_target(n, q0)
        sessions = 60
        stream = RngStream(35)
        accepted = 0
        saw_early_exit = False
        for s in range(sessions):
            noise_gen = stream.substream(s).substream(0).gen
            source = (channel.apply_to_pure(target, noise_gen) for _ in range(plan.M))
            ok, transcript = verify_batch(source, plan, stream.substream(s).substream(1))
            accepted += ok
            if not ok:
                assert transcript.verdicts[-1].accept is False
                saw_early_exit = saw_early_exit or len(transcript.verdicts) < plan.M
        bound = failure_bound(nu, eps, plan.M)
        sigma = np.sqrt(bound * (1 - bound) / sessions)
        assert accepted / sessions <= bound + 4 * sigma
        assert saw_early_exit


class TestRobustProtocol:
    def test_identity_noise_reproduces_sensing(self):
        scenario = SCENARIO
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        rounds = 400
        result = run_robust_protocol(scenario, plan, noise, rounds, RngStream(41))
        assert result.restarts == 0
        assert result.rounds == rounds and sum(result.counts) == rounds
        assert len(result.transcripts) == rounds
        probs = analytic_probs(3, 0.33, np.pi / 2, -np.pi / 4).as_array()
        for count, prob in zip(result.counts, probs):
            sigma = np.sqrt(rounds * prob * (1 - prob))
            assert abs(count - rounds * prob) < 5 * sigma + 1e-9
        assert result.theta_plus == pytest.approx(np.pi / 2, abs=0.45)
        assert result.theta_minus_abs == pytest.approx(np.pi / 4, abs=0.75)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind, strength", [("none", 0.0), ("dephase", 0.1), ("depolarize", 0.1),
                                                ("coherent_mix", 0.1)])
    def test_result_equals_the_per_copy_source(self, n, kind, strength, monkeypatch):
        # copies from one stream of trajectories per attempt give the same
        # result, transcripts included, as one apply_to_pure per copy, and
        # the same sensing copies. 20 rounds under coherent_mix:0.1 end with
        # no restart for 6-10 % of seeds (400 seeds, n = 3 and 4); 100 rounds
        # bring that near 1e-5, so the restart asserted below is no seed's luck
        rounds = 100 if kind == "coherent_mix" else 20
        sensed = {}

        def recording(route, evolve):
            def evolve_and_record(state, omegas, t):
                sensed.setdefault(route, []).append(state.amps)
                return evolve(state, omegas, t)
            return evolve_and_record

        monkeypatch.setattr(protocol, "evolve_phases", recording("stream", protocol.evolve_phases))
        monkeypatch.setattr(oracles, "evolve_phases", recording("per_copy", oracles.evolve_phases))
        scenario = SensingScenario(n=n, q0=0.33, t1=1, t2=n + 1, omega1=np.pi / 8, omega2=3 * np.pi / 8, t=1.0)
        plan = VerificationPlan(n, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel(kind, strength, n, q0=0.33)
        result = run_robust_protocol(scenario, plan, noise, rounds, RngStream(47))
        assert result == oracles.run_robust_protocol_reference(scenario, plan, noise, rounds, RngStream(47))
        np.testing.assert_array_equal(sensed["stream"], sensed["per_copy"])
        branched = [not np.array_equal(amps, sensed["stream"][0]) for amps in sensed["stream"]]
        assert (result.restarts > 0 and any(branched)) or kind == "none"

    def test_zero_rounds(self):
        scenario = SCENARIO
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        result = run_robust_protocol(scenario, plan, noise, 0, RngStream(42))
        assert result.rounds == 0 and result.counts == (0, 0, 0, 0)
        assert result.theta_plus is None and result.theta_minus_abs is None
        assert result.restarts == 0 and result.transcripts == ()

    def test_restart_cap_hit_under_strong_coherent_error(self):
        scenario = SCENARIO
        plan = VerificationPlan(3, 0.33, epsilon=0.67, delta=0.01)
        noise = standard_channel("coherent_mix", 0.67, 3, 0.33)
        with pytest.raises(RestartCapError):
            run_robust_protocol(scenario, plan, noise, 1, RngStream(43), restart_cap=25)

    def test_mild_noise_restarts_then_completes(self):
        scenario = SCENARIO
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("coherent_mix", 0.1, 3, 0.33)
        result = run_robust_protocol(scenario, plan, noise, 30, RngStream(44))
        assert result.rounds == 30 and sum(result.counts) == 30
        assert result.restarts > 0
        assert len(result.transcripts) == 30 + result.restarts
        rejected = [t for t in result.transcripts if not t.accepted]
        assert len(rejected) == result.restarts

    def test_plan_scenario_mismatch(self):
        scenario = SCENARIO
        noise = standard_channel("none", 0.0, 3)
        plan_wrong_n = VerificationPlan(4, 0.33, epsilon=1.0, delta=0.5)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan_wrong_n, noise, 1, RngStream(45))
        plan_wrong_q0 = VerificationPlan(3, 0.4, epsilon=1.0, delta=0.5)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan_wrong_q0, noise, 1, RngStream(45))
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        for kind in ("dephase", "coherent_mix"):
            noise_wrong_n = standard_channel(kind, 1.0, 4, 0.33)
            with pytest.raises(ValueError, match="channel acts on 8 qubits, the state has 6"):
                run_robust_protocol(scenario, plan, noise_wrong_n, 1, RngStream(45))

    def test_negative_rounds_rejected(self):
        scenario = SCENARIO
        plan = VerificationPlan(3, 0.33, epsilon=1.0, delta=0.5)
        noise = standard_channel("none", 0.0, 3)
        with pytest.raises(ValueError):
            run_robust_protocol(scenario, plan, noise, -1, RngStream(46))
