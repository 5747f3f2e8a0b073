"""Tests for states, evolution, channels, measurement, and the eigensolver.

Oracles: closed-form amplitude vectors, brute-force amplitude sums for
partial measurements, the exact Kraus-sum density for channel
trajectories, dense numpy diagonalization for eig_top2, and exact
binomial outcome distributions for the sampling law. The generic
``measure`` of the oracles, with bases and normalization, keeps its own
tests here, and checks the library's Z draw, ``draw_index``, and the
block that ``collapse`` slices at the drawn index.
"""

import time
import tracemalloc

import numpy as np
import pytest
from oracles import (
    coherent_mix_unitary,
    expectation,
    fidelity,
    kraus_density,
    kraus_ops,
    make_dicke,
    make_ghz,
    measure,
    phase_evolved,
)
from test_symcomb import sector_projector

from aqsense.qcore import (
    SUPPORT_BYTES_LIMIT,
    KrausChannel,
    PureState,
    RngStream,
    _probe_bytes,
    collapse,
    draw_index,
    eig_top2,
    evolve_phases,
    make_target,
    standard_channel,
)
from aqsense.qsv import verify_copy
from aqsense.symcomb import WeightBasis, binom, johnson_adjacency


def collapse_subset(amps, m, qubits, outcomes):
    """Brute-force projection oracle: fix the given qubits to the given bits,
    return (normalized remaining vector over the other qubits ascending, prob).
    """
    rest = [q for q in range(m) if q not in qubits]
    sub = np.zeros(2 ** len(rest), dtype=complex)
    for x in range(2 ** m):
        bits = [(x >> (m - 1 - q)) & 1 for q in range(m)]
        if any(bits[q] != o for q, o in zip(qubits, outcomes)):
            continue
        y = 0
        for pos, q in enumerate(rest):
            y |= bits[q] << (len(rest) - 1 - pos)
        sub[y] = amps[x]
    prob = float(np.vdot(sub, sub).real)
    return sub / np.sqrt(prob), prob


class TestStates:
    def test_ghz_two_qubits(self):
        st = make_ghz(2)
        np.testing.assert_allclose(st.amps, np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-15)

    def test_ghz_norm(self):
        assert abs(np.linalg.norm(make_ghz(6).amps) - 1) < 1e-12

    def test_ghz_weight_zero_expectation(self):
        st = make_ghz(6)
        diag = sector_projector(6, tuple(range(6)), 0)
        assert np.abs(st.amps) ** 2 @ diag == pytest.approx(0.5, abs=1e-14)

    def test_ghz_rejects_small(self):
        with pytest.raises(ValueError):
            make_ghz(1)

    def test_dicke_two_one(self):
        st = make_dicke(2, 1)
        np.testing.assert_allclose(st.amps, np.array([0, 1, 1, 0]) / np.sqrt(2), atol=1e-15)

    def test_dicke_johnson_expectation(self):
        # <D_6^3| J(6,3) |D_6^3> equals the top Johnson eigenvalue 9
        st = make_dicke(6, 3)
        idx = WeightBasis(6, 3).indices
        sector_vec = st.amps[idx]
        val = sector_vec @ johnson_adjacency(6, 3) @ sector_vec
        assert val.real == pytest.approx(9.0, abs=1e-12)

    def test_dicke_out_of_range(self):
        with pytest.raises(ValueError):
            make_dicke(4, 5)

    def test_dicke_partial_measurement_split(self):
        # Z-measuring any 3-subset of |D_6^3> with outcome weight l leaves |D_3^{3-l}>
        rng = np.random.default_rng(7)
        st = make_dicke(6, 3)
        for qubits in [(0, 1, 2), (1, 3, 5), (0, 2, 4)]:
            for outcomes in [(0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]:
                l = sum(outcomes)
                sub, prob = collapse_subset(st.amps, 6, qubits, outcomes)
                expected = make_dicke(3, 3 - l).amps
                np.testing.assert_allclose(sub, expected, atol=1e-12)
                # fixing 3 bits of weight l leaves C(3, 3-l) completions
                assert prob == pytest.approx(binom(3, 3 - l) / binom(6, 3), rel=1e-12)

    def test_target_fidelities(self):
        st = make_target(3, 0.33)
        assert fidelity(st, make_ghz(6)) == pytest.approx(0.33, abs=1e-14)
        assert fidelity(st, make_dicke(6, 3)) == pytest.approx(0.67, abs=1e-14)

    def test_target_norm_grid(self):
        for n in range(3, 7):
            for q0 in (0.1, 0.33, 0.5, 0.9):
                assert abs(np.linalg.norm(make_target(n, q0).amps) - 1) < 1e-12

    def test_target_is_the_dense_superposition_bit_for_bit(self):
        for n in range(3, 7):
            for q0 in (0.1, 0.33, 0.5, 0.9):
                dense = np.sqrt(q0) * make_ghz(2 * n).amps + np.sqrt(1.0 - q0) * make_dicke(2 * n, n).amps
                np.testing.assert_array_equal(make_target(n, q0).amps, dense)

    def test_target_domain(self):
        with pytest.raises(ValueError):
            make_target(2, 0.33)
        with pytest.raises(ValueError):
            make_target(3, 0.0)
        with pytest.raises(ValueError):
            make_target(3, 1.0)

    def test_purestate_norm_validated(self):
        with pytest.raises(ValueError):
            PureState(1, np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match=r"not normalized: \|norm - 1\| = nan"):
            PureState(1, np.array([np.nan, 0.0]))

    def test_amplitudes_read_only(self):
        # a state's law is formed once, so its amplitudes cannot change
        st = make_target(3, 0.33)
        with pytest.raises(ValueError, match="read-only"):
            st.amps[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            st.amps *= 1.0

    @pytest.mark.parametrize("kind", ["none", "dephase", "depolarize", "coherent_mix"])
    def test_law_is_the_fresh_cumulative_sum(self, kind):
        # bit for bit, on the target and on noisy copies of it
        st = make_target(4, 0.33)
        strength = 0.0 if kind == "none" else 0.3
        for copy in standard_channel(kind, strength, 4, q0=0.33).trajectories(st, RngStream(8).gen, 20):
            np.testing.assert_array_equal(copy.law, np.cumsum(np.abs(copy.amps) ** 2))
            assert copy.law is copy.law


class TestEvolvePhases:
    def test_zero_frequencies_identity(self):
        st = make_target(3, 0.4)
        out = evolve_phases(st, np.zeros(6), 1.0)
        np.testing.assert_allclose(out.amps, st.amps, atol=1e-15)

    def test_plus_to_minus(self):
        plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
        minus = PureState(1, np.array([1, -1]) / np.sqrt(2))
        out = evolve_phases(plus, np.array([np.pi]), 1.0)
        assert fidelity(out, minus) == pytest.approx(1.0, abs=1e-13)

    def test_ghz_phase_kills_e1(self):
        # frequencies pi/2 on participants 1 and 4 give theta+ = pi, so the
        # overlap with the unshifted GHZ state vanishes
        st = make_ghz(6)
        omegas = np.zeros(6)
        omegas[0] = omegas[3] = np.pi / 2
        out = evolve_phases(st, omegas, 1.0)
        assert fidelity(out, make_ghz(6)) == pytest.approx(0.0, abs=1e-13)

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            amps = rng.normal(size=16) + 1j * rng.normal(size=16)
            st = PureState(4, amps / np.linalg.norm(amps))
            out = evolve_phases(st, rng.uniform(0, 2, size=4), 0.7)
            assert abs(np.linalg.norm(out.amps) - 1) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evolve_phases(make_ghz(2), np.zeros(3), 1.0)

    def test_matches_per_basis_state_oracle(self):
        rng = np.random.default_rng(29)
        for m in range(1, 11):
            for _ in range(4):
                amps = rng.normal(size=2 ** m) + 1j * rng.normal(size=2 ** m)
                st = PureState(m, amps / np.linalg.norm(amps))
                omegas = rng.uniform(-3, 3, size=m) * (rng.random(m) < 0.6)
                t = rng.uniform(0, 2)
                out = evolve_phases(st, omegas, t)
                expected = phase_evolved(st.amps, omegas, t)
                np.testing.assert_allclose(out.amps, expected, rtol=0, atol=1e-14)

    def test_input_state_untouched(self):
        st = make_target(3, 0.4)
        before = st.amps.copy()
        evolve_phases(st, np.linspace(0.1, 0.6, 6), 1.0)
        np.testing.assert_array_equal(st.amps, before)


class TestChannels:
    def test_dephase_zero_identity(self):
        ch = standard_channel("dephase", 0.0, 3)
        st = make_target(3, 0.33)
        out = ch.apply_to_pure(st, RngStream(1).gen)
        assert fidelity(out, st) == pytest.approx(1.0, abs=1e-13)

    def test_completeness_all_kinds(self):
        # the oracle's Kraus operators are complete, and a per-qubit kind's
        # branch table is them: sqrt(1 - sum w) I, then sqrt(w_j) U_j
        for ch in [
            standard_channel("dephase", 0.3, 3),
            standard_channel("depolarize", 0.2, 3),
            standard_channel("coherent_mix", 0.4, 3, q0=0.33),
        ]:
            ops = kraus_ops(ch, q0=0.33)
            dim = ops[0].shape[0]
            total = sum(k.conj().T @ k for k in ops)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
            if ch.label != "coherent_mix":
                rest = 1.0 - sum(w for w, _ in ch.branches)
                table = [np.sqrt(rest) * np.eye(2), *(np.sqrt(w) * u for w, u in ch.branches)]
                np.testing.assert_allclose(table, ops, rtol=0.0, atol=1e-15)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            standard_channel("dephase", 1.5, 3)
        with pytest.raises(ValueError):
            standard_channel("nosuch", 0.1, 3)
        with pytest.raises(ValueError):
            standard_channel("none", 0.5, 3)

    def test_coherent_mix_exact_fidelity(self):
        st = make_target(3, 0.33)
        ch = standard_channel("coherent_mix", 0.67, 3, q0=0.33)
        rho = kraus_density(ch, np.outer(st.amps, st.amps.conj()), q0=0.33)
        fid = expectation(st, rho)
        assert fid == pytest.approx(0.33, abs=1e-12)

    def test_coherent_mix_trajectory_statistics(self):
        st = make_target(3, 0.33)
        ch = standard_channel("coherent_mix", 0.25, 3, q0=0.33)
        gen = RngStream(11).gen
        hits = sum(fidelity(ch.apply_to_pure(st, gen), st) > 0.5 for _ in range(2000))
        # Bernoulli(0.75) out of 2000 within 4 sigma
        assert abs(hits / 2000 - 0.75) < 4 * np.sqrt(0.25 * 0.75 / 2000)

    def test_dephase_density_trace_preserved(self):
        st = make_target(3, 0.4)
        rho = kraus_density(standard_channel("dephase", 0.5, 3), np.outer(st.amps, st.amps.conj()))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4])
    def test_reflection_is_the_dense_swap(self, n):
        # strength 1 always takes the reflection branch; the channel must act
        # as the swap on any input, not only on the target
        q0 = 0.33
        ch = standard_channel("coherent_mix", 1.0, n, q0=q0)
        swap = coherent_mix_unitary(n, q0)
        gen = np.random.default_rng(5)
        v = gen.normal(size=4 ** n) + 1j * gen.normal(size=4 ** n)
        for st in (make_target(n, q0), PureState(2 * n, v / np.linalg.norm(v))):
            out = ch.apply_to_pure(st, RngStream(3).gen)
            np.testing.assert_allclose(out.amps, swap @ st.amps, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", [7, 8])
    def test_coherent_mix_builds_no_dense_operator(self, n):
        tracemalloc.start()
        try:
            start = time.perf_counter()
            st = make_target(n, 0.33)
            ch = standard_channel("coherent_mix", 0.5, n, q0=0.33)
            gen = RngStream(4).gen
            outs = [ch.apply_to_pure(st, gen) for _ in range(20)]
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 32 << 20
        ((_, (support, u)),) = ch.branches
        assert support.shape == u.shape == (binom(2 * n, n) + 2,)
        # each trajectory is the target or phi, the swap's image of it
        assert all(abs(fidelity(out, st) - 0.5) > 0.49 for out in outs)

    def test_malformed_reflection_rejected(self):
        support = np.array([0, 5, 63])
        u = np.ones(3) / np.sqrt(3)
        KrausChannel("reflect", 0.5, 6, ((0.5, (support, u)),))
        z = np.diag([1.0, -1.0])
        for bad in [((0.5, (support, 2 * u)),), ((0.5, (support, u[:2])),), ((0.5, (support, u)), (0.1, z)),
                    ((0.5, (support, np.full(3, np.nan))),)]:
            with pytest.raises(ValueError, match="unit vector"):
                KrausChannel("reflect", 0.5, 6, bad)
        for bad in [((1.5, (support, u)),), ((-0.1, z),), ((0.6, z), (0.6, z)), ((np.nan, z),),
                    ((0.1, z), (np.nan, z))]:
            with pytest.raises(ValueError, match="weight in"):
                KrausChannel("reflect", 0.5, 6, bad)

    @pytest.mark.parametrize(
        "channel_n, state_n, kind",
        [(3, 4, "coherent_mix"), (3, 4, "dephase"), (4, 3, "coherent_mix")],
    )
    def test_qubit_count_mismatch_rejected(self, channel_n, state_n, kind):
        # a channel built for one register size applied to another: no wrong
        # state, no draws on the wrong qubits, no bare IndexError
        ch = standard_channel(kind, 1.0, channel_n, q0=0.33)
        with pytest.raises(ValueError, match=f"{2 * channel_n} qubits, the state has {2 * state_n}"):
            ch.apply_to_pure(make_target(state_n, 0.33), RngStream(1).gen)

    @pytest.mark.parametrize("kind", ["none", "dephase", "depolarize", "coherent_mix"])
    def test_weightless_channel_draws_nothing(self, kind):
        # the seeded stream layout rests on this: no weight off the identity,
        # no uniform drawn, and the input state returned as it is
        st = make_target(3, 0.33)
        gen = RngStream(9).gen
        before = gen.bit_generator.state
        assert standard_channel(kind, 0.0, 3, q0=0.33).apply_to_pure(st, gen) is st
        assert gen.bit_generator.state == before

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("kind", ["none", "dephase", "depolarize", "coherent_mix"])
    def test_trajectories_are_successive_single_copies(self, n, kind):
        # the same uniforms in the same order as one apply_to_pure per copy,
        # whether the count ends inside a chunk or on its edge, and the
        # generator left where those calls leave it
        st = make_target(n, 0.33)
        ch = standard_channel(kind, 0.0 if kind == "none" else 0.1, n, q0=0.33)
        chunk = (1 << 2 * n) // (1 if kind == "coherent_mix" else 2 * n)
        for count in (1, chunk - 1, chunk, chunk + 1, 284):
            mine, single = RngStream(17).gen, RngStream(17).gen
            copies = list(ch.trajectories(st, mine, count))
            assert len(copies) == count
            for copy in copies:
                alone = ch.apply_to_pure(st, single)
                assert (copy is st) == (alone is st)
                np.testing.assert_array_equal(copy.amps, alone.amps)
            assert mine.random() == single.random()
        if kind != "none":
            assert any(c is st for c in copies) and not all(c is st for c in copies)

    @pytest.mark.parametrize("n", [3, 6])
    @pytest.mark.parametrize("kind", ["dephase", "depolarize", "coherent_mix"])
    def test_no_draw_exceeds_a_register(self, n, kind):
        class Recording:
            def __init__(self, gen):
                self.gen, self.sizes = gen, []

            def random(self, size=None):
                self.sizes.append(int(np.prod(size)))
                return self.gen.random(size)

        ch = standard_channel(kind, 0.05, n, q0=0.33)
        sites = 1 if kind == "coherent_mix" else 2 * n
        count = 3 * (1 << 2 * n) // sites + 1
        rng = Recording(RngStream(5).gen)
        for _ in ch.trajectories(make_target(n, 0.33), rng, count):
            pass
        assert len(rng.sizes) == 4 and max(rng.sizes) <= 1 << 2 * n
        assert sum(rng.sizes) == count * sites

    def test_channels_compare_by_identity(self):
        # the branch arrays are never compared element-wise, which raised
        a, b = standard_channel("dephase", 0.3, 3), standard_channel("dephase", 0.3, 3)
        assert a == a and not a != a
        assert (a == b) is False and a != b
        mixes = [standard_channel("coherent_mix", 0.5, 3, q0=q0) for q0 in (0.33, 0.5)]
        assert mixes[0] != mixes[1]
        assert len({a, b, *mixes}) == 4

    @pytest.mark.parametrize(
        "kind, strength", [("dephase", 0.3), ("depolarize", 0.2), ("coherent_mix", 0.4)]
    )
    def test_trajectory_average_matches_exact_density(self, kind, strength):
        # the mean of |psi><psi| over trajectories is the Kraus-sum density,
        # entry by entry within 4 sigma of the trajectory spread
        n, q0, trials = 3, 0.33, 20000
        st = make_target(n, q0)
        ch = standard_channel(kind, strength, n, q0=q0)
        exact = kraus_density(ch, np.outer(st.amps, st.amps.conj()), q0=q0)
        gen = RngStream(12).gen
        amps = np.array([ch.apply_to_pure(st, gen).amps for _ in range(trials)])
        mean = amps.T @ amps.conj() / trials
        power = np.abs(amps) ** 2
        second = power.T @ power / trials
        sigma = np.sqrt(np.clip(second - np.abs(mean) ** 2, 0.0, None) / trials)
        assert np.all(np.abs(mean - exact) <= 4 * sigma + 1e-10)


class TestProbeBudget:
    @pytest.mark.parametrize("n", [6, 7])
    @pytest.mark.parametrize("kind", ["dephase", "coherent_mix"])
    def test_formula_bounds_the_traced_peak(self, n, kind):
        # the limit is only as good as the byte count behind it: build the
        # probe and verify noisy copies of it, as a session does
        RngStream(1).gen.random()  # numpy.random loads on first use
        tracemalloc.start()
        try:
            target = make_target(n, 0.33)
            channel = standard_channel(kind, 0.5, n, q0=0.33)
            gen = RngStream(2).gen
            for i in range(20):
                verify_copy(channel.apply_to_pure(target, gen), n, 0.33, 0.0, RngStream(3).substream(i).gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _probe_bytes(n) < SUPPORT_BYTES_LIMIT

    def test_formula_bounds_trajectories_that_form_their_laws(self):
        # most dephase:0.3 copies at n = 8 branch, so each forms its own law
        # next to the target's; a copy is dropped before the next is drawn,
        # as verify_batch drops it
        n = 8
        RngStream(1).gen.random()
        tracemalloc.start()
        try:
            target = make_target(n, 0.33)
            copies = standard_channel("dephase", 0.3, n).trajectories(target, RngStream(2).gen, 50)
            for i in range(50):
                verify_copy(next(copies), n, 0.33, 0.0, RngStream(3).substream(i).gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _probe_bytes(n)

    def test_largest_n_accepted(self):
        assert _probe_bytes(12) <= SUPPORT_BYTES_LIMIT < _probe_bytes(13)
        for build in (lambda n: make_target(n, 0.33), lambda n: standard_channel("coherent_mix", 0.5, n, q0=0.33)):
            for n in (13, 16, 200):
                with pytest.raises(ValueError, match="the largest n accepted is 12"):
                    build(n)


class TestMeasurement:
    def test_zero_state_z_measure(self):
        outcomes, post = measure(np.array([1.0, 0.0], dtype=complex), [0], RngStream(5).gen.random())
        assert outcomes == (0,)
        # no qubit is left unmeasured: the conditional state is one amplitude
        np.testing.assert_allclose(post, [1.0], atol=1e-14)

    def test_dicke_weight_distribution_first_three(self):
        # weight distribution of the first three qubits of |D_6^3> is
        # C(3,l)^2 / C(6,3), by brute-force amplitude summation
        st = make_dicke(6, 3)
        projs = [np.diag(sector_projector(6, (0, 1, 2), l).astype(float)) for l in range(4)]
        gen = RngStream(9).gen
        for l in range(4):
            exact = binom(3, l) ** 2 / binom(6, 3)
            prob = expectation(st, projs[l])
            assert prob == pytest.approx(exact, abs=1e-13)
        # and one joint draw of the three qubits must follow exactly that law
        counts = np.zeros(4)
        for _ in range(20000):
            outcomes, _ = measure(st.amps, (0, 1, 2), gen.random())
            counts[sum(outcomes)] += 1
        for l in range(4):
            pexact = binom(3, l) ** 2 / binom(6, 3)
            sigma = np.sqrt(pexact * (1 - pexact) / 20000)
            assert abs(counts[l] / 20000 - pexact) < 4 * sigma

    def test_ghz_collapse(self):
        outcomes, post = measure(make_ghz(2).amps, [0], RngStream(2).gen.random())
        # the unmeasured qubit 1 is left in |o>
        expected = np.zeros(2, dtype=complex)
        expected[outcomes[0]] = 1.0
        np.testing.assert_allclose(post, expected, atol=1e-14)

    def test_x_basis(self):
        x_basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        outcomes, post = measure(plus, [0], RngStream(2).gen.random(), [x_basis])
        assert outcomes == (0,)
        # the measured qubit is removed, so one amplitude is left
        np.testing.assert_allclose(post, [1.0], atol=1e-14)

    def test_joint_collapse_matches_brute_force(self):
        # outcomes come back in the listed (unsorted) order, and what is
        # returned is the brute-force conditional state of the unmeasured
        # qubits alone, in ascending order
        gen = RngStream(4).gen
        amps = gen.normal(size=16) + 1j * gen.normal(size=16)
        amps /= np.linalg.norm(amps)
        for _ in range(20):
            outcomes, post = measure(amps, (2, 0), gen.random())
            sub, _ = collapse_subset(amps, 4, (2, 0), outcomes)
            assert post.shape == (4,)
            assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(post, sub, atol=1e-12)

    def test_caller_amplitudes_untouched(self):
        # measuring qubit 0 keeps a contiguous half of the caller's array,
        # which the normalization must not scale in place
        amps = make_ghz(3).amps
        before = amps.copy()
        for seed in range(4):
            _, post = measure(amps, [0], RngStream(seed).gen.random())
            assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_array_equal(amps, before)

    @pytest.mark.parametrize("n", [3, 4])
    def test_law_passed_or_formed_measures_alike(self, n):
        st = make_target(n, 0.33)
        gen = np.random.default_rng(3)
        for _ in range(200):
            qubits = sorted(gen.permutation(2 * n)[:n].tolist())
            seed = int(gen.integers(1 << 30))
            with_law = measure(st.amps, qubits, RngStream(seed).gen.random(), law=st.law)
            without = measure(st.amps, qubits, RngStream(seed).gen.random())
            assert with_law[0] == without[0]
            np.testing.assert_array_equal(with_law[1], without[1])

    def test_law_refused_with_bases(self):
        st = make_target(3, 0.33)
        with pytest.raises(ValueError, match="without bases"):
            measure(st.amps, [0], RngStream(1).gen.random(), [np.eye(2)], law=st.law)

    def test_basis_outcome_leaves_its_ket(self):
        # a Y-basis outcome o leaves the other qubits in <row o| psi,
        # normalized, with the measured qubit removed
        y_basis = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        psi = make_ghz(3).amps.reshape(2, 2, 2)
        outcomes, post = measure(psi.reshape(-1), [1], RngStream(6).gen.random(), [y_basis])
        ket = y_basis[outcomes[0]]
        rest = np.einsum("abc,b->ac", psi, ket.conj())
        rest /= np.linalg.norm(rest)
        np.testing.assert_allclose(post, rest.reshape(-1), atol=1e-12)


def drawn_collapse(amps, qubits, rng, law=None):
    """One draw_index on a uniform from ``rng``, then collapse at the drawn
    index: the outcome bits on ``qubits``, in the order listed, and the
    block they leave."""
    m = amps.shape[0].bit_length() - 1
    index = draw_index(amps, rng.random(), law)
    return tuple((index >> (m - 1 - q)) & 1 for q in qubits), collapse(amps, qubits, index)


class TestCollapse:
    @pytest.mark.parametrize("n", [3, 4])
    def test_law_passed_or_formed_collapses_alike(self, n):
        st = make_target(n, 0.33)
        gen = np.random.default_rng(5)
        for _ in range(200):
            qubits = sorted(gen.permutation(2 * n)[:n].tolist())
            seed = int(gen.integers(1 << 30))
            with_law = drawn_collapse(st.amps, qubits, RngStream(seed).gen, st.law)
            without = drawn_collapse(st.amps, qubits, RngStream(seed).gen)
            assert with_law[0] == without[0]
            np.testing.assert_array_equal(with_law[1], without[1])

    def test_block_is_the_unscaled_conditional_state(self):
        # same stream, same outcome as measure; the block, once normalized,
        # is measure's conditional state, and its squared norm is the
        # outcome's probability
        gen = RngStream(8).gen
        for m in (3, 5, 6):
            amps = gen.normal(size=1 << m) + 1j * gen.normal(size=1 << m)
            amps /= np.linalg.norm(amps)
            for _ in range(40):
                qubits = gen.permutation(m)[: int(gen.integers(1, m + 1))].tolist()
                seed = int(gen.integers(1 << 30))
                outcomes, block = drawn_collapse(amps, qubits, RngStream(seed).gen)
                expected, post = measure(amps, qubits, RngStream(seed).gen.random())
                assert outcomes == expected
                _, prob = collapse_subset(amps, m, qubits, outcomes)
                assert np.vdot(block, block).real == pytest.approx(prob, rel=1e-12)
                np.testing.assert_allclose(block / np.linalg.norm(block), post, atol=1e-12)

    def test_read_only_amplitudes_untouched_and_leading_block_a_view(self):
        st = make_target(3, 0.33)
        before = st.amps.copy()
        for seed in range(8):
            for qubits in ([0], [0, 1, 2], [1, 4], [5, 0]):
                _, block = drawn_collapse(st.amps, qubits, RngStream(seed).gen, st.law)
                # a block that shares the caller's memory is read-only too
                assert block.flags.writeable != np.shares_memory(block, st.amps)
            _, lead = drawn_collapse(st.amps, [0, 1], RngStream(seed).gen)
            assert np.shares_memory(lead, st.amps) and lead.base is not None
        np.testing.assert_array_equal(st.amps, before)


class TestEigTop2:
    def test_identity(self):
        assert eig_top2(np.eye(4)) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_johnson(self):
        l1, l2 = eig_top2(johnson_adjacency(6, 3))
        assert l1 == pytest.approx(9.0, abs=1e-10)
        assert l2 == pytest.approx(3.0, abs=1e-10)

    def test_rank_one_projector(self):
        st = make_dicke(6, 3)
        proj = np.outer(st.amps, st.amps.conj())
        l1, l2 = eig_top2(proj)
        assert l1 == pytest.approx(1.0, abs=1e-10)
        assert l2 == pytest.approx(0.0, abs=1e-10)

    def test_random_hermitian_against_dense(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            a = rng.normal(size=(64, 64))
            h = (a + a.T) / 2
            w = np.sort(np.linalg.eigvalsh(h))
            l1, l2 = eig_top2(h)
            assert l1 == pytest.approx(w[-1], abs=1e-10)
            assert l2 == pytest.approx(w[-2], abs=1e-10)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eig_top2(np.array([[0.0, 1.0], [0.0, 0.0]]))


def keyed_stream(seed, key):
    """The stream with the given key, reached from RngStream(seed) by one
    substream call per id, so every call builds its own chain of parents."""
    stream = RngStream(seed)
    for i in key:
        stream = stream.substream(i)
    return stream


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123).gen.random(5)
        b = RngStream(123).gen.random(5)
        np.testing.assert_array_equal(a, b)

    def test_substreams_differ(self):
        base = RngStream(123)
        a = base.substream(0).gen.random(5)
        b = base.substream(1).gen.random(5)
        assert not np.array_equal(a, b)

    def test_substream_reproducible(self):
        a = RngStream(9).substream(4).gen.random(3)
        b = RngStream(9).substream(4).gen.random(3)
        np.testing.assert_array_equal(a, b)

    def test_substream_depends_only_on_seed_and_key(self):
        a = RngStream(9).substream(2).substream(4).gen.random(3)
        b = keyed_stream(9, (2, 4)).gen.random(3)
        # a parent that made other items and drew from its own generator first
        parent = RngStream(9).substream(2)
        parent.substream(3).gen.random(3)
        parent.gen.random(3)
        c = parent.substream(4).gen.random(3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 404, 2 ** 31 - 1])
    def test_item_stream_layout(self, seed):
        # the seeded outputs rest on this layout: item i of the stream with
        # key k is Philox keyed by SeedSequence(seed, k, pool_size=8), its
        # counter at i * 2^192, whether the parent's key is derived for the
        # item alone or once for all its siblings
        for key in ((), (2,), (2, 4)):
            parent = keyed_stream(seed, key)
            for i in (0, 1, 7, 1000):
                want = np.random.Generator(np.random.Philox(
                    np.random.SeedSequence(seed, spawn_key=key, pool_size=8), counter=[0, 0, 0, i]))
                expected = (want.random(3), want.integers(1 << 40, size=3))
                for gen in (keyed_stream(seed, key + (i,)).gen, parent.substream(i).gen):
                    np.testing.assert_array_equal(gen.random(3), expected[0])
                    np.testing.assert_array_equal(gen.integers(1 << 40, size=3), expected[1])

    def test_siblings_share_a_key_but_no_state(self):
        parent = RngStream(11).substream(3)
        a, b = parent.substream(0).gen, parent.substream(1).gen
        alternated = np.array([(a.random(), b.random()) for _ in range(5)])
        np.testing.assert_array_equal(alternated[:, 0], RngStream(11).substream(3).substream(0).gen.random(5))
        np.testing.assert_array_equal(alternated[:, 1], RngStream(11).substream(3).substream(1).gen.random(5))
