"""Tests for states, evolution, channels, measurement, and the eigensolver.

Oracles: closed-form amplitude vectors, brute-force amplitude sums for
partial measurements, the exact Kraus-sum density for channel
trajectories, dense numpy diagonalization for eig_top2, and exact
binomial outcome distributions for the sampling law.
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
    phase_evolved,
)
from test_symcomb import sector_projector

from aqsense.qcore import (
    KrausChannel,
    PureState,
    RngStream,
    eig_top2,
    evolve_phases,
    make_target,
    measure,
    standard_channel,
)
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
        for ch in [
            standard_channel("dephase", 0.3, 3),
            standard_channel("depolarize", 0.2, 3),
            standard_channel("coherent_mix", 0.4, 3, q0=0.33),
        ]:
            ops = kraus_ops(ch, q0=0.33)
            dim = ops[0].shape[0]
            total = sum(k.conj().T @ k for k in ops)
            np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)

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
        assert all(np.ndim(op) == 1 for op in ch.ops)
        # each trajectory is the target or phi, the swap's image of it
        assert all(abs(fidelity(out, st) - 0.5) > 0.49 for out in outs)

    def test_malformed_reflection_rejected(self):
        support = np.array([0, 5, 63])
        u = np.ones(3) / np.sqrt(3)
        KrausChannel("reflect", 0.5, 6, (support, u))
        for bad in [(support, 2 * u), (support, u[:2])]:
            with pytest.raises(ValueError, match="unit vector"):
                KrausChannel("reflect", 0.5, 6, bad)
        with pytest.raises(ValueError, match="weight in"):
            KrausChannel("reflect", 1.5, 6, (support, u))

    def test_non_unitary_mixture_rejected(self):
        # amplitude damping is trace preserving but not a mixture of unitaries
        g = 0.3
        ops = (np.array([[1.0, 0.0], [0.0, np.sqrt(1 - g)]]), np.array([[0.0, np.sqrt(g)], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="unitary"):
            KrausChannel("amplitude_damping", g, 6, ops)

    def test_incomplete_mixture_rejected(self):
        with pytest.raises(ValueError, match="sum K"):
            KrausChannel("lossy", 0.5, 6, (0.5 * np.eye(2),))

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


class TestMeasurement:
    def test_zero_state_z_measure(self):
        outcomes, post = measure(np.array([1.0, 0.0], dtype=complex), [0], RngStream(5).gen)
        assert outcomes == (0,)
        np.testing.assert_allclose(post, [1.0, 0.0], atol=1e-14)

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
            outcomes, _ = measure(st.amps, (0, 1, 2), gen)
            counts[sum(outcomes)] += 1
        for l in range(4):
            pexact = binom(3, l) ** 2 / binom(6, 3)
            sigma = np.sqrt(pexact * (1 - pexact) / 20000)
            assert abs(counts[l] / 20000 - pexact) < 4 * sigma

    def test_ghz_collapse(self):
        outcomes, post = measure(make_ghz(2).amps, [0], RngStream(2).gen)
        expected = np.zeros(4, dtype=complex)
        expected[0 if outcomes == (0,) else 3] = 1.0
        np.testing.assert_allclose(post, expected, atol=1e-14)

    def test_x_basis(self):
        x_basis = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        outcomes, post = measure(plus, [0], RngStream(2).gen, [x_basis])
        assert outcomes == (0,)
        # the measured qubit is left in |0> of the rotated frame
        np.testing.assert_allclose(post, [1.0, 0.0], atol=1e-14)

    def test_joint_collapse_matches_brute_force(self):
        # outcomes come back in the listed (unsorted) order, and the
        # unmeasured qubits keep the brute-force conditional state
        gen = RngStream(4).gen
        amps = gen.normal(size=16) + 1j * gen.normal(size=16)
        amps /= np.linalg.norm(amps)
        for _ in range(20):
            outcomes, post = measure(amps, (2, 0), gen)
            sub, _ = collapse_subset(amps, 4, (2, 0), outcomes)
            kept, norm = collapse_subset(post, 4, (2, 0), outcomes)
            assert norm == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(kept, sub, atol=1e-12)

    def test_basis_outcome_leaves_its_ket(self):
        # a Y-basis outcome o projects the other qubits onto <row o| psi and
        # leaves the measured qubit in |o> of the rotated frame
        y_basis = np.array([[1, 1j], [1, -1j]]) / np.sqrt(2)
        psi = make_ghz(3).amps.reshape(2, 2, 2)
        outcomes, post = measure(psi.reshape(-1), [1], RngStream(6).gen, [y_basis])
        ket = y_basis[outcomes[0]]
        rest = np.einsum("abc,b->ac", psi, ket.conj())
        rest /= np.linalg.norm(rest)
        frame_ket = np.eye(2)[outcomes[0]]
        np.testing.assert_allclose(post, np.einsum("ac,b->abc", rest, frame_ket).reshape(-1), atol=1e-12)


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
        b = RngStream(9, (2, 4)).gen.random(3)
        c = RngStream(9).substream(2, 4).gen.random(3)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)
