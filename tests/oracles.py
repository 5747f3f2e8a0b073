"""Brute-force oracles shared by the test modules.

These rebuild the acceptance operators by enumerating every verifier
choice (measurement settings and outcomes) from first principles, with no
closed-form shortcuts, so agreement with the library is a real check: the
GHZ-like and Dicke sub-strategies, and from them the subset-averaged
strategy Omega. The exact Kraus-sum action of a noise channel, from
Kraus operators built by the definition of its kind, checks its sampled
trajectories, a dense scan of the q0 objective and a nested-grid
search of it, one angle pair at a time, check the optimizer's closed-form
minimum, and its cubic's roots as eigenvalues of companion matrices check
the closed-form roots. The all-X witness bound on the target state, which only the
tests use, lives here too. Dense routes check the
symmetric-block spectra: an operator built entry by entry from its orbit
coefficients, one ``eigvalsh`` call per block (the loop that the calls
stacked by block size replaced), a sector-block operator written out as a 2^m x 2^m
matrix, the Gram route on the strategy's (n-1, n+1) piece, and the
anonymity audit's law from one evolution per placement, and by the
float64 bit-matrix route that the float32 counts replaced. The sensing law
also keeps its dense route: the probe as a 2^(2n) vector, evolved and
measured against the POVM kets written out as 2^(2n) vectors, and the
law by evolution on the kets' supports that checks the closed form the
sampler draws from. The POVM's orthonormality check, a Povm built from
dense kets for negative controls, the dense GHZ and Dicke constructors,
the coherent_mix swap as a 2^(2n) x 2^(2n) unitary from its definition,
fidelities and expectation values of dense states and
operators, and the diagonal remainder's eigenvalue profile are test-only
too. The per-copy verification route that measures every stage, the
one- and two-qubit tails included, with the generic ``measure`` checks
that the library's scalar tails draw the same outcomes, and the robust
loop with one ``apply_to_pure`` call per copy checks the loop that takes
each attempt's copies from one stream of trajectories. The sweep CSV
written through ``csv.writer``, one ``format`` call per float at each
(n, example) position, checks the bytes of the writer that formats each
n's and each example's fields once.
"""

import cmath
import csv
import itertools
import math

import numpy as np

from aqsense.qcore import PureState, check_probe, eig_top2, evolve_phases, make_target, measure, probe_on
from aqsense.qopt import _CSV_HEADER, OptimumReport, _per_n, gamma_eta, objective_H, q_landmarks
from aqsense.qsv import lambda_map
from aqsense.qsv.operators import strategy_orbits
from aqsense.qsv.protocol import CopyVerdict, RobustResult, verify_batch
from aqsense.sensing import OutcomeDistribution, Povm, check_support_budget, estimate_angles
from aqsense.symcomb import WeightBasis, binom, johnson_multiplicity

SQ2 = np.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / SQ2
S_GATE = np.diag([1.0, 1.0j])
Z_GATE = np.diag([1.0, -1.0]).astype(complex)
X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y_GATE = np.array([[0.0, -1.0j], [1.0j, 0.0]])
GRID_POINTS = 2048
REFINE_POINTS = 65
BRACKET_WIDTH = 1e-10


def make_ghz(num_qubits):
    """(|0...0> + |1...1>)/sqrt(2) on ``num_qubits`` >= 2 qubits."""
    if num_qubits < 2:
        raise ValueError("GHZ state needs at least 2 qubits")
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[0] = amps[-1] = 1 / np.sqrt(2)
    return PureState(num_qubits, amps)


def make_dicke(num_qubits, excitations):
    """Uniform superposition of all weight-``excitations`` basis states."""
    if not 0 <= excitations <= num_qubits:
        raise ValueError(f"excitations must lie in [0, {num_qubits}], got {excitations}")
    basis = WeightBasis(num_qubits, excitations)
    amps = np.zeros(2 ** num_qubits, dtype=np.complex128)
    amps[basis.indices] = 1 / np.sqrt(basis.indices.size)
    return PureState(num_qubits, amps)


def fidelity(a, b):
    """|<a|b>|^2 of two dense states."""
    return float(abs(np.vdot(a.amps, b.amps)) ** 2)


def expectation(state, op):
    """<psi|op|psi> of a dense operator, real part."""
    return float(np.vdot(state.amps, op @ state.amps).real)


def omega3_profile(n, q0, p=0.0):
    """Eigenvalues of the diagonal remainder piece, one per weight l=1..n-2.

    Value at l: (1-p)/(n C(2n,n)) * C(2n-l, n) * [(n-l) lambda0 + l lambda1],
    read off the orbit table at (l, l, l); strictly decreasing in l.
    """
    orbits = strategy_orbits(n, q0, p)
    return tuple(orbits[(l, l, l)] for l in range(1, n - 1))


def kron_chain(vecs):
    out = np.array([1.0], dtype=complex)
    for v in vecs:
        out = np.kron(out, v)
    return out


def brute_ghz_like_dense(m, p, lam0):
    """Acceptance operator of the GHZ-like protocol by enumerating the
    verifier's random settings (a=0 Z-test; a=1 trusted qubit k, phases r_i)
    and every outcome string, averaging the accepting projectors.
    """
    lam1 = 1.0 - lam0
    dim = 2 ** m
    ztest = np.zeros((dim, dim), dtype=complex)
    ztest[0, 0] = ztest[-1, -1] = 1.0
    f_gate = np.diag([np.sqrt(2 * lam0), np.sqrt(2 * lam1)]).astype(complex)

    acc = np.zeros((dim, dim), dtype=complex)
    count = 0
    for k in range(m):
        others = [i for i in range(m) if i != k]
        for rvec in itertools.product((0, 1), repeat=m - 1):
            count += 1
            for ovec in itertools.product((0, 1), repeat=m - 1):
                r_k = 0
                for r in rvec:
                    r_k ^= r
                o_k = 0
                for o in ovec:
                    o_k ^= o
                total_r = sum(rvec) + r_k
                assert total_r % 2 == 0
                e = (o_k + total_r // 2) % 2
                w = f_gate @ np.linalg.matrix_power(S_GATE, r_k) @ np.linalg.matrix_power(Z_GATE, e) @ PLUS
                single = {k: w}
                for j, i in enumerate(others):
                    single[i] = (
                        np.linalg.matrix_power(S_GATE, rvec[j])
                        @ np.linalg.matrix_power(Z_GATE, ovec[j])
                        @ PLUS
                    )
                full = kron_chain([single[q] for q in range(m)])
                acc += np.outer(full, full.conj())
    acc /= count
    return p * ztest + (1 - p) * acc


def brute_dicke_dense(m, k):
    """Acceptance operator of the Dicke protocol by summing over every
    unordered qubit pair and every Z outcome on the remaining qubits.
    """
    dim = 2 ** m
    out = np.zeros((dim, dim), dtype=complex)
    pairs = list(itertools.combinations(range(m), 2))
    for q1, q2 in pairs:
        rest = [q for q in range(m) if q not in (q1, q2)]
        for x in range(dim):
            bits = [(x >> (m - 1 - q)) & 1 for q in range(m)]
            s_rest = sum(bits[q] for q in rest)
            b1, b2 = bits[q1], bits[q2]
            if s_rest == k and b1 == 0 and b2 == 0:
                out[x, x] += 1.0
            if s_rest == k - 2 and b1 == 1 and b2 == 1:
                out[x, x] += 1.0
            if s_rest == k - 1:
                # X-basis pair test accepts on equal outcomes: (II + XX)/2
                out[x, x] += 0.5
                y = x ^ (1 << (m - 1 - q1)) ^ (1 << (m - 1 - q2))
                out[x, y] += 0.5
    return out / len(pairs)


def brute_strategy_dense(n, q0, p):
    """The subset-averaged strategy Omega on 2n qubits, averaged over every
    n-subset R: the verifier Z-measures R and, on outcome weight w, runs on
    the other n qubits the GHZ-like protocol (w = 0), its X conjugate
    (w = n) or the Dicke protocol for n - w excitations, each of them
    enumerated above.
    """
    lam0, _ = lambda_map(n, q0)
    ghz = brute_ghz_like_dense(n, p, lam0)
    dicke = [brute_dicke_dense(n, n - w) for w in range(1, n)]
    by_weight = np.array([ghz, *dicke, x_conjugate_dense(ghz, n)])
    m = 2 * n
    idx = np.arange(2 ** m)
    omega = np.zeros((2 ** m, 2 ** m), dtype=complex)
    for subset in itertools.combinations(range(m), n):
        rest = [q for q in range(m) if q not in subset]
        on_r = sum(((idx >> (m - 1 - q)) & 1) << (n - 1 - pos) for pos, q in enumerate(subset))
        off_r = sum(((idx >> (m - 1 - q)) & 1) << (n - 1 - pos) for pos, q in enumerate(rest))
        # R's outcome string is read off both sides of the entry and must agree
        ops = by_weight[np.bitwise_count(on_r)[:, None], off_r[:, None], off_r[None, :]]
        omega += np.where(on_r[:, None] == on_r[None, :], ops, 0.0)
    return omega / math.comb(m, n)


def phase_evolved(amps, omegas, t):
    """exp(-i sum_q omega_q t Z_q / 2) applied basis state by basis state:
    index x picks up phase -(1/2) sum_q (+-omega_q t), with + where bit q
    of x (qubit 0 most significant) is 1 and - where it is 0."""
    m = len(omegas)
    out = np.empty(len(amps), dtype=complex)
    for x, amp in enumerate(amps):
        signs = [1 if (x >> (m - 1 - q)) & 1 else -1 for q in range(m)]
        phase = sum(s * w * t for s, w in zip(signs, omegas))
        out[x] = amp * np.exp(-0.5j * phase)
    return out


def x_conjugate_dense(mat, m):
    """X^{tensor m} M X^{tensor m} by index complementation."""
    dim = 2 ** m
    perm = np.arange(dim) ^ (dim - 1)
    return mat[np.ix_(perm, perm)]


def coherent_mix_unitary(n, q0):
    """The 2^(2n) x 2^(2n) swap of psi = sqrt(q0)|GHZ> + sqrt(1-q0)|D> and
    phi = sqrt(q0)|D> - sqrt(1-q0)|GHZ>, the identity on the rest:
    I - psi psi^dag - phi phi^dag + phi psi^dag + psi phi^dag."""
    m = 2 * n
    ghz, dicke = make_ghz(m).amps, make_dicke(m, n).amps
    psi = np.sqrt(q0) * ghz + np.sqrt(1 - q0) * dicke
    phi = np.sqrt(q0) * dicke - np.sqrt(1 - q0) * ghz
    return (
        np.eye(2 ** m, dtype=complex)
        - np.outer(psi, psi.conj())
        - np.outer(phi, phi.conj())
        + np.outer(phi, psi.conj())
        + np.outer(psi, phi.conj())
    )


def kraus_ops(channel, q0=None):
    """The channel's Kraus operators as matrices, built from its kind's
    definition and strength, not from the channel's branch table: none
    {I}, dephase {sqrt(1-g/2) I, sqrt(g/2) Z} and depolarize
    {sqrt(1-3s/4) I, sqrt(s/4) X, Y, Z} on one qubit, and coherent_mix
    {sqrt(1-s) I, sqrt(s) U} on all 2^m basis states, with U from
    coherent_mix_unitary (q0 locates its target)."""
    s, eye = channel.strength, np.eye(2, dtype=complex)
    if channel.label == "none":
        return (eye,)
    if channel.label == "dephase":
        return (np.sqrt(1 - s / 2) * eye, np.sqrt(s / 2) * Z_GATE)
    if channel.label == "depolarize":
        return (np.sqrt(1 - 3 * s / 4) * eye, *(np.sqrt(s / 4) * p for p in (X_GATE, Y_GATE, Z_GATE)))
    if channel.label == "coherent_mix":
        m = channel.num_qubits
        return (np.sqrt(1 - s) * np.eye(2 ** m, dtype=complex), np.sqrt(s) * coherent_mix_unitary(m // 2, q0))
    raise ValueError(f"no Kraus definition for channel kind {channel.label!r}")


def kraus_density(channel, mat, q0=None):
    """Exact channel action rho -> sum_j K_j rho K_j^dag: coherent_mix's
    dense operators from kraus_ops (q0 locates its target), and per-qubit
    operators kron-embedded on every qubit in turn."""
    ops = kraus_ops(channel, q0)
    if channel.label == "coherent_mix":
        return sum(k @ mat @ k.conj().T for k in ops)
    m = channel.num_qubits
    for q in range(m):
        embedded = [np.kron(np.kron(np.eye(2 ** q), k), np.eye(2 ** (m - q - 1))) for k in ops]
        mat = sum(e @ mat @ e.conj().T for e in embedded)
    return mat


def dense_scan_H(n, theta_plus, theta_minus, lo, hi, points=1_000_001):
    """Best point of objective_H on a uniform grid over [lo, hi]: returns
    (q, H(q), grid spacing)."""
    grid = np.linspace(lo, hi, points)
    vals = objective_H(n, grid, theta_plus, theta_minus)
    best = int(np.argmin(vals))
    return float(grid[best]), float(vals[best]), float(grid[1] - grid[0])


def minimize_H_rowwise(n, theta_plus, theta_minus):
    """Nested-grid search of objective_H on one scalar angle pair: a
    2048-point grid over [q_G, 1) (over [q_min, 1) when q_beta >= q_G), then
    65-point grids over the two cells around the best point until that
    bracket is at most 1e-10 wide."""
    qm, qb, qg = q_landmarks(n, theta_plus, theta_minus)
    warned = qb >= qg
    grid = np.linspace(qm if warned else qg, 1.0 - 1e-9, GRID_POINTS)
    evaluations = 0
    while True:
        vals = objective_H(n, grid, theta_plus, theta_minus)
        evaluations += grid.size
        best = int(np.argmin(vals))
        bracket = (float(grid[max(best - 1, 0)]), float(grid[min(best + 1, grid.size - 1)]))
        if bracket[1] - bracket[0] <= BRACKET_WIDTH:
            break
        grid = np.linspace(bracket[0], bracket[1], REFINE_POINTS)
    return OptimumReport(
        q_min=qm,
        q_beta=qb,
        q_G=qg,
        q_H=float(grid[best]),
        H_min=float(vals[best]),
        evaluations=evaluations,
        warned_full_domain=warned,
    )


def companion_roots(n, theta_plus, theta_minus):
    """The three roots of the stationary-point cubic of H for each pair of
    the broadcast 1-D arrays, as eigenvalues of a stack of 3 x 3 companion
    matrices (one ``eigvals`` call; non-finite entries read as 0): the
    route the closed-form roots of ``minimize_H`` replaced. Complex
    conjugate pairs come back with a nonzero imaginary part."""
    ns, tp, tm = np.broadcast_arrays(np.asarray(n), np.asarray(theta_plus, float), np.asarray(theta_minus, float))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        (gamma, eta), c = gamma_eta(ns, tp, tm), _per_n(ns)[2]
        scale = np.ldexp(1.0, -np.frexp(c)[1])
        c_2, c_4 = c * scale - 2.0 * scale, c * scale - 4.0 * scale
        lead = 2.0 * gamma * c_2
        companion = np.zeros((tp.size, 3, 3))
        companion[:, 0, 0] = -(3.0 * eta * c_2 - gamma * c_4) / lead
        companion[:, 0, 1] = 2.0 * eta * c_4 / lead
        companion[:, 0, 2] = 2.0 * eta * scale / lead
        companion[:, 1, 0] = companion[:, 2, 1] = 1.0
        return np.linalg.eigvals(np.where(np.isfinite(companion), companion, 0.0))


def minimize_H_eigvals(n, theta_plus, theta_minus):
    """``minimize_H`` with its cubic solved by ``companion_roots``: the best
    of max(q_G, q_beta) and the real roots in (that, 1), for n and angles
    that broadcast, with no domain or finiteness checks."""
    n_all, tp, tm = np.broadcast_arrays(np.asarray(n), np.asarray(theta_plus, float),
                                        np.asarray(theta_minus, float))
    shape, ns, tp, tm = tp.shape, n_all.ravel(), tp.ravel(), tm.ravel()
    qm, qb, qg = q_landmarks(ns, tp, tm)
    lowest = np.maximum(qg, qb)
    roots = companion_roots(ns, tp, tm)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        inside = (roots.imag == 0.0) & (roots.real > lowest[:, None]) & (roots.real < 1.0)
        candidates = np.concatenate([lowest[:, None], roots.real], axis=1)
        valid = np.concatenate([np.ones((tp.size, 1), bool), inside], axis=1)
        rows = np.nonzero(valid)[0]
        values = np.full(candidates.shape, np.inf)
        values[valid] = objective_H(ns[rows], candidates[valid], tp[rows], tm[rows])
    best = (np.arange(tp.size), np.argmin(values, axis=1))
    return OptimumReport(
        q_min=qm.reshape(shape),
        q_beta=qb.reshape(shape),
        q_G=qg.reshape(shape),
        q_H=candidates[best].reshape(shape),
        H_min=values[best].reshape(shape),
        evaluations=rows.size,
        warned_full_domain=(qb >= qg).reshape(shape),
    )


def sweep_csv_reference(table, path):
    """The sweep CSV through ``csv.writer``: one row per (n, example) pair,
    every field read at its own (i, j) position and each float formatted by
    its own ``format(x, ".12g")`` call, the route the per-n and per-example
    formatting of ``write_sweep_csv`` replaced."""
    ns, examples, report = table
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_HEADER)
        for i, n in enumerate(ns):
            for j, ex in enumerate(examples):
                floats = [ex.theta_plus, ex.theta_minus] + [getattr(report, key)[i, j] for key in _CSV_HEADER[4:]]
                writer.writerow([n, ex.label] + [format(x, ".12g") for x in floats])


def orbit_operator_dense(m, orbits):
    """2^m x 2^m matrix with entry (x, y) = orbits[(|x|, |y|, |x AND y|)],
    0 for unlisted triples, filled entry by entry."""
    dim = 2 ** m
    out = np.zeros((dim, dim))
    for x in range(dim):
        for y in range(dim):
            out[x, y] = orbits.get((x.bit_count(), y.bit_count(), (x & y).bit_count()), 0.0)
    return out


def block_spectrum_per_block(blocks, weights=None):
    """``symmetric.block_spectrum`` with one ``eigvalsh`` call per block:
    (eigenvalues, multiplicities) in block order."""
    m = blocks[0].shape[0] - 1
    keep = sorted(range(m + 1) if weights is None else set(weights))
    values, mults = [], []
    for k, block in enumerate(blocks):
        rows = [w - k for w in keep if k <= w <= m - k]
        if rows:
            vals = np.linalg.eigvalsh(block[np.ix_(rows, rows)])
            values.append(vals)
            mults += [johnson_multiplicity(m, k)] * len(vals)
    return np.concatenate(values), mults


def to_dense(op):
    """The full 2^m x 2^m matrix of a StrategyOperator, its blocks placed at
    their weight-basis indices."""
    m = op.num_qubits
    out = np.zeros((2 ** m, 2 ** m), dtype=op.dtype)
    for (j, k), block in op.blocks.items():
        rows, cols = WeightBasis(m, j).indices, WeightBasis(m, k).indices
        out[np.ix_(rows, cols)] += block
        if j != k:
            out[np.ix_(cols, rows)] += block.conj().T
    return out


def bipartite_top(op, j, k):
    """Top eigenvalue of a StrategyOperator's component on sectors j and k
    when both diagonal blocks are alpha I: [[alpha I, G], [G^dag, alpha I]]
    has eigenvalues alpha +- the singular values of G, so the top one is
    alpha + sqrt(lambda_max(G G^dag)).
    """
    alpha = op.blocks[(j, j)][0, 0]
    for w in (j, k):
        block = op.blocks[(w, w)]
        if np.count_nonzero(block - alpha * np.eye(block.shape[0])):
            raise ValueError(f"block ({w}, {w}) is not {alpha} times the identity")
    g = op.blocks[(j, k)]
    top, _ = eig_top2(g @ g.conj().T)
    return float(alpha + math.sqrt(top))


def placement_probabilities_by_evolution(n, q0, omega_a, omega_b, t, povm=None):
    """One evolve_phases and one Povm.probabilities per ordered placement
    (t1, t2), ordered by t1 and then t2."""
    povm = povm if povm is not None else Povm(n)
    m = 2 * n
    probe = make_target(n, q0)
    rows = []
    for t1, t2 in itertools.permutations(range(m), 2):
        omegas = np.zeros(m)
        omegas[t1] = omega_a
        omegas[t2] = omega_b
        rows.append(povm.probabilities(evolve_phases(probe, omegas, t)))
    return np.array(rows)


def placement_probabilities_float64(n, q0, omega_a, omega_b, t, povm=None):
    """The placement law by the route that the float32 counts replaced:
    the support gathered for every ket, all 64 bits of each index unpacked
    and cast to a float64 bit matrix, and B^T B formed in float64."""
    check_probe(n, q0)
    check_support_budget(n)
    if povm is None:
        povm = Povm(n)
    m = 2 * n
    a0, b0 = cmath.exp(0.5j * omega_a * t), cmath.exp(0.5j * omega_b * t)
    da, db = a0.conjugate() - a0, b0.conjugate() - b0
    placed = ~np.eye(m, dtype=bool)
    probs = []
    for idx, amps in povm.kets:
        v = amps.conj() * probe_on(n, np.sqrt(q0), np.sqrt(1.0 - q0), idx)
        support = np.flatnonzero(v)
        v = v[support]
        # qubit j's bit of each index, from the big-endian bytes of the index
        octets = idx[support].astype(">u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(octets, axis=1)[:, 64 - m :].astype(np.float64)
        ref = v[0] if v.size else 0.0
        dv = v - ref
        counts = bits.T @ bits
        r_re, s_re = _weighted_sums_float64(bits, dv.real)
        r_im, s_im = _weighted_sums_float64(bits, dv.imag)
        r = ref * np.diag(counts) + r_re + 1j * r_im
        s = ref * counts + s_re + 1j * s_im
        amp = a0 * b0 * (ref * v.size + dv.sum()) + a0 * db * r[None, :] + da * b0 * r[:, None] + da * db * s
        probs.append(np.abs(amp[placed]) ** 2)
    probs = np.array(probs).T
    return np.column_stack([probs, 1.0 - probs.sum(axis=1)])


def _weighted_sums_float64(bits, w):
    """(bits^T w, bits^T diag(w) bits) for real w by real products; 0 when w is 0."""
    return (bits.T @ w, bits.T @ (bits * w[:, None])) if w.any() else (0.0, 0.0)


class DenseKetPovm(Povm):
    """A Povm whose kets are given as 2^(2n) vectors and kept on their
    nonzero entries: the negative controls of the audit and of the
    orthonormality check."""

    def __init__(self, n, kets):
        self.n = n
        self.kets = tuple((np.flatnonzero(ket), np.asarray(ket, dtype=np.complex128)[np.flatnonzero(ket)])
                          for ket in kets)


def validate_povm(povm):
    """Check that the kets' Gram matrix is the identity within 1e-12.

    Orthonormal kets give orthogonal rank-1 projectors, so the remainder
    is a projector too: all four elements are positive and sum to I.
    Each entry is an inner product over the two supports' common indices.
    """
    gram = np.zeros((len(povm.kets), len(povm.kets)), dtype=np.complex128)
    for i, (idx_a, a) in enumerate(povm.kets):
        for j, (idx_b, b) in enumerate(povm.kets):
            _, at_a, at_b = np.intersect1d(idx_a, idx_b, assume_unique=True, return_indices=True)
            gram[i, j] = np.vdot(a[at_a], b[at_b])
    if np.max(np.abs(gram - np.eye(len(povm.kets)))) > 1e-12:
        raise ValueError("POVM kets are not orthonormal within 1e-12")


def build_povm(n):
    """Construct and validate the protocol measurement for 2n qubits."""
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    povm = Povm(n)
    validate_povm(povm)
    return povm


def _law(amplitudes):
    """OutcomeDistribution from the three kets' amplitudes, the fourth
    outcome as the remainder."""
    p = np.array([abs(a) ** 2 for a in amplitudes])
    p = np.append(p, 1.0 - p.sum())
    return OutcomeDistribution(float(p[0]), float(p[1]), float(p[2]), float(max(p[3], 0.0)))


def simulate_probs(scenario):
    """Outcome law computed by state evolution and measurement on the kets'
    supports.

    Evaluates the probe on each ket's indices, applies the local phases at
    positions t1 and t2 there (the factors of ``qcore.evolve_phases``, in
    its qubit order), and takes the inner product with the ket: the second
    route to ``analytic_probs``.
    """
    n, m = scenario.n, 2 * scenario.n
    fields = sorted([(scenario.t1 - 1, scenario.omega1), (scenario.t2 - 1, scenario.omega2)])
    amplitudes = []
    for idx, amps in Povm(n).kets:
        v = probe_on(n, np.sqrt(scenario.q0), np.sqrt(1.0 - scenario.q0), idx)
        for qubit, omega in fields:
            factor = cmath.exp(0.5j * omega * scenario.t)
            v = v * np.where((idx >> (m - 1 - qubit)) & 1, factor.conjugate(), factor)
        amplitudes.append(np.vdot(amps, v))
    return _law(amplitudes)


def dense_kets(povm):
    """The POVM's kets as 2^(2n) complex vectors, from their supports."""
    out = []
    for idx, amps in povm.kets:
        ket = np.zeros(2 ** (2 * povm.n), dtype=complex)
        ket[idx] = amps
        out.append(ket)
    return out


def simulate_probs_dense(scenario):
    """Outcome law by dense state evolution: the 2^(2n) probe, the local
    phases at t1 and t2 by evolve_phases, and inner products with the dense
    kets."""
    n = scenario.n
    omegas = np.zeros(2 * n)
    omegas[scenario.t1 - 1] = scenario.omega1
    omegas[scenario.t2 - 1] = scenario.omega2
    state = evolve_phases(make_target(n, scenario.q0), omegas, scenario.t)
    return _law([np.vdot(k, state.amps) for k in dense_kets(Povm(n))])


def pauli_witness_bound(n: int, q0: float) -> float:
    """Lower bound 2 sqrt(2 q0 q1 / C(2n,n)) on the all-X-on-one-half
    witness expectation of the target state.

    For n <= 5 the exact expectation is recomputed from the state vector
    and the inequality is verified before returning.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if not 0.0 < q0 < 1.0:
        raise ValueError(f"q0 must lie strictly between 0 and 1, got {q0}")
    bound = 2.0 * np.sqrt(2.0 * q0 * (1.0 - q0) / binom(2 * n, n))
    if n <= 5:
        amps = make_target(n, q0).amps
        flip = ((1 << n) - 1) << n
        idx = np.arange(1 << (2 * n))
        expectation = float(np.real(np.sum(amps.conj() * amps[idx ^ flip])))
        if expectation < bound - 1e-12:
            raise RuntimeError(
                f"witness self-check failed: expectation {expectation} below bound {bound}"
            )
    return float(bound)


_X_ROWS = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / SQ2


def _ghz_rows(r, x_conj):
    """Basis for an untrusted party: rows S^r Z^o |+> (o = 0, 1)."""
    phase = 1j ** r
    rows = np.array([[1.0, phase], [1.0, -phase]], dtype=np.complex128) / SQ2
    return rows[:, ::-1] if x_conj else rows


_GHZ_ROWS = {(r, x): _ghz_rows(r, x) for r in (0, 1) for x in (False, True)}


def _run_ghz_protocol(amps, parties, lam0, lam1, p, x_conj, rng):
    """GHZ-like subprotocol on the listed qubits; returns (accept, record).

    ``amps`` holds the parties' qubits alone, in the order of ``parties``.
    With probability p all parties are Z-measured and equal outcomes
    accept. Otherwise one trusted party k is chosen, the others measure
    with random phase settings r_i, and k measures in the basis derived
    from the parity data; outcome 0 accepts. x_conj conjugates every
    measurement by Pauli X.
    """
    count = len(parties)
    if p > 0.0 and rng.random() < p:
        outcomes, _ = measure(amps, range(count), rng)
        accept = len(set(outcomes)) == 1
        sub = {"type": "ghz", "a": 0, "k": None, "r": None, "o": list(outcomes), "x_conj": x_conj}
        return accept, sub
    k_pos = int(rng.integers(count))
    others = [j for j in range(count) if j != k_pos]
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
    # the trusted party is the one qubit left
    (o_k,), _ = measure(amps, [0], rng, [np.array([accept_ket, reject_ket])])
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

    ``amps`` holds the parties' qubits alone, in the order of ``parties``
    (ascending). A random pair is set aside, the rest are Z-measured, and
    the pair is measured in Z or X depending on how many excitations are
    missing.
    """
    count = len(parties)
    i = int(rng.integers(count))
    j = int(rng.integers(count - 1))
    if j >= i:
        j += 1
    pair = sorted((parties[i], parties[j]))
    o_rest, amps = measure(amps, [q for q in range(count) if q not in (i, j)], rng)
    s_rest = sum(o_rest)
    pair_basis = None
    pair_outcomes = None
    accept = False
    # the pair is the two qubits left, in ascending order
    if s_rest in (k, k - 2):
        pair_basis = "Z"
        pair_outcomes, _ = measure(amps, (0, 1), rng)
        want = 0 if s_rest == k else 1
        accept = pair_outcomes == (want, want)
    elif s_rest == k - 1:
        pair_basis = "X"
        pair_outcomes, _ = measure(amps, (0, 1), rng, [_X_ROWS, _X_ROWS])
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


def verify_copy_reference(copy, n, q0, p, rng, copy_index=0):
    """The per-copy verification measurement with the generic ``measure``
    at every stage, the trusted party's last qubit and the Dicke pair
    included: the route ``verify_copy`` replaced, drawing the same uniforms
    in the same order."""
    lam0, lam1 = lambda_map(n, q0)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    m = 2 * n
    if copy.num_qubits != m:
        raise ValueError(f"copy has {copy.num_qubits} qubits, expected {m}")
    subset = tuple(sorted(rng.permutation(m)[:n].tolist()))
    z_outcomes, amps = measure(copy.amps, subset, rng)
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


def run_robust_protocol_reference(scenario, plan, noise, rounds, rng):
    """The robust loop with one ``noise.apply_to_pure`` call per copy: each
    attempt's noise stream gives plan.M verified copies and, on acceptance,
    the sensing copy, the route ``run_robust_protocol`` replaced."""
    n, q0 = scenario.n, scenario.q0
    target = make_target(n, q0)
    omegas = np.zeros(2 * n)
    omegas[scenario.t1 - 1] = scenario.omega1
    omegas[scenario.t2 - 1] = scenario.omega2
    counts, transcripts, restarts = [0, 0, 0, 0], [], 0
    while sum(counts) < rounds:
        streams = rng.substream(len(transcripts))
        noise_gen = streams.substream(0).gen
        source = (noise.apply_to_pure(target, noise_gen) for _ in range(plan.M))
        ok, transcript = verify_batch(source, plan, streams.substream(1))
        transcripts.append(transcript)
        if not ok:
            restarts += 1
            continue
        evolved = evolve_phases(noise.apply_to_pure(target, noise_gen), omegas, scenario.t)
        probs = np.clip(Povm(n).probabilities(evolved), 0.0, None)
        probs /= probs.sum()
        counts[int(streams.substream(2).gen.choice(4, p=probs))] += 1
    freq = [c / rounds for c in counts]
    return RobustResult(rounds, restarts, tuple(counts), *estimate_angles(freq[0], freq[1], freq[2], n, q0),
                        tuple(transcripts))
