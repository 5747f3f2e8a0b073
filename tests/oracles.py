"""Brute-force oracles shared by the test modules.

These rebuild the acceptance operators by enumerating every verifier
choice (measurement settings and outcomes) from first principles, with no
closed-form shortcuts, so agreement with the library is a real check. The
exact Kraus-sum action of a noise channel checks its sampled trajectories.
"""

import itertools

import numpy as np

SQ2 = np.sqrt(2.0)
PLUS = np.array([1.0, 1.0]) / SQ2
S_GATE = np.diag([1.0, 1.0j])
Z_GATE = np.diag([1.0, -1.0]).astype(complex)
X_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


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


def x_conjugate_dense(mat, m):
    """X^{tensor m} M X^{tensor m} by index complementation."""
    dim = 2 ** m
    perm = np.arange(dim) ^ (dim - 1)
    return mat[np.ix_(perm, perm)]


def kraus_density(channel, mat):
    """Exact channel action rho -> sum_j K_j rho K_j^dag, with per-qubit
    operators kron-embedded on every qubit in turn."""
    m = channel.num_qubits
    if not channel.per_qubit:
        return sum(k @ mat @ k.conj().T for k in channel.ops)
    for q in range(m):
        embedded = [np.kron(np.kron(np.eye(2 ** q), k), np.eye(2 ** (m - q - 1))) for k in channel.ops]
        mat = sum(e @ mat @ e.conj().T for e in embedded)
    return mat
