"""Independent exact and dense arithmetic the benchmark checks outputs with.

Nothing here calls the package: quadratic forms are evaluated with plain
integer numpy, and the dense operators are built straight from their
definitions.  Conventions match the package: a form R at level k gives the
gate diag(xi^(v R v^T mod 2^k)) with xi = exp(2*pi*i / 2^k); basis states
are indexed big-endian (v_1 is the most significant bit); the Hermitian
Pauli E(a, b) is i^(a.b) X^a1 Z^b1 (x) ... (x) X^am Z^bm.
"""

from __future__ import annotations

import numpy as np

#: entrywise tolerance for dense comparisons; every entry has modulus 0 or 1
DENSE_ATOL = 1e-8


def random_form(rng: np.random.Generator, m: int, k: int) -> np.ndarray:
    """Canonical symmetric matrix at level k: diagonal in [0, 2^k),
    off-diagonal in [0, 2^(k-1))."""
    upper = np.triu(rng.integers(0, 1 << (k - 1), size=(m, m), dtype=np.int64), 1)
    R = upper + upper.T
    R[np.diag_indices(m)] = rng.integers(0, 1 << k, size=m, dtype=np.int64)
    return R


def quad(V: np.ndarray, R: np.ndarray) -> np.ndarray:
    """v R v^T for every row v of V, as exact integers (no reduction)."""
    return np.sum((V @ R) * V, axis=1)


def conjugation_holds(R, k, a, b, phi, label_a, label_b, R_next, V) -> bool:
    """Check one conjugation step exactly on the basis vectors in V.

    The claim is gate(R, k) E(a, b) gate(R, k)^dagger
    = xi^phi E(label) gate(R_next, k-1).  Applied to |v> both sides give
    a multiple of |v XOR a0>; the coefficients are compared as exponents of
    a 2^K-th root of unity, K = max(k, 2), so k = 1 (xi = -1) fits too:

        xi^(q(v^a0) - q(v)) i^(a.b) (-1)^(b0.v)
          == xi^phi i^(a0.w0) (-1)^(w0.v) xi^(2 q'(v)).
    """
    a0, b0 = a & 1, b & 1
    if not np.array_equal(label_a, a0) or np.any((label_b != 0) & (label_b != 1)):
        return False
    K = max(k, 2)
    s = 1 << (K - k)
    lhs = (
        s * (quad(V ^ a0, R) - quad(V, R))
        + (1 << (K - 2)) * int(a @ b)
        + (1 << (K - 1)) * (V @ b0)
    )
    rhs = (
        s * (phi + 2 * quad(V, R_next))
        + (1 << (K - 2)) * int(a0 @ label_b)
        + (1 << (K - 1)) * (V @ label_b)
    )
    return not np.any((lhs - rhs) % (1 << K))


def exponent_list(R: np.ndarray, k: int) -> np.ndarray:
    """[v R v^T mod 2^k] over all basis vectors in index order, O(2^m).

    Built suffix by suffix: prepending bit i as the new most significant
    bit adds R_ii + 2 sum_{l>i} v_l R_il to the entries where it is set.
    """
    m = R.shape[0]
    M = 1 << k
    e = np.zeros(1, dtype=np.int64)
    for i in range(m - 1, -1, -1):
        cross = np.zeros(1, dtype=np.int64)
        for col in range(m - 1, i, -1):
            cross = np.concatenate([cross, cross + R[i, col]])
        e = np.concatenate([e, (e + R[i, i] + 2 * cross) % M])
    return e


def witness_mismatches(e: np.ndarray, m: int, k: int, w) -> bool:
    """True iff no quadratic form at any level reproduces e at basis vector w.

    The weight-1 and weight-2 entries fix every candidate form modulo 2^k
    (an odd off-diagonal only raises the level), so e is quadratic at w iff
    e(w) - e(0) = sum_i d_i w_i + sum_{i<j} t_ij w_i w_j, with d and t read
    off those entries.
    """
    def at(*bits):
        return int(e[sum(1 << (m - 1 - i) for i in bits)]) - int(e[0])

    support = [i for i, x in enumerate(w) if int(x)]
    value = sum(at(i) for i in support)
    for x, i in enumerate(support):
        for j in support[x + 1:]:
            value += at(i, j) - at(i) - at(j)
    return (at(*support) - value) % (1 << k) != 0


# ---------------------------------------------------------------- dense


def dense_pauli(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    out = np.eye(1, dtype=complex)
    for ai, bi in zip(a & 1, b & 1):
        f = np.linalg.matrix_power(x, int(ai)) @ np.linalg.matrix_power(z, int(bi))
        out = np.kron(out, f)
    return (1j ** (int(a @ b) % 4)) * out


def basis_vectors(m: int) -> np.ndarray:
    idx = np.arange(1 << m, dtype=np.int64)
    return (idx[:, None] >> np.arange(m - 1, -1, -1)[None, :]) & 1


def dense_form(R, k: int) -> np.ndarray:
    R = np.asarray(R, dtype=np.int64)
    m = R.shape[0]
    if k == 0:
        return np.eye(1 << m, dtype=complex)
    q = quad(basis_vectors(m), R) % (1 << k)
    return np.diag(np.exp(2j * np.pi * q / (1 << k)))


def _hadamard(n: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.eye(1, dtype=complex)
    for _ in range(n):
        out = np.kron(out, h)
    return out


def dense_clifford(m: int, gen: str, params: dict) -> np.ndarray:
    """Dense unitary of one Clifford layer in the circuit-dict encoding."""
    if gen == "H":
        return _hadamard(m)
    if gen == "partialH":
        t = int(params["t"])
        return np.kron(np.eye(1 << t, dtype=complex), _hadamard(m - t))
    if gen == "T_R":
        return dense_form(params["R"], 2)
    if gen == "L_Q":
        Q = np.asarray(params["Q"], dtype=np.int64)
        V = basis_vectors(m)
        weights = 1 << np.arange(m - 1, -1, -1)
        rows = ((V @ Q) % 2) @ weights
        out = np.zeros((1 << m, 1 << m), dtype=complex)
        out[rows, np.arange(1 << m)] = 1.0
        return out
    raise ValueError(f"unknown Clifford layer {gen!r}")


def dense_circuit(d: dict) -> np.ndarray:
    m = int(d["m"])
    u = np.eye(1 << m, dtype=complex)
    for layer in d["layers"]:
        if layer["type"] == "diagonal":
            g = dense_form(layer["R"], int(layer["k"]))
        else:
            g = dense_clifford(m, layer["gen"], layer.get("params", {}))
        u = g @ u
    return u
