"""Dense and monomial ground truth at small qubit counts.

Everything here is built straight from the definitions, independent of
the symbolic calculus, and exists to verify it: explicit 2^m x 2^m
operators, exponent lists over the full table of basis vectors, and
monomials.  A monomial is a pair (rows, theta) of int64 arrays: column v
holds omega^theta[v] at row rows[v], omega = exp(2*pi*i / 2^K).  Paulis,
diagonal gates and their products are monomial, so identities among them
are compared exactly, mod 2^K; dense Paulis and dense L_Q are their
monomials densified by dense_monomial, with entries rounded to about
1e-16.  ATOL (1e-8, with orders of magnitude of headroom at m <= 4)
serves only the dense Clifford-sign check, hierarchy_level and the
tracker's oracle comparison.  diagonal_levels decides hierarchy levels
of diagonal gates exactly, in integers; the dense hierarchy_level covers
general unitaries, but only up to level 3 and m <= 2.  The only state
kept is read-only tables, one per qubit count up to the dense guard.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ring
from .diagonal import MAX_DENSE_QUBITS, SymForm, _basis_table
from .pauli import PauliLabel

#: tolerance of the dense comparisons (Clifford signs, dense levels, the tracker replay)
ATOL = 1e-8

#: cost guard for the hierarchy level decision
MAX_LEVEL_QUBITS = 2
#: highest level the generator recursion of hierarchy_level decides exactly
MAX_EXACT_LEVEL = 3


def _check_dense_m(m: int, guard: int = MAX_DENSE_QUBITS) -> int:
    if m > guard:
        raise ValueError(f"dense oracle limited to m <= {guard}, got m={m}")
    return m


@functools.cache
def _basis_vectors(m: int) -> np.ndarray:
    """Read-only index_vectors(m), the table diagonal shares, for m <= MAX_DENSE_QUBITS."""
    return _basis_table(_check_dense_m(m))


@functools.cache
def _index_weights(m: int) -> np.ndarray:
    """Read-only big-endian weights 2^(m-1), ..., 1: a bit vector's index is v @ weights."""
    w = 1 << np.arange(_check_dense_m(m) - 1, -1, -1, dtype=np.int64)
    w.flags.writeable = False
    return w


def dense_monomial(mono, K: int) -> np.ndarray:
    """The dense 2^m x 2^m matrix of the monomial (rows, theta) at 2^K-th roots."""
    rows, theta = mono
    n = len(rows)
    out = np.zeros((n, n), dtype=complex)
    out[rows, np.arange(n)] = np.exp(theta * (2j * math.pi / (1 << K)))
    return out


def dense_pauli(p: PauliLabel) -> np.ndarray:
    """Dense Hermitian Pauli E(a, b), densified from its monomial."""
    return dense_monomial(monomial_pauli(p.a, p.b, 2), 2)


def dense_exponents(form: SymForm) -> np.ndarray:
    """Exponent list [v R v^T mod 2^k], one einsum over the basis table."""
    V = _basis_vectors(_check_dense_m(form.m))
    return np.einsum("ij,jk,ik->i", V, form.entries, V) % ring.modulus(form.k)


def dense_diagonal(form: SymForm) -> np.ndarray:
    """Dense diagonal gate diag(exp(2*pi*i * (v R v^T) / 2^k))."""
    return np.diag(np.exp(2j * math.pi * dense_exponents(form) / ring.modulus(form.k)))


def monomial_pauli(a, b, K: int) -> tuple[np.ndarray, np.ndarray]:
    """E(a, b) = i^(a.b mod 4) X^a0 Z^b0 at K >= 2, or one per row of label
    tables: rows v XOR a0, theta 2^(K-2) (a.b mod 4) + 2^(K-1) (v.b0 mod 2)."""
    m = a.shape[-1]
    rows = np.arange(1 << m) ^ ((a & 1) @ _index_weights(m))[..., None]
    signs = (b & 1) @ _basis_vectors(m).T % 2
    theta = (1 << (K - 2)) * ((a * b).sum(-1) % 4)[..., None] + (1 << (K - 1)) * signs
    return rows, theta % (1 << K)


def monomial_diagonal(forms, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Monomials of the level-k gates of forms that share (m, k), k <= K:
    one row each of identity rows and theta = 2^(K-k) e, for the exponent
    lists e = [v R v^T mod 2^k] of all forms in one einsum."""
    (m, k), = {(f.m, f.k) for f in forms}  # ValueError unless exactly one
    V = _basis_vectors(m)
    e = np.einsum("vi,nij,vj->nv", V, np.array([f.entries for f in forms]), V)
    return np.broadcast_to(np.arange(1 << m), e.shape), (e % ring.modulus(k)) << (K - k)


def monomial_product(x, y, K: int) -> tuple[np.ndarray, np.ndarray]:
    """(r1, t1)(r2, t2) = (r1[r2], t2 + t1[r2]) mod 2^K; on stacks of
    monomials, one per row, row by row (a single monomial broadcasts)."""
    (r1, t1), (r2, t2) = x, y
    at = (np.arange(len(r1))[:, None], r2) if r1.ndim == 2 else r2
    return r1[at], (t2 + t1[at]) % (1 << K)


def _is_z_type(d: np.ndarray, half: int) -> bool:
    """True iff d = half * f for a GF(2)-linear f with values in {0, 1}.

    For d = e - e[0] mod 2^k and half = 2^(k-1) this says that the
    diagonal xi^e is a Z-type Pauli up to phase, i.e. at level 1.  A
    linear f is fixed by its values at the weight-1 basis vectors.
    """
    f, rem = np.divmod(d, half)
    if rem.any():
        return False
    m = len(d).bit_length() - 1
    return np.array_equal(_basis_vectors(m) @ f[_index_weights(m)] % 2, f)


def diagonal_levels(table, k: int) -> list[int]:
    """Hierarchy level of the diagonal gate xi^e, for each row e of table.

    e is an exponent list mod 2^k over the basis in index order, and
    xi = exp(2*pi*i / 2^k).  Level 1 means e - e[0] is 2^(k-1) times a
    GF(2)-linear function of v.  Since D X^a D^dagger = X^a Delta_a with
    Delta_a(v) = e(v XOR a) - e(v), and every level is closed under
    Pauli products, D is at level 1 + the largest level of Delta_a,
    a != 0.  A diagonal with 2^k-th root entries on m qubits sits at
    level <= k + m - 1, so the recursion ends.  Integers throughout, no
    tolerance; the level of a normalised difference list does not depend
    on its row, so all rows share one memo.
    """
    e = ring.as_integers(table)
    n = e.shape[1] if e.ndim == 2 else 0
    if n & (n - 1) or n == 0:
        raise ValueError(f"need a 2-d exponent table of power-of-two row length, got shape {e.shape}")
    _check_dense_m(n.bit_length() - 1)
    M = ring.modulus(ring.check_level(k))
    shifts = np.arange(n) ^ np.arange(1, n)[:, None]
    memo: dict[bytes, int] = {}

    def level(d: np.ndarray) -> int:
        key = d.tobytes()
        if key not in memo:
            diffs = d[shifts] - d
            memo[key] = 1 if _is_z_type(d, M >> 1) else 1 + max(
                level(x) for x in (diffs - diffs[:, :1]) % M)
        return memo[key]

    return [level(d) for d in (e - e[:, :1]) % M]


def _hadamard(m: int) -> np.ndarray:
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.eye(1, dtype=complex)
    for _ in range(m):
        out = np.kron(out, h)
    return out


def dense_unitary(gen) -> np.ndarray:
    """Dense unitary of a Clifford generator, built from its kind and params.

    H is H^(x m), partialH(t) is I_(2^t) (x) H^(x (m - t)), L_Q sends |v>
    to |vQ>, and T_R is diag(i^(v R v^T)), the level-2 gate of R.
    """
    m = _check_dense_m(gen.m)
    if gen.kind == "H":
        return _hadamard(m)
    if gen.kind == "partialH":
        t = gen.params["t"]
        return np.kron(np.eye(1 << t, dtype=complex), _hadamard(m - t))
    if gen.kind == "L_Q":
        rows = (_basis_vectors(m) @ gen.params["Q"] % 2) @ _index_weights(m)
        return dense_monomial((rows, np.zeros_like(rows)), 1)
    if gen.kind == "T_R":
        return dense_diagonal(SymForm(gen.params["R"], 2))
    raise ValueError(f"unknown Clifford generator kind: {gen.kind!r}")


def conjugate_dense(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """u p u^dagger."""
    if u.shape != p.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {p.shape}")
    return u @ p @ u.conj().T


def is_unitary(u: np.ndarray, tol: float = ATOL) -> bool:
    n = u.shape[0]
    return np.allclose(u @ u.conj().T, np.eye(n), atol=tol)


def equal_up_to_global_phase(u: np.ndarray, v: np.ndarray, tol: float = ATOL) -> bool:
    """True iff u = exp(i theta) v for some real theta, to tolerance."""
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    flat_v = v.ravel()
    pivot = int(np.argmax(np.abs(flat_v)))
    if abs(flat_v[pivot]) <= tol:
        return bool(np.all(np.abs(u) <= tol))
    theta = u.ravel()[pivot] / flat_v[pivot]
    if abs(abs(theta) - 1.0) > tol:
        return False
    return bool(np.allclose(u, theta * v, atol=tol))


def pauli_decomposition(u: np.ndarray, tol: float = ATOL):
    """Decompose u as i^kappa D(a, b) if possible, else None.

    Such a matrix has one nonzero per column, at row v XOR a, with value
    i^kappa (-1)^(v.b); the candidate (kappa, a, b) is read off the first
    column and the weight-1 columns, then checked against dense_pauli.
    """
    w = _index_weights(u.shape[0].bit_length() - 1)  # the weight-1 columns
    row = int(np.argmax(np.abs(u[:, 0])))
    kappa = round(np.angle(u[row, 0]) / (math.pi / 2)) % 4
    a = (row & w > 0).astype(np.int64)
    b = (np.real(u[w ^ row, w] * np.conj(u[row, 0])) < 0).astype(np.int64)
    if np.allclose(u, 1j ** ((kappa - int(a @ b)) % 4) * dense_pauli(PauliLabel(a, b)), atol=tol):
        return kappa, tuple(a.tolist()), tuple(b.tolist())
    return None


@functools.cache
def _hierarchy_generators(m: int) -> tuple[np.ndarray, ...]:
    """Read-only dense X_j and Z_j, built once per m <= MAX_DENSE_QUBITS."""
    zero = np.zeros(m, dtype=np.int64)
    gens = []
    for e in np.eye(m, dtype=np.int64):
        gens.append(dense_pauli(PauliLabel(e, zero)))
        gens.append(dense_pauli(PauliLabel(zero, e)))
    for g in gens:
        g.flags.writeable = False
    return tuple(gens)


def _in_level(u: np.ndarray, k: int, gens: tuple[np.ndarray, ...], tol: float) -> bool:
    if k == 1:
        return pauli_decomposition(u, tol) is not None
    return all(_in_level(conjugate_dense(u, g), k - 1, gens, tol) for g in gens)


def hierarchy_level(u: np.ndarray, max_k: int = MAX_EXACT_LEVEL, tol: float = ATOL):
    """Smallest level k <= max_k containing u, or None if there is none.

    The reference for general, non-diagonal unitaries; diagonal gates have
    the exact integer rule diagonal_levels.  Level 1 is a strict Pauli
    match (i-power times a tensor of X, Z); higher levels recurse through
    conjugation of the single-qubit X- and Z-type generators, which
    generate all Paulis.  The recursion through generators alone is exact
    up to level 3, because level-2 membership forms a group.  Above that
    it is only a relaxation that can report a level too low, so
    max_k > MAX_EXACT_LEVEL raises ValueError.
    """
    if max_k > MAX_EXACT_LEVEL:
        raise ValueError(f"max_k={max_k} exceeds {MAX_EXACT_LEVEL}, the highest exact level")
    n = u.shape[0]
    m = n.bit_length() - 1
    if 1 << m != n:
        raise ValueError(f"operator dimension {n} is not a power of two")
    _check_dense_m(m, MAX_LEVEL_QUBITS)
    if not is_unitary(u, tol):
        raise ValueError("hierarchy level is defined for unitary operators only")
    gens = _hierarchy_generators(m)
    for k in range(1, max_k + 1):
        if _in_level(u, k, gens, tol):
            return k
    return None
