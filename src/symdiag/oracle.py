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
serves only equal_up_to_global_phase, the dense Clifford-sign check
(checks.check_clifford_signs) and the tracker's oracle comparison
(tracker.verify_against_oracle).  diagonal_levels decides hierarchy
levels of diagonal gates exactly, in integers.  The oracle owns its
qubit guard, MAX_DENSE_QUBITS, and its only state: read-only tables, one
per qubit count up to that guard (the basis table _basis_vectors, built
from diagonal.index_vectors, and the index weights _index_weights).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import ring
from .diagonal import SymForm, index_vectors
from .pauli import PauliLabel

#: tolerance of the dense comparisons (global phase, Clifford signs, the tracker replay)
ATOL = 1e-8

#: the one-qubit Hadamard, the factor of the dense H and partialH(t)
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

#: the dense oracle's qubit guard, up to which matrices, monomials and tables are built
MAX_DENSE_QUBITS = 4


def _check_dense_m(m: int) -> int:
    if m > MAX_DENSE_QUBITS:
        raise ValueError(f"dense oracle limited to m <= {MAX_DENSE_QUBITS}, got m={m}")
    return m


@functools.cache
def _basis_vectors(m: int) -> np.ndarray:
    """Read-only index_vectors(m), one shared table per m <= MAX_DENSE_QUBITS."""
    V = index_vectors(_check_dense_m(m))
    V.flags.writeable = False
    return V


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
    V = _basis_vectors(form.m)
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


def dense_unitary(gen) -> np.ndarray:
    """Dense unitary of a Clifford generator, built from its kind and params.

    H is H^(x m), partialH(t) is I_(2^t) (x) H^(x (m - t)), L_Q sends |v>
    to |vQ>, and T_R is diag(i^(v R v^T)), the level-2 gate of R.
    """
    m = _check_dense_m(gen.m)
    if gen.kind in ("H", "partialH"):
        t = gen.params.get("t", 0)
        out = np.eye(1 << t, dtype=complex)
        for _ in range(m - t):
            out = np.kron(out, _HADAMARD)
        return out
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
