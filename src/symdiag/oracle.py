"""Dense complex-matrix ground truth at small qubit counts.

Everything here builds explicit 2^m x 2^m operators straight from the
definitions, independent of the symbolic calculus, and exists to verify
it.  Entries of all constructed operators have magnitude 1 or 0, so a
membership tolerance of 1e-8 (1e-12 for direct entry comparisons) leaves
orders of magnitude of headroom at m <= 4.
"""

from __future__ import annotations

import math

import numpy as np

from . import ring
from .diagonal import SymForm, basis_index, index_vectors
from .pauli import PauliLabel

#: tolerance for membership-style tests (hierarchy levels, sign resolution)
ATOL = 1e-8
#: tolerance for direct entrywise comparisons
ENTRY_ATOL = 1e-12

#: cost guard for generic dense construction
MAX_DENSE_QUBITS = 4
#: cost guard for the hierarchy level decision
MAX_LEVEL_QUBITS = 2


def _check_dense_m(m: int, guard: int = MAX_DENSE_QUBITS) -> int:
    if m > guard:
        raise ValueError(f"dense oracle limited to m <= {guard}, got m={m}")
    return m


def _dense_xz(a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Phaseless tensor product X^a1 Z^b1 (x) ... (x) X^am Z^bm.

    Column v holds (-1)^(v . b0) at row v XOR a0.
    """
    m = len(a0)
    n = 1 << m
    V = index_vectors(m)
    rows = np.arange(n) ^ basis_index(a0)
    signs = (-1.0) ** (V @ b0)
    out = np.zeros((n, n), dtype=complex)
    out[rows, np.arange(n)] = signs
    return out


def dense_pauli(p: PauliLabel) -> np.ndarray:
    """Dense Hermitian Pauli E(a, b) with its i^(a.b mod 4) prefactor."""
    _check_dense_m(p.m)
    a, b = p.a_vec, p.b_vec
    phase = 1j ** (int(a @ b) % 4)
    return phase * _dense_xz(a & 1, b & 1)


def dense_diagonal(form: SymForm) -> np.ndarray:
    """Dense diagonal gate diag(exp(2*pi*i * (v R v^T) / 2^k))."""
    _check_dense_m(form.m)
    if form.k == 0:
        return np.eye(1 << form.m, dtype=complex)
    M = ring.modulus(form.k)
    V = index_vectors(form.m)
    exps = np.einsum("ij,jk,ik->i", V, form.matrix, V) % M
    return np.diag(np.exp(2j * math.pi * exps / M))


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
    column and the weight-1 columns, then verified entrywise.
    """
    n = u.shape[0]
    m = n.bit_length() - 1
    col0 = u[:, 0]
    row = int(np.argmax(np.abs(col0)))
    lead = col0[row]
    kappa = next((c for c in range(4) if abs(lead - 1j**c) <= tol), None)
    if kappa is None:
        return None
    a = np.array([(row >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.int64)
    b = np.zeros(m, dtype=np.int64)
    for i in range(m):
        col = 1 << (m - 1 - i)
        val = u[col ^ row, col] / lead
        if abs(val - 1.0) <= tol:
            b[i] = 0
        elif abs(val + 1.0) <= tol:
            b[i] = 1
        else:
            return None
    if np.allclose(u, (1j**kappa) * _dense_xz(a, b), atol=tol):
        return kappa, tuple(int(x) for x in a), tuple(int(x) for x in b)
    return None


def _hierarchy_generators(m: int) -> list[np.ndarray]:
    gens = []
    for i in range(m):
        e = tuple(1 if j == i else 0 for j in range(m))
        zero = (0,) * m
        gens.append(dense_pauli(PauliLabel(e, zero)))
        gens.append(dense_pauli(PauliLabel(zero, e)))
    return gens


def _in_level(u: np.ndarray, k: int, gens: list[np.ndarray], tol: float) -> bool:
    if k == 1:
        return pauli_decomposition(u, tol) is not None
    return all(_in_level(conjugate_dense(u, g), k - 1, gens, tol) for g in gens)


def hierarchy_level(u: np.ndarray, max_k: int = 5, tol: float = ATOL):
    """Smallest level k <= max_k containing u, or None if undecided.

    Level 1 is a strict Pauli match (i-power times a tensor of X, Z);
    higher levels recurse through conjugation of the single-qubit X- and
    Z-type generators, which generate all Paulis.  The recursion through
    generators alone is exact up to level 3 (level-2 membership forms a
    group); beyond that it is the standard generator relaxation.
    """
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
