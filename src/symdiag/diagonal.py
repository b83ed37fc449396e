"""Diagonal gates described by symmetric matrices over Z_{2^k}.

A symmetric m x m integer matrix R at level k fully describes the diagonal
gate whose entry at computational basis state v (a binary row vector) is
xi^(v R v^T mod 2^k) with xi = exp(2*pi*i / 2^k).  Basis states are indexed
big-endian: index(v) = sum_i v_i 2^(m-i), so v_1 is the most significant bit.

Conjugating a Hermitian Pauli by such a gate yields a global phase, a new
Pauli label, and a residual diagonal gate one level down, giving a recursion
that bottoms out in plain Pauli sign flips.  This module implements that
calculus exactly: evaluation, conjugation, tensor composition, the group law
on forms, and synthesis of a form from a target exponent list.  Labels
come in as PauliLabel values, validated once when they were built: the
conjugation functions check only that a label and a form share m.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import ring
from .pauli import PauliLabel


@dataclass(frozen=True, eq=False)
class SymForm:
    """Symmetric matrix over Z_{2^k} in mixed-modulus canonical form.

    Diagonal entries live in [0, 2^k); off-diagonal entries pick up a
    factor 2 inside v R v^T, so only their residue mod 2^(k-1) matters and
    they are reduced to [0, 2^(k-1)) on construction.  Negative inputs are
    normalized the same way.  Level k = 0 means the empty form: the gate
    is the identity regardless of entries.  The canonical matrix is stored
    as a read-only int64 array, never a view of the input.
    """

    entries: np.ndarray
    k: int

    def __post_init__(self):
        k = ring.check_level(self.k, minimum=0)
        mat = ring.as_integers(self.entries)
        if mat.size == 0:
            mat = mat.reshape(0, 0)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("entries must form a square matrix")
        asymmetric = mat != mat.T
        if asymmetric.any():
            i, j = np.argwhere(np.triu(asymmetric))[0]
            raise ValueError(f"matrix not symmetric at ({i},{j})")
        canon = mat % ring.modulus(max(k - 1, 0))
        np.fill_diagonal(canon, mat.diagonal() % ring.modulus(k))
        canon.flags.writeable = False
        object.__setattr__(self, "entries", canon)
        object.__setattr__(self, "k", k)

    def __eq__(self, other):
        same_k = isinstance(other, SymForm) and self.k == other.k
        return same_k and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.k, self.entries.tobytes()))

    @classmethod
    def zeros(cls, m: int, k: int) -> "SymForm":
        return cls(np.zeros((m, m), dtype=np.int64), k)

    @classmethod
    def from_matrix(cls, mat, k: int) -> "SymForm":
        """Same as SymForm(mat, k); bench/workloads.py still calls it."""
        return cls(mat, k)

    @property
    def m(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries.any()

    def z_pauli_label(self) -> PauliLabel:
        """A level-1 form is the Z-type Pauli E(0, diagonal of R)."""
        if self.k != 1:
            raise ValueError(f"level-{self.k} forms are not Pauli gates")
        return PauliLabel(np.zeros(self.m, dtype=np.int64), self.entries.diagonal())

    def to_dict(self) -> dict:
        return {"m": self.m, "k": self.k, "R": self.entries.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "SymForm":
        form = cls(d["R"], d["k"])
        if "m" in d and d["m"] != form.m:
            raise ValueError(f"declared m={d['m']} but R is {form.m}x{form.m}")
        return form

    def __str__(self) -> str:
        return f"SymForm(k={self.k}, R={self.entries.tolist()})"


@dataclass(frozen=True)
class ConjugationResult:
    """One conjugation step: phase exponent, output Pauli, residual form.

    The identity reads, exactly as matrices,

        gate(R, k) E(p) gate(R, k)^dagger
            = xi^phase_exponent * E(label) * gate(residual, k-1),

    with xi = exp(2*pi*i / 2^level).  The output label is reduced to its
    binary layers; the sign produced by that reduction is already folded
    into phase_exponent.
    """

    level: int
    phase_exponent: int
    label: PauliLabel
    residual: "SymForm"

    def to_dict(self) -> dict:
        return {
            "phi": self.phase_exponent,
            "label": self.label.to_dict(),
            "R_tilde": self.residual.entries.tolist(),
            "k_next": self.residual.k,
        }


class InfeasibleDiagonalError(Exception):
    """No symmetric form reproduces the requested exponent list.

    Carries a witness basis vector where verification failed; the failure
    is level-independent, since doubling exponents doubles both sides.
    """

    def __init__(self, witness: tuple[int, ...], level: int):
        self.witness = witness
        self.level = level
        super().__init__(
            f"no symmetric form matches the exponent at basis vector "
            f"{list(witness)} (level k={level})"
        )


def index_vectors(m: int) -> np.ndarray:
    """All binary vectors of length m as rows, in basis-index order."""
    if m < 0:
        raise ValueError("m must be non-negative")
    idx = np.arange(1 << m, dtype=np.int64)
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] >> shifts[None, :]) & 1


#: the dense oracle's qubit guard, up to which basis tables are shared
MAX_DENSE_QUBITS = 4


@functools.cache
def _basis_table(m: int) -> np.ndarray:
    """Read-only index_vectors(m), one shared table per m <= MAX_DENSE_QUBITS."""
    V = index_vectors(m)
    V.flags.writeable = False
    return V


def basis_index(v) -> int:
    """Big-endian index of a binary vector: v_1 is the most significant bit."""
    v = ring.as_bit_vector(v)
    out = 0
    for x in v:
        out = (out << 1) | int(x)
    return out


def diagonal_entries(form: SymForm) -> np.ndarray:
    """Exponent list [v R v^T mod 2^k] over all basis vectors in index order.

    Doubles over bits in O(2^m) time and memory: with v = (v_i, w) for
    the suffix w = (v_(i+1), ..., v_(m-1)), q(v) = q(w) + v_i lin(w), where
    lin(w) = R_ii + 2 w . R[i, i+1:] is itself built by doubling.  Sums
    wrap modulo 2^64 in int64, which 2^k divides, so reducing once at the
    end is exact.
    """
    m, R = form.m, form.entries
    out = np.zeros(1 << m, dtype=np.int64)
    lin = np.empty(1 << max(m - 1, 0), dtype=np.int64)
    for i in range(m - 1, -1, -1):
        n = 1 << (m - 1 - i)
        lin[0] = R[i, i]
        for t in range(m - 1, i, -1):
            s = 1 << (m - 1 - t)
            np.add(lin[:s], 2 * R[i, t], out=lin[s : 2 * s])
        np.add(out[:n], lin[:n], out=out[n : 2 * n])
    out %= ring.modulus(form.k)
    return out


def form_level(form: SymForm) -> int:
    """Clifford-hierarchy level of the gate of `form`, read off its entries.

    max(1, max over nonzero canonical R_ij of k - v2(R_ij)), with v2 the
    2-adic valuation.  A diagonal entry adds R_ii v_i to the exponent and
    an off-diagonal one adds 2 R_ij v_i v_j: a degree-2 term sits one
    level above a linear term with the same coefficient, and the factor 2
    takes that level back, so both kinds of entry count alike.  T is at
    level 3, P at 2, Z at 1, CZ (R_01 = 2, k=3) at 2 and CS (R_01 = 1) at
    3; the level-0 form is at level 1.  The smallest valuation is that of
    the bitwise OR of the entries; O(m^2).
    """
    low = int(np.bitwise_or.reduce(form.entries, axis=None))
    if low == 0:
        return 1
    return max(1, form.k - ((low & -low).bit_length() - 1))


def xor_carry(v, form: SymForm, w) -> int:
    """Carry term relating XOR to integer sums inside the quadratic form.

    For bit vectors v, w:  (v XOR w) R (v XOR w)^T
    = (v + w) R (v + w)^T - 4 * xor_carry(v, R, w)  (mod 2^k).
    It equals (v OR w) R (v AND w)^T.
    """
    v = ring.as_bit_vector(v)
    w = ring.as_bit_vector(w)
    ring.require_same_length(v, w)
    if len(v) != form.m:
        raise ValueError(f"length mismatch: vectors of {len(v)} vs form on {form.m}")
    meet = v * w
    return int(((v + w) - meet) @ form.entries @ meet) % ring.modulus(form.k)


def _layers(form: SymForm, p: PauliLabel):
    """Binary layers a0, a1, b0, b1 of p, after the one dimension check."""
    if p.m != form.m:
        raise ValueError(f"dimension mismatch: Pauli on {p.m}, form on {form.m}")
    return p.a & 1, (p.a >> 1) & 1, p.b & 1, (p.b >> 1) & 1


def residual_exponent_table(form: SymForm, labels, V: np.ndarray | None = None) -> np.ndarray:
    """Exponents of the residual diagonal of E(p), one row per label p, in
    one broadcast (levels k >= 2), at the basis rows of V: by default all
    basis vectors in index order, from a table shared up to MAX_DENSE_QUBITS.

    The constant part is the global phase exponent; the row-dependent part
    (2 + 2^(k-1)) v R a0 - 4 (v OR a0) R (v AND a0) is twice a quadratic
    form one level down.
    """
    if V is None:
        V = _basis_table(form.m) if form.m <= MAX_DENSE_QUBITS else index_vectors(form.m)
    k = form.k
    phi = np.array([global_phase_exponent(form, p) for p in labels], dtype=np.int64)
    a0 = np.array([p.a & 1 for p in labels], dtype=np.int64).reshape(len(labels), 1, form.m)
    R = form.entries
    meet = V * a0
    carry = np.einsum("nij,jk,nik->ni", V + a0 - meet, R, meet)
    vals = phi[:, None] + (2 + (1 << (k - 1))) * (a0[:, 0] @ R @ V.T) - 4 * carry
    return vals % ring.modulus(k)


def global_phase_exponent(form: SymForm, p: PauliLabel) -> int:
    """The v-independent part of the residual exponent of E(p) (levels k >= 2)."""
    k = form.k
    if k < 2:
        raise ValueError("global phase exponent needs level k >= 2")
    a0, a1, b0, b1 = _layers(form, p)
    R = form.entries
    val = (1 - (1 << (k - 2))) * int(a0 @ R @ a0) + (1 << (k - 1)) * (
        int(a0 @ b1) + int(b0 @ a1)
    )
    return val % ring.modulus(k)


def _label_step(form: SymForm, a0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    """Unreduced label b0 + a0 R (mod 2^max(k, 1)) of the row action
    [a0, b0] Gamma(R); its second binary layer is the sign that reducing
    the label mod 2 folds into the conjugation phase."""
    return (b0 + a0 @ form.entries) % ring.modulus(max(form.k, 1))


def residual_form(form: SymForm, p: PauliLabel) -> SymForm:
    """Symmetric form of the residual diagonal gate of E(p), one level down.

    Off the diagonal, R'_ij = -R_ij (a0_i XOR a0_j); on it,
    R'_ii = (1 + 2^(k-2) - 2 a0_i) (a0 R)_i.  Canonical at level k-1;
    O(m^2).  Requires k >= 2.
    """
    k = form.k
    if k < 2:
        raise ValueError("residual form needs level k >= 2")
    a0 = _layers(form, p)[0]
    R = form.entries
    raw = -R * (a0[:, None] ^ a0[None, :])
    np.fill_diagonal(raw, ((1 + (1 << (k - 2))) - 2 * a0) * (a0 @ R))
    return SymForm(raw, k - 1)


def conjugate(form: SymForm, p: PauliLabel) -> ConjugationResult:
    """Conjugate the Hermitian Pauli E(p) by the diagonal gate of `form`.

    For k >= 2 the result is xi^phi * E(a0, b0 + a0 R) * gate(R', k-1);
    the output label is reduced to binary layers with the reduction sign
    absorbed into phi, so the returned triple reproduces the conjugation
    exactly as matrices.

    For k = 1 the gate is itself a Pauli (a Z-type sign pattern), so the
    label passes through unchanged and only a sign remains; the residual
    is the empty level-0 form.
    """
    k = form.k
    a0, a1, b0, b1 = _layers(form, p)
    if k < 1:
        raise ValueError("conjugation needs level k >= 1")
    if k == 1:
        d = form.entries.diagonal()
        phi = (int(a0 @ d) + int(a0 @ b1) + int(a1 @ b0)) % 2
        label = PauliLabel(a0, b0)
        return ConjugationResult(1, phi, label, SymForm.zeros(form.m, 0))
    M = ring.modulus(k)
    phi = global_phase_exponent(form, p)
    w = _label_step(form, a0, b0)
    phi = (phi + (1 << (k - 1)) * int(a0 @ ((w >> 1) & 1))) % M
    label = PauliLabel(a0, w & 1)
    return ConjugationResult(k, phi, label, residual_form(form, p))


def full_recursion_trace(form: SymForm, p: PauliLabel) -> list[ConjugationResult]:
    """Conjugation steps at levels k, k-1, ..., 1.

    Each step conjugates the same input Pauli by the residual gate from
    the previous step, certifying the descent one level at a time.  A
    level-0 form (identity) yields an empty trace.
    """
    steps: list[ConjugationResult] = []
    current = form
    while current.k >= 1:
        res = conjugate(current, p)
        steps.append(res)
        current = res.residual
    return steps


def tensor(f1: SymForm, f2: SymForm) -> SymForm:
    """Block-diagonal form of the tensor product gate.

    The second factor must sit at a level l <= k of the first; its block is
    scaled by 2^(k-l) so both factors read phases in the same root of unity.
    """
    if f2.k > f1.k:
        raise ValueError(f"second factor level {f2.k} exceeds first level {f1.k}")
    m, n = f1.m, f2.m
    scale = 1 << (f1.k - f2.k)
    out = np.zeros((m + n, m + n), dtype=np.int64)
    out[:m, :m] = f1.entries
    out[m:, m:] = scale * f2.entries
    return SymForm(out, f1.k)


def _solve_weightwise(e: np.ndarray, m: int, k: int) -> np.ndarray | None:
    """Fix the diagonal from weight-1 exponents and off-diagonals from
    weight-2 exponents; None if an off-diagonal would need an odd half."""
    M = 1 << k
    R = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        R[i, i] = e[1 << (m - 1 - i)]
    for i in range(m):
        for j in range(i + 1, m):
            idx = (1 << (m - 1 - i)) | (1 << (m - 1 - j))
            t = int(e[idx] - R[i, i] - R[j, j]) % M
            if t % 2:
                return None
            R[i, j] = R[j, i] = t // 2
    return R


def synthesize(exponents, k_hint: int) -> SymForm:
    """Find the canonical form whose gate has the given diagonal exponents.

    The exponents index basis vectors big-endian modulo 2^k_hint; the
    first entry is treated as a global phase and subtracted from all.
    Weight-1 vectors fix the diagonal of R, weight-2 vectors fix the
    off-diagonals; if an off-diagonal value comes out odd, every exponent
    is doubled and the level incremented (one doubling always restores
    parity).  A final verification over all 2^m entries decides success;
    on failure the mismatching basis vector is raised as a witness, and no
    level escalation could ever repair it.
    """
    e = ring.as_integers(exponents)
    if e.ndim != 1:
        raise ValueError(f"exponents must be a flat list of integers, got shape {e.shape}")
    n = len(e)
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"exponent list length {n} is not a power of two >= 2")
    m = n.bit_length() - 1
    k = ring.check_level(k_hint)
    e = (e - e[0]) % (1 << k)
    for _ in range(2):
        R = _solve_weightwise(e, m, k)
        if R is None:
            k = ring.check_level(k + 1)
            e = (2 * e) % (1 << k)
            continue
        form = SymForm(R, k)
        bad = diagonal_entries(form) != e
        first = int(np.argmax(bad))
        if bad[first]:
            witness = tuple((first >> (m - 1 - i)) & 1 for i in range(m))
            raise InfeasibleDiagonalError(witness, k)
        return form
    raise AssertionError("unreachable: one doubling always fixes parity")


def group_add(f1: SymForm, f2: SymForm) -> SymForm:
    """Entrywise sum under the mixed-modulus rule; the group law on forms."""
    if (f1.m, f1.k) != (f2.m, f2.k):
        raise ValueError(
            f"mismatched forms: (m={f1.m}, k={f1.k}) vs (m={f2.m}, k={f2.k})"
        )
    return SymForm(f1.entries + f2.entries, f1.k)


def group_negate(f: SymForm) -> SymForm:
    """Inverse element for group_add."""
    return SymForm(-f.entries, f.k)


def group_order(m: int, k: int) -> int:
    """Number of distinct diagonal gates described by canonical forms."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ring.check_level(k)
    return (1 << (m * k)) * (1 << ((k - 1) * m * (m - 1) // 2))


def enumerate_canonical_forms(m: int, k: int):
    """Yield every canonical form at (m, k), group_order(m, k) in total."""
    if m < 1:
        raise ValueError("m must be >= 1")
    ring.check_level(k)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    for diag in itertools.product(range(1 << k), repeat=m):
        for off in itertools.product(range(1 << (k - 1)), repeat=len(pairs)):
            mat = np.diag(np.array(diag, dtype=np.int64))
            for (i, j), val in zip(pairs, off):
                mat[i, j] = mat[j, i] = val
            yield SymForm(mat, k)


def ccz_companion() -> SymForm:
    """Three-qubit form whose gate is exp(i*pi/8 Z(x)Z(x)Z) * CCZ.

    The equality holds up to the global phase exp(-i*pi/8).  Off-diagonal
    entries -3 = 5 (mod 8) reduce to 1 in canonical form without changing
    the gate.
    """
    return SymForm([[7, 5, 5], [5, 7, 5], [5, 5, 7]], 3)


def standard_gate_table() -> list[tuple[str, SymForm]]:
    """Named forms (all at level 3) for the standard one- and two-qubit
    diagonal gates: powers of T on one qubit, CZ/CP and one-sided P, Z
    embeddings on two qubits."""
    single = [
        ("I", 0),
        ("P", 2),
        ("Z", 4),
        ("Pdg", 6),
        ("T", 1),
        ("TZ", 5),
        ("Tdg", 7),
        ("TdgZ", 3),
    ]
    two = [
        ("CZ", [[0, 2], [2, 0]]),
        ("CP", [[0, 1], [1, 0]]),
        ("IxP", [[0, 0], [0, 2]]),
        ("IxZ", [[0, 0], [0, 4]]),
        ("PxI", [[2, 0], [0, 0]]),
        ("ZxI", [[4, 0], [0, 0]]),
    ]
    table = [(name, SymForm([[val]], 3)) for name, val in single]
    table += [(name, SymForm(mat, 3)) for name, mat in two]
    return table
