"""Binary and integer symplectic matrices.

gamma_matrix builds the upper-triangular block lift Gamma(R) = [[I, R],
[0, I]] of a symmetric form.  It satisfies the symplectic condition modulo
2 (is_binary_symplectic, the one such check) and carries the label part of
diagonal-gate conjugation: apply_gamma computes [a0, b0] Gamma(R) with the
same row action that diagonal's conjugation table uses.  The standard Clifford
generators are symbolic: each carries its binary symplectic F and the
parameters of its kind.  They are the transversal Hadamard, basis changes
|v> -> |vQ>, Clifford diagonal phase layers (whose F is Gamma(R) at level
2), and partial Hadamards on a suffix of the qubits.  clifford_conjugate
maps a binary Pauli through any of them exactly, sign included, with one
symbolic rule per kind; a phase layer's rule is apply_gamma plus a sign
read off the second binary layer of its unreduced output.  No dense
matrix is built (oracle.dense_unitary builds one for verification).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import ring
from .diagonal import SymForm, _label_step
from .pauli import PauliLabel


def omega(m: int) -> np.ndarray:
    """The symplectic form [[0, I], [I, 0]] on 2m-bit row vectors."""
    out = np.zeros((2 * m, 2 * m), dtype=np.int64)
    out[:m, m:] = np.eye(m, dtype=np.int64)
    out[m:, :m] = np.eye(m, dtype=np.int64)
    return out


def is_binary_symplectic(F: np.ndarray) -> bool:
    """Check F Omega F^T = Omega over Z_2."""
    F = np.asarray(F, dtype=np.int64)
    if F.ndim != 2 or F.shape[0] != F.shape[1] or F.shape[0] % 2:
        return False
    m = F.shape[0] // 2
    w = omega(m)
    return bool(np.array_equal((F @ w @ F.T) % 2, w % 2))


def gamma_matrix(form: SymForm) -> np.ndarray:
    """Integer symplectic lift Gamma(R) = [[I, R], [0, I]] of a symmetric form."""
    m = form.m
    out = np.eye(2 * m, dtype=np.int64)
    out[:m, m:] = form.entries
    return out


def apply_gamma(label: PauliLabel, form: SymForm) -> tuple[PauliLabel, np.ndarray]:
    """Row-vector action [a0, b0] Gamma(R) = [a0, b0 + a0 R] on a binary label.

    Returns both the mod-2 reduced output label and the unreduced integer
    vector b0 + a0 R (mod 2^k); the second binary layer of the unreduced
    vector feeds the phase bookkeeping of the conjugation recursion, so the
    caller chooses which to keep.
    """
    if not label.is_binary():
        raise ValueError("apply_gamma expects a binary label")
    if label.m != form.m:
        raise ValueError(f"dimension mismatch: label on {label.m}, form on {form.m}")
    unreduced = _label_step(form, label.a, label.b)
    return PauliLabel(label.a, unreduced & 1), unreduced


def gf2_inverse(Q: np.ndarray) -> np.ndarray:
    """Inverse of a binary matrix over GF(2); raises if singular."""
    Q = np.asarray(Q, dtype=np.int64) % 2
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError("expected a square matrix")
    n = Q.shape[0]
    aug = np.concatenate([Q.copy(), np.eye(n, dtype=np.int64)], axis=1)
    row = 0
    for col in range(n):
        pivots = np.nonzero(aug[row:, col])[0]
        if len(pivots) == 0:
            raise ValueError("matrix is singular over GF(2)")
        pivot = row + pivots[0]
        if pivot != row:
            aug[[row, pivot]] = aug[[pivot, row]]
        for r in range(n):
            if r != row and aug[r, col]:
                aug[r] = (aug[r] + aug[row]) % 2
        row += 1
    return aug[:, n:]


def is_permutation_matrix(Q: np.ndarray) -> bool:
    """A 0/1 matrix with one 1 in every row and every column; O(m^2)."""
    Q = np.asarray(Q, dtype=np.int64)
    return bool(
        np.all((Q == 0) | (Q == 1))
        and np.all(Q.sum(axis=0) == 1)
        and np.all(Q.sum(axis=1) == 1)
    )


@dataclass(eq=False)
class CliffordGen:
    """A Table-style Clifford generator, held symbolically.

    F is its binary symplectic matrix and params its defining parameters
    (t, Q or R), as to_dict writes them.  The per-layer constants of the
    conjugation rules (form, perm) are derived from params, once per
    layer, on first use.
    """

    kind: str
    F: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.F.shape[0] // 2

    @cached_property
    def form(self) -> SymForm:
        """The level-2 form of a T_R layer."""
        return SymForm(self.params["R"], 2)

    @cached_property
    def perm(self) -> np.ndarray | None:
        """For an L_Q layer whose Q is a permutation, the index p with
        Q^-1 R Q^-T = R[p][:, p]; None otherwise."""
        Q = self.params["Q"]
        return np.argmax(Q, axis=0) if is_permutation_matrix(Q) else None

    def to_dict(self) -> dict:
        out = {"gen": self.kind, "params": {}}
        for key, val in self.params.items():
            out["params"][key] = val.tolist() if isinstance(val, np.ndarray) else val
        return out


def hadamard_generator(m: int) -> CliffordGen:
    """Transversal Hadamard H^(x m): F = Omega."""
    return CliffordGen("H", omega(m))


def basis_change_generator(Q) -> CliffordGen:
    """Basis change |v> -> |vQ> for invertible binary Q.

    F is block-diagonal with blocks Q and Q^-T; covers CNOT circuits and
    qubit permutations.
    """
    Q = ring.as_integers(Q) % 2
    Qinv = gf2_inverse(Q)
    m = Q.shape[0]
    F = np.zeros((2 * m, 2 * m), dtype=np.int64)
    F[:m, :m] = Q
    F[m:, m:] = Qinv.T
    return CliffordGen("L_Q", F, {"Q": Q})


def phase_generator(R) -> CliffordGen:
    """Clifford diagonal layer diag(i^(v R v^T mod 4)) for binary symmetric R.

    Equals the level-2 gate of the form R; covers CZ and P layers.
    """
    R = ring.as_integers(R)
    if not np.array_equal(R, R.T):
        raise ValueError("phase layer needs a symmetric matrix")
    if R.size and (R.min() < 0 or R.max() > 1):
        raise ValueError("phase layer needs a binary matrix")
    return CliffordGen("T_R", gamma_matrix(SymForm(R, 2)), {"R": R})


def partial_hadamard_generator(m: int, t: int) -> CliffordGen:
    """Hadamard on the last m - t qubits; t = 0 is the transversal case."""
    if not 0 <= t <= m:
        raise ValueError(f"need 0 <= t <= m, got t={t}, m={m}")
    upper = np.zeros((m, m), dtype=np.int64)
    upper[:t, :t] = np.eye(t, dtype=np.int64)
    lower = np.eye(m, dtype=np.int64) - upper
    F = np.block([[upper, lower], [lower, upper]])
    return CliffordGen("partialH", F, {"t": t})


def generator_from_dict(m: int, d: dict) -> CliffordGen:
    """Rebuild a generator from its JSON form {"gen": ..., "params": ...}."""
    kind = d["gen"]
    params = d.get("params", {})
    if kind == "H":
        return hadamard_generator(m)
    if kind == "L_Q":
        return basis_change_generator(np.array(params["Q"]))
    if kind == "T_R":
        return phase_generator(np.array(params["R"]))
    if kind == "partialH":
        return partial_hadamard_generator(m, int(ring.as_integers(params["t"])))
    raise ValueError(f"unknown Clifford generator kind: {kind!r}")


def apply_symplectic(label: PauliLabel, F: np.ndarray) -> PauliLabel:
    """Map a binary label by the row action [a, b] F over Z_2."""
    if not label.is_binary():
        raise ValueError("apply_symplectic expects a binary label")
    out = (np.concatenate([label.a, label.b]) @ F) % 2
    return PauliLabel(out[: label.m], out[label.m :])


def clifford_conjugate(gen: CliffordGen, label: PauliLabel) -> tuple[int, PauliLabel]:
    """(sign, new) with gen E(label) gen^dagger = sign * E(new), exactly.

    One symbolic rule per kind, on a binary label (a, b):
    - H: E(a, b) -> (-1)^(a.b) E(b, a); partialH(t) applies it to the
      suffix qubits t..m-1 only.
    - L_Q: X^a Z^b -> X^a' Z^b' with a' = aQ, b' = bQ^-T (mod 2), so
      E(a, b) -> i^(a.b - a'.b') E(a', b').
    - T_R: the Gamma(R) row action gives w = b + aR (mod 4), and
      E(a, b) -> (-1)^(a.w1) E(a, w mod 2) with w1 the second binary layer
      of w.  This is the level-2 conjugation phase, whose global term
      (1 - 2^(k-2)) aRa vanishes at k = 2.
    Each sign is i^e for an even e, since the image of a Hermitian Pauli
    under a Clifford is again Hermitian; an odd e raises AssertionError.
    """
    if not label.is_binary():
        raise ValueError("clifford_conjugate expects a binary label")
    if label.m != gen.m:
        raise ValueError(f"dimension mismatch: label on {label.m}, generator on {gen.m}")
    a, b = label.a, label.b
    if gen.kind in ("H", "partialH"):
        t = gen.params.get("t", 0)
        e = 2 * int(a[t:] @ b[t:])
        new = PauliLabel(np.concatenate([a[:t], b[t:]]), np.concatenate([b[:t], a[t:]]))
    elif gen.kind == "L_Q":
        m = gen.m
        new = PauliLabel(a @ gen.F[:m, :m] % 2, b @ gen.F[m:, m:] % 2)
        e = int(a @ b) - int(new.a @ new.b)
    elif gen.kind == "T_R":
        new, w = apply_gamma(label, gen.form)
        e = 2 * int(a @ ((w >> 1) & 1))
    else:
        raise ValueError(f"unknown Clifford generator kind: {gen.kind!r}")
    if e % 2:
        raise AssertionError("Clifford image is not a signed Hermitian Pauli")
    return (-1 if e % 4 else 1), new
