"""Randomized and exhaustive verification suites.

Each check returns a CheckResult; the CLI `verify` subcommand and the test
suite both drive these.  All identities are exact, so "max_deviation" for
modular checks is an integer residue magnitude and for dense checks a
complex entrywise deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import ring
from .diagonal import (
    SymForm,
    conjugate,
    diagonal_entries,
    enumerate_canonical_forms,
    group_add,
    group_negate,
    group_order,
    index_vectors,
    residual_exponent_list,
    synthesize,
    tensor,
)
from .oracle import (
    ATOL,
    conjugate_dense,
    dense_diagonal,
    dense_pauli,
    hierarchy_level,
)
from .pauli import PauliLabel, multiply
from .symplectic import apply_gamma


@dataclass
class CheckResult:
    name: str
    passed: bool
    checked: int
    max_deviation: float = 0.0
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {status} ({self.checked} checks, max dev {self.max_deviation:.3g})"
        if not self.passed and self.detail:
            out += f" counterexample: {self.detail}"
        return out


def random_canonical_form(rng: np.random.Generator, m: int, k: int) -> SymForm:
    mat = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        mat[i, i] = rng.integers(0, 1 << k)
        for j in range(i + 1, m):
            mat[i, j] = mat[j, i] = rng.integers(0, 1 << max(k - 1, 0))
    return SymForm(mat, k)


def random_int_vector(rng: np.random.Generator, m: int, layers: int = 2) -> np.ndarray:
    return rng.integers(0, 1 << layers, size=m, dtype=np.int64)


def _binary_pairs(m: int):
    V = index_vectors(m)
    return [(a, b) for a in V for b in V]


def _xi(k: int) -> complex:
    return complex(np.exp(2j * math.pi / (1 << k)))


def reconstruct_dense(form: SymForm, p: PauliLabel, flip_phase: bool = False) -> np.ndarray:
    """Dense right-hand side xi^phi E(label) tau(residual) of a conjugation."""
    res = conjugate(form, p)
    phi = -res.phase_exponent if flip_phase else res.phase_exponent
    phase = _xi(form.k) ** phi
    return phase * dense_pauli(res.label) @ dense_diagonal(res.residual)


def check_conjugation_exactness(
    m: int,
    k: int,
    samples: int,
    rng: np.random.Generator,
    exhaustive_paulis: bool = True,
    tol: float = ATOL,
    flip_phase: bool = False,
) -> CheckResult:
    """Dense equality of both sides of the conjugation identity."""
    pairs = _binary_pairs(m)
    checked = 0
    max_dev = 0.0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        u = dense_diagonal(form)
        use = pairs if exhaustive_paulis else [pairs[rng.integers(len(pairs))] for _ in range(4)]
        for a, b in use:
            p = PauliLabel(a, b)
            lhs = conjugate_dense(u, dense_pauli(p))
            rhs = reconstruct_dense(form, p, flip_phase=flip_phase)
            dev = float(np.max(np.abs(lhs - rhs)))
            max_dev = max(max_dev, dev)
            checked += 1
            if dev > tol:
                return CheckResult(
                    f"conjugation-exactness(m={m},k={k})",
                    False,
                    checked,
                    max_dev,
                    {"R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist()},
                )
    return CheckResult(f"conjugation-exactness(m={m},k={k})", True, checked, max_dev)


def check_xor_quadratic_identity(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """(v XOR w) R (v XOR w)^T = (v+w) R (v+w)^T - 4*carry, plus the
    projection rewrite of the carry as a quadratic form."""
    M = 1 << k
    checked = 0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        R = form.entries
        v = rng.integers(0, 2, size=m, dtype=np.int64)
        w = rng.integers(0, 2, size=m, dtype=np.int64)
        x = ring.xor_as_ring(v, w, k)
        carry = int(((v + w) - v * w) @ R @ (v * w))
        lhs = int(x @ R @ x) % M
        rhs = (int((v + w) @ R @ (v + w)) - 4 * carry) % M
        wbar = 1 - w
        proj = np.diag(wbar) @ R @ np.diag(w) + np.diag((w @ R) * w)
        rewrite = int(v @ proj @ v) % M
        checked += 1
        if lhs != rhs or carry % M != rewrite:
            return CheckResult(
                "xor-quadratic-identity",
                False,
                checked,
                1.0,
                {"v": v.tolist(), "w": w.tolist(), "R": form.entries.tolist()},
            )
    return CheckResult("xor-quadratic-identity", True, checked)


def check_level2_exponents_vanish(m: int) -> CheckResult:
    """At k = 2 with binary labels the residual exponent is 0 mod 4,
    exhaustively over canonical forms, labels, and basis states."""
    checked = 0
    for form in enumerate_canonical_forms(m, 2):
        for a, b in _binary_pairs(m):
            vals = residual_exponent_list(form, a, b)
            checked += len(vals)
            if np.any(vals % 4):
                return CheckResult(
                    f"level2-exponents-vanish(m={m})",
                    False,
                    checked,
                    float(np.max(vals % 4)),
                    {"R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist()},
                )
    return CheckResult(f"level2-exponents-vanish(m={m})", True, checked)


def _shifted(vals: np.ndarray, m: int, e0) -> np.ndarray:
    """Exponent list at shifted argument: entry v picks up value at v XOR e0."""
    shift = 0
    for x in e0:
        shift = (shift << 1) | int(x)
    return vals[np.arange(len(vals)) ^ shift]


def check_exponent_shift_additivity(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """Both shift identities of the residual exponent under label pairs.

    The product identity carries a 2^(k-1) correction term read off the
    parity-layer carries of a+c and b+d; it vanishes exactly when the two
    labels have carry-free sums, recovering the plain cross term.
    """
    M = 1 << k
    checked = 0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        a, b = random_int_vector(rng, m), random_int_vector(rng, m)
        c, d = random_int_vector(rng, m), random_int_vector(rng, m)
        qa = residual_exponent_list(form, a, b)
        qc = residual_exponent_list(form, c, d)
        lhs1 = (_shifted(qa, m, c & 1) + qc) % M
        rhs1 = (qa + _shifted(qc, m, a & 1)) % M
        a0, a1, b1 = a & 1, (a >> 1) & 1, (b >> 1) & 1
        c0, c1 = c & 1, (c >> 1) & 1
        b0, d0, d1 = b & 1, d & 1, (d >> 1) & 1
        cross = int(b0 @ c1) + int(b1 @ c0) - int(a0 @ d1) - int(a1 @ d0)
        carry = int((a0 + c0) @ (b0 * d0)) + int((b0 + d0) @ (a0 * c0))
        qsum = residual_exponent_list(form, a + c, b + d)
        rhs2 = (qsum + (1 << (k - 1)) * (cross + carry)) % M
        checked += 1
        if np.any(lhs1 != rhs1) or np.any(lhs1 != rhs2):
            return CheckResult(
                "exponent-shift-additivity",
                False,
                checked,
                1.0,
                {"R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist(),
                 "c": c.tolist(), "d": d.tolist()},
            )
    return CheckResult("exponent-shift-additivity", True, checked)


def check_exponent_shift_additivity_carry_free(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """The plain product identity on labels whose parity layers do not
    overlap, where the carry correction vanishes identically."""
    M = 1 << k
    checked = 0
    while checked < samples:
        form = random_canonical_form(rng, m, k)
        a, b = random_int_vector(rng, m), random_int_vector(rng, m)
        c, d = random_int_vector(rng, m), random_int_vector(rng, m)
        a0, b0, c0, d0 = a & 1, b & 1, c & 1, d & 1
        if np.any(a0 * c0) or np.any(b0 * d0):
            continue
        qa = residual_exponent_list(form, a, b)
        qc = residual_exponent_list(form, c, d)
        lhs = (_shifted(qa, m, c0) + qc) % M
        a1, b1 = (a >> 1) & 1, (b >> 1) & 1
        c1, d1 = (c >> 1) & 1, (d >> 1) & 1
        cross = int(b0 @ c1) + int(b1 @ c0) - int(a0 @ d1) - int(a1 @ d0)
        rhs = (residual_exponent_list(form, a + c, b + d) + (1 << (k - 1)) * cross) % M
        checked += 1
        if np.any(lhs != rhs):
            return CheckResult(
                "exponent-shift-additivity-carry-free",
                False,
                checked,
                1.0,
                {"R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist(),
                 "c": c.tolist(), "d": d.tolist()},
            )
    return CheckResult("exponent-shift-additivity-carry-free", True, checked)


def check_shift_difference_symmetry(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """The shift difference q(v XOR c0) - q(v) depends only on the parity
    layer of the label's X part and is symmetric under swapping it with c0."""
    M = 1 << k
    checked = 0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        a, b = random_int_vector(rng, m), random_int_vector(rng, m)
        c = rng.integers(0, 2, size=m, dtype=np.int64)
        a0 = a & 1
        qa = residual_exponent_list(form, a, b)
        qa0 = residual_exponent_list(form, a0, np.zeros(m, dtype=np.int64))
        qc = residual_exponent_list(form, c, np.zeros(m, dtype=np.int64))
        delta_ac = (_shifted(qa, m, c) - qa) % M
        delta_a0c = (_shifted(qa0, m, c) - qa0) % M
        delta_ca = (_shifted(qc, m, a0) - qc) % M
        checked += 1
        if np.any(delta_ac != delta_a0c) or np.any(delta_ac != delta_ca):
            return CheckResult(
                "shift-difference-symmetry",
                False,
                checked,
                1.0,
                {"R": form.entries.tolist(), "a": a.tolist(), "c": c.tolist()},
            )
    return CheckResult("shift-difference-symmetry", True, checked)


def check_exponent_conjugation_shift(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3, tol: float = ATOL
) -> CheckResult:
    """Conjugating the residual diagonal by E(e0, f) permutes its exponent
    list by v -> v XOR e0: checked on lists and as dense matrices."""
    checked = 0
    max_dev = 0.0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        a, b = random_int_vector(rng, m), random_int_vector(rng, m)
        e, f = random_int_vector(rng, m), random_int_vector(rng, m)
        vals = residual_exponent_list(form, a, b)
        shifted = _shifted(vals, m, e & 1)
        xi = _xi(k)
        diag = np.diag(xi ** vals.astype(complex))
        ep = dense_pauli(PauliLabel(e, f))
        dev = float(np.max(np.abs(ep @ diag @ ep - np.diag(xi ** shifted.astype(complex)))))
        max_dev = max(max_dev, dev)
        checked += 1
        if dev > tol:
            return CheckResult(
                "exponent-conjugation-shift",
                False,
                checked,
                max_dev,
                {"R": form.entries.tolist(), "e": e.tolist(), "f": f.tolist()},
            )
    return CheckResult("exponent-conjugation-shift", True, checked, max_dev)


def check_sandwich_product_identity(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3, tol: float = ATOL
) -> CheckResult:
    """Dense sandwiched-product identity with e = b0 + a0 R, f = d0 + c0 R,
    the unreduced labels of the row action of Gamma(R)."""
    checked = 0
    max_dev = 0.0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        u = dense_diagonal(form)
        a, b = random_int_vector(rng, m), random_int_vector(rng, m)
        c, d = random_int_vector(rng, m), random_int_vector(rng, m)
        a0, b0 = a & 1, b & 1
        c0, d0 = c & 1, d & 1
        _, e = apply_gamma(PauliLabel(a0, b0), form)
        _, f = apply_gamma(PauliLabel(c0, d0), form)
        conj_ab = conjugate_dense(u, dense_pauli(PauliLabel(a, b)))
        conj_cd = conjugate_dense(u, dense_pauli(PauliLabel(c, d)))
        lhs = conj_cd @ conj_ab
        pa = dense_pauli(PauliLabel(a0, e))
        pc = dense_pauli(PauliLabel(c0, f))
        rhs = (pa @ conj_cd @ pa) @ (pc @ conj_ab @ pc)
        dev = float(np.max(np.abs(lhs - rhs)))
        max_dev = max(max_dev, dev)
        checked += 1
        if dev > tol:
            return CheckResult(
                "sandwich-product-identity",
                False,
                checked,
                max_dev,
                {"R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist(),
                 "c": c.tolist(), "d": d.tolist()},
            )
    return CheckResult("sandwich-product-identity", True, checked, max_dev)


def check_conjugation_homomorphism(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3, tol: float = ATOL
) -> CheckResult:
    """Conjugation respects the Pauli product: the symbolic result of the
    product label equals the product of the symbolic results, densely."""
    checked = 0
    max_dev = 0.0
    for _ in range(samples):
        form = random_canonical_form(rng, m, k)
        p = PauliLabel(random_int_vector(rng, m), random_int_vector(rng, m))
        q = PauliLabel(random_int_vector(rng, m), random_int_vector(rng, m))
        prod = multiply(p, q)
        lhs = prod.phase * reconstruct_dense(form, prod.label)
        rhs = reconstruct_dense(form, p) @ reconstruct_dense(form, q)
        dev = float(np.max(np.abs(lhs - rhs)))
        max_dev = max(max_dev, dev)
        checked += 1
        if dev > tol:
            return CheckResult(
                "conjugation-homomorphism",
                False,
                checked,
                max_dev,
                {"R": form.entries.tolist(), "p": p.to_dict(), "q": q.to_dict()},
            )
    return CheckResult("conjugation-homomorphism", True, checked, max_dev)


def check_hierarchy_membership(m: int, k: int) -> CheckResult:
    """Every canonical form at (m, k) builds a gate at level <= k."""
    checked = 0
    for form in enumerate_canonical_forms(m, k):
        level = hierarchy_level(dense_diagonal(form), max_k=k)
        checked += 1
        if level is None or level > k:
            return CheckResult(
                f"hierarchy-membership(m={m},k={k})",
                False,
                checked,
                1.0,
                {"R": form.entries.tolist(), "level": level},
            )
    return CheckResult(f"hierarchy-membership(m={m},k={k})", True, checked)


def check_entry_list_injectivity(m: int, k: int) -> CheckResult:
    """Distinct canonical forms give distinct exponent lists, exhaustively."""
    seen = {}
    checked = 0
    for form in enumerate_canonical_forms(m, k):
        key = tuple(diagonal_entries(form).tolist())
        checked += 1
        if key in seen:
            return CheckResult(
                f"entry-list-injectivity(m={m},k={k})",
                False,
                checked,
                1.0,
                {"R1": seen[key], "R2": form.entries.tolist()},
            )
        seen[key] = form.entries.tolist()
    expected = group_order(m, k)
    ok = len(seen) == expected
    return CheckResult(
        f"entry-list-injectivity(m={m},k={k})",
        ok,
        checked,
        0.0 if ok else 1.0,
        {} if ok else {"distinct": len(seen), "expected": expected},
    )


def check_group_axioms(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3
) -> CheckResult:
    """Associativity, commutativity, identity, inverse for the form sum."""
    zero = SymForm.zeros(m, k)
    checked = 0
    for _ in range(samples):
        f = random_canonical_form(rng, m, k)
        g = random_canonical_form(rng, m, k)
        h = random_canonical_form(rng, m, k)
        ok = (
            group_add(group_add(f, g), h) == group_add(f, group_add(g, h))
            and group_add(f, g) == group_add(g, f)
            and group_add(f, zero) == f
            and group_add(f, group_negate(f)) == zero
        )
        checked += 1
        if not ok:
            detail = {"f": f.entries.tolist(), "g": g.entries.tolist()}
            return CheckResult("group-axioms", False, checked, 1.0, detail)
    return CheckResult("group-axioms", True, checked)


def check_synthesis_roundtrip(
    m: int, k: int, rng: np.random.Generator | None = None, samples: int = 0
) -> CheckResult:
    """synthesize(diagonal_entries(f), f.k) == f, exhaustively or sampled."""
    checked = 0
    if samples and rng is not None:
        forms = (random_canonical_form(rng, m, k) for _ in range(samples))
    else:
        forms = enumerate_canonical_forms(m, k)
    for form in forms:
        back = synthesize(diagonal_entries(form), form.k)
        checked += 1
        if back != form:
            return CheckResult(
                f"synthesis-roundtrip(m={m},k={k})",
                False,
                checked,
                1.0,
                {"R": form.entries.tolist(), "back": back.entries.tolist(), "k_back": back.k},
            )
    return CheckResult(f"synthesis-roundtrip(m={m},k={k})", True, checked)


def check_tensor_consistency(
    samples: int, rng: np.random.Generator, tol: float = 1e-12
) -> CheckResult:
    """Dense tensor gate equals the Kronecker product of its factors."""
    checked = 0
    max_dev = 0.0
    for _ in range(samples):
        m = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        ell = int(rng.integers(1, k + 1))
        f1 = random_canonical_form(rng, m, k)
        f2 = random_canonical_form(rng, n, ell)
        combined = tensor(f1, f2)
        dense = dense_diagonal(combined)
        expect = np.kron(dense_diagonal(f1), dense_diagonal(f2))
        dev = float(np.max(np.abs(dense - expect)))
        max_dev = max(max_dev, dev)
        checked += 1
        if dev > tol:
            return CheckResult(
                "tensor-consistency",
                False,
                checked,
                max_dev,
                {"R1": f1.entries.tolist(), "k1": f1.k, "R2": f2.entries.tolist(), "k2": f2.k},
            )
    return CheckResult("tensor-consistency", True, checked, max_dev)


def default_suites(
    m: int = 2,
    k: int = 3,
    samples: int = 50,
    seed: int = 0,
    exhaustive_paulis: bool = True,
    flip_phase: bool = False,
) -> list[CheckResult]:
    """The verify-command suite: conjugation exactness, exponent identities,
    and hierarchy membership at desk scale."""
    rng = np.random.default_rng(seed)
    results = [
        check_conjugation_exactness(
            m, max(k, 2), samples, rng, exhaustive_paulis, flip_phase=flip_phase
        ),
        check_xor_quadratic_identity(samples, rng, m=m, k=max(k, 2)),
        check_level2_exponents_vanish(min(m, 2)),
        check_exponent_shift_additivity(samples, rng, m=m, k=max(k, 2)),
        check_shift_difference_symmetry(samples, rng, m=m, k=max(k, 2)),
        check_exponent_conjugation_shift(samples, rng, m=min(m, 2), k=max(k, 2)),
        check_sandwich_product_identity(samples, rng, m=min(m, 2), k=max(k, 2)),
        check_conjugation_homomorphism(samples, rng, m=min(m, 2), k=max(k, 2)),
        check_hierarchy_membership(1, min(k, 3)),
    ]
    if m >= 2:
        results.append(check_hierarchy_membership(2, min(k, 3)))
    return results
