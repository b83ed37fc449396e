"""Randomized and exhaustive verification suites.

Each check returns a CheckResult; the CLI `verify` subcommand and the test
suite both drive these.  Every check is a generator of cases run by one
policy, _first_failure: a case is (count, deviation, detail thunk),
`checked` adds up the counts (1 per case, or the basis states a case
covers), `max_deviation` is the largest deviation seen, and the run stops
at the first case whose deviation exceeds the tolerance, calling only its
detail.  A check evaluates the labels of a form or a draw on stacks (a
residual-exponent table, a monomial stack), yielding a case per label.
All identities are exact: every check that `verify` runs compares integers
(modular, level or monomial), with tolerance 0 and deviation 1.0 on a
mismatch (its largest residue for the mod-4 check).  clifford-signs is
the only dense check, because H is not monomial: it compares complex
matrices entrywise within oracle.ATOL.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import ring
from .diagonal import (
    SymForm,
    basis_index,
    conjugate,
    diagonal_entries,
    enumerate_canonical_forms,
    form_level,
    group_add,
    group_negate,
    group_order,
    residual_exponent_table,
    xor_carry,
)
from .oracle import (
    ATOL,
    _basis_vectors,
    conjugate_dense,
    dense_pauli,
    dense_unitary,
    diagonal_levels,
    monomial_diagonal,
    monomial_pauli,
    monomial_product,
)
from .pauli import PauliLabel, multiply
from .symplectic import (
    apply_gamma,
    apply_symplectic,
    basis_change_generator,
    clifford_conjugate,
    gamma_matrix,
    hadamard_generator,
    partial_hadamard_generator,
    phase_generator,
)


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


def _first_failure(name: str, cases, tol: float = 0.0) -> CheckResult:
    """Run (count, deviation, detail thunk) cases up to the first failure."""
    checked = 0
    max_dev = 0.0
    for count, dev, detail in cases:
        checked += count
        max_dev = max(max_dev, dev)
        if dev > tol:
            return CheckResult(name, False, checked, max_dev, detail())
    return CheckResult(name, True, checked, max_dev)


def random_canonical_form(rng: np.random.Generator, m: int, k: int) -> SymForm:
    mat = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        mat[i, i] = rng.integers(0, 1 << k)
        for j in range(i + 1, m):
            mat[i, j] = mat[j, i] = rng.integers(0, 1 << max(k - 1, 0))
    return SymForm(mat, k)


def random_int_vector(rng: np.random.Generator, m: int, layers: int = 2) -> np.ndarray:
    return rng.integers(0, 1 << layers, size=m, dtype=np.int64)


@functools.cache
def _binary_labels(m: int) -> tuple[PauliLabel, ...]:
    """All 4^m binary labels, built once per m <= oracle.MAX_DENSE_QUBITS."""
    V = _basis_vectors(m)
    return tuple(PauliLabel(a, b) for a in V for b in V)


def reconstruct(form: SymForm, labels, flip_phase: bool = False) -> np.ndarray:
    """Stacked monomials xi^phi E(label) gate(residual, k-1), K = max(k, 2),
    of the conjugations of labels; conjugate runs once per label, in order."""
    K = max(form.k, 2)
    steps = [conjugate(form, p) for p in labels]
    paulis = monomial_pauli(np.array([s.label.a for s in steps]),
                            np.array([s.label.b for s in steps]), K)
    rows, theta = monomial_product(paulis, monomial_diagonal([s.residual for s in steps], K), K)
    phi = np.array([s.phase_exponent for s in steps]) * (-1 if flip_phase else 1)
    return np.stack((rows, (theta + (phi << (K - form.k))[:, None]) % (1 << K)), axis=1)


def check_conjugation_exactness(
    m: int, k: int, samples: int, rng: np.random.Generator,
    exhaustive_paulis: bool = True, tol: float = 0.0, flip_phase: bool = False,
) -> CheckResult:
    """Both sides of the conjugation identity as exact monomials, for all
    labels of a form at once: D E(p) D^dagger by index arithmetic."""
    labels = _binary_labels(m)
    K = max(k, 2)
    monomials = np.stack(monomial_pauli(np.array([p.a for p in labels]),  # once per check
                                        np.array([p.b for p in labels]), K))

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            pick = range(len(labels)) if exhaustive_paulis else [
                rng.integers(len(labels)) for _ in range(4)]
            use, paulis = [labels[i] for i in pick], monomials[:, pick]
            (rows,), (theta,) = monomial_diagonal([form], K)
            lhs = np.stack(monomial_product((rows, theta), monomial_product(
                paulis, (rows, -theta), K), K), axis=1)
            bad = (lhs != reconstruct(form, use, flip_phase)).any(axis=(1, 2))
            for p, dev in zip(use, bad):
                yield 1, float(dev), lambda: {"R": form.entries.tolist(), **p.to_dict()}

    return _first_failure(f"conjugation-exactness(m={m},k={k})", cases(), tol)


def check_xor_quadratic_identity(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """(v XOR w) R (v XOR w)^T = (v+w) R (v+w)^T - 4*carry, plus the
    projection rewrite of the carry as a quadratic form."""
    M = 1 << k

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            R = form.entries
            v = rng.integers(0, 2, size=m, dtype=np.int64)
            w = rng.integers(0, 2, size=m, dtype=np.int64)
            x = ring.xor_as_ring(v, w, k)
            carry = xor_carry(v, form, w)
            lhs = int(x @ R @ x) % M
            rhs = (int((v + w) @ R @ (v + w)) - 4 * carry) % M
            wbar = 1 - w
            proj = np.diag(wbar) @ R @ np.diag(w) + np.diag((w @ R) * w)
            rewrite = int(v @ proj @ v) % M
            yield 1, float(lhs != rhs or carry != rewrite), lambda: {
                "v": v.tolist(), "w": w.tolist(), "R": R.tolist()}

    return _first_failure("xor-quadratic-identity", cases())


def check_level2_exponents_vanish(m: int) -> CheckResult:
    """At k = 2 with binary labels the residual exponent is 0 mod 4,
    exhaustively over canonical forms, labels, and basis states."""

    labels = _binary_labels(m)

    def cases():
        for form in enumerate_canonical_forms(m, 2):
            table = residual_exponent_table(form, labels)
            for p, dev in zip(labels, np.max(table % 4, axis=1)):
                yield table.shape[1], float(dev), lambda: {
                    "R": form.entries.tolist(), **p.to_dict()}

    return _first_failure(f"level2-exponents-vanish(m={m})", cases())


def _shifted(vals: np.ndarray, e0) -> np.ndarray:
    """Exponent list at shifted argument: entry v picks up value at v XOR e0."""
    return vals[np.arange(len(vals)) ^ basis_index(e0)]


def _shift_additivity_cases(samples, rng, m, k, carry_free):
    """Cases of both shift identities on label pairs (a, b), (c, d); with
    carry_free, draws whose parity layers overlap are skipped and only the
    product identity, now without carry term, is checked."""
    M = 1 << k
    drawn = 0
    while drawn < samples:
        form = random_canonical_form(rng, m, k)
        a, b, c, d = (random_int_vector(rng, m) for _ in range(4))
        a0, b0, c0, d0 = a & 1, b & 1, c & 1, d & 1
        if carry_free and (np.any(a0 * c0) or np.any(b0 * d0)):
            continue
        drawn += 1
        qa, qc, qac = residual_exponent_table(
            form, [PauliLabel(a, b), PauliLabel(c, d), PauliLabel(a + c, b + d)])
        lhs = (_shifted(qa, c0) + qc) % M
        a1, b1 = (a >> 1) & 1, (b >> 1) & 1
        c1, d1 = (c >> 1) & 1, (d >> 1) & 1
        cross = int(b0 @ c1) + int(b1 @ c0) - int(a0 @ d1) - int(a1 @ d0)
        carry = int((a0 + c0) @ (b0 * d0)) + int((b0 + d0) @ (a0 * c0))
        rhs = (qac + (1 << (k - 1)) * (cross + carry)) % M
        ok = np.all(lhs == rhs) and (carry_free or np.all(lhs == (qa + _shifted(qc, a0)) % M))
        yield 1, float(not ok), lambda: {
            "R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist(),
            "c": c.tolist(), "d": d.tolist()}


def check_exponent_shift_additivity(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """Both shift identities of the residual exponent under label pairs.

    The product identity carries a 2^(k-1) correction term read off the
    parity-layer carries of a+c and b+d; it vanishes exactly when the two
    labels have carry-free sums, recovering the plain cross term.
    """
    cases = _shift_additivity_cases(samples, rng, m, k, carry_free=False)
    return _first_failure("exponent-shift-additivity", cases)


def check_exponent_shift_additivity_carry_free(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """The plain product identity on labels whose parity layers do not
    overlap, where the carry correction vanishes identically."""
    cases = _shift_additivity_cases(samples, rng, m, k, carry_free=True)
    return _first_failure("exponent-shift-additivity-carry-free", cases)


def check_shift_difference_symmetry(
    samples: int, rng: np.random.Generator, m: int = 3, k: int = 4
) -> CheckResult:
    """The shift difference q(v XOR c0) - q(v) depends only on the parity
    layer of the label's X part and is symmetric under swapping it with c0."""
    M = 1 << k
    zero = np.zeros(m, dtype=np.int64)

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            a, b = random_int_vector(rng, m), random_int_vector(rng, m)
            c = rng.integers(0, 2, size=m, dtype=np.int64)
            a0 = a & 1
            qa, qa0, qc = residual_exponent_table(
                form, [PauliLabel(a, b), PauliLabel(a0, zero), PauliLabel(c, zero)])
            delta_ac = (_shifted(qa, c) - qa) % M
            delta_a0c = (_shifted(qa0, c) - qa0) % M
            delta_ca = (_shifted(qc, a0) - qc) % M
            ok = np.all(delta_ac == delta_a0c) and np.all(delta_ac == delta_ca)
            yield 1, float(not ok), lambda: {
                "R": form.entries.tolist(), "a": a.tolist(), "c": c.tolist()}

    return _first_failure("shift-difference-symmetry", cases())


def check_exponent_conjugation_shift(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3
) -> CheckResult:
    """Conjugating the residual diagonal by E(e0, f) permutes its exponent
    list by v -> v XOR e0: checked on lists and as exact monomials."""
    K = max(k, 2)

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            a, b = random_int_vector(rng, m), random_int_vector(rng, m)
            e, f = random_int_vector(rng, m), random_int_vector(rng, m)
            vals = residual_exponent_table(form, [PauliLabel(a, b)])[0]
            ep = monomial_pauli(e, f, K)
            diag = np.arange(len(vals)), vals << (K - k)
            lhs = monomial_product(ep, monomial_product(diag, ep, K), K)
            dev = float(not np.array_equal(lhs, (diag[0], _shifted(vals, e & 1) << (K - k))))
            yield 1, dev, lambda: {"R": form.entries.tolist(), "e": e.tolist(), "f": f.tolist()}

    return _first_failure("exponent-conjugation-shift", cases())


def check_sandwich_product_identity(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3
) -> CheckResult:
    """Sandwiched-product identity, as exact monomials, with e = b0 + a0 R,
    f = d0 + c0 R, the unreduced labels of the row action of Gamma(R).  Its
    sign sees a0 R c0 twice and the second layers never, so e and f are also
    compared with the rows [a0, b0] Gamma(R), [c0, d0] Gamma(R) mod 2^k."""
    M = 1 << k
    K = max(k, 2)

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            a, b = random_int_vector(rng, m), random_int_vector(rng, m)
            c, d = random_int_vector(rng, m), random_int_vector(rng, m)
            a0, b0 = a & 1, b & 1
            c0, d0 = c & 1, d & 1
            _, e = apply_gamma(PauliLabel(a0, b0), form)
            _, f = apply_gamma(PauliLabel(c0, d0), form)
            (rows,), (theta,) = monomial_diagonal([form], K)
            # stacks of monomials, indexed [rows or theta, operator, column]
            paulis = np.stack(monomial_pauli(np.array([a, c, a0, c0]), np.array([b, d, e, f]), K))
            # C_ab = D E(a, b) D^dagger and C_cd = D E(c, d) D^dagger
            conj = np.stack(monomial_product((rows, theta), monomial_product(
                paulis[:, :2], (rows, -theta), K), K))
            sides = paulis[:, 2:]  # E(a0, e), E(c0, f)
            sandwiched = np.stack(monomial_product(sides, monomial_product(
                conj[:, ::-1], sides, K), K))
            ops = np.concatenate((conj, sandwiched), 1)
            # C_cd C_ab and (E(a0, e) C_cd E(a0, e)) (E(c0, f) C_ab E(c0, f))
            lhs, rhs = np.stack(monomial_product(ops[:, [1, 2]], ops[:, [0, 3]], K), 1)
            gamma_rows = np.block([[a0, b0], [c0, d0]]) @ gamma_matrix(form) % M
            ok = np.array_equal(lhs, rhs) and np.array_equal(gamma_rows[:, m:], [e, f])
            yield 1, float(not ok), lambda: {
                "R": form.entries.tolist(), "a": a.tolist(), "b": b.tolist(),
                "c": c.tolist(), "d": d.tolist()}

    return _first_failure("sandwich-product-identity", cases())


def check_conjugation_homomorphism(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3
) -> CheckResult:
    """Conjugation respects the Pauli product: the symbolic result of the
    product label equals the product of the symbolic results, as monomials."""
    K = max(k, 2)

    def cases():
        for _ in range(samples):
            form = random_canonical_form(rng, m, k)
            p = PauliLabel(random_int_vector(rng, m), random_int_vector(rng, m))
            q = PauliLabel(random_int_vector(rng, m), random_int_vector(rng, m))
            prod = multiply(p, q)
            (rows, theta), mp, mq = reconstruct(form, [prod.label, p, q])
            lhs = rows, (theta + (prod.phase_num << (K - prod.phase_log2_den))) % (1 << K)
            rhs = monomial_product(mp, mq, K)
            yield 1, float(not np.array_equal(lhs, rhs)), lambda: {
                "R": form.entries.tolist(), "p": p.to_dict(), "q": q.to_dict()}

    return _first_failure("conjugation-homomorphism", cases())


SIGN_CHECK_SAMPLES = 4


def _sign_check_generators(m: int, rng: np.random.Generator):
    """H, partialH at every t, and SIGN_CHECK_SAMPLES each of random
    permutation Q, random invertible Q and random binary symmetric R."""
    gens = [hadamard_generator(m)]
    gens += [partial_hadamard_generator(m, t) for t in range(m + 1)]
    eye = np.eye(m, dtype=np.int64)
    for _ in range(SIGN_CHECK_SAMPLES):
        gens.append(basis_change_generator(eye[rng.permutation(m)]))
    invertible = 0
    while invertible < SIGN_CHECK_SAMPLES:
        try:
            gens.append(basis_change_generator(rng.integers(0, 2, size=(m, m))))
        except ValueError:  # singular over GF(2): draw again
            continue
        invertible += 1
    for _ in range(SIGN_CHECK_SAMPLES):
        upper = np.triu(rng.integers(0, 2, size=(m, m), dtype=np.int64))
        gens.append(phase_generator(upper + np.triu(upper, 1).T))
    return gens


def check_clifford_signs(m: int, rng: np.random.Generator) -> CheckResult:
    """clifford_conjugate against dense conjugation by oracle.dense_unitary,
    for every binary label and every generator kind: the sign exactly, and
    a label that also equals the row action of the generator's F (a label
    mismatch counts as deviation 1)."""

    def cases():
        for gen in _sign_check_generators(m, rng):
            u = dense_unitary(gen)
            for label in _binary_labels(m):
                sign, new = clifford_conjugate(gen, label)
                dev = float(np.max(np.abs(conjugate_dense(u, dense_pauli(label))
                                          - sign * dense_pauli(new))))
                dev = max(dev, float(new != apply_symplectic(label, gen.F)))
                yield 1, dev, lambda: {**gen.to_dict(), **label.to_dict()}

    return _first_failure(f"clifford-signs(m={m})", cases(), ATOL)


def check_hierarchy_membership(m: int, k: int) -> CheckResult:
    """Every canonical form at (m, k) builds a gate whose level, decided by
    the oracle's shift-difference recursion on its own exponent list
    (oracle.diagonal_levels, one call for all forms), equals the
    closed-form form_level read off its entries; the lists are the theta
    rows of the forms' monomials at K = k."""
    forms = list(enumerate_canonical_forms(m, k))
    levels = diagonal_levels(monomial_diagonal(forms, k)[1], k)

    def cases():
        for form, level in zip(forms, levels):
            yield 1, float(level != form_level(form)), lambda: {
                "R": form.entries.tolist(), "level": level}

    return _first_failure(f"hierarchy-membership(m={m},k={k})", cases())


def check_entry_list_injectivity(m: int, k: int) -> CheckResult:
    """Distinct canonical forms give distinct exponent lists, exhaustively,
    and there are group_order(m, k) of them (a final case of count 0)."""

    def cases():
        seen = {}
        for form in enumerate_canonical_forms(m, k):
            key = tuple(diagonal_entries(form).tolist())
            yield 1, float(key in seen), lambda: {"R1": seen[key], "R2": form.entries.tolist()}
            seen[key] = form.entries.tolist()
        expected = group_order(m, k)
        yield 0, float(len(seen) != expected), lambda: {"distinct": len(seen), "expected": expected}

    return _first_failure(f"entry-list-injectivity(m={m},k={k})", cases())


def check_group_axioms(
    samples: int, rng: np.random.Generator, m: int = 2, k: int = 3
) -> CheckResult:
    """Associativity, commutativity, identity, inverse for the form sum."""
    zero = SymForm.zeros(m, k)

    def cases():
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
            yield 1, float(not ok), lambda: {"f": f.entries.tolist(), "g": g.entries.tolist()}

    return _first_failure("group-axioms", cases())


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
