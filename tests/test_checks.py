"""The check runner's contract: names and counts of the verify suite, and
one injected library fault per check, caught on the first case that can
show it with the expected counterexample keys."""

import dataclasses
import json

import numpy as np
import pytest

from symdiag import checks, oracle, ring
from symdiag.cli import main
from symdiag.pauli import PhasedPauli

SUITE_M2 = [
    ("conjugation-exactness(m=2,k=3)", 48),
    ("xor-quadratic-identity", 3),
    ("level2-exponents-vanish(m=2)", 2048),
    ("exponent-shift-additivity", 3),
    ("shift-difference-symmetry", 3),
    ("exponent-conjugation-shift", 3),
    ("sandwich-product-identity", 3),
    ("conjugation-homomorphism", 3),
    ("hierarchy-membership(m=1,k=3)", 8),
    ("hierarchy-membership(m=2,k=3)", 256),
]


def _counts(results):
    assert all(r.passed for r in results)
    return [(r.name, r.checked) for r in results]


def test_default_suites_names_and_counts():
    assert _counts(checks.default_suites(m=2, k=3, samples=3)) == SUITE_M2
    m1 = _counts(checks.default_suites(m=1, k=3, samples=3))
    assert m1 == [
        ("conjugation-exactness(m=1,k=3)", 12),
        *SUITE_M2[1:2],
        ("level2-exponents-vanish(m=1)", 32),
        *SUITE_M2[3:9],
    ]


def test_sampled_paulis_count_four_labels_per_sample(capsys):
    sampled = checks.default_suites(m=2, k=3, samples=3, exhaustive_paulis=False)
    assert _counts(sampled) == [("conjugation-exactness(m=2,k=3)", 12), *SUITE_M2[1:]]
    code = main(["verify", "--m", "1", "--k", "2", "--samples", "5",
                 "--no-exhaustive-paulis", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["checked"] == 5 * 4


def _shifted_phase(orig):
    def conjugate(form, p):
        res = orig(form, p)
        return dataclasses.replace(res, phase_exponent=res.phase_exponent + 1)
    return conjugate


def _without_i_power(orig):
    """The monomial Pauli without its i^(a.b) prefactor."""
    def monomial_pauli(a, b, K):
        rows, theta = orig(a, b, K)
        return rows, (theta - (1 << (K - 2)) * (np.sum(a * b, axis=-1) % 4)[..., None]) % (1 << K)
    return monomial_pauli


def _times_i(orig):
    """The monomial Pauli times i: theta + 2^(K-2)."""
    def monomial_pauli(a, b, K):
        rows, theta = orig(a, b, K)
        return rows, (theta + (1 << (K - 2))) % (1 << K)
    return monomial_pauli


def _residual_scaled_one_level_up(orig):
    """The residuals, the forms below level K, scaled by 2^(K-k) in place
    of 2^(K-k+1)."""
    return lambda forms, K: orig(forms, K - (forms[0].k < K))


def _sign_flipped_product(orig):
    def multiply(p, q):
        prod = orig(p, q)
        return PhasedPauli(prod.phase_num + 2, prod.phase_log2_den, prod.label)
    return multiply


def _plus(offset):
    """offset(2^m) added to every exponent row."""
    return lambda orig: lambda form, labels: orig(form, labels) + offset(
        orig(form, labels).shape[-1])


def _valuation_off_by_one(orig):
    """k - (v2 + 1) in place of k - v2, still floored at level 1."""
    return lambda form: max(1, orig(form) - 1)


def _quarter_turn_as_level_one(orig):
    """The level-1 test of diagonal_levels with 2^(k-2) in place of 2^(k-1)."""
    return lambda d, half: orig(d, half // 2)


def _rng(seed=3):
    return np.random.default_rng(seed)


# (check, module, attribute, fault built from the original, name, checked,
# detail keys); where a fault shows only on some draws, the seed is one whose
# first draw shows it
FAULTS = [
    (lambda: checks.check_conjugation_exactness(2, 3, 5, _rng()), checks, "conjugate",
     _shifted_phase, "conjugation-exactness(m=2,k=3)", 1, {"R", "a", "b"}),
    # the monomial oracle without the i^(a.b) of E(a, b), and with the
    # residual scaled as if it were at level k: both first show on the
    # fifth label, a = (0, 1), b = (0, 0), whose image has a.b = 1
    (lambda: checks.check_conjugation_exactness(2, 3, 5, _rng()), checks, "monomial_pauli",
     _without_i_power, "conjugation-exactness(m=2,k=3)", 5, {"R", "a", "b"}),
    (lambda: checks.check_conjugation_exactness(2, 3, 5, _rng()), checks, "monomial_diagonal",
     _residual_scaled_one_level_up, "conjugation-exactness(m=2,k=3)", 5, {"R", "a", "b"}),
    (lambda: checks.check_xor_quadratic_identity(5, _rng(1)), ring, "xor_as_ring",
     lambda orig: lambda v, w, k: v + w, "xor-quadratic-identity", 1, {"v", "w", "R"}),
    (lambda: checks.check_level2_exponents_vanish(2), checks, "residual_exponent_table",
     _plus(lambda n: 1), "level2-exponents-vanish(m=2)", 4, {"R", "a", "b"}),
    (lambda: checks.check_exponent_shift_additivity(5, _rng()), checks, "residual_exponent_table",
     _plus(lambda n: 1), "exponent-shift-additivity", 1, {"R", "a", "b", "c", "d"}),
    (lambda: checks.check_exponent_shift_additivity_carry_free(5, _rng()), checks,
     "residual_exponent_table", _plus(lambda n: 1), "exponent-shift-additivity-carry-free", 1,
     {"R", "a", "b", "c", "d"}),
    (lambda: checks.check_shift_difference_symmetry(5, _rng(0)), checks, "residual_exponent_table",
     _plus(np.arange), "shift-difference-symmetry", 1, {"R", "a", "c"}),
    (lambda: checks.check_exponent_conjugation_shift(5, _rng()), checks, "monomial_pauli",
     _times_i, "exponent-conjugation-shift", 1, {"R", "e", "f"}),
    # the exponent list left unshifted: shows first where e0 != 0 moves the list
    (lambda: checks.check_exponent_conjugation_shift(5, _rng()), checks, "_shifted",
     lambda orig: lambda vals, e0: vals, "exponent-conjugation-shift", 3, {"R", "e", "f"}),
    (lambda: checks.check_sandwich_product_identity(5, _rng(2)), checks, "apply_gamma",
     lambda orig: lambda label, form: (orig(label, form)[0], orig(label, form)[1] ^ 1),
     "sandwich-product-identity", 1, {"R", "a", "b", "c", "d"}),
    # the row action without its a0 R term, and without its second binary layer
    (lambda: checks.check_sandwich_product_identity(5, _rng(2)), checks, "apply_gamma",
     lambda orig: lambda label, form: (label, label.b),
     "sandwich-product-identity", 1, {"R", "a", "b", "c", "d"}),
    (lambda: checks.check_sandwich_product_identity(5, _rng(2)), checks, "apply_gamma",
     lambda orig: lambda label, form: (orig(label, form)[0], orig(label, form)[1] & 1),
     "sandwich-product-identity", 1, {"R", "a", "b", "c", "d"}),
    (lambda: checks.check_conjugation_homomorphism(5, _rng()), checks, "multiply",
     _sign_flipped_product, "conjugation-homomorphism", 1, {"R", "p", "q"}),
    (lambda: checks.check_clifford_signs(1, _rng()), checks, "clifford_conjugate",
     lambda orig: lambda gen, label: (-orig(gen, label)[0], orig(gen, label)[1]),
     "clifford-signs(m=1)", 1, {"gen", "params", "a", "b"}),
    (lambda: checks.check_hierarchy_membership(1, 2), checks, "diagonal_levels",
     lambda orig: lambda t, k: [l + 1 for l in orig(t, k)], "hierarchy-membership(m=1,k=2)", 1,
     {"R", "level"}),
    # form_level off by one in its valuation, and a level-1 rule reading
    # 2^(k-2) where 2^(k-1) belongs: both first show on R = [[1]]
    (lambda: checks.check_hierarchy_membership(1, 2), checks, "form_level",
     _valuation_off_by_one, "hierarchy-membership(m=1,k=2)", 2, {"R", "level"}),
    (lambda: checks.check_hierarchy_membership(1, 2), oracle, "_is_z_type",
     _quarter_turn_as_level_one, "hierarchy-membership(m=1,k=2)", 2, {"R", "level"}),
    # a repeated exponent list can first show at the second form
    (lambda: checks.check_entry_list_injectivity(1, 2), checks, "diagonal_entries",
     lambda orig: lambda form: np.zeros(2, dtype=np.int64), "entry-list-injectivity(m=1,k=2)",
     2, {"R1", "R2"}),
    (lambda: checks.check_group_axioms(5, _rng()), checks, "group_negate",
     lambda orig: lambda f: f, "group-axioms", 1, {"f", "g"}),
]


def _fault_ids(rows):
    """The check's name; a check's second and later faults add a number."""
    seen = {}
    for row in rows:
        seen[row[4]] = seen.get(row[4], 0) + 1
        yield row[4] if seen[row[4]] == 1 else f"{row[4]}-{seen[row[4]]}"


@pytest.mark.parametrize("check, module, attr, fault, name, checked, keys", FAULTS,
                         ids=list(_fault_ids(FAULTS)))
def test_injected_fault_fails_first_case(monkeypatch, check, module, attr, fault, name,
                                         checked, keys):
    assert check().passed
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    result = check()
    assert (result.name, result.passed, result.checked) == (name, False, checked)
    assert result.max_deviation > 0
    assert set(result.detail) == keys


@pytest.mark.parametrize("m, k", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("module, attr, fault", [
    (checks, "form_level", _valuation_off_by_one),
    (oracle, "_is_z_type", _quarter_turn_as_level_one),
], ids=["form_level-valuation", "diagonal_level-half"])
def test_level_faults_fail_hierarchy_membership(monkeypatch, m, k, module, attr, fault):
    assert checks.check_hierarchy_membership(m, k).passed
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert not checks.check_hierarchy_membership(m, k).passed
