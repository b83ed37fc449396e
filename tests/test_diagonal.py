import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symdiag import diagonal, oracle, ring
from symdiag.checks import random_canonical_form
from symdiag.diagonal import (
    ConjugationResult,
    InfeasibleDiagonalError,
    SymForm,
    basis_index,
    ccz_companion,
    conjugate,
    diagonal_entries,
    enumerate_canonical_forms,
    form_level,
    full_recursion_trace,
    global_phase_exponent,
    group_add,
    group_negate,
    group_order,
    index_vectors,
    residual_exponent_table,
    residual_form,
    standard_gate_table,
    synthesize,
    tensor,
    xor_carry,
)
from symdiag.pauli import PauliLabel

T_FORM = SymForm(((1,),), 3)
CZ_FORM = SymForm(((0, 2), (2, 0)), 3)
X1 = PauliLabel((1,), (0,))


def _xi(k):
    return np.exp(2j * np.pi / (1 << k))


def _reconstruct(form, res):
    return (
        _xi(form.k) ** res.phase_exponent
        * oracle.dense_pauli(res.label)
        @ oracle.dense_diagonal(res.residual)
    )


class TestSymForm:
    def test_canonicalization(self):
        f = SymForm(((9, 5), (5, -1)), 3)
        assert f.entries.tolist() == [[1, 1], [1, 7]]
        # the vectorised reduction agrees with the entrywise definition
        rng = np.random.default_rng(3)
        for _ in range(30):
            m, k = int(rng.integers(1, 6)), int(rng.integers(0, 7))
            upper = np.triu(rng.integers(-100, 100, size=(m, m)))
            raw = (upper + np.triu(upper, 1).T).tolist()
            want = [
                [x % (1 << (k if i == j else max(k - 1, 0))) for j, x in enumerate(row)]
                for i, row in enumerate(raw)
            ]
            assert SymForm(raw, k).entries.tolist() == want
            assert SymForm(np.array(raw), k).entries.tolist() == want

    def test_symmetry_required(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymForm(((0, 1), (2, 0)), 3)

    def test_entries_must_be_square(self):
        for bad in (5, [1], [[1, 2]]):
            with pytest.raises(ValueError, match="square"):
                SymForm(bad, 3)

    def test_level_zero_is_identity(self):
        f = SymForm(((3,),), 0)
        assert f.is_zero()
        assert np.allclose(oracle.dense_diagonal(f), np.eye(2))

    def test_level_one_form_is_z_pauli(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            m = int(rng.integers(1, 4))
            f = random_canonical_form(rng, m, 1)
            label = f.z_pauli_label()
            assert label.a.tolist() == [0] * m
            assert np.allclose(oracle.dense_diagonal(f), oracle.dense_pauli(label))
        with pytest.raises(ValueError, match="not Pauli"):
            SymForm(((1,),), 2).z_pauli_label()

    def test_json_round_trip(self):
        f = SymForm(((1, 3), (3, 2)), 3)
        assert SymForm.from_dict(f.to_dict()) == f
        with pytest.raises(ValueError, match="declared m"):
            SymForm.from_dict({"m": 3, "k": 2, "R": [[1]]})


class TestDiagonalEntries:
    def test_t_gate(self):
        assert diagonal_entries(T_FORM).tolist() == [0, 1]

    def test_cz(self):
        assert diagonal_entries(CZ_FORM).tolist() == [0, 0, 0, 4]
        assert np.allclose(oracle.dense_diagonal(CZ_FORM), np.diag([1, 1, 1, -1]))

    def test_zero_form(self):
        assert diagonal_entries(SymForm.zeros(3, 4)).tolist() == [0] * 8

    @staticmethod
    def _direct(form):
        R = form.entries
        return [int(v @ R @ v) % (1 << form.k) for v in index_vectors(form.m)]

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 16])
    def test_matches_direct_evaluation_random(self, k):
        rng = np.random.default_rng(100 + k)
        for m in range(1, 9):
            for _ in range(3):
                form = random_canonical_form(rng, m, k)
                assert diagonal_entries(form).tolist() == self._direct(form)

    def test_matches_direct_evaluation_exhaustive(self):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                for form in enumerate_canonical_forms(m, k):
                    assert diagonal_entries(form).tolist() == self._direct(form)

    def test_sampled_entries_at_m20(self):
        m, k = 20, 5
        rng = np.random.default_rng(20)
        form = random_canonical_form(rng, m, k)
        exps = diagonal_entries(form)
        assert exps.shape == (1 << m,) and exps.dtype == np.int64
        for idx in rng.integers(0, 1 << m, size=64).tolist():
            v = np.array([int(c) for c in np.binary_repr(idx, width=m)])
            assert exps[idx] == int(v @ form.entries @ v) % (1 << k)


class TestFormLevel:
    # level of each named gate of the standard table, all at k = 3
    TABLE = {"I": 1, "P": 2, "Z": 1, "Pdg": 2, "T": 3, "TZ": 3, "Tdg": 3, "TdgZ": 3,
             "CZ": 2, "CP": 3, "IxP": 2, "IxZ": 1, "PxI": 2, "ZxI": 1}

    def test_standard_gate_table(self):
        assert {name: form_level(form) for name, form in standard_gate_table()} == self.TABLE

    def test_off_diagonal_entries_count_like_diagonal_ones(self):
        # CZ at R_01 = 2 and CS at R_01 = 1 (k=3); the same entries at k=5
        # sit two levels higher
        assert form_level(SymForm([[0, 2], [2, 0]], 3)) == 2
        assert form_level(SymForm([[0, 1], [1, 0]], 3)) == 3
        assert form_level(SymForm([[4, 2], [2, 0]], 5)) == 4
        assert form_level(SymForm([[0, 1], [1, 8]], 5)) == 5

    def test_level_one_floor(self):
        assert form_level(SymForm.zeros(3, 3)) == 1
        assert form_level(SymForm.zeros(2, 0)) == 1
        assert form_level(SymForm([[1]], 1)) == 1

    def test_scale(self):
        # one O(m^2) pass: the largest level is k unless every entry is even
        R = np.full((512, 512), 4, dtype=np.int64)
        assert form_level(SymForm(R, 6)) == 4
        R[100, 200] = R[200, 100] = 1
        assert form_level(SymForm(R, 6)) == 6

    @pytest.mark.parametrize("m, ks", [(1, range(1, 7)), (2, range(1, 5)), (3, range(1, 3))])
    def test_matches_residual_recursion(self, m, ks):
        level = _residual_level(m)
        for k in ks:
            forms = list(enumerate_canonical_forms(m, k))
            assert len(forms) == group_order(m, k)
            for form in forms:
                assert form_level(form) == level(form), form.entries.tolist()

    def test_residual_recursion_catches_valuation_fault(self):
        # k - (v2 + 1) in place of k - v2 first disagrees at R = [[1]], k=2
        level = _residual_level(1)
        wrong = [form.entries.tolist() for form in enumerate_canonical_forms(1, 2)
                 if max(1, form_level(form) - 1) != level(form)]
        assert wrong[0] == [[1]]


def _residual_level(m):
    """Level by the paper's residual recursion, memoised per call.  A form
    is at level 1 when its gate is a Z-type Pauli up to phase: off-diagonal
    entries 0 and each diagonal entry a multiple of 2^(k-1).  Otherwise its
    level is 1 plus the largest level among the residuals of E(a0, 0),
    a0 != 0."""
    zero = np.zeros(m, dtype=np.int64)
    shifts = [PauliLabel(a0, zero) for a0 in index_vectors(m)[1:]]
    memo = {}

    def level(form):
        if form not in memo:
            R, d = form.entries, form.entries.diagonal()
            pauli = not np.any(R - np.diag(d)) and not np.any(d % (1 << (form.k - 1)))
            memo[form] = 1 if pauli else 1 + max(level(residual_form(form, p)) for p in shifts)
        return memo[form]

    return level


class TestXorCarry:
    def test_zero_overlap(self):
        assert xor_carry([1, 0], SymForm(((1, 2), (2, 3)), 3), [0, 0]) == 0

    def test_single_qubit(self):
        # [(v + w) - v*w] R (v*w)^T = [2 - 1] * 1 * 1 = 1
        assert xor_carry([1], T_FORM, [1]) == 1

    def test_relates_xor_to_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            form = random_canonical_form(rng, m, k)
            v = rng.integers(0, 2, m)
            w = rng.integers(0, 2, m)
            x = (v ^ w).astype(np.int64)
            R, M = form.entries, 1 << k
            lhs = int(x @ R @ x) % M
            rhs = (int((v + w) @ R @ (v + w)) - 4 * xor_carry(v, form, w)) % M
            assert lhs == rhs

    def test_projection_rewrite(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            form = random_canonical_form(rng, m, k)
            v, w = rng.integers(0, 2, m), rng.integers(0, 2, m)
            R, M = form.entries, 1 << k
            proj = np.diag(1 - w) @ R @ np.diag(w) + np.diag((w @ R) * w)
            assert xor_carry(v, form, w) == int(v @ proj @ v) % M


def _random_residual_cases(m, forms_per_level):
    rng = np.random.default_rng(m)
    for k in range(3, 7):
        for _ in range(forms_per_level):
            upper = np.triu(rng.integers(0, 1 << k, size=(m, m)), 1)
            form = SymForm(upper + upper.T + np.diag(rng.integers(0, 1 << k, m)), k)
            p = PauliLabel(rng.integers(0, 4, m), rng.integers(0, 4, m))
            yield form, p, rng.integers(0, 2, size=(8, m))


@st.composite
def residual_tables(draw):
    """A form at m 1-4, k 2-6, and 1-5 labels with live second layers."""
    m, k = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    flat = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=m * m, max_size=m * m))
    upper = np.triu(np.array(flat, dtype=np.int64).reshape(m, m))
    vec = st.lists(st.integers(0, 3), min_size=m, max_size=m)
    labels = draw(st.lists(st.builds(PauliLabel, vec, vec), min_size=1, max_size=5))
    return SymForm(upper + np.triu(upper, 1).T, k), labels


class TestResidualExponent:
    @given(residual_tables())
    def test_table_rows_are_one_label_rows_and_residual_forms(self, case):
        # each row of the one-broadcast table is that label's one-label table,
        # and phi + 2 v R' v^T with R' from residual_form
        form, labels = case
        V = index_vectors(form.m)
        table = residual_exponent_table(form, labels)
        assert table.shape == (len(labels), 1 << form.m)
        for p, row in zip(labels, table):
            assert np.array_equal(row, residual_exponent_table(form, [p])[0])
            R_next = residual_form(form, p).entries
            quad = np.einsum("vi,ij,vj->v", V, R_next, V)
            assert np.array_equal(row, (global_phase_exponent(form, p) + 2 * quad) % (1 << form.k))

    def test_table_checks_every_label(self):
        labels = [PauliLabel((1, 0), (0, 1)), X1]
        with pytest.raises(ValueError, match="^dimension mismatch: Pauli on 1, form on 2$"):
            residual_exponent_table(CZ_FORM, labels)

    def test_level2_always_vanishes_mod4(self):
        for form in enumerate_canonical_forms(2, 2):
            for a in range(4):
                for b in range(4):
                    av = np.array([(a >> 1) & 1, a & 1])
                    bv = np.array([(b >> 1) & 1, b & 1])
                    p = PauliLabel(av, bv)
                    assert np.all(residual_exponent_table(form, [p])[0] % 4 == 0)

    def test_t_gate_values(self):
        row = residual_exponent_table(T_FORM, [X1])[0]
        assert row[basis_index([0])] == 7 and row[basis_index([1])] == 1

    def test_z_type_gives_zero(self):
        form = SymForm(((3, 2), (2, 5)), 4)
        assert np.all(residual_exponent_table(form, [PauliLabel((0, 0), (1, 1))]) == 0)

    def test_rejects_level_one(self):
        with pytest.raises(ValueError):
            residual_exponent_table(SymForm(((1,),), 1), [X1])

    @pytest.mark.parametrize("m", ["T", "zero", 3, 64, 256])
    def test_residual_form_exact_at_large_m(self, m):
        # residual exponent == global phase + 2 v R' v^T (mod 2^k): the
        # mask-built residual form against the carry formula, from the T gate
        # on X and a zero form through m=3 to bench sizes, where the dense
        # sweeps (m <= 3) and full basis tables cannot reach, so the
        # carry formula is evaluated on the drawn rows alone
        if m == "T":
            cases = [(T_FORM, X1, [[0], [1]])]
        elif m == "zero":
            cases = [(SymForm.zeros(2, 3), PauliLabel((0, 0), (1, 0)), [[1, 0]])]
        else:
            cases = _random_residual_cases(m, 12 if m == 3 else 1)
        for form, p, vs in cases:
            phi = global_phase_exponent(form, p)
            R_next = residual_form(form, p).entries
            vs = np.asarray(vs)
            rows = residual_exponent_table(form, [p], vs)[0]
            for v, got in zip(vs, rows):
                assert got == (phi + 2 * int(v @ R_next @ v)) % (1 << form.k)


class TestLabelBoundary:
    """Labels are validated once, when built: the conjugation recursion
    never coerces them again and checks only their length against m."""

    CALLS = {
        "conjugate": conjugate,
        "full_recursion_trace": full_recursion_trace,
        "global_phase_exponent": global_phase_exponent,
        "residual_form": residual_form,
        "residual_exponent_list": lambda form, p: residual_exponent_table(form, [p])[0].tolist(),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_valid_label_is_not_coerced_again(self, monkeypatch, name):
        form, p = CZ_FORM, PauliLabel((1, 3), (2, 1))
        expected = self.CALLS[name](form, p)

        def refuse(x):
            raise AssertionError("label coerced again")

        monkeypatch.setattr(ring, "as_int_vector", refuse)
        got = self.CALLS[name](form, p)
        assert got == expected

    @pytest.mark.parametrize("name", CALLS)
    def test_wrong_length_label_raises(self, name):
        with pytest.raises(ValueError, match="^dimension mismatch: Pauli on 1, form on 2$"):
            self.CALLS[name](CZ_FORM, X1)


class TestConjugate:
    def test_t_on_x(self):
        res = conjugate(T_FORM, X1)
        assert res.phase_exponent == 7
        assert res.label == PauliLabel((1,), (1,))
        assert res.residual == SymForm(((1,),), 2)
        assert res.level == 3

    def test_z_type_pauli_commutes(self):
        form = SymForm(((3, 1), (1, 6)), 3)
        p = PauliLabel((0, 0), (1, 1))
        res = conjugate(form, p)
        assert res.phase_exponent == 0
        assert res.label == p
        assert res.residual.is_zero()

    def test_level_one_is_sign_only(self):
        z_form = SymForm(((1,),), 1)
        res = conjugate(z_form, X1)
        assert (res.phase_exponent, res.label) == (1, X1)
        assert res.residual.k == 0
        # dense: Z X Z = -X
        lhs = oracle.conjugate_dense(oracle.dense_diagonal(z_form), oracle.dense_pauli(X1))
        assert np.allclose(lhs, -oracle.dense_pauli(X1))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conjugate(T_FORM, PauliLabel((1, 0), (0, 0)))

    @pytest.mark.parametrize("m,k", [(1, 2), (2, 3), (2, 4), (3, 3)])
    def test_dense_exactness_binary_labels(self, m, k):
        rng = np.random.default_rng(m * 10 + k)
        vecs = [tuple(int(b) for b in np.binary_repr(i, m)) for i in range(1 << m)]
        for _ in range(10):
            form = random_canonical_form(rng, m, k)
            u = oracle.dense_diagonal(form)
            for a in vecs:
                for b in vecs:
                    p = PauliLabel(a, b)
                    lhs = oracle.conjugate_dense(u, oracle.dense_pauli(p))
                    assert np.allclose(lhs, _reconstruct(form, conjugate(form, p)), atol=1e-12)

    def test_dense_exactness_integer_labels(self):
        rng = np.random.default_rng(9)
        for k in (1, 2, 3, 4):
            for _ in range(25):
                form = random_canonical_form(rng, 2, k)
                p = PauliLabel(tuple(rng.integers(0, 8, 2)), tuple(rng.integers(0, 8, 2)))
                u = oracle.dense_diagonal(form)
                lhs = oracle.conjugate_dense(u, oracle.dense_pauli(p))
                assert np.allclose(lhs, _reconstruct(form, conjugate(form, p)), atol=1e-12)


class TestRecursionTrace:
    def test_t_gate_chain(self):
        steps = full_recursion_trace(T_FORM, X1)
        assert [s.level for s in steps] == [3, 2, 1]
        assert steps[0].phase_exponent == 7
        assert steps[0].label == PauliLabel((1,), (1,))
        assert steps[0].residual == SymForm(((1,),), 2)
        # level-2 step is a Clifford conjugation: zero phase, X -> Y, no residual
        assert steps[1].phase_exponent == 0
        assert steps[1].label == PauliLabel((1,), (1,))
        assert steps[1].residual.is_zero()
        assert steps[2].residual.k == 0

    def test_identity_gate_single_step(self):
        steps = full_recursion_trace(SymForm.zeros(1, 1), X1)
        assert len(steps) == 1
        assert steps[0].phase_exponent == 0
        assert steps[0].label == X1

    def test_level_zero_gate_empty_trace(self):
        assert full_recursion_trace(SymForm.zeros(1, 0), X1) == []

    def test_each_step_exact_dense(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            form = random_canonical_form(rng, 2, 3)
            p = PauliLabel(tuple(rng.integers(0, 2, 2)), tuple(rng.integers(0, 2, 2)))
            steps = full_recursion_trace(form, p)
            chain = [form] + [step.residual for step in steps[:-1]]
            for gate, step in zip(chain, steps):
                lhs = oracle.conjugate_dense(
                    oracle.dense_diagonal(gate), oracle.dense_pauli(p)
                )
                assert np.allclose(lhs, _reconstruct(gate, step), atol=1e-12)


class TestTensor:
    def test_p_tensor_identity(self):
        out = tensor(SymForm(((2,),), 3), SymForm(((0,),), 3))
        assert out == SymForm(((2, 0), (0, 0)), 3)

    def test_level_scaling_via_empty_factor(self):
        # embedding a level-2 phase gate at level 3 doubles its entries
        out = tensor(SymForm((), 3), SymForm(((1,),), 2))
        assert out == SymForm(((2,),), 3)

    def test_tensor_with_zero_form_preserves_entries(self):
        f = SymForm(((3, 1), (1, 5)), 3)
        out = tensor(f, SymForm.zeros(1, 3))
        old = diagonal_entries(f)
        new = diagonal_entries(out)
        assert np.array_equal(new[::2], old)

    def test_level_order_enforced(self):
        with pytest.raises(ValueError):
            tensor(SymForm(((1,),), 2), SymForm(((1,),), 3))

    def test_entries_product_rule(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            m, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            k = int(rng.integers(1, 5))
            ell = int(rng.integers(1, k + 1))
            f1, f2 = random_canonical_form(rng, m, k), random_canonical_form(rng, n, ell)
            combined = diagonal_entries(tensor(f1, f2))
            e1, e2 = diagonal_entries(f1), diagonal_entries(f2)
            expect = (e1[:, None] + (1 << (k - ell)) * e2[None, :]).ravel() % (1 << k)
            assert np.array_equal(combined, expect)


class TestSynthesize:
    def test_escalation_example(self):
        form = synthesize([0, 1, 1, 1], 2)
        assert form == SymForm(((2, 3), (3, 2)), 3)
        assert np.allclose(
            oracle.dense_diagonal(form), np.diag([1, 1j, 1j, 1j]), atol=1e-12
        )

    def test_ccz_is_infeasible_with_witness(self):
        with pytest.raises(InfeasibleDiagonalError) as err:
            synthesize([0, 0, 0, 0, 0, 0, 0, 4], 3)
        assert err.value.witness == (1, 1, 1)

    def test_witness_is_first_mismatch_at_m20(self):
        m, k = 20, 4
        rng = np.random.default_rng(21)
        exps = diagonal_entries(random_canonical_form(rng, m, k))
        # perturb two entries of weight >= 3, which the solve never reads
        heavy = [i for i in rng.integers(0, 1 << m, size=64).tolist() if bin(i).count("1") >= 3]
        first, second = sorted(set(heavy))[:2]
        exps[[first, second]] = (exps[[first, second]] + 1) % (1 << k)
        with pytest.raises(InfeasibleDiagonalError) as err:
            synthesize(exps, k)
        assert err.value.witness == tuple(int(c) for c in np.binary_repr(first, width=m))
        assert err.value.level == k

    def test_all_zero_exponents(self):
        assert synthesize([0, 0], 1) == SymForm.zeros(1, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_zz_rotation_form(self, k):
        off = (1 << max(k - 1, 0)) - 1 if k > 1 else 0
        want = SymForm(((1, off), (off, 1)), k)
        assert synthesize([0, 1, 1, 0], k) == want

    def test_global_phase_removed(self):
        # constant offset on all exponents synthesizes the same form
        assert synthesize([5, 6], 3) == synthesize([0, 1], 3)

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError, match="power of two"):
            synthesize([0, 1, 1], 2)
        with pytest.raises(ValueError, match="power of two"):
            synthesize([0], 2)
        with pytest.raises(ValueError, match="exponents must be a flat list"):
            synthesize([[0, 1], [1, 3]], 3)

    def test_round_trip_exhaustive_small(self):
        for m in (1, 2):
            for k in (1, 2, 3):
                for form in enumerate_canonical_forms(m, k):
                    assert synthesize(diagonal_entries(form), k) == form

    def test_round_trip_random_m3(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            form = random_canonical_form(rng, 3, int(rng.integers(1, 5)))
            assert synthesize(diagonal_entries(form), form.k) == form


class TestGroupLaw:
    def test_t_plus_t_is_p(self):
        assert group_add(T_FORM, T_FORM) == SymForm(((2,),), 3)

    def test_identity_element(self):
        f = SymForm(((1, 3), (3, 2)), 3)
        assert group_add(f, SymForm.zeros(2, 3)) == f

    def test_cz_squared_is_identity(self):
        total = group_add(CZ_FORM, CZ_FORM)
        assert total.is_zero()
        cz = oracle.dense_diagonal(CZ_FORM)
        assert np.allclose(cz @ cz, np.eye(4), atol=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatched"):
            group_add(T_FORM, SymForm(((1,),), 2))

    def test_entry_exponents_add(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = random_canonical_form(rng, 2, 3)
            g = random_canonical_form(rng, 2, 3)
            lhs = diagonal_entries(group_add(f, g))
            rhs = (diagonal_entries(f) + diagonal_entries(g)) % 8
            assert np.array_equal(lhs, rhs)

    def test_group_axioms_random(self):
        rng = np.random.default_rng(13)
        zero = SymForm.zeros(2, 3)
        for _ in range(100):
            f, g, h = (random_canonical_form(rng, 2, 3) for _ in range(3))
            assert group_add(group_add(f, g), h) == group_add(f, group_add(g, h))
            assert group_add(f, g) == group_add(g, f)
            assert group_add(f, group_negate(f)) == zero


class TestGroupOrder:
    def test_values(self):
        assert group_order(1, 1) == 2
        assert group_order(2, 2) == 32
        assert group_order(3, 3) == 32768

    def test_enumeration_matches(self):
        forms = list(enumerate_canonical_forms(2, 2))
        assert len(forms) == 32
        assert len({tuple(diagonal_entries(f).tolist()) for f in forms}) == 32


class TestEntryListInjectivity:
    @pytest.mark.parametrize("m,k", [(1, 1), (1, 2), (1, 3), (2, 2)])
    def test_distinct_forms_distinct_diagonals(self, m, k):
        seen = {tuple(diagonal_entries(f).tolist()) for f in enumerate_canonical_forms(m, k)}
        assert len(seen) == group_order(m, k)


class TestCczCompanion:
    def test_entries(self):
        form = ccz_companion()
        assert form.entries.diagonal().tolist() == [7, 7, 7]
        off = [form.entries[i, j] for i in range(3) for j in range(3) if i != j]
        assert all(x == 1 and x == 5 % 4 for x in off)

    def test_last_exponent(self):
        assert diagonal_entries(ccz_companion())[-1] == 3

    def test_dense_product(self):
        form = ccz_companion()
        z3 = np.diag([(-1.0 + 0j) ** (bin(v).count("1")) for v in range(8)])
        u = np.cos(np.pi / 8) * np.eye(8) + 1j * np.sin(np.pi / 8) * z3
        ccz = np.diag([1.0 + 0j] * 7 + [-1.0 + 0j])
        dense = oracle.dense_diagonal(form)
        assert oracle.equal_up_to_global_phase(dense, u @ ccz, tol=1e-10)
        # the global phase is exp(-i pi / 8) exactly
        assert np.allclose(dense, np.exp(-1j * np.pi / 8) * u @ ccz, atol=1e-10)


class TestGateTable:
    def test_names_and_size(self):
        table = standard_gate_table()
        assert len(table) == 14
        byname = dict(table)
        assert byname["Z"] == SymForm(((4,),), 3)
        assert byname["CP"] == SymForm(((0, 1), (1, 0)), 3)
        assert byname["I"] == SymForm(((0,),), 3)

    def test_dense_diagonals(self):
        t = np.exp(1j * np.pi / 4)
        expected = {
            "I": [1, 1],
            "P": [1, 1j],
            "Z": [1, -1],
            "Pdg": [1, -1j],
            "T": [1, t],
            "TZ": [1, -t],
            "Tdg": [1, t.conjugate()],
            "TdgZ": [1, -t.conjugate()],
            "CZ": [1, 1, 1, -1],
            "CP": [1, 1, 1, 1j],
            "IxP": [1, 1j, 1, 1j],
            "IxZ": [1, -1, 1, -1],
            "PxI": [1, 1, 1j, 1j],
            "ZxI": [1, 1, -1, -1],
        }
        for name, form in standard_gate_table():
            assert np.allclose(
                oracle.dense_diagonal(form), np.diag(expected[name]), atol=1e-12
            ), name


def test_conjugation_result_json():
    res = conjugate(T_FORM, X1)
    d = res.to_dict()
    assert d == {
        "phi": 7,
        "label": {"a": [1], "b": [1]},
        "R_tilde": [[1]],
        "k_next": 2,
    }
    assert isinstance(res, ConjugationResult)
