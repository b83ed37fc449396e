"""Storage contract of the value types and properties of canonicalisation.

SymForm and PauliLabel each hold one representation: read-only int64
arrays copied from the input.  Equality compares k and array contents,
hashing agrees with it, and canonicalisation is a function of the gate.
"""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symdiag import ConjugationResult, PauliLabel, SymForm, conjugate, diagonal_entries
from symdiag.checks import check_conjugation_exactness


@st.composite
def raw_symmetric(draw, m):
    """A raw symmetric m x m integer matrix, negative entries included."""
    flat = draw(st.lists(st.integers(-40, 40), min_size=m * m, max_size=m * m))
    upper = np.triu(np.array(flat, dtype=np.int64).reshape(m, m))
    return upper + np.triu(upper, 1).T


@st.composite
def form_pairs(draw):
    """Two raw matrices at one (m, k): the second is the first shifted by
    multiples of the moduli, plus an optional perturbation, so equal and
    unequal forms both occur often."""
    m, k = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    R1 = draw(raw_symmetric(m))
    mods = np.full((m, m), 1 << max(k - 1, 0))
    np.fill_diagonal(mods, 1 << k)
    R2 = R1 + draw(raw_symmetric(m)) * mods
    if draw(st.booleans()):
        R2 = R2 + draw(raw_symmetric(m)) % 2
    return R1, R2, k


@given(form_pairs())
def test_canonicalisation_is_idempotent(pair):
    R1, _, k = pair
    f = SymForm(R1, k)
    assert SymForm(f.entries, f.k) == f


@given(form_pairs())
def test_forms_equal_iff_diagonals_equal(pair):
    R1, R2, k = pair
    f1, f2 = SymForm(R1, k), SymForm(R2, k)
    same_gate = np.array_equal(diagonal_entries(f1), diagonal_entries(f2))
    assert (f1 == f2) == same_gate
    if f1 == f2:
        assert hash(f1) == hash(f2)


labels = st.integers(1, 4).flatmap(
    lambda m: st.tuples(*[st.lists(st.integers(0, 7), min_size=m, max_size=m)] * 4)
)


@given(labels)
def test_label_round_trip_and_hash(vecs):
    a, b, c, d = vecs
    p, q = PauliLabel(a, b), PauliLabel(c, d)
    assert PauliLabel.from_dict(json.loads(json.dumps(p.to_dict()))) == p
    assert (p == q) == (a == c and b == d)
    if p == q:
        assert hash(p) == hash(q)


def test_stored_arrays_are_read_only_int64():
    form = SymForm([[9, 5], [5, -1]], 3)
    label = PauliLabel([1, 2], [0, 3])
    for arr, ndim in ((form.entries, 2), (label.a, 1), (label.b, 1)):
        assert arr.dtype == np.int64 and arr.ndim == ndim
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    assert form.entries.tolist() == [[1, 1], [1, 7]]


@pytest.mark.parametrize("k", [3, 16])
def test_input_arrays_are_copied_not_frozen(k):
    R = np.array([[1, 2], [2, 3]], dtype=np.int64)
    a, b = np.array([1, 0], dtype=np.int64), np.array([0, 1], dtype=np.int64)
    form, label = SymForm(R, k), PauliLabel(a, b)
    R[0, 0], a[0], b[0] = 5, 3, 2
    assert form.entries.tolist() == [[1, 2], [2, 3]]
    assert label.a.tolist() == [1, 0] and label.b.tolist() == [0, 1]
    assert R.flags.writeable and a.flags.writeable and b.flags.writeable
    # values built from another value's read-only arrays stay independent
    assert PauliLabel(label.a, label.b) == label and SymForm(form.entries, k) == form


def test_dicts_are_plain_json():
    form = SymForm([[1, 3], [3, 6]], 4)
    res = conjugate(form, PauliLabel([1, 1], [0, 2]))
    assert isinstance(res, ConjugationResult)
    assert json.loads(json.dumps(form.to_dict())) == {"m": 2, "k": 4, "R": [[1, 3], [3, 6]]}
    json.dumps(res.to_dict())
    failed = check_conjugation_exactness(2, 3, 5, np.random.default_rng(0), flip_phase=True)
    assert not failed.passed
    assert set(json.loads(json.dumps(failed.detail))) == {"R", "a", "b"}


def test_dense_oracle_tables_are_read_only_and_built_once(monkeypatch):
    from symdiag import diagonal, oracle

    for m in range(1, oracle.MAX_DENSE_QUBITS + 1):
        table = oracle._basis_vectors(m)
        assert table is oracle._basis_vectors(m) is diagonal._basis_table(m)
        assert not table.flags.writeable
    # above the guard the residual exponents build their table afresh
    monkeypatch.setattr(diagonal, "_basis_table", None)
    form = SymForm(np.eye(5, dtype=np.int64), 3)
    assert diagonal.residual_exponent_list(form, PauliLabel([1] * 5, [0] * 5)).shape == (32,)
    gens = oracle._hierarchy_generators(2)
    assert gens is oracle._hierarchy_generators(2)
    assert len(gens) == 4 and not any(g.flags.writeable for g in gens)
    with pytest.raises(ValueError, match="m <= 4"):
        oracle._basis_vectors(oracle.MAX_DENSE_QUBITS + 1)
