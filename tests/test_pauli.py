import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symdiag import oracle
from symdiag.pauli import PauliLabel, PhasedPauli, multiply, symplectic_inner

X = PauliLabel((1,), (0,))
Z = PauliLabel((0,), (1,))
Y = PauliLabel((1,), (1,))


def test_multiply_x_times_z():
    out = multiply(X, Z)
    # i^(0 - 1) E(1,1): phase exponent -1 = 3 mod 4, i.e. -i * Y = XZ
    assert out.phase_num == 3
    assert out.label == Y
    dense = out.phase * oracle.dense_pauli(out.label)
    assert np.allclose(dense, oracle.dense_pauli(X) @ oracle.dense_pauli(Z))


def test_multiply_self_is_identity():
    for p in [X, Z, Y, PauliLabel((1, 0), (1, 1))]:
        out = multiply(p, p)
        assert out.phase_num == 0
        assert out.label.a.tolist() == [2 * x for x in p.a]
        dense = out.phase * oracle.dense_pauli(out.label)
        assert np.allclose(dense, np.eye(1 << p.m))


def test_multiply_y_times_x():
    out = multiply(Y, X)
    # frozen from the dense product: YX = -iZ = i * E(2, 1)
    assert out.phase_num == 1
    assert out.label == PauliLabel((2,), (1,))
    assert np.allclose(out.phase * oracle.dense_pauli(out.label), -1j * oracle.dense_pauli(Z))


def test_multiply_dimension_mismatch():
    with pytest.raises(ValueError):
        multiply(X, PauliLabel((1, 0), (0, 0)))


def test_symplectic_inner_examples():
    assert symplectic_inner(X, Z) == 1
    assert symplectic_inner(Y, Y) == 0
    assert symplectic_inner(PauliLabel((1,), (1,)), PauliLabel((1,), (1,))) == 0


def test_commutes_examples():
    # two Paulis commute exactly when their symplectic inner product is 0
    assert symplectic_inner(X, Z) == 1
    ident = PauliLabel((0, 0), (0, 0))
    assert symplectic_inner(PauliLabel((1, 1), (0, 1)), ident) == 0
    # X(x)Z vs Z(x)X: inner product 1 + 1 = 0, so they commute
    p = PauliLabel((1, 0), (0, 1))
    q = PauliLabel((0, 1), (1, 0))
    assert symplectic_inner(p, q) == 0
    dp, dq = oracle.dense_pauli(p), oracle.dense_pauli(q)
    assert np.allclose(dp @ dq, dq @ dp)


def _random_label(rng, m, high=8):
    return PauliLabel(
        tuple(rng.integers(0, high, size=m).tolist()),
        tuple(rng.integers(0, high, size=m).tolist()),
    )


def test_hermitian_and_involution_dense():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3):
        for _ in range(20):
            p = _random_label(rng, m)
            dense = oracle.dense_pauli(p)
            assert np.allclose(dense, dense.conj().T, atol=1e-12)
            assert np.allclose(dense @ dense, np.eye(1 << m), atol=1e-12)


def test_multiply_matches_dense_product():
    rng = np.random.default_rng(6)
    # all binary pairs at m <= 2
    for m in (1, 2):
        vecs = [tuple(int(b) for b in np.binary_repr(i, m)) for i in range(1 << m)]
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    for d in vecs:
                        p, q = PauliLabel(a, b), PauliLabel(c, d)
                        out = multiply(p, q)
                        lhs = out.phase * oracle.dense_pauli(out.label)
                        rhs = oracle.dense_pauli(p) @ oracle.dense_pauli(q)
                        assert np.allclose(lhs, rhs, atol=1e-12)
    # random integer pairs at m = 3
    for _ in range(50):
        p, q = _random_label(rng, 3), _random_label(rng, 3)
        out = multiply(p, q)
        lhs = out.phase * oracle.dense_pauli(out.label)
        rhs = oracle.dense_pauli(p) @ oracle.dense_pauli(q)
        assert np.allclose(lhs, rhs, atol=1e-12)


small_vec = st.lists(st.integers(0, 7), min_size=1, max_size=4)


@given(data=st.data(), a=small_vec)
def test_commutation_sign_relation(data, a):
    m = len(a)
    fixed = st.lists(st.integers(0, 7), min_size=m, max_size=m)
    b, c, d = data.draw(fixed), data.draw(fixed), data.draw(fixed)
    p, q = PauliLabel(tuple(a), tuple(b)), PauliLabel(tuple(c), tuple(d))
    pq, qp = multiply(p, q), multiply(q, p)
    # E(p)E(q) and E(q)E(p) share a label sum and differ by (-1)^<p,q>
    assert pq.label == qp.label
    assert (pq.phase_num - qp.phase_num) % 4 == 2 * symplectic_inner(p, q) % 4


def test_json_round_trip():
    p = PauliLabel((2, 1), (0, 3))
    assert PauliLabel.from_dict(p.to_dict()) == p
    pp = PhasedPauli(2, 2, p)
    assert PhasedPauli.from_dict(pp.to_dict()) == pp
