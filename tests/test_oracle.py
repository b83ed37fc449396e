import numpy as np
import pytest

from symdiag import oracle
from symdiag.diagonal import SymForm, standard_gate_table
from symdiag.pauli import PauliLabel, multiply

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def test_dense_pauli_single_qubit():
    assert np.allclose(oracle.dense_pauli(PauliLabel((1,), (1,))), Y)
    assert np.allclose(oracle.dense_pauli(PauliLabel((0,), (0,))), np.eye(2))
    assert np.allclose(oracle.dense_pauli(PauliLabel((1,), (0,))), X)
    assert np.allclose(oracle.dense_pauli(PauliLabel((0,), (1,))), Z)


def test_dense_pauli_tensor():
    p = oracle.dense_pauli(PauliLabel((1, 0), (0, 1)))
    assert np.allclose(p, np.kron(X, Z))
    assert np.allclose(p, p.conj().T)
    assert np.allclose(p @ p, np.eye(4))


def test_dense_diagonal_gates():
    t = oracle.dense_diagonal(SymForm(((1,),), 3))
    assert np.allclose(t, np.diag([1, np.exp(1j * np.pi / 4)]), atol=1e-12)
    cp = oracle.dense_diagonal(SymForm(((0, 1), (1, 0)), 3))
    assert np.allclose(cp, np.diag([1, 1, 1, 1j]), atol=1e-12)
    assert np.allclose(oracle.dense_diagonal(SymForm.zeros(2, 3)), np.eye(4))
    assert np.allclose(oracle.dense_diagonal(SymForm.zeros(2, 0)), np.eye(4))


def test_conjugate_dense_examples():
    t = oracle.dense_diagonal(SymForm(((1,),), 3))
    assert np.allclose(oracle.conjugate_dense(t, X), (X + Y) / np.sqrt(2), atol=1e-12)
    p = np.kron(X, Z)
    assert np.allclose(oracle.conjugate_dense(np.eye(4, dtype=complex), p), p)
    cz = oracle.dense_diagonal(SymForm(((0, 2), (2, 0)), 3))
    assert np.allclose(
        oracle.conjugate_dense(cz, np.kron(X, np.eye(2))), np.kron(X, Z), atol=1e-12
    )


def test_conjugate_dense_dim_mismatch():
    with pytest.raises(ValueError):
        oracle.conjugate_dense(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


def test_equal_up_to_global_phase():
    u = oracle.dense_diagonal(SymForm(((1,),), 3))
    assert oracle.equal_up_to_global_phase(u, np.exp(1j * np.pi / 8) * u)
    p = oracle.dense_diagonal(SymForm(((2,),), 3))
    assert not oracle.equal_up_to_global_phase(u, p)


def test_pauli_decomposition():
    out = oracle.pauli_decomposition(-1j * np.kron(Z, X))
    assert out is not None
    kappa, a, b = out
    assert (kappa, a, b) == (3, (0, 1), (1, 0))
    assert oracle.pauli_decomposition(oracle.dense_diagonal(SymForm(((1,),), 3))) is None


def test_hierarchy_level_known_gates():
    t = oracle.dense_diagonal(SymForm(((1,),), 3))
    assert oracle.hierarchy_level(t) == 3
    z = oracle.dense_diagonal(SymForm(((4,),), 3))
    assert oracle.hierarchy_level(z) == 1
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    assert oracle.hierarchy_level(h) == 2
    assert oracle.hierarchy_level(np.eye(2, dtype=complex)) == 1


def test_hierarchy_level_random_forms():
    rng = np.random.default_rng(3)
    for m in (1, 2):
        for _ in range(10):
            mat = np.zeros((m, m), dtype=np.int64)
            for i in range(m):
                mat[i, i] = rng.integers(0, 8)
                for j in range(i + 1, m):
                    mat[i, j] = mat[j, i] = rng.integers(0, 4)
            form = SymForm(mat, 3)
            level = oracle.hierarchy_level(oracle.dense_diagonal(form), max_k=3)
            assert level is not None and level <= 3


def test_hierarchy_level_exhaustive_two_qubits_level_one():
    from symdiag.diagonal import enumerate_canonical_forms

    for form in enumerate_canonical_forms(2, 1):
        assert oracle.hierarchy_level(oracle.dense_diagonal(form), max_k=1) == 1


def test_hierarchy_level_guards():
    with pytest.raises(ValueError, match="unitary"):
        oracle.hierarchy_level(np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="m <= 2"):
        oracle.hierarchy_level(np.eye(8, dtype=complex))


def test_hierarchy_level_refuses_inexact_levels():
    t = oracle.dense_diagonal(SymForm(((1,),), 3))
    with pytest.raises(ValueError, match="max_k=4 exceeds 3"):
        oracle.hierarchy_level(t, max_k=4)


def test_hierarchy_level_unknown_for_generic_unitary():
    theta = 0.3
    u = np.diag([1.0, np.exp(1j * theta)]).astype(complex)
    assert oracle.hierarchy_level(u, max_k=3) is None


def test_pauli_multiplication_law_dense():
    for m in (1, 2):
        vecs = [tuple(int(b) for b in np.binary_repr(i, m)) for i in range(1 << m)]
        for a in vecs:
            for b in vecs:
                for c in vecs:
                    for d in vecs:
                        p, q = PauliLabel(a, b), PauliLabel(c, d)
                        out = multiply(p, q)
                        assert np.allclose(
                            out.phase * oracle.dense_pauli(out.label),
                            oracle.dense_pauli(p) @ oracle.dense_pauli(q),
                            atol=1e-12,
                        )


def test_pauli_closure_spot_check():
    # multiplying a level-3 gate by any Pauli stays at level 3
    t = oracle.dense_diagonal(SymForm(((1,),), 3))
    for c in (0, 1):
        for d in (0, 1):
            u = oracle.dense_pauli(PauliLabel((c,), (d,))) @ t
            assert oracle.hierarchy_level(u, max_k=3) == 3


def test_gate_table_diagonals_are_unitary():
    for _, form in standard_gate_table():
        dense = oracle.dense_diagonal(form)
        assert oracle.is_unitary(dense, tol=1e-12)
