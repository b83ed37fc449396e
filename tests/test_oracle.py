import numpy as np
import pytest

from symdiag import oracle
from symdiag.checks import random_canonical_form
from symdiag.diagonal import (
    SymForm,
    diagonal_entries,
    enumerate_canonical_forms,
    form_level,
    index_vectors,
    standard_gate_table,
)
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


def test_dense_exponents_match_calculus():
    for _, form in standard_gate_table():
        assert np.array_equal(oracle.dense_exponents(form), diagonal_entries(form))
    assert oracle.dense_exponents(SymForm.zeros(2, 0)).tolist() == [0, 0, 0, 0]


def _controlled_phases():
    """CCZ, CC-S and CC-T at k=3: exponent 4, 2, 1 on |111>, not quadratic forms."""
    return index_vectors(3).prod(axis=1) * np.array([[4], [2], [1]])


def test_diagonal_level_multi_controlled_phases():
    assert oracle.diagonal_levels(_controlled_phases(), 3) == [3, 4, 5]


def test_diagonal_level_single_qubit():
    assert oracle.diagonal_levels([[0, 1]], 3) == [3]
    assert oracle.diagonal_levels([[5, 5]], 3) == [1]  # a global phase
    assert oracle.diagonal_levels([[3, 7]], 3) == [1]  # Z up to phase
    assert oracle.diagonal_levels([[0, 1]], 16) == [16]


def test_level_rules_agree_on_all_forms():
    """The exact integer rules on both sides against the dense recursion
    from the definition, on all 306 canonical forms at m <= 2, k <= 3."""
    count = 0
    for m in (1, 2):
        for k in (1, 2, 3):
            for form in enumerate_canonical_forms(m, k):
                dense = oracle.hierarchy_level(oracle.dense_diagonal(form), max_k=3)
                assert oracle.diagonal_levels([oracle.dense_exponents(form)], k) == [dense]
                assert form_level(form) == dense
                count += 1
    assert count == 306


def test_shared_memo_matches_one_row_calls():
    """One table under one memo against one-row calls: the 306 small forms,
    each lifted to three qubits and level 3 (tensoring with identity and
    writing xi_k^e as xi_3^(2^(3-k) e) keep the gate's level), and the
    three controlled phases."""
    small = [(m, k, oracle.dense_exponents(form)) for m in (1, 2) for k in (1, 2, 3)
             for form in enumerate_canonical_forms(m, k)]
    v = np.arange(8)
    lifted = [e[v >> (3 - m)] << (3 - k) for m, k, e in small]
    table = np.vstack([*lifted, _controlled_phases()])
    one_row = [oracle.diagonal_levels([e], k)[0] for _, k, e in small]
    one_row += [oracle.diagonal_levels([e], 3)[0] for e in _controlled_phases()]
    assert oracle.diagonal_levels(table, 3) == one_row
    assert one_row[-3:] == [3, 4, 5] and len(one_row) == 309


def test_diagonal_level_guards():
    with pytest.raises(ValueError, match="m <= 4"):
        oracle.diagonal_levels(np.zeros((1, 32), dtype=np.int64), 3)
    for bad in ([0, 1], [[0, 1, 2]], [[[0, 1]]]):
        with pytest.raises(ValueError, match="2-d exponent table of power-of-two row length"):
            oracle.diagonal_levels(bad, 3)
    with pytest.raises(ValueError, match="level k=0"):
        oracle.diagonal_levels([[0, 1]], 0)


def _labels(m, rng):
    """Every binary label at m, then 20 random integer labels, entries in [0, 4)."""
    V = index_vectors(m)
    binary = [PauliLabel(a, b) for a in V for b in V]
    return binary + [PauliLabel(rng.integers(0, 4, m), rng.integers(0, 4, m)) for _ in range(20)]


def _kron_pauli(p):
    """i^(a.b) X^a1 Z^b1 (x) ... (x) X^am Z^bm, as Kronecker products."""
    out = np.eye(1, dtype=complex)
    for ai, bi in zip(p.a, p.b):
        out = np.kron(out, np.linalg.matrix_power(X, ai) @ np.linalg.matrix_power(Z, bi))
    return 1j ** int(p.a @ p.b % 4) * out


@pytest.mark.parametrize("m", [1, 2, 3])
def test_monomial_pauli_matches_dense(m):
    rng = np.random.default_rng(m)
    labels = _labels(m, rng)
    for K in (2, 3, 5):
        for p in labels:
            mono = oracle.monomial_pauli(p.a, p.b, K)
            assert np.allclose(oracle.dense_monomial(mono, K), _kron_pauli(p), atol=1e-12)
        rows, theta = oracle.monomial_pauli(np.array([p.a for p in labels]),
                                            np.array([p.b for p in labels]), K)
        for i, p in enumerate(labels):
            one = oracle.monomial_pauli(p.a, p.b, K)
            assert np.array_equal(rows[i], one[0]) and np.array_equal(theta[i], one[1])


def _one_diagonal(form, K):
    (rows,), (theta,) = oracle.monomial_diagonal([form], K)
    return rows, theta


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_monomial_diagonal_matches_dense(k):
    # a stack of forms sharing (m, k), one einsum: identity rows, and each
    # theta row is that form's gate, exactly as dense_exponents reads it
    rng = np.random.default_rng(10 + k)
    for m in (1, 2, 3):
        forms = [random_canonical_form(rng, m, k) for _ in range(5)]
        for K in (max(k, 2), k + 2):
            rows, theta = oracle.monomial_diagonal(forms, K)
            for form, r, t in zip(forms, rows, theta):
                assert np.array_equal(r, np.arange(1 << m))
                assert np.array_equal(t, oracle.dense_exponents(form) << (K - k))
                assert np.allclose(oracle.dense_monomial((r, t), K),
                                   oracle.dense_diagonal(form), atol=1e-12)
    for mixed in ([SymForm.zeros(1, k), SymForm.zeros(2, k)], [forms[0], SymForm.zeros(3, k + 1)],
                  []):
        with pytest.raises(ValueError):
            oracle.monomial_diagonal(mixed, k + 1)


def test_monomial_product_matches_dense():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        for k in (2, 3, 4):
            for _ in range(5):
                f, g = random_canonical_form(rng, m, k), random_canonical_form(rng, m, k - 1)
                p, q = _labels(m, rng)[-2:]
                monos = [oracle.monomial_pauli(p.a, p.b, k), oracle.monomial_pauli(q.a, q.b, k),
                         _one_diagonal(f, k), _one_diagonal(g, k)]
                for x in monos:
                    for y in monos:
                        product = oracle.monomial_product(x, y, k)
                        assert np.allclose(oracle.dense_monomial(product, k),
                                           oracle.dense_monomial(x, k)
                                           @ oracle.dense_monomial(y, k), atol=1e-12)
            # a stack of Paulis on either side of one diagonal, two stacks, and
            # a stack of Paulis on either side of a stack of diagonals
            labels = _labels(m, rng)
            stack = oracle.monomial_pauli(np.array([p.a for p in labels]),
                                          np.array([p.b for p in labels]), k)
            d = _one_diagonal(f, k)
            ds = oracle.monomial_diagonal([random_canonical_form(rng, m, k) for _ in labels], k)
            for left, right in ((d, stack), (stack, d), (stack, tuple(x[::-1] for x in stack)),
                                (ds, stack), (stack, ds)):
                rows, theta = oracle.monomial_product(left, right, k)
                for i in range(len(labels)):
                    pick = [(r[i], t[i]) if r.ndim == 2 else (r, t) for r, t in (left, right)]
                    assert np.allclose(oracle.dense_monomial((rows[i], theta[i]), k),
                                       oracle.dense_monomial(pick[0], k)
                                       @ oracle.dense_monomial(pick[1], k), atol=1e-12)


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
