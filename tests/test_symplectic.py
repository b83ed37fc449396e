import numpy as np
import pytest

from symdiag import oracle
from symdiag.checks import SIGN_CHECK_SAMPLES, check_clifford_signs, random_canonical_form
from symdiag.diagonal import SymForm, group_add
from symdiag.pauli import PauliLabel
from symdiag.symplectic import (
    apply_gamma,
    apply_symplectic,
    basis_change_generator,
    clifford_conjugate,
    gamma_matrix,
    generator_from_dict,
    gf2_inverse,
    hadamard_generator,
    is_binary_symplectic,
    is_permutation_matrix,
    omega,
    partial_hadamard_generator,
    phase_generator,
)

CNOT = np.array([[1, 1], [0, 1]])


class TestGamma:
    def test_zero_form_gives_identity(self):
        gm = gamma_matrix(SymForm.zeros(2, 3))
        assert np.array_equal(gm, np.eye(4, dtype=np.int64))
        assert is_binary_symplectic(gm)

    def test_t_gate_lift(self):
        gm = gamma_matrix(SymForm(((1,),), 3))
        assert gm.tolist() == [[1, 1], [0, 1]]
        assert is_binary_symplectic(gm)

    def test_cz_lift(self):
        gm = gamma_matrix(SymForm(((0, 2), (2, 0)), 3))
        assert gm.shape == (4, 4)
        assert is_binary_symplectic(gm)

    def test_every_random_lift_is_symplectic(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, k = int(rng.integers(1, 4)), int(rng.integers(1, 6))
            assert is_binary_symplectic(gamma_matrix(random_canonical_form(rng, m, k)))

    def test_composition_matches_group_add(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            f1 = random_canonical_form(rng, 2, 3)
            f2 = random_canonical_form(rng, 2, 3)
            product = gamma_matrix(f1) @ gamma_matrix(f2)
            block = product[:2, 2:]
            assert SymForm(block, 3) == group_add(f1, f2)


class TestApplyGamma:
    def test_z_type_unchanged(self):
        form = SymForm(((1,),), 3)
        label, unreduced = apply_gamma(PauliLabel((0,), (1,)), form)
        assert label == PauliLabel((0,), (1,))
        assert unreduced.tolist() == [1]

    def test_t_gate_x_to_y(self):
        form = SymForm(((1,),), 3)
        label, unreduced = apply_gamma(PauliLabel((1,), (0,)), form)
        assert label == PauliLabel((1,), (1,))
        assert unreduced.tolist() == [1]

    def test_cz_keeps_carry_in_unreduced_vector(self):
        form = SymForm(((0, 2), (2, 0)), 3)
        label, unreduced = apply_gamma(PauliLabel((1, 0), (0, 0)), form)
        # a0 R = [0, 2]: the mod-2 label drops it, the unreduced vector keeps it
        assert label == PauliLabel((1, 0), (0, 0))
        assert unreduced.tolist() == [0, 2]

    def test_requires_binary(self):
        form = SymForm(((1,),), 3)
        with pytest.raises(ValueError, match="binary"):
            apply_gamma(PauliLabel((2,), (0,)), form)


class TestGF2:
    def test_inverse(self):
        q = np.array([[1, 1], [0, 1]])
        qi = gf2_inverse(q)
        assert np.array_equal((q @ qi) % 2, np.eye(2, dtype=np.int64))

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            gf2_inverse(np.array([[1, 1], [1, 1]]))

    def test_permutation_detection(self):
        assert is_permutation_matrix(np.eye(3, dtype=np.int64))
        assert is_permutation_matrix(np.array([[0, 1], [1, 0]]))
        assert not is_permutation_matrix(CNOT)


class TestGenerators:
    def test_hadamard_f_action_and_dense(self):
        gen = hadamard_generator(1)
        assert np.array_equal(gen.F, omega(1))
        out = apply_symplectic(PauliLabel((1,), (0,)), gen.F)
        assert out == PauliLabel((0,), (1,))
        x = oracle.dense_pauli(PauliLabel((1,), (0,)))
        z = oracle.dense_pauli(PauliLabel((0,), (1,)))
        assert np.allclose(oracle.conjugate_dense(oracle.dense_unitary(gen), x), z, atol=1e-12)

    def test_phase_layer_is_p_gate(self):
        gen = phase_generator(np.array([[1]]))
        assert np.allclose(oracle.dense_unitary(gen), np.diag([1, 1j]), atol=1e-12)
        # same gate at level 3 with doubled entry
        assert np.allclose(oracle.dense_unitary(gen), oracle.dense_diagonal(SymForm(((2,),), 3)))

    def test_phase_layer_validation(self):
        with pytest.raises(ValueError, match="symmetric"):
            phase_generator(np.array([[0, 1], [0, 0]]))
        with pytest.raises(ValueError, match="binary"):
            phase_generator(np.array([[2]]))

    def test_basis_change_cnot(self):
        gen = basis_change_generator(CNOT)
        x1 = PauliLabel((1, 0), (0, 0))
        out = apply_symplectic(x1, gen.F)
        assert out == PauliLabel((1, 1), (0, 0))
        lhs = oracle.conjugate_dense(oracle.dense_unitary(gen), oracle.dense_pauli(x1))
        assert np.allclose(lhs, oracle.dense_pauli(out), atol=1e-12)

    def test_basis_change_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            basis_change_generator(np.array([[1, 1], [1, 1]]))

    def test_partial_hadamard_range(self):
        for t in range(4):
            gen = partial_hadamard_generator(3, t)
            assert is_binary_symplectic(gen.F)
        with pytest.raises(ValueError):
            partial_hadamard_generator(2, 3)
        assert not is_binary_symplectic(np.array([[1, 1], [1, 1]]))

    def test_partial_hadamard_extremes(self):
        full = partial_hadamard_generator(2, 0)
        assert np.array_equal(full.F, omega(2))
        assert np.allclose(oracle.dense_unitary(full), oracle.dense_unitary(hadamard_generator(2)))
        trivial = partial_hadamard_generator(2, 2)
        assert np.array_equal(trivial.F, np.eye(4, dtype=np.int64))
        assert np.allclose(oracle.dense_unitary(trivial), np.eye(4))

    def test_table_emits_four_symplectic_pairs(self):
        gens = [hadamard_generator(2), basis_change_generator(CNOT),
                phase_generator(np.array([[1, 1], [1, 0]])), partial_hadamard_generator(2, 1)]
        assert [g.kind for g in gens] == ["H", "L_Q", "T_R", "partialH"]
        for gen in gens:
            assert is_binary_symplectic(gen.F)
            assert oracle.is_unitary(oracle.dense_unitary(gen), tol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sign_resolved_conjugation_everywhere(self, m):
        # exact sign and label of clifford_conjugate against dense
        # conjugation, for every binary label and every generator kind
        result = check_clifford_signs(m, np.random.default_rng(m))
        assert result.passed, result.detail
        assert result.checked == (2 + m + 3 * SIGN_CHECK_SAMPLES) * 4**m

    def test_clifford_conjugate_requires_binary(self):
        with pytest.raises(ValueError, match="binary"):
            clifford_conjugate(hadamard_generator(1), PauliLabel((2,), (0,)))

    def test_generator_json_round_trip(self):
        for gen in (hadamard_generator(2), basis_change_generator(CNOT),
                    phase_generator(np.array([[1, 0], [0, 1]])), partial_hadamard_generator(2, 1)):
            rebuilt = generator_from_dict(2, gen.to_dict())
            assert np.array_equal(rebuilt.F, gen.F)
            assert np.allclose(oracle.dense_unitary(rebuilt), oracle.dense_unitary(gen))


def test_unreduced_gamma_output_carries_the_conjugation_sign():
    # the second binary layer of b0 + a0 R is exactly the sign folded into
    # the conjugation phase when the label is reduced mod 2
    from symdiag.diagonal import conjugate, global_phase_exponent

    rng = np.random.default_rng(17)
    for _ in range(50):
        m, k = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        form = random_canonical_form(rng, m, k)
        a0 = rng.integers(0, 2, m)
        b0 = rng.integers(0, 2, m)
        label = PauliLabel(tuple(int(x) for x in a0), tuple(int(x) for x in b0))
        reduced, unreduced = apply_gamma(label, form)
        res = conjugate(form, label)
        assert res.label == reduced
        w1 = (unreduced >> 1) & 1
        expected = (
            global_phase_exponent(form, label) + (1 << (k - 1)) * int(a0 @ w1)
        ) % (1 << k)
        assert res.phase_exponent == expected
