import time

import numpy as np
import pytest

from symdiag import oracle
from symdiag.checks import random_canonical_form
from symdiag.diagonal import SymForm
from symdiag.pauli import PauliLabel
from symdiag.symplectic import (
    basis_change_generator,
    hadamard_generator,
    partial_hadamard_generator,
    phase_generator,
)
from symdiag.tracker import (
    Circuit,
    apply_clifford,
    apply_diagonal,
    circuit_dense,
    circuit_from_dict,
    circuit_to_dict,
    dense_generator,
    initial_stabilizer,
    run_circuit,
    verify_against_oracle,
)

CNOT = np.array([[1, 1], [0, 1]])
SWAP = np.array([[0, 1], [1, 0]])
IDENTITY = np.eye(2, dtype=np.int64)
T_FORM = SymForm(((1,),), 3)


class TestInitialStabilizer:
    def test_single_qubit(self):
        gens = initial_stabilizer(1, 3)
        assert len(gens) == 1
        assert gens[0].label == PauliLabel((0,), (1,))
        assert gens[0].sign == 1 and gens[0].phase_num == 0

    def test_two_qubits_commuting_z_types(self):
        gens = initial_stabilizer(2, 3)
        labels = {g.label for g in gens}
        assert labels == {PauliLabel((0, 0), (1, 0)), PauliLabel((0, 0), (0, 1))}
        mats = [dense_generator(g) for g in gens]
        assert np.allclose(mats[0] @ mats[1], mats[1] @ mats[0])


class TestApplyClifford:
    def test_hadamard_maps_z_to_x(self):
        gens = apply_clifford(initial_stabilizer(1, 3), hadamard_generator(1))
        assert gens[0].label == PauliLabel((1,), (0,))
        assert gens[0].sign == 1

    def test_identity_layer_is_noop(self):
        gens = initial_stabilizer(2, 3)
        out = apply_clifford(gens, basis_change_generator(IDENTITY))
        assert [g.label for g in out] == [g.label for g in gens]
        assert all(g.sign == 1 for g in out)

    def test_cnot_layer_on_initial(self):
        gens = apply_clifford(initial_stabilizer(2, 3), basis_change_generator(CNOT))
        # Z1 -> Z1, Z2 -> Z1 Z2, both with + sign
        assert {g.label for g in gens} == {
            PauliLabel((0, 0), (1, 0)),
            PauliLabel((0, 0), (1, 1)),
        }
        assert all(g.sign == 1 for g in gens)


class TestApplyDiagonal:
    def test_z_types_exactly_invariant(self):
        gens = initial_stabilizer(2, 3)
        form = SymForm(((3, 1), (1, 6)), 3)
        out = apply_diagonal(gens, form)
        for before, after in zip(gens, out):
            assert after.label == before.label
            assert after.phase_num == 0
            assert after.sign == 1
            assert after.residual is None

    def test_worked_single_qubit_example(self):
        # H then the level-3 single-qubit gate: X -> xi^7 E(1,1) * residual([1], 2)
        gens = apply_clifford(initial_stabilizer(1, 3), hadamard_generator(1))
        out = apply_diagonal(gens, T_FORM)
        g = out[0]
        assert (g.phase_num, g.phase_log2_den) == (7, 3)
        assert g.label == PauliLabel((1,), (1,))
        assert g.residual == SymForm(((1,),), 2)
        u = circuit_dense(Circuit(1, 3, [hadamard_generator(1), T_FORM]))
        z = oracle.dense_pauli(PauliLabel((0,), (1,)))
        assert np.allclose(oracle.conjugate_dense(u, z), dense_generator(g), atol=1e-12)

    def test_same_level_residuals_merge_by_group_add(self):
        gens = apply_clifford(initial_stabilizer(1, 3), hadamard_generator(1))
        once = apply_diagonal(gens, T_FORM)
        twice = apply_diagonal(once, T_FORM)
        g = twice[0]
        assert isinstance(g.residual, SymForm) and g.residual.k == 2
        u = circuit_dense(Circuit(1, 3, [hadamard_generator(1), T_FORM, T_FORM]))
        z = oracle.dense_pauli(PauliLabel((0,), (1,)))
        assert np.allclose(oracle.conjugate_dense(u, z), dense_generator(g), atol=1e-12)

    def test_mixed_level_residuals_embed(self):
        p_form = SymForm(((1,),), 2)
        gens = apply_clifford(initial_stabilizer(1, 3), hadamard_generator(1))
        out = apply_diagonal(apply_diagonal(gens, T_FORM), p_form)
        g = out[0]
        assert isinstance(g.residual, SymForm)
        u = circuit_dense(Circuit(1, 3, [hadamard_generator(1), T_FORM, p_form]))
        z = oracle.dense_pauli(PauliLabel((0,), (1,)))
        assert np.allclose(oracle.conjugate_dense(u, z), dense_generator(g), atol=1e-12)


class TestCliffordAfterDiagonal:
    def _live_generator(self):
        gens = apply_clifford(initial_stabilizer(2, 3), hadamard_generator(2))
        form = SymForm(((1, 2), (2, 3)), 3)
        return apply_diagonal(gens, form), form

    def test_identity_unchanged(self):
        gens, _ = self._live_generator()
        out = apply_clifford(gens, basis_change_generator(IDENTITY))
        for before, after in zip(gens, out):
            assert after.label == before.label
            assert after.residual == before.residual

    def test_permutation_relabels_residual(self):
        gens, _ = self._live_generator()
        out = apply_clifford(gens, basis_change_generator(SWAP))
        for g in out:
            assert isinstance(g.residual, (SymForm, type(None)))
        circuit = Circuit(
            2,
            3,
            [hadamard_generator(2), SymForm(((1, 2), (2, 3)), 3), basis_change_generator(SWAP)],
        )
        assert verify_against_oracle(circuit)["ok"]

    def test_phase_layer_keeps_residual(self):
        gens, _ = self._live_generator()
        layer = phase_generator(np.array([[1, 1], [1, 0]]))
        out = apply_clifford(gens, layer)
        for before, after in zip(gens, out):
            assert after.residual == before.residual

    def test_cnot_on_level2_residual_stays_symbolic(self):
        gens, _ = self._live_generator()
        out = apply_clifford(gens, basis_change_generator(CNOT))
        assert all(isinstance(g.residual, (SymForm, type(None))) for g in out)
        circuit = Circuit(
            2,
            3,
            [hadamard_generator(2), SymForm(((1, 2), (2, 3)), 3), basis_change_generator(CNOT)],
        )
        assert verify_against_oracle(circuit)["ok"]

    def test_hadamard_goes_opaque_but_exact(self):
        gens, _ = self._live_generator()
        out = apply_clifford(gens, hadamard_generator(2))
        assert any(g.is_opaque() for g in out if g.residual is not None)
        circuit = Circuit(
            2,
            3,
            [hadamard_generator(2), SymForm(((1, 2), (2, 3)), 3), hadamard_generator(2)],
        )
        assert verify_against_oracle(circuit)["ok"]

    def test_cnot_on_level3_residual_goes_opaque(self):
        # two-layer embedding: level-4 layer leaves a level-3 residual, where
        # a CNOT basis change leaves the quadratic-form family
        gens = apply_clifford(initial_stabilizer(2, 4), hadamard_generator(2))
        form = SymForm(((1, 2), (2, 1)), 4)
        live = apply_diagonal(gens, form)
        out = apply_clifford(live, basis_change_generator(CNOT))
        assert any(g.is_opaque() for g in out)
        circuit = Circuit(2, 4, [hadamard_generator(2), form, basis_change_generator(CNOT)])
        assert verify_against_oracle(circuit)["ok"]


class TestVerifyAgainstOracle:
    def test_clifford_only_circuit(self):
        circuit = Circuit(
            2,
            3,
            [
                hadamard_generator(2),
                basis_change_generator(CNOT),
                phase_generator(np.array([[0, 1], [1, 0]])),
                partial_hadamard_generator(2, 1),
            ],
        )
        report = verify_against_oracle(circuit)
        assert report["max_deviation"] < 1e-10

    def test_sandwich_circuits_small(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            form = random_canonical_form(rng, 2, 3)
            circuit = Circuit(
                2,
                3,
                [
                    basis_change_generator(CNOT),
                    form,
                    hadamard_generator(2),
                ],
            )
            assert verify_against_oracle(circuit)["max_deviation"] < 1e-8

    def test_two_diagonal_layers_with_interleaved_hadamard(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            f1 = random_canonical_form(rng, 2, 3)
            f2 = random_canonical_form(rng, 2, 3)
            circuit = Circuit(
                2,
                3,
                [hadamard_generator(2), f1, hadamard_generator(2), f2, partial_hadamard_generator(2, 1)],
            )
            assert verify_against_oracle(circuit)["max_deviation"] < 1e-8

    def test_single_structured_layer_three_qubits(self):
        rng = np.random.default_rng(24)
        for k in (2, 3, 4):
            for _ in range(3):
                form = random_canonical_form(rng, 3, k)
                circuit = Circuit(3, k, [hadamard_generator(3), form])
                assert verify_against_oracle(circuit)["max_deviation"] < 1e-8

    def test_guard(self):
        with pytest.raises(ValueError, match="m <= 3"):
            verify_against_oracle(Circuit(4, 3, []))


def _rep(m, block):
    """A 2-qubit block repeated on each of the m/2 disjoint qubit pairs."""
    return np.kron(np.eye(m // 2, dtype=np.int64), np.array(block, dtype=np.int64))


def _replicated_circuit(m):
    """One 2-qubit circuit on each of the m/2 disjoint pairs: H, a level-4
    layer, a phase layer, a SWAP, the trivial partial Hadamard and a level-3
    layer, with block-diagonal R, B and Q."""
    return Circuit(
        m,
        4,
        [
            hadamard_generator(m),
            SymForm(_rep(m, [[1, 3], [3, 5]]), 4),
            phase_generator(_rep(m, [[1, 1], [1, 0]])),
            basis_change_generator(_rep(m, SWAP)),
            partial_hadamard_generator(m, m),
            SymForm(_rep(m, [[3, 1], [1, 6]]), 3),
        ],
    )


def _cnot_relabel_circuit(m):
    """H, a level-3 layer and a CNOT on every pair: the CNOT is not a
    permutation, so it relabels each level-2 residual by Q^-1 R Q^-T."""
    return Circuit(
        m,
        3,
        [
            hadamard_generator(m),
            SymForm(_rep(m, [[1, 1], [1, 3]]), 3),
            basis_change_generator(_rep(m, CNOT)),
        ],
    )


def _assert_matches_its_blocks(big, build, m):
    """Compare each generator of a run of build(m) with the oracle-checked
    run of build(2) on its own pair."""
    assert len(big) == m
    small = run_circuit(build(2))
    assert verify_against_oracle(build(2))["ok"]
    assert all(isinstance(g.residual, SymForm) for g in small)
    for j, g in enumerate(big):
        s = small[j % 2]
        block = slice(j - j % 2, j - j % 2 + 2)
        assert (g.sign, g.phase_num, g.phase_log2_den) == (s.sign, s.phase_num, s.phase_log2_den)
        a, b = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
        a[block], b[block] = s.label.a, s.label.b
        assert g.label == PauliLabel(a, b)
        R = np.zeros((m, m), dtype=np.int64)
        R[block, block] = s.residual.entries
        assert g.residual == SymForm(R, s.residual.k)


@pytest.mark.parametrize("m", [64, 256])
def test_symbolic_circuit_at_scale_matches_its_blocks(m):
    start = time.process_time()
    big = run_circuit(_replicated_circuit(m))
    # symbolic layers and per-layer constants: no dense work, and no
    # Q^-1 R Q^-T products per generator for the permutation layer
    assert time.process_time() - start < 3.0
    _assert_matches_its_blocks(big, _replicated_circuit, m)


def test_cnot_relabel_at_scale_matches_its_blocks():
    *layers, cnot = _cnot_relabel_circuit(128).layers
    gens = run_circuit(Circuit(128, 3, layers))
    # an untimed first relabel: under multi-threaded OpenBLAS the process's
    # first one also pays the BLAS pool's start-up (about 0.5 s of thread time)
    apply_clifford(gens, cnot)
    start = time.thread_time()
    big = apply_clifford(gens, cnot)
    # 128 relabels Q^-1 R Q^-T in BLAS float64; int64 products, which get
    # no BLAS, take about 5 ms each at this size.  The calling thread's CPU
    # time, since idle BLAS workers spin and inflate the process's total
    assert time.thread_time() - start < 0.3
    _assert_matches_its_blocks(big, _cnot_relabel_circuit, 128)


def test_demotion_above_dense_guard_names_the_layer():
    form = SymForm(np.eye(5, dtype=np.int64), 3)
    assert len(run_circuit(Circuit(5, 3, [hadamard_generator(5)]))) == 5
    with pytest.raises(ValueError, match=r"^layer 2: H demotes a live residual; "
                       r"dense Opaque factors need m <= 4$"):
        run_circuit(Circuit(5, 3, [hadamard_generator(5), form, hadamard_generator(5)]))
    cnot = np.eye(5, dtype=np.int64)
    cnot[0, 1] = 1
    with pytest.raises(ValueError, match="^layer 2: L_Q demotes"):
        run_circuit(Circuit(5, 4, [hadamard_generator(5), SymForm(form.entries, 4),
                                   basis_change_generator(cnot)]))


def test_circuit_json_round_trip():
    circuit = Circuit(
        2,
        3,
        [
            hadamard_generator(2),
            SymForm(((1, 2), (2, 3)), 3),
            basis_change_generator(CNOT),
            partial_hadamard_generator(2, 1),
            phase_generator(np.array([[1, 0], [0, 1]])),
        ],
    )
    d = circuit_to_dict(circuit)
    rebuilt = circuit_from_dict(d)
    assert circuit_to_dict(rebuilt) == d
    assert np.allclose(circuit_dense(rebuilt), circuit_dense(circuit))
    with pytest.raises(ValueError, match="unknown layer type"):
        circuit_from_dict({"m": 1, "k": 2, "layers": [{"type": "nope"}]})


def test_tracked_generators_pairwise_commute():
    rng = np.random.default_rng(23)
    for _ in range(5):
        circuit = Circuit(
            2,
            3,
            [
                hadamard_generator(2),
                random_canonical_form(rng, 2, 3),
                basis_change_generator(CNOT),
            ],
        )
        gens = run_circuit(circuit)
        mats = [dense_generator(g) for g in gens]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                assert np.allclose(mats[i] @ mats[j], mats[j] @ mats[i], atol=1e-10)
