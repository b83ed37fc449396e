"""Exact symmetric-matrix calculus for diagonal gates over Z_{2^k}.

Symmetric integer matrices at a level k describe diagonal gates whose
basis-state phases are quadratic forms modulo 2^k.  The package implements
their algebra exactly: Pauli conjugation with its recursion to lower
levels, tensor and group composition, synthesis from target diagonals,
symplectic lifts, and structured stabilizer tracking.  Every formula is
cross-checked against an independent dense-matrix oracle at small qubit
counts.
"""

from .diagonal import (
    ConjugationResult,
    InfeasibleDiagonalError,
    SymForm,
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
    residual_form,
    standard_gate_table,
    synthesize,
    tensor,
    xor_carry,
)
from .oracle import (
    conjugate_dense,
    dense_diagonal,
    dense_pauli,
    dense_unitary,
    equal_up_to_global_phase,
    diagonal_levels,
)
from .pauli import PauliLabel, PhasedPauli, multiply
from .ring import xor_as_ring
from .symplectic import (
    CliffordGen,
    apply_gamma,
    basis_change_generator,
    clifford_conjugate,
    gamma_matrix,
    hadamard_generator,
    partial_hadamard_generator,
    phase_generator,
)
from .tracker import (
    Circuit,
    StructuredGenerator,
    apply_clifford,
    apply_diagonal,
    circuit_from_dict,
    circuit_to_dict,
    initial_stabilizer,
    run_circuit,
    verify_against_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit",
    "CliffordGen",
    "ConjugationResult",
    "InfeasibleDiagonalError",
    "PauliLabel",
    "PhasedPauli",
    "StructuredGenerator",
    "SymForm",
    "apply_clifford",
    "apply_diagonal",
    "apply_gamma",
    "basis_change_generator",
    "ccz_companion",
    "circuit_from_dict",
    "circuit_to_dict",
    "clifford_conjugate",
    "conjugate",
    "conjugate_dense",
    "dense_diagonal",
    "dense_pauli",
    "dense_unitary",
    "diagonal_entries",
    "diagonal_levels",
    "enumerate_canonical_forms",
    "form_level",
    "equal_up_to_global_phase",
    "full_recursion_trace",
    "gamma_matrix",
    "global_phase_exponent",
    "group_add",
    "group_negate",
    "group_order",
    "hadamard_generator",
    "initial_stabilizer",
    "multiply",
    "partial_hadamard_generator",
    "phase_generator",
    "residual_form",
    "run_circuit",
    "standard_gate_table",
    "synthesize",
    "tensor",
    "verify_against_oracle",
    "xor_as_ring",
    "xor_carry",
]
