"""Structured stabilizer-generator tracking through layered circuits.

A circuit alternates Clifford layers (standard generators) and diagonal
layers (symmetric forms).  Each stabilizer generator stays *structured*:
a sign, an exact root-of-unity phase, a binary Pauli label, and a residual
diagonal factor.  One diagonal layer keeps the residual as a symmetric
form, and Cliffords that preserve the computational basis (basis changes,
diagonal phase layers) transform that form exactly.  Anything beyond that
regime (a Hadamard acting on a live residual, or a non-permutation basis
change on a residual above level 2) leaves the family of quadratic-form
diagonals, so the residual is demoted to an explicit dense Opaque factor
rather than silently approximated.

There is one step per layer kind: apply_diagonal for a form and
apply_clifford for a generator, whatever residuals the generators carry.
run_circuit alternates them from initial_stabilizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ring
from .diagonal import SymForm, conjugate, group_add
from .oracle import ATOL, conjugate_dense, dense_diagonal, dense_pauli
from .pauli import PauliLabel
from .symplectic import (
    CliffordGen,
    apply_symplectic,
    generator_from_dict,
    gf2_inverse,
    is_permutation_matrix,
)


@dataclass(eq=False)
class StructuredGenerator:
    """sign * exp(2*pi*i * phase_num / 2^phase_log2_den) * E(label) * residual."""

    sign: int
    phase_num: int
    phase_log2_den: int
    label: PauliLabel
    residual: SymForm | np.ndarray | None = None

    def is_opaque(self) -> bool:
        return isinstance(self.residual, np.ndarray)

    @property
    def m(self) -> int:
        return self.label.m


def initial_stabilizer(m: int, k: int) -> list[StructuredGenerator]:
    """Generators E(0, e_j) of the all-zeros state stabilizer.

    k names the ambient level of the circuit the generators will travel
    through; phases start at denominator 4 and widen on composition.
    """
    ring.check_level(k)
    zero = np.zeros(m, dtype=np.int64)
    return [
        StructuredGenerator(1, 0, 2, PauliLabel(zero, e), None)
        for e in np.eye(m, dtype=np.int64)
    ]


def _add_phase(num: int, den: int, add_num: int, add_den: int) -> tuple[int, int]:
    d = max(den, add_den)
    total = (num << (d - den)) + (add_num << (d - add_den))
    return total % (1 << d), d


def _resolve_sign(gen: CliffordGen, old: PauliLabel, new: PauliLabel) -> int:
    """Sign in g E(old) g^dagger = +/- E(new), fixed by the dense oracle."""
    lhs = conjugate_dense(gen.unitary, dense_pauli(old))
    rhs = dense_pauli(new)
    if np.allclose(lhs, rhs, atol=ATOL):
        return 1
    if np.allclose(lhs, -rhs, atol=ATOL):
        return -1
    raise AssertionError("Clifford conjugation did not produce a signed Pauli")


def _embed(form: SymForm, k: int) -> SymForm:
    """Rewrite a form at a higher level: exponents scale by 2^(k - form.k)."""
    if form.k > k:
        raise ValueError("can only embed into a higher level")
    return SymForm((1 << (k - form.k)) * form.entries, k)


def _merge_forms(f1: SymForm, f2: SymForm) -> SymForm | None:
    target = max(f1.k, f2.k)
    merged = group_add(_embed(f1, target), _embed(f2, target))
    return None if merged.is_zero() else merged


def _residual_dense(residual, m: int) -> np.ndarray:
    if residual is None:
        return np.eye(1 << m, dtype=complex)
    if isinstance(residual, np.ndarray):
        return residual
    return dense_diagonal(residual)


def dense_generator(gen: StructuredGenerator) -> np.ndarray:
    """Dense realization of a tracked generator."""
    phase = gen.sign * np.exp(
        2j * np.pi * gen.phase_num / (1 << gen.phase_log2_den)
    )
    return phase * dense_pauli(gen.label) @ _residual_dense(gen.residual, gen.m)


def apply_diagonal(gens: list[StructuredGenerator], form: SymForm) -> list[StructuredGenerator]:
    """Push a diagonal layer through every generator.

    Z-type generators (a0 = 0) are exactly fixed.  A fresh residual merges
    with an existing one by the group law, after embedding the lower level;
    an Opaque residual is conjugated densely and the fresh factor multiplied
    on.
    """
    out = []
    for g in gens:
        if g.m != form.m:
            raise ValueError(f"dimension mismatch: generator on {g.m}, form on {form.m}")
        res = conjugate(form, g.label)
        num, den = _add_phase(g.phase_num, g.phase_log2_den, res.phase_exponent, form.k)
        fresh = None if res.residual.is_zero() else res.residual
        if isinstance(g.residual, np.ndarray):
            d = dense_diagonal(form)
            opaque = d @ g.residual @ d.conj().T
            if fresh is not None:
                opaque = dense_diagonal(fresh) @ opaque
            residual = opaque
        elif g.residual is None:
            residual = fresh
        elif fresh is None:
            residual = g.residual
        else:
            residual = _merge_forms(fresh, g.residual)
        out.append(StructuredGenerator(g.sign, num, den, res.label, residual))
    return out


def _conjugate_residual(residual, gen: CliffordGen):
    if residual is None:
        return None
    if isinstance(residual, np.ndarray):
        return conjugate_dense(gen.unitary, residual)
    if gen.kind == "T_R":
        # a diagonal Clifford layer commutes with any diagonal residual
        return residual
    if gen.kind == "partialH" and gen.params.get("t") == gen.m:
        return residual
    if gen.kind == "L_Q":
        Q = gen.params["Q"]
        # |v> -> |vQ| relabels the quadratic form by Q^-1 on both sides;
        # exact for permutations at any level, and for any invertible Q
        # up to level 2 (XOR carries only surface at level 3 and above)
        if is_permutation_matrix(Q) or residual.k <= 2:
            qi = gf2_inverse(Q)
            return SymForm(qi @ residual.entries @ qi.T, residual.k)
    return conjugate_dense(gen.unitary, dense_diagonal(residual))


def apply_clifford(
    gens: list[StructuredGenerator], layer: CliffordGen
) -> list[StructuredGenerator]:
    """Push a Clifford layer through every generator.

    The label moves by the layer's binary symplectic F and the sign is
    read off dense conjugation.  Empty residuals stay empty, form residuals are
    relabelled or kept where the layer preserves the quadratic-form family
    and demoted to dense Opaque factors otherwise, and Opaque residuals
    are conjugated densely.
    """
    out = []
    for g in gens:
        if g.m != layer.m:
            raise ValueError(f"dimension mismatch: generator on {g.m}, layer on {layer.m}")
        new_label = apply_symplectic(g.label, layer.F)
        sign = g.sign * _resolve_sign(layer, g.label, new_label)
        residual = _conjugate_residual(g.residual, layer)
        out.append(
            StructuredGenerator(sign, g.phase_num, g.phase_log2_den, new_label, residual)
        )
    return out


@dataclass(eq=False)
class Circuit:
    """Alternating layers: CliffordGen or SymForm, all on m qubits."""

    m: int
    k: int
    layers: list

    def __post_init__(self):
        for layer in self.layers:
            lm = layer.m
            if lm != self.m:
                raise ValueError(f"layer on {lm} qubits in a circuit on {self.m}")


def run_circuit(circuit: Circuit) -> list[StructuredGenerator]:
    gens = initial_stabilizer(circuit.m, circuit.k)
    for layer in circuit.layers:
        if isinstance(layer, SymForm):
            gens = apply_diagonal(gens, layer)
        else:
            gens = apply_clifford(gens, layer)
    return gens


def circuit_dense(circuit: Circuit) -> np.ndarray:
    u = np.eye(1 << circuit.m, dtype=complex)
    for layer in circuit.layers:
        d = dense_diagonal(layer) if isinstance(layer, SymForm) else layer.unitary
        u = d @ u
    return u


def verify_against_oracle(circuit: Circuit, tol: float = ATOL) -> dict:
    """Compare every tracked generator with dense conjugation end to end."""
    if circuit.m > 3:
        raise ValueError("oracle verification limited to m <= 3")
    tracked = run_circuit(circuit)
    u = circuit_dense(circuit)
    deviations = []
    for gen, initial in zip(tracked, initial_stabilizer(circuit.m, circuit.k)):
        target = conjugate_dense(u, dense_pauli(initial.label))
        deviations.append(float(np.max(np.abs(target - dense_generator(gen)))))
    max_dev = max(deviations) if deviations else 0.0
    return {
        "m": circuit.m,
        "k": circuit.k,
        "deviations": deviations,
        "max_deviation": max_dev,
        "ok": max_dev < tol,
    }


def circuit_from_dict(d: dict) -> Circuit:
    m, k = ring.as_integers([d["m"], d["k"]]).tolist()
    layers = []
    for entry in d["layers"]:
        if entry["type"] == "clifford":
            layers.append(generator_from_dict(m, entry))
        elif entry["type"] == "diagonal":
            layers.append(SymForm.from_dict(entry))
        else:
            raise ValueError(f"unknown layer type: {entry['type']!r}")
    return Circuit(m, k, layers)


def circuit_to_dict(circuit: Circuit) -> dict:
    layers = []
    for layer in circuit.layers:
        if isinstance(layer, SymForm):
            layers.append({"type": "diagonal", **layer.to_dict()})
        else:
            layers.append({"type": "clifford", **layer.to_dict()})
    return {"m": circuit.m, "k": circuit.k, "layers": layers}
