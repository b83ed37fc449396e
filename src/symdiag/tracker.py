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
rather than silently approximated.  Signs and labels move by the exact
symbolic rule of each Clifford kind (symplectic.clifford_conjugate), so a
circuit that never demotes builds no dense matrix and runs at any m.  A
demotion needs a dense factor, which exists only up to the oracle's guard
of MAX_DENSE_QUBITS; above it the layer that demotes raises ValueError.

There is one step per layer kind: apply_diagonal for a form and
apply_clifford for a generator, whatever residuals the generators carry.
run_circuit alternates them from initial_stabilizer.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import ring
from .diagonal import SymForm, conjugate, group_add
from .oracle import (
    ATOL,
    MAX_DENSE_QUBITS,
    conjugate_dense,
    dense_diagonal,
    dense_pauli,
    dense_unitary,
)
from .pauli import PauliLabel
from .symplectic import CliffordGen, clifford_conjugate, generator_from_dict


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
    dense_layer = functools.cache(lambda: dense_diagonal(form))
    out = []
    for g in gens:
        res = conjugate(form, g.label)
        num, den = _add_phase(g.phase_num, g.phase_log2_den, res.phase_exponent, form.k)
        fresh = None if res.residual.is_zero() else res.residual
        if isinstance(g.residual, np.ndarray):
            opaque = conjugate_dense(dense_layer(), g.residual)
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


def _conjugate_residual(residual, layer: CliffordGen, dense_layer):
    if residual is None:
        return None
    if isinstance(residual, SymForm):
        if layer.kind == "T_R":
            # a diagonal Clifford layer commutes with any diagonal residual
            return residual
        if layer.kind == "partialH" and layer.params["t"] == layer.m:
            return residual
        if layer.kind == "L_Q":
            # |v> -> |vQ> relabels the quadratic form to Q^-1 R Q^-T; exact for
            # permutations at any level, and for any invertible Q up to level 2
            # (XOR carries only surface at level 3 and above); the products run
            # in float64 for BLAS and stay exact, as every partial sum of binary
            # qi times entries below 4 is far below 2^53
            if layer.perm is not None:
                p = layer.perm
                return SymForm(residual.entries[p][:, p], residual.k)
            if residual.k <= 2:
                qi = layer.F[layer.m :, layer.m :].T.astype(np.float64)
                return SymForm((qi @ residual.entries @ qi.T).astype(np.int64), residual.k)
    # an Opaque residual, or a form residual this layer demotes
    return conjugate_dense(dense_layer(), _residual_dense(residual, layer.m))


def apply_clifford(
    gens: list[StructuredGenerator], layer: CliffordGen
) -> list[StructuredGenerator]:
    """Push a Clifford layer through every generator.

    The sign and label move by the layer's exact symbolic rule
    (clifford_conjugate).  Empty residuals stay empty, form residuals are
    relabelled or kept where the layer preserves the quadratic-form family
    and demoted to dense Opaque factors otherwise, and Opaque residuals
    are conjugated densely.  The layer's dense unitary is built at most
    once, and only when a residual needs it; above MAX_DENSE_QUBITS that
    raises ValueError.
    """

    @functools.cache
    def dense_layer() -> np.ndarray:
        if layer.m > MAX_DENSE_QUBITS:
            raise ValueError(
                f"{layer.kind} demotes a live residual; "
                f"dense Opaque factors need m <= {MAX_DENSE_QUBITS}"
            )
        return dense_unitary(layer)

    out = []
    for g in gens:
        sign, new_label = clifford_conjugate(layer, g.label)
        residual = _conjugate_residual(g.residual, layer, dense_layer)
        out.append(
            StructuredGenerator(
                g.sign * sign, g.phase_num, g.phase_log2_den, new_label, residual
            )
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
    """Track the all-zeros stabilizer through every layer.

    A ValueError from a layer is re-raised with the layer's index in front,
    e.g. "layer 2: H demotes a live residual; ...".
    """
    gens = initial_stabilizer(circuit.m, circuit.k)
    for i, layer in enumerate(circuit.layers):
        step = apply_diagonal if isinstance(layer, SymForm) else apply_clifford
        try:
            gens = step(gens, layer)
        except ValueError as exc:
            raise ValueError(f"layer {i}: {exc}") from exc
    return gens


def circuit_dense(circuit: Circuit) -> np.ndarray:
    u = np.eye(1 << circuit.m, dtype=complex)
    for layer in circuit.layers:
        d = dense_diagonal(layer) if isinstance(layer, SymForm) else dense_unitary(layer)
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
