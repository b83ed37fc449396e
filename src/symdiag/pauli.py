"""Hermitian Pauli labels and their exact algebra.

A pair of integer vectors (a, b) of length m labels the Hermitian matrix

    E(a, b) = i^(a.b mod 4) * X^a1 Z^b1 (x) ... (x) X^am Z^bm,

where the dot product runs over the integers.  Only the parity layers
a0, b0 choose the tensor factors (X^2 = Z^2 = I), but the higher binary
layers still feed the i-exponent, which can flip the overall sign.  For
that reason labels are stored exactly as given; the conjugation calculus
reduces them to binary layers and folds that sign into its phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ring


@dataclass(frozen=True, eq=False)
class PauliLabel:
    """Integer-vector label (a, b) of a Hermitian Pauli.

    E(a, b) is Hermitian and squares to the identity for any non-negative
    integer vectors a, b of equal length.  Both are stored as read-only
    int64 copies of the input.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = (ring.as_integers(x).copy() for x in (self.a, self.b))
        if a.ndim != 1 or b.ndim != 1 or len(a) == 0:
            raise ValueError("labels need vectors on at least one qubit")
        ring.require_same_length(a, b)
        if a.min() < 0 or b.min() < 0:
            raise ValueError("label entries must be non-negative")
        a.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __eq__(self, other):
        same_a = isinstance(other, PauliLabel) and np.array_equal(self.a, other.a)
        return same_a and np.array_equal(self.b, other.b)

    def __hash__(self):
        return hash((self.a.tobytes(), self.b.tobytes()))

    @property
    def m(self) -> int:
        return len(self.a)

    def is_binary(self) -> bool:
        return bool(max(self.a.max(), self.b.max()) <= 1)

    def to_dict(self) -> dict:
        return {"a": self.a.tolist(), "b": self.b.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "PauliLabel":
        return cls(d["a"], d["b"])

    def __str__(self) -> str:
        return f"E({self.a.tolist()},{self.b.tolist()})"


@dataclass(frozen=True)
class PhasedPauli:
    """A Pauli label carrying the phase exp(2*pi*i * num / 2^d).

    The numerator is kept reduced modulo 2^d.  Plain i-powers use d = 2.
    """

    phase_num: int
    phase_log2_den: int
    label: PauliLabel

    def __post_init__(self):
        d = int(self.phase_log2_den)
        ring.check_level(d, minimum=0)
        object.__setattr__(self, "phase_log2_den", d)
        object.__setattr__(self, "phase_num", int(self.phase_num) % (1 << d))

    @property
    def phase(self) -> complex:
        return complex(np.exp(2j * math.pi * self.phase_num / (1 << self.phase_log2_den)))

    def to_dict(self) -> dict:
        d = self.label.to_dict()
        d["phase_num"] = self.phase_num
        d["phase_log2_den"] = self.phase_log2_den
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "PhasedPauli":
        return cls(d["phase_num"], d["phase_log2_den"], PauliLabel.from_dict(d))


def _require_same_m(p: PauliLabel, q: PauliLabel) -> None:
    if p.m != q.m:
        raise ValueError(f"dimension mismatch: {p.m} vs {q.m} qubits")


def multiply(p: PauliLabel, q: PauliLabel) -> PhasedPauli:
    """Product E(a,b) E(c,d) = i^(b.c - a.d) E(a+c, b+d).

    The i-exponent uses full integer dot products, so the rule is exact
    for integer-vector labels as well as binary ones.
    """
    _require_same_m(p, q)
    a, b = p.a, p.b
    c, d = q.a, q.b
    exponent = int(b @ c - a @ d) % 4
    out = PauliLabel(a + c, b + d)
    return PhasedPauli(exponent, 2, out)


def symplectic_inner(p: PauliLabel, q: PauliLabel) -> int:
    """Binary symplectic inner product a0.d0 + b0.c0 mod 2."""
    _require_same_m(p, q)
    a0, b0 = p.a & 1, p.b & 1
    c0, d0 = q.a & 1, q.b & 1
    return int(a0 @ d0 + b0 @ c0) % 2
