"""Hermitian Pauli labels and their exact algebra.

A pair of integer vectors (a, b) of length m labels the Hermitian matrix

    E(a, b) = i^(a.b mod 4) * X^a1 Z^b1 (x) ... (x) X^am Z^bm,

where the dot product runs over the integers.  Only the parity layers
a0, b0 choose the tensor factors (X^2 = Z^2 = I), but the higher binary
layers still feed the i-exponent, which can flip the overall sign.  For
that reason labels are stored exactly as given and reduced to binary
form only through an explicit normalize_label call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ring


@dataclass(frozen=True)
class PauliLabel:
    """Integer-vector label (a, b) of a Hermitian Pauli.

    E(a, b) is Hermitian and squares to the identity for any non-negative
    integer vectors a, b of equal length.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(ring.as_integers(self.a).tolist())
        b = tuple(ring.as_integers(self.b).tolist())
        if len(a) == 0:
            raise ValueError("labels need at least one qubit")
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        if any(x < 0 for x in a + b):
            raise ValueError("label entries must be non-negative")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return len(self.a)

    @property
    def a_vec(self) -> np.ndarray:
        return np.array(self.a, dtype=np.int64)

    @property
    def b_vec(self) -> np.ndarray:
        return np.array(self.b, dtype=np.int64)

    def is_binary(self) -> bool:
        return all(x <= 1 for x in self.a + self.b)

    def to_dict(self) -> dict:
        return {"a": list(self.a), "b": list(self.b)}

    @classmethod
    def from_dict(cls, d: dict) -> "PauliLabel":
        return cls(tuple(d["a"]), tuple(d["b"]))

    def __str__(self) -> str:
        return f"E({list(self.a)},{list(self.b)})"


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
    a, b = p.a_vec, p.b_vec
    c, d = q.a_vec, q.b_vec
    exponent = int(b @ c - a @ d) % 4
    out = PauliLabel(tuple(a + c), tuple(b + d))
    return PhasedPauli(exponent, 2, out)


def symplectic_inner(p: PauliLabel, q: PauliLabel) -> int:
    """Binary symplectic inner product a0.d0 + b0.c0 mod 2."""
    _require_same_m(p, q)
    a0, b0 = p.a_vec & 1, p.b_vec & 1
    c0, d0 = q.a_vec & 1, q.b_vec & 1
    return int(a0 @ d0 + b0 @ c0) % 2


def commutes(p: PauliLabel, q: PauliLabel) -> bool:
    """True iff E(p) and E(q) commute as matrices."""
    return symplectic_inner(p, q) == 0


def normalize_label(p: PauliLabel) -> PhasedPauli:
    """Reduce a label to its binary layers, emitting the compensating sign.

    E(a, b) = (-1)^s E(a0, b0) with s read off from the i-exponent
    difference (a.b - a0.b0) mod 4, which is always 0 or 2.
    """
    a, b = p.a_vec, p.b_vec
    a0, b0 = a & 1, b & 1
    exponent = int(a @ b - a0 @ b0) % 4
    return PhasedPauli(exponent, 2, PauliLabel(tuple(a0), tuple(b0)))
