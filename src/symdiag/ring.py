"""Exact arithmetic over Z_{2^k}: residues, bit vectors, binary layers.

Conventions shared by the whole package:

* vectors are numpy ``int64`` row vectors,
* a *bit vector* has entries in {0, 1},
* an integer vector x splits into binary layers x = x0 + 2 x1 + 4 x2 + ...,
  with each layer a bit vector of the same length,
* residues modulo 2^k are kept in the canonical range [0, 2^k).

The level exponent k is capped at MAX_LEVEL so quadratic forms and phase
exponents always fit native 64-bit integers with ample headroom.
"""

from __future__ import annotations

import numpy as np

#: Largest supported level exponent; 2^MAX_LEVEL is the largest modulus.
MAX_LEVEL = 16


def check_level(k: int, minimum: int = 1) -> int:
    """Validate a level exponent, returning it as a plain int."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise TypeError(f"level must be an integer, got {type(k).__name__}")
    k = int(k)
    if k < minimum or k > MAX_LEVEL:
        raise ValueError(f"level k={k} outside [{minimum}, {MAX_LEVEL}]")
    return k


def modulus(k: int) -> int:
    """The modulus 2^k."""
    return 1 << check_level(k, minimum=0)


def as_integers(x) -> np.ndarray:
    """x as an exact int64 array, refusing bool and non-integral entries.

    Integer-dtype arrays pass on their dtype alone.  Anything else is
    checked entry by entry: True and 1.7 raise ValueError, while integral
    floats such as 2.0 (np.eye output, JSON numbers) are accepted.
    """
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        return x.astype(np.int64, copy=False)
    arr = np.asarray(x, dtype=object)
    if not set(map(type, arr.flat)) <= {int, np.int64}:
        for v in arr.flat:
            whole = isinstance(v, (float, np.floating)) and float(v).is_integer()
            if isinstance(v, bool) or not (whole or isinstance(v, (int, np.integer))):
                raise ValueError(f"expected an integer, got {v!r}")
    try:
        return arr.astype(np.int64)
    except OverflowError as exc:
        raise ValueError(f"integer outside the int64 range: {exc}") from exc


def as_int_vector(x) -> np.ndarray:
    """Coerce to a 1-d int64 vector with non-negative entries."""
    v = np.atleast_1d(as_integers(x))
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if v.size and v.min() < 0:
        raise ValueError("vector entries must be non-negative")
    return v


def as_bit_vector(x) -> np.ndarray:
    """Coerce to a 1-d vector with entries in {0, 1}."""
    v = as_int_vector(x)
    if v.size and v.max() > 1:
        raise ValueError("bit vector entries must be 0 or 1")
    return v


def require_same_length(v: np.ndarray, w: np.ndarray) -> None:
    if len(v) != len(w):
        raise ValueError(f"length mismatch: {len(v)} vs {len(w)}")


def xor_as_ring(v, w, k: int) -> np.ndarray:
    """Bitwise XOR of two bit vectors, written in Z_{2^k}.

    Uses the ring identity v XOR w = v + w - 2 (v * w); the result always
    has entries in {0, 1}.
    """
    check_level(k)
    v = as_bit_vector(v)
    w = as_bit_vector(w)
    require_same_length(v, w)
    return (v + w - 2 * v * w) % modulus(k)

