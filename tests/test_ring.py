import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from symdiag import ring


def test_xor_as_ring_examples():
    assert ring.xor_as_ring([1, 0], [1, 1], 3).tolist() == [0, 1]
    assert ring.xor_as_ring([1, 0, 1], [1, 0, 1], 2).tolist() == [0, 0, 0]
    assert ring.xor_as_ring([1, 1, 0], [0, 1, 1], 4).tolist() == [1, 0, 1]


def test_xor_as_ring_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        ring.xor_as_ring([1, 0], [1], 3)


def test_as_integers_is_strict():
    assert ring.as_integers(np.eye(2)).tolist() == [[1, 0], [0, 1]]
    assert ring.as_integers([[2.0, 3]]).dtype == np.int64
    for bad in ([1.7], [0, True], [[1], [np.True_]], ["1"]):
        with pytest.raises(ValueError, match="expected an integer"):
            ring.as_integers(bad)
    with pytest.raises(ValueError, match="int64 range"):
        ring.as_integers([2**70])


def test_level_cap():
    with pytest.raises(ValueError):
        ring.check_level(ring.MAX_LEVEL + 1)
    with pytest.raises(ValueError):
        ring.check_level(0)
    assert ring.check_level(0, minimum=0) == 0


bits = st.lists(st.integers(0, 1), min_size=1, max_size=8)


@given(data=st.data(), v=bits, k=st.integers(1, ring.MAX_LEVEL))
def test_xor_matches_bitwise(data, v, k):
    w = data.draw(st.lists(st.integers(0, 1), min_size=len(v), max_size=len(v)))
    out = ring.xor_as_ring(v, w, k)
    assert set(out.tolist()) <= {0, 1}
    assert out.tolist() == [x ^ y for x, y in zip(v, w)]
