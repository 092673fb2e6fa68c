"""`filters._add_repeated`: k sequential `s += r` in closed form, bit for bit."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st
from windows import repeat_sum

from rdpmeter.filters import _add_repeated

DBL_MAX = sys.float_info.max


def _grid_exponent(s):
    """log2 of the spacing of the floats around s (s finite, >= 0)."""
    return (math.frexp(s)[1] if s >= 2.0**-1022 else -1021) - 53


def _ldexp(m, e):
    return math.ldexp(m, min(max(e, -1075), 1000))


@st.composite
def repeated_sums(draw):
    """(s, r, k): s from zero, subnormals, ordinary sizes, the top binade
    (where sums overflow) and inf; r zero, subnormal, ordinary, huge, or a
    tie on s's grid or one near it."""
    s = draw(st.one_of(
        st.sampled_from([0.0, 2.0**-1074, 2.0**-1022, 2.0**1023, DBL_MAX, math.inf]),
        st.floats(0.0, 2.0**-1020),
        st.floats(0.0, 1e6),
        st.floats(2.0**1020, DBL_MAX),
    ))
    e = _grid_exponent(s) if s < math.inf else 1000
    r = draw(st.one_of(
        st.just(0.0),
        st.floats(0.0, 2.0**-1020),
        st.floats(0.0, 1e6),
        st.floats(2.0**960, DBL_MAX),
        # 1.5 * 2**m is a tie on the grid 2**(m+1), 0.75 * 2**m on 2**(m-1)
        st.builds(lambda c, m: _ldexp(c, e + m), st.sampled_from([1.5, 0.75]),
                  st.integers(-3, 12)),
        # q + 1/2 units of s's grid
        st.builds(lambda q: _ldexp(2 * q + 1, e - 1), st.integers(0, 300)),
    ))
    return s, r, draw(st.integers(0, 5000))


@settings(max_examples=1000)
@given(repeated_sums())
def test_add_repeated_matches_the_loop_bit_for_bit(case):
    s, r, k = case
    assert _add_repeated(s, r, k).hex() == repeat_sum(s, r, k).hex()


@pytest.mark.parametrize("s, r", [
    (0.0, 0.1),                     # from zero, through 20-odd binades
    (1234.5, 3 * 2.0**-43),         # a tie on every step of its binade
    (3 * 2.0**-1074, 2.0**-1074),   # subnormal sums, exact
])
def test_a_window_of_2_20_sends_matches_the_loop(s, r):
    k = 2**20
    assert _add_repeated(s, r, k).hex() == repeat_sum(s, r, k).hex()


def test_sums_past_the_float_range_stay_inf():
    assert _add_repeated(DBL_MAX, 2.0**970, 3) == math.inf
    assert _add_repeated(math.inf, 1.0, 10**9) == math.inf
    assert _add_repeated(1.0, 0.0, 10**9) == 1.0
