"""`contains_two_pi` against 2 pi at 256 bits, not against a reference kernel.

Stage IV's full-turn test decides a verdict, so it is checked here with
exact arithmetic alone.  2 pi lies strictly between F, the largest 256-bit
number below it, and F plus one 256-bit ulp.  A 53- or 80-bit endpoint x
near 2 pi is a 256-bit number, so x <= 2 pi exactly when x <= F, and
2 pi <= x exactly when F < x.  The cases are the endpoints one ulp either
side of 2 pi at the working precision, the two intervals that only touch
the numbers around 2 pi, and a Hypothesis sweep within a few ulps of 2 pi,
where True must mean that 2 pi is inside.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from hypcert.interval import FLOAT_KERNEL, TWO_PI, MPKernel

_F = libmp.mpf_shift(libmp.mpf_pi(256, libmp.round_floor), 1)  # 2 pi rounded down


def contains_two_pi_exactly(lo, hi):
    """Whether [lo, hi] contains the real number 2 pi; lo and hi are mpf
    values of at most 256 bits."""
    return not libmp.mpf_gt(lo, _F) and libmp.mpf_gt(hi, _F)


def _near_two_pi(bits):
    """The `bits`-bit numbers just below and just above 2 pi, as mpf
    values; 2 pi lies in [4, 8), where one ulp is 2^(3 - bits)."""
    below, above = (libmp.mpf_shift(libmp.mpf_pi(bits, rnd), 1)
                    for rnd in (libmp.round_floor, libmp.round_ceiling))
    return below, above


def _step(x, k, bits):
    """x moved by k ulps of the `bits`-bit numbers in [4, 8), exactly."""
    return libmp.mpf_add(x, libmp.from_man_exp(k, 3 - bits), bits)


KERNELS = {53: FLOAT_KERNEL, 80: MPKernel(80)}
SIX, SEVEN = libmp.from_int(6), libmp.from_int(7)


def _decide(bits, los, his):
    """The kernel's `contains_two_pi` of the intervals [lo, hi]."""
    kernel = KERNELS[bits]
    if bits == 53:
        lo, hi = (np.array([libmp.to_float(x) for x in xs]) for xs in (los, his))
    else:
        lo, hi = np.empty((2, len(los)), dtype=object)
        for i, (a, b) in enumerate(zip(los, his)):
            lo[i], hi[i] = a, b
    return kernel.contains_two_pi(kernel.from_bounds(lo, hi)).tolist()


def test_the_float_neighbours_are_the_bracket_of_two_pi():
    below, above = _near_two_pi(53)
    assert (libmp.to_float(below), libmp.to_float(above)) == (TWO_PI.lo, TWO_PI.hi)


@pytest.mark.parametrize("bits", [53, 80])
def test_the_neighbours_of_two_pi_bracket_it(bits):
    below, above = _near_two_pi(bits)
    assert _step(below, 1, bits) == above
    assert contains_two_pi_exactly(below, above)
    assert not contains_two_pi_exactly(above, _step(above, 1, bits))
    assert not contains_two_pi_exactly(_step(below, -1, bits), below)


@pytest.mark.parametrize("bits", [53, 80])
def test_one_ulp_in_and_one_ulp_out_at_each_end(bits):
    below, above = _near_two_pi(bits)
    cases = [
        ((below, above), True),  # the tightest enclosure
        ((_step(below, -1, bits), SEVEN), True),  # lower end one ulp further in
        ((below, SEVEN), True),
        ((above, SEVEN), False),  # lower end one ulp out
        ((SIX, _step(above, 1, bits)), True),  # upper end one ulp further in
        ((SIX, above), True),
        ((SIX, below), False),  # upper end one ulp out
    ]
    got = _decide(bits, [lo for (lo, _), _ in cases], [hi for (_, hi), _ in cases])
    assert got == [want for _, want in cases]
    assert [contains_two_pi_exactly(*ends) for ends, _ in cases] == got


@pytest.mark.parametrize("bits", [53, 80])
def test_intervals_that_only_touch_two_pis_bracket_do_not_contain_it(bits):
    # at 53 bits [TWO_PI.hi, 7] and [6, TWO_PI.lo]: each meets the enclosure
    # of 2 pi but misses 2 pi itself, so "meets" is not "contains"
    below, above = _near_two_pi(bits)
    assert _decide(bits, [above, SIX], [SEVEN, below]) == [False, False]


offsets = st.integers(-4, 4)


@pytest.mark.parametrize("bits, grain", [(53, 53), (80, 80), (80, 96)])
@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(offsets, offsets, st.booleans(), st.booleans()),
                min_size=1, max_size=8))
def test_true_means_two_pi_is_inside(bits, grain, cases):
    # each endpoint a few `grain`-bit ulps from 2 pi, or far from it; an
    # 80-bit array holds finer endpoints exactly, and a 96-bit one may lie
    # inside the 88-bit bracket the kernel holds 2 pi to
    below, _ = _near_two_pi(grain)
    los, his = [], []
    for i, j, lo_far, hi_far in cases:
        lo = SIX if lo_far else _step(below, i, grain)
        hi = SEVEN if hi_far else _step(below, j, grain)
        if libmp.mpf_gt(lo, hi):
            lo, hi = hi, lo
        los.append(lo)
        his.append(hi)
    for lo, hi, got in zip(los, his, _decide(bits, los, his)):
        if got:
            assert contains_two_pi_exactly(lo, hi), (lo, hi)
