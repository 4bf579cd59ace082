"""The kernels' array constructors and comparisons against the scalar
methods, entry for entry.

Stage II decides containment on whole arrays (`kernel.inside`,
`intersect`, `meets`, `contains`, `width`) and stage IV tests full turns
with `kernel.contains_two_pi`; the certificate prints `exact_bounds`.
Each must equal the `Interval` (53 bits) or `MPInterval` (80 bits) method
on every entry, endpoints bit for bit, errors included, on infinite,
touching, signed-zero and subnormal endpoints.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from hypcert import certificate as cert
from hypcert.interval import (
    FLOAT_KERNEL,
    TWO_PI,
    Interval,
    IntervalError,
    MPInterval,
    MPKernel,
)
from tests import kernel_scalars as ks

inf = math.inf
TAU = 2.0 * math.pi

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.2e-310, 1e-300,
    1.0, -1.0, 0.1, -0.7, 1e300, -1e300, 1.7e308, inf, -inf,
    TAU, math.nextafter(TAU, -inf), math.nextafter(TAU, inf), 6.28, 6.29,
]

endpoints = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, width=64),
    st.floats(-10.0, 10.0),
)


@st.composite
def pairs(draw):
    """Endpoint pairs (lo, hi) of two intervals x and y, often touching or
    sharing an endpoint, and a float c that is often one of them."""
    a, b = sorted(draw(st.tuples(endpoints, endpoints)))
    shared = st.sampled_from([a, b])
    c, d = sorted(draw(st.tuples(st.one_of(endpoints, shared), st.one_of(endpoints, shared))))
    return (a, b), (c, d), draw(st.one_of(endpoints, st.sampled_from([a, b, c, d])))


cases = st.lists(pairs(), min_size=1, max_size=6)


def bits(values):
    """Floats as hex strings, so that -0.0 and 0.0 differ."""
    return [v.hex() for v in values]


def outcome(fn):
    try:
        return fn()
    except IntervalError as exc:
        return type(exc)


def _arrays(kernel, make, cases):
    xs = [make(*x) for x, _, _ in cases]
    ys = [make(*y) for _, y, _ in cases]
    a = kernel.from_bounds(*(np.array(v) for v in zip(*(x for x, _, _ in cases))))
    b = kernel.from_bounds(*(np.array(v) for v in zip(*(y for _, y, _ in cases))))
    return xs, ys, a, b, np.array([c for _, _, c in cases])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases)
def test_float_kernel_is_the_interval_methods(cases):
    k = FLOAT_KERNEL
    xs, ys, a, b, cs = _arrays(k, Interval, cases)
    assert [(x.lo.hex(), x.hi.hex()) for x in ks.entries(a)] == [
        (x.lo.hex(), x.hi.hex()) for x in xs]
    assert bits(k.exact_bounds(a)[0]) == bits(x.lo for x in xs)
    assert k.inside(a, b).tolist() == [x.strictly_inside(y) for x, y in zip(xs, ys)]
    assert k.meets(a, b).tolist() == [x.intersects(y) for x, y in zip(xs, ys)]
    assert k.contains(a, cs).tolist() == [x.contains(c) for x, c in zip(xs, cs.tolist())]
    assert bits(k.width(a)) == bits(x.width() for x in xs)
    assert k.contains_two_pi(a).tolist() == [
        x.lo <= TWO_PI.lo and TWO_PI.hi <= x.hi for x in xs]
    want = outcome(lambda: [x.intersect(y) for x, y in zip(xs, ys)])
    got = outcome(lambda: ks.entries(k.intersect(a, b)))
    if isinstance(want, list):
        want, got = ([(x.lo.hex(), x.hi.hex()) for x in v] for v in (want, got))
    assert got == want


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases)
def test_mp_kernel_is_the_mp_interval_methods(cases):
    k = MPKernel(80)
    xs, ys, a, b, cs = _arrays(k, lambda lo, hi: MPInterval.from_floats(lo, hi, 80), cases)
    assert [(x.lo, x.hi, x.prec) for x in a] == [(x.lo, x.hi, x.prec) for x in xs]
    assert [lo for lo in k.exact_bounds(a)[0]] == [x.lo for x in xs]
    assert k.inside(a, b).tolist() == [x.strictly_inside(y) for x, y in zip(xs, ys)]
    assert k.meets(a, b).tolist() == [x.intersects(y) for x, y in zip(xs, ys)]
    assert k.contains(a, cs).tolist() == [x.contains(c) for x, c in zip(xs, cs.tolist())]
    assert bits(k.width(a)) == bits(x.width() for x in xs)
    # 2 pi held at 8 more bits than the working precision
    pi_lo, pi_hi = (libmp.mpf_shift(libmp.mpf_pi(88, rnd), 1)
                    for rnd in (libmp.round_floor, libmp.round_ceiling))
    assert k.contains_two_pi(a).tolist() == [
        not libmp.mpf_gt(x.lo, pi_lo) and not libmp.mpf_gt(pi_hi, x.hi) for x in xs]
    want = outcome(lambda: [x.intersect(y) for x, y in zip(xs, ys)])
    got = outcome(lambda: list(k.intersect(a, b)))
    if isinstance(want, list):
        want, got = ([(x.lo, x.hi) for x in v] for v in (want, got))
    assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.one_of(endpoints, st.just(math.nan)),
                          st.one_of(endpoints, st.just(math.nan))), min_size=1, max_size=4))
def test_constructors_are_the_scalar_constructors(ends):
    # points and from_bounds: -0.0 made 0.0, a NaN or reversed entry raises
    lo, hi = (np.array(v) for v in zip(*ends))
    want = outcome(lambda: [Interval(*e) for e in ends])
    got = outcome(lambda: ks.entries(FLOAT_KERNEL.from_bounds(lo, hi)))
    if isinstance(want, list):
        want, got = ([(x.lo.hex(), x.hi.hex()) for x in v] for v in (want, got))
    assert got == want
    mp = MPKernel(80)
    want = outcome(lambda: [MPInterval.from_floats(*e, 80) for e in ends])
    got = outcome(lambda: list(mp.from_bounds(lo, hi)))
    if isinstance(want, list):
        want, got = ([(x.lo, x.hi) for x in v] for v in (want, got))
    assert got == want
    for k, point in ((FLOAT_KERNEL, Interval.point), (mp, lambda v: MPInterval.point(v, 80))):
        want = outcome(lambda: [point(v) for v in lo.tolist()])
        got = outcome(lambda: ks.entries(k.points(lo)))
        if isinstance(want, list):
            want, got = ([(x.lo_float(), x.hi_float()) for x in v] for v in (want, got))
            assert [math.copysign(1.0, x[0]) for x in got] == [
                math.copysign(1.0, x[0]) for x in want]
        assert got == want


def test_signed_zero_prints_as_zero():
    # a Decimal(-0.0) prints "-0": the kernels make -0.0 0.0 before printing
    for bits_, k in ((53, FLOAT_KERNEL), (80, MPKernel(80))):
        for arr in (k.from_bounds(np.array([-0.0]), np.array([-0.0])),
                    k.points(np.array([-0.0])), -k.points(np.array([0.0]))):
            assert cert._endpoints(arr, bits_) == [["0", "0"]]


@pytest.mark.parametrize("k", [FLOAT_KERNEL, MPKernel(80)])
def test_two_pi_contains_two_pi(k):
    assert k.contains_two_pi(k.two_pi()).tolist() == [True]
    lo, hi = k.bounds(k.two_pi())
    assert lo[0] <= TAU <= hi[0]
