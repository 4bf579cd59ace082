"""The interval protocol shared by `Interval` and `MPInterval`, and the
scalar helpers of the tests' scalar formulas (`tests/geometry_oracle.py`),
which read the kind of number off a value where the pipeline carries it
in a kernel."""

import math

import numpy as np
import pytest

from hypcert.interval import DomainError, Interval, MPInterval
from tests import geometry_oracle as go
from tests import kernel_scalars as ks

KINDS = {
    "float53": lambda lo, hi: Interval(lo, hi),
    "mp80": lambda lo, hi: MPInterval.from_floats(lo, hi, 80),
}


@pytest.fixture(params=sorted(KINDS))
def make(request):
    return KINDS[request.param]


def test_kernel_builds_same_kind_and_precision(make):
    x = make(1.0, 2.0)
    kernel = go.kernel_of(x)
    for c in (0.0, -1.0, 0.1, 3):
        p = ks.point(kernel, c)
        assert type(p) is type(x)
        assert go.kernel_of(p).precision == kernel.precision
        assert p.lo_float() == p.hi_float() == float(c)
    assert go.kernel_of(ks.interval(kernel, 0.5, 1.5)).precision == kernel.precision
    assert getattr(ks.point(kernel, 0.3), "prec", 53) == kernel.precision


def test_float_bounds_bracket(make):
    third = make(1.0, 1.0) / make(3.0, 3.0)
    assert third.lo_float() <= 1.0 / 3.0 <= third.hi_float()
    assert third.lo_float() < third.hi_float()
    r = make(0.1, 0.1) * make(-7.0, 3.0)
    assert r.lo_float() <= -0.7 and 0.3 <= r.hi_float()


def test_sqrt_nonneg_clamps_and_rejects(make):
    # [0, 2] up to the outward slack of the wider kernel
    for r in (make(-1e-30, 4.0).sqrt_nonneg(), go.sqrt_nonneg(make(-1e-30, 4.0))):
        assert r.lo_float() == 0.0
        assert 2.0 <= r.hi_float() <= 2.0 + math.ulp(2.0)
    with pytest.raises(DomainError):
        make(-2.0, -1.0).sqrt_nonneg()
    with pytest.raises(DomainError):
        go.sqrt_nonneg(make(-2.0, -1.0))
    with pytest.raises(DomainError):
        make(-1e-30, 4.0).sqrt()


def test_is_interval_tells_numbers_from_intervals(make):
    assert go.is_interval(make(1.0, 2.0))
    for v in (1, 1.5, np.float64(1.5)):
        assert not go.is_interval(v)
        assert go.point_like(v, 2) == 2.0
    p = go.point_like(make(1.0, 2.0), -1.0)
    assert type(p) is type(make(1.0, 2.0)) and p.mid() == -1.0


@pytest.mark.parametrize(
    "fn, c",
    [
        (go.sqrt, 2.0),
        (go.sqrt_nonneg, 2.0),
        (go.arccos, 0.3),
        (go.cosh, 1.3),
        (go.midpoint, -0.25),
    ],
)
def test_helpers_agree_on_floats_and_points(make, fn, c):
    want = fn(c)
    for v in (c, np.float64(c)):
        assert fn(v) == want
    got = fn(make(c, c))
    if go.is_interval(got):
        assert got.lo_float() <= want + 4 * math.ulp(want)
        assert want - 4 * math.ulp(want) <= got.hi_float()
        got = go.midpoint(got)
    assert got == pytest.approx(want, rel=4e-16)


def test_sign_tests_agree_on_floats_and_points(make):
    for c in (-2.5, -1.0 - 1e-9, 0.5):
        x = make(c, c)
        for t in (-1.0, 0.0):
            assert go.surely_lt(x, t) == go.surely_lt(c, t) == (c < t)
            assert go.surely_gt(x, t) == go.surely_gt(c, t) == (c > t)
    wide = make(-1.5, -0.5)
    assert not go.surely_lt(wide, -1.0) and not go.surely_gt(wide, -1.0)
