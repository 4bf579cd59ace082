"""The interval protocol shared by `Interval` and `MPInterval`, and the
`scalars` helpers that generic formulas call."""

import math

import numpy as np
import pytest

from hypcert import scalars as sc
from hypcert.interval import DomainError, Interval, MPInterval

KINDS = {
    "float53": lambda lo, hi: Interval(lo, hi),
    "mp80": lambda lo, hi: MPInterval.from_floats(lo, hi, 80),
}


@pytest.fixture(params=sorted(KINDS))
def make(request):
    return KINDS[request.param]


def test_kernel_builds_same_kind_and_precision(make):
    x = make(1.0, 2.0)
    for c in (0.0, -1.0, 0.1, 3):
        p = x.kernel.point(c)
        assert type(p) is type(x)
        assert p.kernel.precision == x.kernel.precision
        assert p.lo_float() == p.hi_float() == float(c)
    assert x.kernel.interval(0.5, 1.5).kernel.precision == x.kernel.precision
    assert getattr(x.kernel.point(0.3), "prec", 53) == x.kernel.precision


def test_float_bounds_bracket(make):
    third = make(1.0, 1.0) / make(3.0, 3.0)
    assert third.lo_float() <= 1.0 / 3.0 <= third.hi_float()
    assert third.lo_float() < third.hi_float()
    r = make(0.1, 0.1) * make(-7.0, 3.0)
    assert r.lo_float() <= -0.7 and 0.3 <= r.hi_float()


def test_sqrt_nonneg_clamps_and_rejects(make):
    # [0, 2] up to the outward slack of the wider kernel
    for r in (make(-1e-30, 4.0).sqrt_nonneg(), sc.sqrt_nonneg(make(-1e-30, 4.0))):
        assert r.lo_float() == 0.0
        assert 2.0 <= r.hi_float() <= 2.0 + math.ulp(2.0)
    with pytest.raises(DomainError):
        make(-2.0, -1.0).sqrt_nonneg()
    with pytest.raises(DomainError):
        sc.sqrt_nonneg(make(-2.0, -1.0))
    with pytest.raises(DomainError):
        make(-1e-30, 4.0).sqrt()


def test_is_interval_tells_numbers_from_intervals(make):
    assert sc.is_interval(make(1.0, 2.0))
    for v in (1, 1.5, np.float64(1.5)):
        assert not sc.is_interval(v)
        assert sc.point_like(v, 2) == 2.0
    p = sc.point_like(make(1.0, 2.0), -1.0)
    assert type(p) is type(make(1.0, 2.0)) and p.mid() == -1.0


@pytest.mark.parametrize(
    "fn, c",
    [
        (sc.sqrt, 2.0),
        (sc.sqrt_nonneg, 2.0),
        (sc.arccos, 0.3),
        (sc.cosh, 1.3),
        (sc.midpoint, -0.25),
    ],
)
def test_helpers_agree_on_floats_and_points(make, fn, c):
    want = fn(c)
    for v in (c, np.float64(c)):
        assert fn(v) == want
    got = fn(make(c, c))
    if sc.is_interval(got):
        assert got.lo_float() <= want + 4 * math.ulp(want)
        assert want - 4 * math.ulp(want) <= got.hi_float()
        got = sc.midpoint(got)
    assert got == pytest.approx(want, rel=4e-16)


def test_sign_tests_agree_on_floats_and_points(make):
    for c in (-2.5, -1.0 - 1e-9, 0.5):
        x = make(c, c)
        for t in (-1.0, 0.0):
            assert sc.surely_lt(x, t) == sc.surely_lt(c, t) == (c < t)
            assert sc.surely_gt(x, t) == sc.surely_gt(c, t) == (c > t)
    wide = make(-1.5, -0.5)
    assert not sc.surely_lt(wide, -1.0) and not sc.surely_gt(wide, -1.0)
