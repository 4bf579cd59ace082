import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert.interval import (
    FLOAT_KERNEL,
    PI,
    TWO_PI,
    DomainError,
    FloatKernel,
    Interval,
    IntervalError,
    MPInterval,
    MPKernel,
    interval_matrix_invertible,
    kernel_for_precision,
)
from tests import kernel_scalars as ks

mpmath.mp.prec = 250


def contains_true(iv, true):
    return mpmath.mpf(iv.lo_float()) <= true <= mpmath.mpf(iv.hi_float())


def test_exact_endpoint_arithmetic():
    s = Interval(1, 2) + Interval(3, 4)
    assert (s.lo, s.hi) == (4.0, 6.0)
    p = Interval(-1, 1) * Interval(-1, 1)
    assert (p.lo, p.hi) == (-1.0, 1.0)


def test_division_width_two_ulp():
    q = Interval(1, 1) / Interval(3, 3)
    assert q.lo <= 1 / 3 <= q.hi
    assert q.hi - q.lo <= 2 * math.ulp(1 / 3)


def test_division_by_zero_straddling_interval():
    with pytest.raises(DomainError):
        Interval(1, 1) / Interval(-1, 1)


def test_reversed_and_nan_endpoints_rejected():
    with pytest.raises(IntervalError):
        Interval(2, 1)
    with pytest.raises(IntervalError):
        Interval(float("nan"), 1)


def test_cosh_at_zero_is_exact():
    c = Interval(0, 0).cosh()
    assert (c.lo, c.hi) == (1.0, 1.0)


def test_arccos_full_range():
    a = Interval(-1, 1).arccos()
    assert a.lo == 0.0
    assert a.hi >= math.pi


def test_acosh_cosh_round_trip():
    r = Interval(1, 1).cosh().acosh()
    assert r.lo <= 1.0 <= r.hi


def test_domain_preconditions_raise():
    with pytest.raises(DomainError):
        Interval(-0.5, 1).sqrt()
    with pytest.raises(DomainError):
        Interval(0.5, 1.5).arccos()
    with pytest.raises(DomainError):
        Interval(0.5, 2).acosh()


def test_trig_extrema_included():
    assert Interval(3.0, 3.3).cos().lo == -1.0
    assert Interval(1.4, 1.8).sin().hi == 1.0
    assert Interval(6.2, 6.4).cos().hi == 1.0
    assert Interval(-10.0, 10.0).sin().lo == -1.0


def test_pi_constants_enclose():
    assert mpmath.mpf(PI.lo) <= mpmath.pi <= mpmath.mpf(PI.hi)
    assert mpmath.mpf(TWO_PI.lo) <= 2 * mpmath.pi <= mpmath.mpf(TWO_PI.hi)
    for k in (FLOAT_KERNEL, MPKernel(80)):
        got = k.contains_two_pi(k.from_bounds(np.array([6.28, 6.29]), np.array([6.29, 6.30])))
        assert got.tolist() == [True, False]


def test_soundness_fuzz_float_kernel():
    rng = random.Random(20240817)
    for _ in range(1500):
        x = rng.uniform(-6, 6)
        y = rng.uniform(-6, 6)
        X, Y = Interval.point(x), Interval.point(y)
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        assert contains_true(X + Y, mx + my)
        assert contains_true(X - Y, mx - my)
        assert contains_true(X * Y, mx * my)
        if abs(y) > 1e-9:
            assert contains_true(X / Y, mx / my)
        assert contains_true(X.cos(), mpmath.cos(mx))
        assert contains_true(X.sin(), mpmath.sin(mx))
        assert contains_true(X.cosh(), mpmath.cosh(mx))
        if x > 0:
            assert contains_true(X.sqrt(), mpmath.sqrt(mx))
        if x > 1:
            assert contains_true(X.acosh(), mpmath.acosh(mx))
        t = x / 6.01
        if -1 < t < 1:
            assert contains_true(Interval.point(t).arccos(), mpmath.acos(mpmath.mpf(t)))


def test_soundness_extreme_magnitudes():
    # regressions: the product error term is unreliable once Dekker
    # splitting overflows (~1e300) or the product drifts toward the
    # subnormal range; both used to yield one-sided bounds
    cases = [
        ("div", 8.279745790825213e299, 0.2708143656584099),
        ("mul", 1.5096400070090388e-302, -5.447330116948557e-06),
    ]
    for what, x, y in cases:
        X, Y = Interval.point(x), Interval.point(y)
        iv = X / Y if what == "div" else X * Y
        true = mpmath.mpf(x) / mpmath.mpf(y) if what == "div" else mpmath.mpf(x) * mpmath.mpf(y)
        assert contains_true(iv, true), (what, iv)

    rng = random.Random(0xBAD5EED)
    for _ in range(800):
        x = rng.uniform(-1, 1) * rng.choice([1e-320, 1e-300, 1e-30, 1.0, 1e30, 1e300])
        y = rng.uniform(-1, 1) * rng.choice([1e-320, 1e-30, 1.0, 1e30, 1e300])
        X, Y = Interval.point(x), Interval.point(y)
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        assert contains_true(X + Y, mx + my)
        assert contains_true(X * Y, mx * my)
        if y != 0:
            assert contains_true(X / Y, mx / my)
        if x > 0:
            assert contains_true(X.sqrt(), mpmath.sqrt(mx))


def test_soundness_fuzz_mp_kernel():
    k = MPKernel(100)
    rng = random.Random(7)
    for _ in range(120):
        x = rng.uniform(-5, 5)
        y = rng.uniform(0.1, 5)
        X, Y = ks.point(k, x), ks.point(k, y)
        mx, my = mpmath.mpf(x), mpmath.mpf(y)
        assert contains_true(X + Y, mx + my)
        assert contains_true(X * Y, mx * my)
        assert contains_true(X / Y, mx / my)
        assert contains_true(X.cos(), mpmath.cos(mx))
        assert contains_true(X.sin(), mpmath.sin(mx))
        assert contains_true(Y.sqrt(), mpmath.sqrt(my))
        assert contains_true(Y.cosh(), mpmath.cosh(my))
    q = ks.point(k, 1.0) / ks.point(k, 3.0)
    assert q.width() < 1e-28


_small = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


@st.composite
def nested_pair(draw):
    a = draw(_small)
    b = draw(_small)
    lo, hi = min(a, b), max(a, b)
    pad_lo = draw(st.floats(min_value=0, max_value=10))
    pad_hi = draw(st.floats(min_value=0, max_value=10))
    return Interval(lo, hi), Interval(lo - pad_lo, hi + pad_hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nested_pair(), nested_pair())
def test_inclusion_monotonic_arithmetic(ab, cd):
    a, a_big = ab
    c, c_big = cd
    for op in ("__add__", "__sub__", "__mul__"):
        small = getattr(a, op)(c)
        big = getattr(a_big, op)(c_big)
        assert big.encloses(small)


# products and quotients that underflow: the result keeps its sign
_UNDERFLOW_CASES = [
    ((0.0, 1.8e-35), "*", (2.2e-309, 1.0), 1),
    ((1e-200, 1e-200), "*", (1e-200, 1e-200), 1),
    ((1e-200, 1e-200), "/", (1e200, 1e200), 1),
    ((1e-200, 1e-200), "*", (-1e-200, -1e-200), -1),
    ((-1e-200, -1e-200), "/", (1e200, 1e200), -1),
    ((-1e-200, -1e-200), "*", (-1e-200, -1e-200), 1),
]


def _apply(op, x, y):
    return x * y if op == "*" else x / y


@pytest.mark.parametrize("a, op, b, sign", _UNDERFLOW_CASES)
def test_underflow_keeps_sign(a, op, b, sign):
    r = _apply(op, Interval(*a), Interval(*b))
    if sign > 0:
        assert r.lo == 0.0 and r.hi > 0.0
    else:
        assert r.hi == 0.0 and r.lo < 0.0


@pytest.mark.parametrize("a, op, b, sign", _UNDERFLOW_CASES)
def test_underflow_keeps_sign_mp(a, op, b, sign):
    # mpmath exponents do not underflow: directed rounding alone keeps the
    # sign, and the float bounds still bracket the tiny result
    x = MPInterval.from_floats(*a, 80)
    y = MPInterval.from_floats(*b, 80)
    r = _apply(op, x, y)
    if sign > 0:
        assert r.lo_float() >= 0.0 and r.hi_float() > 0.0
    else:
        assert r.hi_float() <= 0.0 and r.lo_float() < 0.0


def test_underflow_product_isotonic():
    small = Interval(0.0, 1.8e-35) * Interval(2.2e-309, 1.0)
    big = Interval(0.0, 1.8e-35) * Interval(0.0, 1.0)
    assert big.encloses(small)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(nested_pair())
def test_inclusion_monotonic_elementary(ab):
    a, a_big = ab
    assert a_big.cos().encloses(a.cos())
    assert a_big.sin().encloses(a.sin())
    assert a_big.cosh().encloses(a.cosh())


def _rot(kernel, angle_iv):
    c = angle_iv.cos()
    s = angle_iv.sin()
    z, one = ks.point(kernel, 0.0), ks.point(kernel, 1.0)
    return ks.array(FLOAT_KERNEL, [[c, -s, z], [s, c, z], [z, z, one]])


def test_mat_mul_identity_and_zero():
    k = FloatKernel()
    I = FLOAT_KERNEL.points(np.eye(3))
    Z = FLOAT_KERNEL.points(np.zeros((3, 3)))
    P = ks.entries(FLOAT_KERNEL.mat_mul(I, I))
    for i in range(3):
        for j in range(3):
            want = 1.0 if i == j else 0.0
            assert P[i][j].contains(want)
    anym = _rot(k, ks.point(k, 0.7))
    ZP = ks.entries(FLOAT_KERNEL.mat_mul(anym, Z))
    for i in range(3):
        for j in range(3):
            assert ZP[i][j].lo == ZP[i][j].hi == 0.0


def test_mat_mul_rotation_composition_oracle():
    # two half-turns about z compose to the identity; the angle must be
    # an enclosure of pi for the product to provably close up
    k = FloatKernel()
    R = _rot(k, PI)
    P = ks.entries(FLOAT_KERNEL.mat_mul(R, R))
    for i in range(3):
        for j in range(3):
            assert P[i][j].contains(1.0 if i == j else 0.0)


def test_mat_mul_shape_mismatch():
    z = FLOAT_KERNEL.points(np.zeros((2, 3)))
    with pytest.raises(IntervalError):
        FLOAT_KERNEL.mat_mul(z, z)


def test_invertibility_examples():
    k = FloatKernel()
    assert interval_matrix_invertible(FLOAT_KERNEL.points(np.eye(3)))
    assert not interval_matrix_invertible(FLOAT_KERNEL.points(np.zeros((3, 3))))
    wide = ks.array(FLOAT_KERNEL, [[ks.interval(k, -1, 1)] * 3 for _ in range(3)])
    assert not interval_matrix_invertible(wide)


def test_invertibility_never_certifies_planted_singular():
    k = FloatKernel()
    rng = np.random.default_rng(5)
    for _ in range(60):
        n = int(rng.integers(2, 6))
        u = rng.normal(size=(n, n - 1))
        v = rng.normal(size=(n - 1, n))
        m = u @ v  # rank n-1 midpoint
        pad = 10.0 ** rng.uniform(-14, -2)
        M = k.from_bounds(m - pad, m + pad)
        assert not interval_matrix_invertible(M)


def test_kernel_for_precision_dispatch():
    assert isinstance(kernel_for_precision(53), FloatKernel)
    assert kernel_for_precision(100).precision == 100
    with pytest.raises(ValueError):
        kernel_for_precision(24)
