"""Scalar genericity shims.

The geometric formulas are written once and instantiated both with plain
floats (fast, for the unverified solver and for pivoting) and with
intervals (rigorous, for certification).  These helpers dispatch the few
non-operator functions the formulas need.  `is_interval` is the one place
that tells a real number (int, float, numpy float64) from an interval;
intervals are then used only through the protocol of `hypcert.interval`.
"""

from __future__ import annotations

import math

from .interval import Interval, MPInterval

TWO_PI_FLOAT = 2.0 * math.pi


def is_interval(x):
    return isinstance(x, (Interval, MPInterval))


def point_like(sample, x):
    """The constant x as a scalar of the same kind and precision as sample."""
    return sample.kernel.point(x) if is_interval(sample) else float(x)


def sqrt(x):
    return x.sqrt() if is_interval(x) else math.sqrt(x)


def sqrt_nonneg(x):
    """sqrt of a quantity that is mathematically >= 0; clamps rounding dips
    below zero instead of failing.  Must not be used where negativity would
    indicate a genuine domain violation."""
    return x.sqrt_nonneg() if is_interval(x) else math.sqrt(max(x, 0.0))


def arccos(x):
    return x.arccos() if is_interval(x) else math.acos(x)


def cos(x):
    return x.cos() if is_interval(x) else math.cos(x)


def sin(x):
    return x.sin() if is_interval(x) else math.sin(x)


def cosh(x):
    return x.cosh() if is_interval(x) else math.cosh(x)


def acosh(x):
    return x.acosh() if is_interval(x) else math.acosh(x)


def surely_lt(x, c):
    """x < c for every member of x (floats compare directly)."""
    return x.hi_float() < c if is_interval(x) else x < c


def surely_gt(x, c):
    return x.lo_float() > c if is_interval(x) else x > c


def midpoint(x):
    return x.mid() if is_interval(x) else float(x)
