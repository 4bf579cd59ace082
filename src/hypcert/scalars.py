"""Scalar genericity shims.

The geometric formulas are written once and instantiated both with plain
floats (fast, for the unverified solver and for pivoting) and with
intervals (rigorous, for certification).  These helpers dispatch the few
non-operator functions the formulas need.  `is_interval` is the one place
that tells a real number (int, float, numpy float64) from an interval;
intervals are then used only through the protocol of `hypcert.interval`.
`kernel_of` gives the kernel of a scalar's kind: an interval's own, or
`REAL_KERNEL` for plain floats.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import Interval, MPInterval

TWO_PI_FLOAT = 2.0 * math.pi


class RealKernel:
    """Plain floats in the kernels' array protocol: numpy float64 arrays,
    whose elementwise IEEE arithmetic is that of Python floats.  Arccos is
    ``math.acos`` per element, as for a float, never ``np.arccos``."""

    @staticmethod
    def point(x):
        return float(x)

    @staticmethod
    def array(values):
        return np.array(values, dtype=float)

    @staticmethod
    def bounds(arr):
        return arr, arr

    @staticmethod
    def sqrt(arr):
        return np.sqrt(arr)

    @staticmethod
    def sqrt_nonneg(arr):
        # math.sqrt(max(x, 0.0)) per element; max keeps x unless 0.0 > x
        return np.sqrt(np.where(0.0 > arr, 0.0, arr))

    @staticmethod
    def arccos(arr):
        return np.array([math.acos(x) for x in arr.ravel().tolist()]).reshape(arr.shape)


REAL_KERNEL = RealKernel()


def is_interval(x):
    return isinstance(x, (Interval, MPInterval))


def kernel_of(sample):
    """The kernel that builds scalars and arrays of sample's kind."""
    return sample.kernel if is_interval(sample) else REAL_KERNEL


def cosh(x):
    return x.cosh() if is_interval(x) else math.cosh(x)


def surely_lt(x, c):
    """x < c for every member of x (floats compare directly)."""
    return x.hi_float() < c if is_interval(x) else x < c


def midpoint(x):
    return x.mid() if is_interval(x) else float(x)
