"""Scalar views of the kernels' arrays, for the tests and their oracles.

The kernels (`hypcert.interval`) build, compare and convert whole arrays
only; the scalar references reason one `Interval` or `MPInterval` at a
time.  These helpers cross between the two: `entries` reads an array back
as nested lists of its scalars, `array` builds the array of nested
scalars, and `point` and `interval` make one scalar of a kernel's kind
through the kernel's own array constructors.  Tests only.
"""

import numpy as np

from hypcert.interval import FloatKernel, Interval, IntervalArray, RealKernel

_INTERVALS = np.frompyfunc(Interval, 2, 1)
_ENDS = np.frompyfunc(lambda x: (x.lo, x.hi), 1, 2)


def entries(arr):
    """Nested lists of the entries of a kernel array, like `ndarray.tolist`:
    `Interval`s of an `IntervalArray`, the `MPInterval`s of an object array
    and the floats of a float array."""
    if isinstance(arr, IntervalArray):
        return np.asarray(_INTERVALS(arr.lo, arr.hi), dtype=object).tolist()
    return arr.tolist()


def array(kernel, nested):
    """The kernel array of nested lists of scalars of the kernel's kind."""
    if isinstance(kernel, RealKernel):
        return np.array(nested, dtype=float)
    obj = np.array(nested, dtype=object)
    if isinstance(kernel, FloatKernel):
        lo, hi = _ENDS(obj)
        return kernel.from_bounds(lo.astype(float), hi.astype(float))
    return obj


def point(kernel, x):
    """The point x as a scalar of the kernel's kind."""
    return entries(kernel.points([float(x)]))[0]


def interval(kernel, lo, hi):
    """The interval [lo, hi] of float endpoints as a scalar of the kernel's
    kind."""
    return entries(kernel.from_bounds([float(lo)], [float(hi)]))[0]
