"""Scalar views of the kernels' arrays, for the tests and their oracles.

The kernels (`hypcert.interval`) build, compare and convert whole arrays
only; the scalar references reason one `Interval` or `MPInterval` at a
time.  These helpers cross between the two: `entries` reads an array back
as nested lists of its scalars, `array` builds the array of nested
scalars, and `point` and `interval` make one scalar of a kernel's kind
through the kernel's own array constructors.  `ENTRYWISE` is a kernel's
comparisons, conversions and column sums on numpy object arrays of
scalars, one scalar method call per entry: the reference that the
kernels' array methods must equal bit for bit.  Tests only.
"""

from operator import attrgetter

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


# numpy reads the floating-point flags after an object-array loop, and a
# scalar two-sum that meets an infinite endpoint or overflows sets them on
# its way to a sound sum: the entrywise layer runs with the flags unread


def _entrywise(name, nin, dtype=None):
    """The scalar method `name` of the entries of the first object array,
    with the entries of the others as arguments, cast to dtype (None: kept
    as objects)."""
    fn = np.frompyfunc(lambda x, *args: getattr(x, name)(*args), nin, 1)

    def apply(*arrays):
        with np.errstate(all="ignore"):
            out = fn(*arrays)
        return out if dtype is None else out.astype(dtype)

    return apply


def add_columns(acc, terms):
    """acc + terms[:, 0] + ... + terms[:, n - 1] of object arrays, one
    scalar sum per entry and column, left to right."""
    with np.errstate(all="ignore"):
        for j in range(terms.shape[1]):
            acc = acc + terms[:, j]
    return acc


def equal_ids(arr):
    """For each entry of a 1-D object array, the index of the first entry
    with equal endpoints."""
    seen = {}
    return np.array([seen.setdefault((x.lo, x.hi), i) for i, x in enumerate(arr.tolist())],
                    dtype=np.intp)


_lo_float, _hi_float = _entrywise("lo_float", 1, float), _entrywise("hi_float", 1, float)

ENTRYWISE = {
    "inside": _entrywise("strictly_inside", 2, bool),
    "intersect": _entrywise("intersect", 2),
    "meets": _entrywise("intersects", 2, bool),
    "contains": _entrywise("contains", 2, bool),
    "width": _entrywise("width", 1, float),
    "sqrt": _entrywise("sqrt", 1),
    "sqrt_nonneg": _entrywise("sqrt_nonneg", 1),
    "arccos": _entrywise("arccos", 1),
    "bounds": lambda arr: (_lo_float(arr), _hi_float(arr)),
    "exact_bounds": np.frompyfunc(attrgetter("lo", "hi"), 1, 2),
    "concat": lambda arrays: np.concatenate(arrays, axis=-1),
    "add_columns": add_columns,
    "equal_ids": equal_ids,
}
