"""Interval matrix products for the tests: the scalar loop and the exact hull.

`scalar_mat_mul` is the loop of scalar operations.  It forms the 3x3
products of the label and holonomy oracles, and, with object arrays of
`Interval`, the matrix layer of the end-to-end test that certifies without
`hypcert.interval.FloatKernel.mat_mul`.

`exact_mat_mul` is the exact product of two interval matrices in rational
arithmetic, and `assert_encloses_exact` the property that `FloatKernel.mat_mul`
must have: every entry contains that exact entry, and an entry none of whose
terms has two factors other than [0, 0] is exactly [0, 0].  The midpoint-radius
product on BLAS rounds differently from the scalar loop, so the two agree only
up to enclosure.  Tests only.
"""

import math
from fractions import Fraction

import numpy as np

inf = math.inf


def scalar_mat_mul(a, b):
    """a @ b for (nested sequences of) scalars of any kind, entry by entry,
    each entry summed left to right over k from the k = 0 product."""
    out = []
    bt = list(zip(*b))
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for k in range(1, len(row)):
                acc = acc + row[k] * col[k]
            out_row.append(acc)
        out.append(out_row)
    return out


def mat3_mul(a, b):
    """`scalar_mat_mul` of two 3x3 matrices, as nested tuples."""
    return tuple(map(tuple, scalar_mat_mul(a, b)))


def mat3_identity(one, zero):
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


_SCALE = 1074  # a float times 2^1074 is an integer
_INF = 2 ** 5000  # stands for an infinite endpoint: above every finite product


def _scaled(endpoints):
    """Float endpoints as an object array of exact integers x * 2^1074, with
    +-inf as +-_INF."""
    def scaled(x):
        if math.isinf(x):
            return _INF if x > 0 else -_INF
        num, den = x.as_integer_ratio()
        return num * (2 ** _SCALE // den)
    flat = [scaled(x) for x in np.asarray(endpoints, dtype=float).ravel().tolist()]
    return np.array(flat, dtype=object).reshape(np.shape(endpoints))


def _total(terms, undefined):
    """The sums along rows of scaled endpoint products, as Fractions or
    +-inf; `undefined` where +inf meets -inf."""
    pos = (terms >= _INF).any(axis=1)
    neg = (terms <= -_INF).any(axis=1)
    sums = terms.sum(axis=1)
    return [undefined if p and n else -inf if n else inf if p else Fraction(t, 4 ** _SCALE)
            for p, n, t in zip(pos.tolist(), neg.tolist(), sums.tolist())]


def exact_mat_mul(a, b):
    """The exact product of nested lists of `Interval`s: per entry the pair
    (lo, hi) of Fractions (or +-inf), each term's hull from its four endpoint
    products in integers scaled by 2^2148.  0 * inf is 0, as for endpoint
    products of closed real intervals.  An entry whose lower (upper) sum
    meets both infinities has lo = -inf (hi = +inf): it constrains nothing."""
    alo, ahi, blo, bhi = (_scaled([[getattr(x, end) for x in row] for row in m])
                          for m, end in ((a, "lo"), (a, "hi"), (b, "lo"), (b, "hi")))
    columns = []
    for ylo, yhi in zip(blo.T, bhi.T):
        products = np.array([x * y for x in (alo, ahi) for y in (ylo, yhi)])
        columns.append(zip(_total(products.min(axis=0), -inf),
                           _total(products.max(axis=0), inf)))
    return [list(row) for row in zip(*columns)]


def _is_zero(x):
    return x.lo == 0.0 and x.hi == 0.0


def assert_encloses_exact(got, a, b):
    """Every entry of `got` (nested lists of `Interval`) contains the exact
    entry of a @ b, and an entry without a term of two factors other than
    [0, 0] is [+0.0, +0.0].  Returns the exact product."""
    exact = exact_mat_mul(a, b)
    bt = list(zip(*b))
    assert len(got) == len(a) and all(len(row) == len(bt) for row in got)
    for i, (got_row, exact_row) in enumerate(zip(got, exact)):
        for j, (g, (lo, hi)) in enumerate(zip(got_row, exact_row)):
            assert g.lo <= lo and hi <= g.hi, (i, j, g)
            if all(_is_zero(x) or _is_zero(y) for x, y in zip(a[i], bt[j])):
                assert (g.lo.hex(), g.hi.hex()) == ("0x0.0p+0",) * 2, (i, j, g)
    return exact
