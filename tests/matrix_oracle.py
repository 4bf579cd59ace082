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
up to enclosure.

`select_submatrix_full_update` is stage I's full pivoting with the update of
the whole matrix that the trailing-only update in `hypcert.verify` replaced.
Tests only.
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


_INF = 2 ** 5000  # stands for an infinite endpoint: above every finite product


def _scaled(matrices):
    """Float endpoint matrices as object arrays of exact integers x * 2^s,
    with +-inf as +-_INF, and the scale s: the least (at most 1074) that
    makes every endpoint an integer."""
    ratios = [[x.as_integer_ratio() if math.isfinite(x) else (x, 0)
               for x in np.asarray(m, dtype=float).ravel().tolist()] for m in matrices]
    den = max((d for r in ratios for _, d in r), default=1)
    scale = den.bit_length() - 1

    def scaled(num, d):
        if d == 0:
            return _INF if num > 0 else -_INF
        return num * (den // d)

    arrays = [np.array([scaled(*x) for x in r], dtype=object).reshape(np.shape(m))
              for r, m in zip(ratios, matrices)]
    return arrays, scale


def _total(terms, undefined, scale):
    """The sums along rows of endpoint products scaled by 2^scale, as
    Fractions or +-inf; `undefined` where +inf meets -inf."""
    pos = (terms >= _INF).any(axis=1)
    neg = (terms <= -_INF).any(axis=1)
    sums = terms.sum(axis=1)
    return [undefined if p and n else -inf if n else inf if p else Fraction(t, 2 ** scale)
            for p, n, t in zip(pos.tolist(), neg.tolist(), sums.tolist())]


def exact_mat_mul(a, b):
    """The exact product of nested lists of `Interval`s: per entry the pair
    (lo, hi) of Fractions (or +-inf), each term's hull from its endpoint
    products in integers, all endpoints scaled by one power of two.  0 * inf
    is 0, as for endpoint products of closed real intervals.  An entry whose
    lower (upper) sum meets both infinities has lo = -inf (hi = +inf): it
    constrains nothing."""
    (alo, ahi, blo, bhi), scale = _scaled([[[getattr(x, end) for x in row] for row in m]
                                           for m, end in ((a, "lo"), (a, "hi"),
                                                          (b, "lo"), (b, "hi"))])
    columns = []
    for ylo, yhi in zip(blo.T, bhi.T):
        ys = (ylo,) if (ylo == yhi).all() else (ylo, yhi)  # a column of points
        products = np.array([x * y for x in (alo, ahi) for y in ys])
        columns.append(zip(_total(products.min(axis=0), -inf, 2 * scale),
                           _total(products.max(axis=0), inf, 2 * scale)))
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


def select_submatrix_full_update(M, h):
    """`hypcert.verify.select_submatrix` as a loop that updates the whole
    matrix every round: the used rows and columns are masked out of the
    pivot search, and each round's row and column are zeroed outside the
    pivot once it is done.  Returns the chosen (rows, cols), sorted."""
    A = np.array(M, dtype=float, copy=True)
    n_rows, n_cols = A.shape
    if h > min(n_rows, n_cols):
        raise ValueError(f"cannot select {h} pivots from {A.shape}")
    rows, cols = [], []
    row_mask = np.ones(n_rows, dtype=bool)
    col_mask = np.ones(n_cols, dtype=bool)
    for _ in range(h):
        B = np.abs(A)
        B[~row_mask, :] = -1.0
        B[:, ~col_mask] = -1.0
        r, c = np.unravel_index(np.argmax(B), B.shape)
        if A[r, c] == 0.0:
            raise ValueError("zero pivot before filling the expected rank")
        piv = A[r, c]
        factors = A[:, c] / piv
        factors[r] = 0.0
        A -= np.outer(factors, A[r, :])
        A[:, c] = 0.0
        A[r, :] = 0.0
        A[r, c] = piv
        rows.append(int(r))
        cols.append(int(c))
        row_mask[r] = False
        col_mask[c] = False
    return sorted(rows), sorted(cols)
