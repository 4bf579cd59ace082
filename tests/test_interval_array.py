"""The float kernel's array layer against the scalar `Interval` dunders.

Every endpoint that the elementwise operations compute must be bit for bit
the one the scalar dunder or method computes.  The matrix product is
midpoint-radius on BLAS: each of its entries must enclose the exact product,
computed in rationals, and be as tight as its error bound says.
"""

import math
import operator
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from hypcert import certificate as cert
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    REAL_KERNEL,
    DomainError,
    FloatKernel,
    Interval,
    IntervalArray,
    IntervalError,
    MPInterval,
    MPKernel,
    TWO_PI,
    _mid_rad,
    inverse_residual,
    interval_matrix_invertible,
)
from tests.matrix_oracle import assert_encloses_exact, exact_mat_mul, scalar_mat_mul
from tests import kernel_scalars as ks

inf = math.inf
TINY = 2.0 ** -960  # below this a Dekker error term is unknown

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 2.2e-310,
    TINY, -TINY, 1.5 * TINY, 2.0 ** -961, 2.0 ** -480, -(2.0 ** -480),
    math.nextafter(2.0 ** -480, 1.0), 1e-300,
    1.0, -1.0, 3.0, 0.1, -0.7,
    1e154, 1.4e154, 1e300, -1e300, 1.7e308, -1.7e308, inf, -inf,
]

endpoints = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=False, width=64),
    st.floats(-10.0, 10.0),
)
points = endpoints.map(lambda x: Interval(x, x))
wide = st.tuples(endpoints, endpoints).map(lambda ab: Interval(min(ab), max(ab)))
entries = st.one_of(points, wide)


def bits(ivs):
    """Endpoints as hex strings, so that -0.0 and 0.0 differ."""
    return [[(x.lo.hex(), x.hi.hex()) for x in row] for row in ivs]


def scalar_or_error(fn):
    try:
        return fn()
    except IntervalError as exc:
        return type(exc), str(exc)


# The matrix products below draw a shape and a seed, and fill the entries
# from a numpy generator seeded with it, in the mixes of the strategies
# above: drawing every entry with Hypothesis took most of their time.


def random_endpoints(rng, shape):
    """Floats mixed as `endpoints` mixes them: SPECIAL values, any float
    but NaN (random bit patterns) and floats in [-10, 10], a third each."""
    special = np.array(SPECIAL)[rng.integers(len(SPECIAL), size=shape)]
    anything = rng.integers(0, 2 ** 64, size=shape, dtype=np.uint64).view(float)
    anything[np.isnan(anything)] = inf
    return np.choose(rng.integers(3, size=shape), [special, anything,
                                                   rng.uniform(-10.0, 10.0, shape)])


def random_hulls(x, y, point):
    """[x, x] where `point`, else the hull of x and y, as nested lists."""
    lo = np.where(point, x, np.minimum(x, y))
    hi = np.where(point, x, np.maximum(x, y))
    return [[Interval(l, h) for l, h in zip(lr, hr)] for lr, hr in zip(lo.tolist(), hi.tolist())]


def random_entries(rng, shape):
    """Intervals mixed as `entries` mixes them: points and hulls of two
    endpoints, half each."""
    return random_hulls(random_endpoints(rng, shape), random_endpoints(rng, shape),
                        rng.random(shape) < 0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8), st.integers(0, 2 ** 32 - 1))
def test_array_mat_mul_encloses_exact_product(r, n, c, seed):
    rng = np.random.default_rng(seed)
    a, b = random_entries(rng, (r, n)), random_entries(rng, (n, c))
    k = FLOAT_KERNEL
    assert_encloses_exact(ks.entries(k.mat_mul(ks.array(k, a), ks.array(k, b))), a, b)


U = 2.0 ** -53


def _assert_tight(got, a, b, exact):
    """A point factor times an interval one, as in both callers: each entry
    is at most the exact width plus the error bound of `FloatKernel.mat_mul`
    (rounding, 2 n u |a| |b| and a few ulps) wider."""
    n = len(b)

    def mags(m):
        return [[Interval.point(x.mag()) for x in row] for row in m]

    for got_row, exact_row, mag_row in zip(got, exact, exact_mat_mul(mags(a), mags(b))):
        for g, (lo, hi), (mag, _) in zip(got_row, exact_row, mag_row):
            slack = (4 * (n + 4) * U * ((hi - lo) + mag) + 4 * U * abs(lo + hi)
                     + Fraction(2.0 ** -1070))
            assert Fraction(g.hi) - Fraction(g.lo) <= (hi - lo) + slack


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 1), (1, 4, 6), (7, 3, 1), (8, 8, 8)])
def test_array_mat_mul_shapes(shape):
    r, n, c = shape
    rng = np.random.default_rng(sum(shape))
    a = [[Interval(v, v + abs(w)) for v, w in zip(rng.normal(size=n), rng.normal(size=n))]
         for _ in range(r)]
    b = [[Interval(v, v) for v in rng.normal(size=c)] for _ in range(n)]
    got = FLOAT_KERNEL.mat_mul(ks.array(FLOAT_KERNEL, a), ks.array(FLOAT_KERNEL, b))
    assert got.shape == (r, c)
    exact = assert_encloses_exact(ks.entries(got), a, b)
    _assert_tight(ks.entries(got), a, b, exact)


def test_mat_mul_encloses_underflowing_terms():
    # eight products 0.4 * 2^-1074 round to 0, so the midpoint and its
    # bound T are 0, but the exact sum is 3.2 * 2^-1074: the k eta term of
    # the error bound must cover it
    a = [[Interval.point(5e-324)] * 8, [Interval(5e-324, 1e-323)] * 8]
    b = [[Interval.point(0.4)] for _ in range(8)]
    got = FLOAT_KERNEL.mat_mul(ks.array(FLOAT_KERNEL, a), ks.array(FLOAT_KERNEL, b))
    assert_encloses_exact(ks.entries(got), a, b)


def test_mat_mul_encloses_long_radius_sums():
    # points times intervals centred on 0: the midpoint is exactly 0, and
    # the rounding of the 1000-term radius sum must be covered by its
    # factor A, not only by the final step up
    rng = np.random.default_rng(3)
    a = [[Interval.point(v) for v in rng.normal(size=1000)]]
    b = [[Interval(-r, r) for r in row] for row in np.abs(rng.normal(size=(1000, 4))).tolist()]
    got = FLOAT_KERNEL.mat_mul(ks.array(FLOAT_KERNEL, a), ks.array(FLOAT_KERNEL, b))
    assert_encloses_exact(ks.entries(got), a, b)


# -- zero-heavy products: most terms of stage II's C J(X) and stage V's m N
# are exact zeros

ZERO = Interval(0.0, 0.0)
HUGE = [inf, -inf, 1.7e308, -1.7e308]
ZEROS = [ZERO, Interval(-0.0, -0.0), Interval(-0.0, 0.0)]


def random_sparse(rng, r, c):
    """r x c entries, at least half of them the point [0, 0], with whole
    zero rows, columns or all entries zero now and then, and the other
    entries often infinite or near the float range, so that sums overflow:
    a third each `random_entries`, points at a huge endpoint and hulls of a
    HUGE value and a huge endpoint, a huge endpoint being HUGE or
    `random_endpoints` at even odds."""
    cells = r * c
    n_zero = cells if rng.random() < 0.5 else rng.integers((cells + 1) // 2, cells + 1)
    zero = np.zeros(cells, dtype=bool)
    zero[rng.permutation(cells)[:n_zero]] = True
    zero = zero.reshape(r, c)
    structure, line = rng.integers(3), rng.integers(max(r, c))
    if structure == 1 and line < r:
        zero[line, :] = True
    if structure == 2 and line < c:
        zero[:, line] = True

    def huge():
        return np.array(HUGE)[rng.integers(len(HUGE), size=(r, c))]

    huge_endpoints = np.where(rng.random((r, c)) < 0.5, huge(), random_endpoints(rng, (r, c)))
    kind = rng.integers(3, size=(r, c))
    hulls = random_hulls(huge_endpoints, huge(), kind == 2)
    dense = random_entries(rng, (r, c))
    zeros = rng.integers(len(ZEROS), size=(r, c)).tolist()
    return [[ZEROS[zeros[i][j]] if zero[i, j] else dense[i][j] if kind[i, j] == 0
             else hulls[i][j] for j in range(c)] for i in range(r)]


def with_negative_zeros(arr):
    """arr with every zero endpoint stored as -0.0."""
    arr.lo[arr.lo == 0.0] = -0.0
    arr.hi[arr.hi == 0.0] = -0.0
    return arr


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8), st.integers(1, 16), st.integers(1, 8), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_zero_heavy_mat_mul_encloses_exact_product(r, n, c, seed, negative_zeros):
    # infinite and near-overflow entries make some entries [-inf, inf]; an
    # entry whose every term has a factor [0, 0] stays [0, 0] all the same;
    # up to 16 terms per entry, so that some entries keep three or more
    rng = np.random.default_rng(seed)
    a, b = random_sparse(rng, r, n), random_sparse(rng, n, c)
    k = FLOAT_KERNEL
    aa, ba = ks.array(k, a), ks.array(k, b)
    if negative_zeros:
        aa, ba = with_negative_zeros(aa), with_negative_zeros(ba)
    assert_encloses_exact(ks.entries(k.mat_mul(aa, ba)), a, b)


@pytest.mark.parametrize("r, c", [(1, 1), (3, 5), (8, 2)])
def test_all_zero_factor_gives_all_zero_product(r, c):
    rng = np.random.default_rng(r * c)
    dense = [[Interval(v, v + 1.0) for v in rng.normal(size=4)] for _ in range(r)]
    zero = [[Interval(-0.0, -0.0)] * c for _ in range(4)]
    got = FLOAT_KERNEL.mat_mul(ks.array(FLOAT_KERNEL, dense), ks.array(FLOAT_KERNEL, zero))
    assert bits(ks.entries(got)) == bits(scalar_mat_mul(dense, zero)) == [[("0x0.0p+0",) * 2] * c] * r


def _sparse(rng, n, zero_share, points):
    """An n x n matrix of intervals (points if `points`) with about
    `zero_share` of its entries the point [0, 0]."""
    mid = rng.normal(size=(n, n))
    rad = np.zeros((n, n)) if points else 1e-12 * np.abs(rng.normal(size=(n, n)))
    mid[rng.random((n, n)) < zero_share] = 0.0
    rad[mid == 0.0] = 0.0
    return [[Interval(m - r, m + r) for m, r in zip(mr, rr)]
            for mr, rr in zip(mid.tolist(), rad.tolist())]


@pytest.mark.parametrize("n, zero_share, point_left", [(49, 0.77, True), (75, 0.92, False)])
def test_mat_mul_at_pipeline_sparsity(n, zero_share, point_left):
    # stage II's C J(X): a dense point C times a 49 x 49 block of J(X) with
    # 77% zeros; stage V's m N: a 75 x 75 gimbal Jacobian with 92% zeros
    # times a dense point inverse
    rng = np.random.default_rng(n)
    dense = _sparse(rng, n, 0.0, points=True)
    sparse = _sparse(rng, n, zero_share, points=False)
    a, b = (dense, sparse) if point_left else (sparse, dense)
    got = ks.entries(FLOAT_KERNEL.mat_mul(ks.array(FLOAT_KERNEL, a), ks.array(FLOAT_KERNEL, b)))
    exact = assert_encloses_exact(got, a, b)
    _assert_tight(got, a, b, exact)


def _endpoints(x):
    """A float's or a scalar interval's endpoints, or those of every entry
    of a kernel array, as nested lists."""
    if isinstance(x, (np.ndarray, IntervalArray)):
        return _endpoints(ks.entries(x))
    if isinstance(x, list):
        return [_endpoints(v) for v in x]
    if isinstance(x, float):
        return (x, x)
    return (x.lo_float(), x.hi_float())


@pytest.mark.parametrize("values", [[0.5, -1.25, 3.0], [[0.5, -1.25, 3.0], [2.0, 0.0, -7.5]]])
def test_iteration_matches_the_other_kernels(values):
    # the same entries as plain floats, 53-bit and 80-bit intervals: len,
    # list and zip see the same entries (1-D) or rows (2-D) in all three;
    # like numpy's, a 53-bit array yields its entries as 0-d arrays
    def points(k, v):
        return [points(k, x) for x in v] if isinstance(v, list) else ks.point(k, v)

    mp = MPKernel(80)
    real = ks.array(REAL_KERNEL, values)
    f53 = ks.array(FLOAT_KERNEL, points(FLOAT_KERNEL, values))
    m80 = ks.array(mp, points(mp, values))
    assert len(f53) == len(m80) == len(real) == len(values)
    one_d = real.ndim == 1
    for arr, kind in ((real, float if one_d else np.ndarray),
                      (f53, IntervalArray),
                      (m80, MPInterval if one_d else np.ndarray)):
        items = list(arr)
        assert all(isinstance(x, kind) for x in items)
        assert [_endpoints(x) for x in items] == _endpoints(real)
    triples = list(zip(real, f53, m80))
    assert len(triples) == len(values)
    for x, y, z in triples:
        assert _endpoints(y) == _endpoints(z) == _endpoints(x)
    with pytest.raises(TypeError):  # a 0-d array, like numpy's
        len(f53[(0,) * real.ndim])
    with pytest.raises(TypeError):
        iter(f53[(0,) * real.ndim])


@pytest.mark.parametrize("idx", [
    (1, 2), 1, slice(1, 3), (slice(None), 2), ([0, 2],), np.array([True, False, True]),
    (np.array([0, 1]), np.array([1, 2])), (slice(None), [3, 0, 3]), Ellipsis, (None, 1),
])
def test_indexing_never_aliases_its_parent(idx):
    # basic views are copied, fancy gathers are new arrays already: writing
    # into a result leaves the parent as it was
    lo = np.arange(12.0).reshape(3, 4) - 6.0
    arr = IntervalArray(lo, lo + 0.5)
    before = arr.lo.copy(), arr.hi.copy()
    got = arr[idx]
    assert np.array_equal(got.lo, lo[idx]) and np.array_equal(got.hi, (lo + 0.5)[idx])
    for ends in (got.lo, got.hi):
        assert not np.may_share_memory(ends, arr.lo)
        assert not np.may_share_memory(ends, arr.hi)
    if np.ndim(got.lo):
        got[...] = IntervalArray(np.full(got.shape, 99.0), np.full(got.shape, 99.0))
    assert np.array_equal(arr.lo, before[0]) and np.array_equal(arr.hi, before[1])


@pytest.mark.parametrize("values", [([0.5, -1.25], [3.0]),
                                    ([[0.5, -1.25], [2.0, 0.0]], [[3.0], [-7.5]])])
def test_concat_matches_the_other_kernels(values):
    # each kernel joins arrays along the last axis, entry for entry
    def points(k, v):
        return [points(k, x) for x in v] if isinstance(v, list) else ks.point(k, v)

    mp = MPKernel(80)
    want = _endpoints(np.concatenate([np.array(v) for v in values], axis=-1))
    for k in (REAL_KERNEL, FLOAT_KERNEL, mp):
        parts = [ks.array(k, v if k is REAL_KERNEL else points(k, v)) for v in values]
        assert _endpoints(k.concat(parts)) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries, entries)
def test_array_arithmetic_is_bitwise_the_dunders(x, y):
    xa, ya = ks.array(FLOAT_KERNEL, [x]), ks.array(FLOAT_KERNEL, [y])
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        want = scalar_or_error(lambda: bits([[op(x, y)]]))
        got = scalar_or_error(lambda: bits([ks.entries(op(xa, ya))]))
        assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries, entries)
def test_products_commute_bit_for_bit(x, y):
    # the geometry reads a 2x2 minor of a symmetric Gram matrix for its
    # transpose, whose second product has its factors swapped
    xa, ya = ks.array(FLOAT_KERNEL, [x]), ks.array(FLOAT_KERNEL, [y])
    assert bits([ks.entries(xa * ya)]) == bits([ks.entries(ya * xa)])
    assert bits([[x * y]]) == bits([[y * x]])
    xm, ym = (MPInterval.from_floats(v.lo, v.hi, 80) for v in (x, y))
    assert ((xm * ym).lo, (xm * ym).hi) == ((ym * xm).lo, (ym * xm).hi)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_inf_minus_inf_raises_on_both_paths(op):
    # a product's lower endpoint is below +inf (an infinite endpoint
    # product is stepped down to the largest float), so the sums inside a
    # matrix product never meet inf - inf; a sum of infinite points does
    x = Interval(inf, inf)
    y = Interval(-inf, -inf) if op == "add" else Interval(inf, inf)
    xa, ya = ks.array(FLOAT_KERNEL, [[x]]), ks.array(FLOAT_KERNEL, [[y]])

    def apply(p, q):
        return p + q if op == "add" else p - q

    with pytest.raises(IntervalError, match="NaN endpoint") as scalar_err:
        apply(x, y)
    with pytest.raises(IntervalError, match="NaN endpoint") as array_err:
        apply(xa, ya)
    assert str(scalar_err.value) == str(array_err.value)


@pytest.mark.parametrize("seed", range(8))
def test_add_columns_is_bitwise_the_chain_of_sums(seed):
    rng = np.random.default_rng(seed)
    acc = ks.array(FLOAT_KERNEL, random_entries(rng, (1, 5))[0])
    terms = ks.array(FLOAT_KERNEL, random_entries(rng, (5, 7)))
    if seed % 2:  # the sums of row 3 meet inf - inf: both raise
        acc[3] = ks.array(FLOAT_KERNEL, [Interval(-inf, -inf)])[0]
        terms[3, 4] = ks.array(FLOAT_KERNEL, [Interval(inf, inf)])[0]

    def chain():
        k = acc
        for j in range(terms.shape[1]):
            k = k + terms[:, j]
        return bits([ks.entries(k)])

    want = scalar_or_error(chain)
    got = scalar_or_error(lambda: bits([ks.entries(FLOAT_KERNEL.add_columns(acc, terms))]))
    assert got == want
    # the tests' entrywise layer: the object-array loop on scalar `Interval`s
    def objects(nested):
        return np.array(nested, dtype=object)

    got = scalar_or_error(lambda: bits([ks.entries(ks.add_columns(
        objects(ks.entries(acc)), objects(ks.entries(terms))))]))
    assert got == want


# -- division, sqrt and arccos ---------------------------------------------------

# endpoints inside arccos's domain [-1, 1], its ends and values next to them
unit_endpoints = st.one_of(
    st.sampled_from([-1.0, 1.0, 0.0, 5e-324, -5e-324, math.nextafter(1.0, 0.0),
                     math.nextafter(-1.0, 0.0), 0.5, -0.5, 1e-300]),
    st.floats(-1.0, 1.0),
)
unit_entries = st.tuples(unit_endpoints, unit_endpoints).map(
    lambda ab: Interval(min(ab), max(ab))
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(entries, entries)
def test_array_division_is_bitwise_the_dunder(x, y):
    xa, ya = ks.array(FLOAT_KERNEL, [x]), ks.array(FLOAT_KERNEL, [y])
    want = scalar_or_error(lambda: bits([[x / y]]))
    assert scalar_or_error(lambda: bits([ks.entries(xa / ya)])) == want
    # a plain number on either side is a point
    for v in (y.lo, y.hi):
        want = scalar_or_error(lambda: bits([[x / v, v / x]]))
        got = scalar_or_error(lambda: bits([ks.entries(xa / v) + ks.entries(v / xa)]))
        assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6), st.lists(entries, min_size=1, max_size=6))
def test_array_division_of_vectors(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    want = scalar_or_error(lambda: bits([[x / y for x, y in zip(xs, ys)]]))
    got = scalar_or_error(lambda: bits([ks.entries(ks.array(FLOAT_KERNEL, xs) / ks.array(FLOAT_KERNEL, ys))]))
    if isinstance(want, tuple):
        # the array tests every divisor for zero before it divides
        assert isinstance(got, tuple) and issubclass(got[0], IntervalError)
    else:
        assert got == want


@pytest.mark.parametrize("y", [
    Interval(0.0, 0.0), Interval(-1.0, 2.0), Interval(0.0, 3.0), Interval(-2.0, 0.0),
    Interval(-inf, inf), Interval(-5e-324, 5e-324),
])
def test_division_by_zero_straddling_raises_on_both_paths(y):
    x = Interval(1.0, 2.0)
    with pytest.raises(DomainError) as scalar_err:
        x / y
    with pytest.raises(DomainError) as array_err:
        ks.array(FLOAT_KERNEL, [x, x]) / ks.array(FLOAT_KERNEL, [Interval(1.0, 1.0), y])
    assert str(array_err.value) == str(scalar_err.value)


def near_tie_bounds(rng, shape):
    """Endpoint arrays of adjacent-float intervals [x, next(x)], points and
    hulls of two floats, a third each, x mostly in [-10, 10].  The endpoint
    products or quotients of two adjacent-float intervals often round to one
    float whose error terms differ in sign, so that the rounded result of
    each entry depends on every candidate equal to the extreme one."""
    x = np.where(rng.random(shape) < 0.75, rng.uniform(-10.0, 10.0, shape),
                 random_endpoints(rng, shape))
    y = random_endpoints(rng, shape)
    kind = rng.integers(3, size=shape)
    lo = np.where(kind == 2, np.minimum(x, y), x)
    hi = np.choose(kind, [np.nextafter(x, inf), x, np.maximum(x, y)])
    return lo, hi


def assert_bitwise_the_dunder(op, a, b):
    got = op(a, b)
    alo, ahi, blo, bhi = np.broadcast_arrays(a.lo, a.hi, b.lo, b.hi)
    assert got.shape == alo.shape
    for i in np.ndindex(alo.shape):
        want = op(Interval(float(alo[i]), float(ahi[i])), Interval(float(blo[i]), float(bhi[i])))
        assert (float(got.lo[i]).hex(), float(got.hi[i]).hex()) == (
            want.lo.hex(), want.hi.hex()), (i, op, alo[i], ahi[i], blo[i], bhi[i])


def broadcast_partners(y):
    """y, a row, a column and an entry of the 2-D array y, and the points
    at its lower ends (an array of points takes one endpoint only)."""
    return y, y[0], y[:, :1], y[2, 3], IntervalArray(y.lo, y.lo)


@pytest.mark.parametrize("seed", range(6))
def test_products_and_quotients_of_near_ties_are_bitwise_the_dunders(seed):
    # each result entry is stepped once, from all candidates equal to its
    # extreme: rounding only the first such candidate breaks this test
    rng = np.random.default_rng(seed)
    a = IntervalArray(*near_tie_bounds(rng, (5, 6)))
    b = IntervalArray(*near_tie_bounds(rng, (5, 6)))
    for y in broadcast_partners(b):
        assert_bitwise_the_dunder(operator.mul, a, y)
        assert_bitwise_the_dunder(operator.mul, y, a)
    # finite numerators and divisors on one side of zero: no entry raises
    big = 1.7e308
    numerators = IntervalArray(np.clip(a.lo, -big, big), np.clip(a.hi, -big, big))
    lo, hi = np.clip(b.lo, -big, big), np.clip(b.hi, -big, big)
    straddles = (lo <= 0.0) & (hi >= 0.0)
    divisors = IntervalArray(np.where(straddles, 2.5, lo),
                             np.where(straddles, np.nextafter(2.5, inf), hi))
    for y in broadcast_partners(divisors):
        assert_bitwise_the_dunder(operator.truediv, numerators, y)
    for x in broadcast_partners(numerators)[1:]:
        assert_bitwise_the_dunder(operator.truediv, x, divisors)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_array_sqrt_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.sqrt() for x in xs]]))
    got = scalar_or_error(lambda: bits([ks.entries(ks.array(FLOAT_KERNEL, xs).sqrt())]))
    assert got == want


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_array_sqrt_nonneg_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.sqrt_nonneg() for x in xs]]))
    got = scalar_or_error(lambda: bits([ks.entries(ks.array(FLOAT_KERNEL, xs).sqrt_nonneg())]))
    assert got == want


@pytest.mark.parametrize("x", [
    Interval(-1.0, 4.0), Interval(-5e-324, 0.0), Interval(-inf, -1.0), Interval(-2.0, -1.0),
])
def test_sqrt_of_a_negative_part_raises_on_both_paths(x):
    with pytest.raises(DomainError) as scalar_err:
        x.sqrt()
    with pytest.raises(DomainError) as array_err:
        ks.array(FLOAT_KERNEL, [Interval(4.0, 9.0), x, Interval(-3.0, 1.0)]).sqrt()
    assert str(array_err.value) == str(scalar_err.value)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(unit_entries, entries), min_size=1, max_size=6))
def test_array_arccos_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.arccos() for x in xs]]))
    got = scalar_or_error(lambda: bits([ks.entries(ks.array(FLOAT_KERNEL, xs).arccos())]))
    assert got == want


# -- cos and sin ------------------------------------------------------------------

# ±0, subnormals, the ends of the sine's |x| < 3 sign rule, the critical
# points, magnitudes where floor(x / pi) is past 2^52, and infinities
TRIG_SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.0 ** -1022, 3.0, -3.0,
    math.nextafter(3.0, 0.0), math.nextafter(-3.0, 0.0), math.nextafter(3.0, 4.0),
    math.pi, -math.pi, 0.5 * math.pi, -0.5 * math.pi, 2 * math.pi, 1e16, -1e16,
    2.0 ** 60, -(2.0 ** 60), 1e300, -1e300, 1.7976931348623157e308, inf, -inf,
]
trig_endpoints = st.one_of(st.sampled_from(TRIG_SPECIAL), st.floats(-10.0, 10.0),
                           st.floats(allow_nan=False, width=64))
two_pi_wide = st.sampled_from([math.nextafter(2 * math.pi, 0.0), 2 * math.pi, TWO_PI.hi,
                               math.nextafter(TWO_PI.hi, inf), math.nextafter(TWO_PI.hi, 0.0)])
trig_entries = st.one_of(
    st.tuples(trig_endpoints, trig_endpoints).map(lambda ab: Interval(min(ab), max(ab))),
    trig_endpoints.map(Interval.point),
    # widths just below, at and above 2 pi
    st.tuples(st.floats(-20.0, 20.0), two_pi_wide).map(lambda a: Interval(a[0], a[0] + a[1])),
    # points and near-points of huge magnitude, nudged by a few ulps
    st.tuples(st.sampled_from([1e16, 2.0 ** 60, 1e300, -1e16, -(2.0 ** 60), -1e300]),
              st.integers(0, 3)).map(lambda a: Interval(a[0], _ulps_up(a[0], a[1]))),
)


def _ulps_up(x, k):
    for _ in range(k):
        x = math.nextafter(x, inf)
    return x


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(trig_entries, min_size=1, max_size=8))
def test_array_cos_and_sin_are_bitwise_the_method(xs):
    arr = ks.array(FLOAT_KERNEL, xs)
    for name in ("cos", "sin"):
        want = bits([[getattr(x, name)() for x in xs]])
        assert bits([ks.entries(getattr(FLOAT_KERNEL, name)(arr))]) == want, name
    # and on a 2-D array
    grid = ks.array(FLOAT_KERNEL, [xs, xs[::-1]])
    assert bits(ks.entries(FLOAT_KERNEL.sin(grid))) == bits(
        [[x.sin() for x in xs], [x.sin() for x in xs[::-1]]])


# -- the stage-V invertibility test --------------------------------------------


def _oracle_residual_and_verdict(m, scalar_verdict=True):
    """The verdict, and the exact residual m @ n - Id (rational (lo, hi) per
    entry) for the float inverse n of the midpoints.  The verdict is
    `interval_matrix_invertible`'s rule by scalar loops only, or, without
    `scalar_verdict`, the same rule on the exact residual: it is decided the
    same way wherever the residual is far from the bound."""
    r = m.nrows
    rows = ks.entries(m)
    n = np.linalg.inv(np.array([[x.mid() for x in row] for row in rows], dtype=float))
    n_iv = ks.entries(FLOAT_KERNEL.points(n))
    bound = (Interval.point(1.0) / Interval.point(r * r)).lo
    exact = [[(lo - (i == j), hi - (i == j)) for j, (lo, hi) in enumerate(row)]
             for i, row in enumerate(exact_mat_mul(rows, n_iv))]
    if not scalar_verdict:
        return exact, all(max(-lo, hi) < bound for row in exact for lo, hi in row)
    prod = scalar_mat_mul(rows, n_iv)
    resid = [
        [prod[i][j] - Interval.point(1.0 if i == j else 0.0) for j in range(r)]
        for i in range(r)
    ]
    verdict = all(x.is_finite() and x.mag() < bound for row in resid for x in row)
    return exact, verdict


def _assert_encloses(got, exact):
    for got_row, exact_row in zip(ks.entries(got), exact):
        for g, (lo, hi) in zip(got_row, exact_row):
            assert g.lo <= lo and hi <= g.hi


@pytest.mark.parametrize("r, radius, verdict", [(75, 1e-13, True), (20, 1e-3, False)])
def test_invertibility_matches_scalar_oracle(r, radius, verdict):
    rng = np.random.default_rng(r)
    mid = np.eye(r) * 4.0 + rng.normal(size=(r, r))
    m = FLOAT_KERNEL.from_bounds(mid - radius, mid + radius)
    # 75^3 scalar interval products would take most of tier-1's time for
    # this test: the 75-row verdict comes from the exact residual
    exact_resid, want_verdict = _oracle_residual_and_verdict(m, scalar_verdict=r < 75)
    assert want_verdict is verdict
    assert interval_matrix_invertible(m) is want_verdict
    _assert_encloses(inverse_residual(m), exact_resid)


def test_invertibility_midpoints_overflow_as_interval_mid():
    # lo + hi overflows in the diagonal entries: their midpoints fall back
    # to lo / 2 + hi / 2, as `Interval.mid` does
    big = Interval(1.0e308, 1.6e308)
    m = ks.array(FLOAT_KERNEL, [[big, Interval.point(0.5)], [Interval(-1.0, 1.0), big]])
    mid, rad = _mid_rad(m.lo, m.hi)
    assert mid.tolist() == [[x.mid() for x in row] for row in ks.entries(m)]
    assert (mid - rad <= m.lo).all() and (m.hi <= mid + rad).all() and rad[0, 1] == 0.0
    exact_resid, want_verdict = _oracle_residual_and_verdict(m)
    assert interval_matrix_invertible(m) is want_verdict
    _assert_encloses(inverse_residual(m), exact_resid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invertibility_never_raises_on_overflow():
    # the BLAS sum of 1e308 * 2 and 1e308 * -2 meets inf - inf: the entry
    # is [-inf, inf], and no IntervalError is raised
    k = FLOAT_KERNEL
    product = k.mat_mul(k.points(np.array([[1e308, 1e308]])), k.points(np.array([[2.0], [-2.0]])))
    assert (product.lo[0, 0], product.hi[0, 0]) == (-inf, inf)
    # n = [[1, -1e308], [0, 1]]: (m n)[0, 1] is exactly 1e308 - 1e308 = 0,
    # but its error bound overflows, so the residual there is [-inf, inf]
    m = k.points(np.array([[1.0, 1e308], [0.0, 1.0]]))
    resid = inverse_residual(m)
    assert (resid.lo[0, 1], resid.hi[0, 1]) == (-inf, inf)
    assert interval_matrix_invertible(m) is False


# -- the MP kernel's 53-bit hull and exact lift ------------------------------------


def _mp_third(prec):
    three = libmp.from_int(3)
    return MPInterval(libmp.mpf_div(libmp.fone, three, prec, libmp.round_floor),
                      libmp.mpf_div(libmp.fone, three, prec, libmp.round_ceiling), prec)


def _mp_pow2(lo_exp, hi_exp, prec, lo_sign=1, hi_sign=1):
    # [lo_sign 2^lo_exp, hi_sign 2^hi_exp]
    def pow2(sign, exp):
        x = libmp.mpf_shift(libmp.fone, exp)
        return x if sign > 0 else libmp.mpf_neg(x)
    return MPInterval(pow2(lo_sign, lo_exp), pow2(hi_sign, hi_exp), prec)


HULL_CASES = {
    # endpoints binary64 cannot represent
    "1/3@80": _mp_third(80),
    "1/3@160": _mp_third(160),
    # near underflow: below the smallest subnormal 2^-1074
    "2^-1080": _mp_pow2(-1080, -1080, 80),
    "-2^-1080": _mp_pow2(-1080, -1080, 80, -1, -1),
    "+-2^-1080": _mp_pow2(-1080, -1080, 120, -1, 1),
    # above the largest float
    "2^1100": _mp_pow2(1100, 1100, 80),
    "-2^1100": _mp_pow2(1100, 1100, 160, -1, -1),
    "[2^-1080, 2^1100]": _mp_pow2(-1080, 1100, 80),
}


def _at_most(f, q):
    """The float f is <= the rational q (f may be infinite)."""
    return f == -inf or (f != inf and Fraction(f) <= q)


def _at_least(f, q):
    return f == inf or (f != -inf and Fraction(f) >= q)


# an endpoint beyond the float range overflows to inf on its way to a float,
# silently: any RuntimeWarning from the hull is an error
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(HULL_CASES))
def test_float_hull_encloses_each_mp_interval(name):
    x = HULL_CASES[name]
    k = MPKernel(x.prec)
    hull = k.float_hull(ks.array(k, [x, x]))
    assert isinstance(hull, IntervalArray) and hull.shape == (2,)
    lo, hi = float(hull.lo[0]), float(hull.hi[0])
    q_lo = Fraction(*libmp.to_rational(x.lo))
    q_hi = Fraction(*libmp.to_rational(x.hi))
    assert _at_most(lo, q_lo) and _at_least(hi, q_hi)
    # the tightest such floats: the next float inward leaves the interval
    assert not _at_most(math.nextafter(lo, inf), q_lo)
    assert not _at_least(math.nextafter(hi, -inf), q_hi)


# e = exp + bc of an mpf in [2^(e-1), 2^e): the bounds convert without a
# check for -1021 <= e <= 1023 and with one on either side of that range
@pytest.mark.parametrize("prec", [80, 160])
@pytest.mark.parametrize("e", [-1075, -1023, -1022, -1021, -1020, -1, 0, 1, 2, 1022, 1023, 1024])
def test_float_bounds_are_the_tightest_floats(prec, e):
    rng = random.Random(1000 * prec + e)
    for _ in range(40):
        # prec significant bits, or 53 of them: then the float is exact
        bits = prec if rng.random() < 0.75 else 53
        man = (rng.getrandbits(bits - 1) | 1 << (bits - 1)) * rng.choice([-1, 1])
        v = libmp.from_man_exp(man, e - bits)
        x = MPInterval(v, v, prec)
        q = Fraction(*libmp.to_rational(v))
        lo, hi = x.lo_float(), x.hi_float()
        assert _at_most(lo, q) and _at_least(hi, q)
        assert not _at_most(math.nextafter(lo, inf), q)
        assert not _at_least(math.nextafter(hi, -inf), q)


@pytest.mark.parametrize("prec", [80, 160])
@pytest.mark.parametrize("value", [0.1, -1.5, 5e-324, -2.0 ** -1022, 1.7e308, 0.0])
def test_float_hull_of_float_points_is_the_point(prec, value):
    k = MPKernel(prec)
    hull = k.float_hull(ks.array(k, [ks.point(k, value)]))
    assert (float(hull.lo[0]), float(hull.hi[0])) == (value, value)


@pytest.mark.parametrize("prec", [53, 80, 160])
def test_lift_is_exact_and_hull_undoes_it(prec):
    # float endpoints enter a kernel's array exactly
    k = FLOAT_KERNEL if prec == 53 else MPKernel(prec)
    a = IntervalArray(np.array([0.1, -1e300, 5e-324, -inf]), np.array([0.3, 2.0, 1e-310, inf]))
    lifted = k.from_bounds(a.lo, a.hi)
    for x, lo, hi in zip(ks.entries(lifted), a.lo.tolist(), a.hi.tolist()):
        assert getattr(x, "prec", 53) == prec
        assert (x.lo_float(), x.hi_float()) == (lo, hi)
    back = k.float_hull(lifted)
    assert back.lo.tolist() == a.lo.tolist() and back.hi.tolist() == a.hi.tolist()


@pytest.mark.parametrize("prec", [80, 160])
def test_mp_matrices_multiply_and_invert_on_the_float_hull(prec):
    # the MP kernel has no product: products and the invertibility test of
    # MP entries run on their 53-bit hull
    k, third = MPKernel(prec), _mp_third(prec)
    rows = [[ks.point(k, 2.0), third], [third, ks.point(k, 1.0)]]
    m = k.float_hull(ks.array(k, rows))
    product = FLOAT_KERNEL.mat_mul(m, FLOAT_KERNEL.points(np.eye(2)))
    for got_row, m_row in zip(ks.entries(product), rows):
        for got, x in zip(got_row, m_row):
            assert isinstance(got, Interval)
            assert got.lo <= x.lo_float() and x.hi_float() <= got.hi
    assert interval_matrix_invertible(m)
    assert not interval_matrix_invertible(k.float_hull(ks.array(k, [[third, third], [third, third]])))


# -- end to end ------------------------------------------------------------------


def test_certificate_identical_with_scalar_matrix_layer(
    dodec27a, verified27a, monkeypatch
):
    """With the float kernel's whole array layer replaced by numpy object
    arrays of `Interval` (every entry through the scalar dunders and
    methods, products by `scalar_mat_mul`, arrays from points and endpoints
    by one `Interval` each, comparisons, widths and the ids of equal entries
    by the scalar methods and endpoints, the Krawczyk column sums by one
    `Interval` sum per entry and column: `kernel_scalars.ENTRYWISE`),
    dodec27a certifies to the same bytes."""
    def objects(nested):
        return np.array(nested, dtype=object)

    scalar_layer = {
        "points": lambda x: np.frompyfunc(Interval.point, 1, 1)(np.asarray(x, dtype=float)),
        "from_bounds": np.frompyfunc(Interval, 2, 1),
        "two_pi": lambda: objects([TWO_PI]),
        "contains_two_pi": lambda a: np.frompyfunc(
            lambda x: x.encloses(TWO_PI), 1, 1)(a).astype(bool),
        "cos": np.frompyfunc(Interval.cos, 1, 1),
        "sin": np.frompyfunc(Interval.sin, 1, 1),
        "mat_mul": lambda a, b: objects(scalar_mat_mul(a, b)),
    }
    for name, fn in {**scalar_layer, **ks.ENTRYWISE}.items():
        monkeypatch.setattr(FloatKernel, name, staticmethod(fn))
    # numpy reads the floating-point flags after each object-array loop
    with np.errstate(all="ignore"):
        scalar = verify.run_pipeline(dodec27a)
    assert scalar.verified
    assert cert.certificate_json(dodec27a, scalar, "krawczyk") == cert.certificate_json(
        dodec27a, verified27a, "krawczyk"
    )
