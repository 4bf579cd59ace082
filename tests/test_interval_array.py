"""The float kernel's array layer against the scalar `Interval` dunders.

Every endpoint that the elementwise operations compute must be bit for bit
the one the scalar dunder or method computes.  The matrix product is
midpoint-radius on BLAS: each of its entries must enclose the exact product,
computed in rationals, and be as tight as its error bound says.
"""

import math
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
    DomainError,
    FloatKernel,
    Interval,
    IntervalArray,
    IntervalError,
    MPInterval,
    MPKernel,
    _mid_rad,
    inverse_residual,
    interval_matrix_invertible,
)
from tests.matrix_oracle import assert_encloses_exact, exact_mat_mul, scalar_mat_mul

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


@st.composite
def matrix_pairs(draw):
    r, n, c = (draw(st.integers(1, 8)) for _ in range(3))
    a = [[draw(entries) for _ in range(n)] for _ in range(r)]
    b = [[draw(entries) for _ in range(c)] for _ in range(n)]
    return a, b


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matrix_pairs())
def test_array_mat_mul_encloses_exact_product(ab):
    a, b = ab
    k = FLOAT_KERNEL
    assert_encloses_exact(k.mat_mul(k.array(a), k.array(b)).tolist(), a, b)


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
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(a), FLOAT_KERNEL.array(b))
    assert got.shape == (r, c)
    exact = assert_encloses_exact(got.tolist(), a, b)
    _assert_tight(got.tolist(), a, b, exact)


def test_mat_mul_encloses_underflowing_terms():
    # eight products 0.4 * 2^-1074 round to 0, so the midpoint and its
    # bound T are 0, but the exact sum is 3.2 * 2^-1074: the k eta term of
    # the error bound must cover it
    a = [[Interval.point(5e-324)] * 8, [Interval(5e-324, 1e-323)] * 8]
    b = [[Interval.point(0.4)] for _ in range(8)]
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(a), FLOAT_KERNEL.array(b))
    assert_encloses_exact(got.tolist(), a, b)


def test_mat_mul_encloses_long_radius_sums():
    # points times intervals centred on 0: the midpoint is exactly 0, and
    # the rounding of the 1000-term radius sum must be covered by its
    # factor A, not only by the final step up
    rng = np.random.default_rng(3)
    a = [[Interval.point(v) for v in rng.normal(size=1000)]]
    b = [[Interval(-r, r) for r in row] for row in np.abs(rng.normal(size=(1000, 4))).tolist()]
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(a), FLOAT_KERNEL.array(b))
    assert_encloses_exact(got.tolist(), a, b)


# -- zero-heavy products: most terms of stage II's C J(X) and stage V's m N
# are exact zeros

ZERO = Interval(0.0, 0.0)
HUGE = [inf, -inf, 1.7e308, -1.7e308]
huge_endpoints = st.one_of(st.sampled_from(HUGE), endpoints)
huge_entries = st.tuples(st.sampled_from(HUGE), huge_endpoints).map(
    lambda ab: Interval(min(ab), max(ab))
)
zeros = st.sampled_from([ZERO, Interval(-0.0, -0.0), Interval(-0.0, 0.0)])


@st.composite
def sparse_matrices(draw, r, c):
    """r x c entries, at least half of them the point [0, 0], with whole
    zero rows, columns or all entries zero now and then, and the other
    entries often infinite or near the float range, so that sums overflow."""
    nonzero = st.one_of(entries, huge_entries, huge_endpoints.map(Interval.point))
    cells = [(i, j) for i in range(r) for j in range(c)]
    n_zero = draw(st.one_of(st.just(len(cells)), st.integers((len(cells) + 1) // 2, len(cells))))
    zero_cells = set(draw(st.permutations(cells))[:n_zero])
    structure = draw(st.sampled_from(["scattered", "row", "column"]))
    zero_line = draw(st.integers(0, max(r, c) - 1))
    for i, j in cells:
        if (structure == "row" and i == zero_line) or (structure == "column" and j == zero_line):
            zero_cells.add((i, j))
    return [[draw(zeros) if (i, j) in zero_cells else draw(nonzero) for j in range(c)]
            for i in range(r)]


@st.composite
def sparse_matrix_pairs(draw):
    # up to 16 terms per entry, so that some entries keep three or more
    r, n, c = draw(st.integers(1, 8)), draw(st.integers(1, 16)), draw(st.integers(1, 8))
    return draw(sparse_matrices(r, n)), draw(sparse_matrices(n, c)), draw(st.booleans())


def with_negative_zeros(arr):
    """arr with every zero endpoint stored as -0.0."""
    arr.lo[arr.lo == 0.0] = -0.0
    arr.hi[arr.hi == 0.0] = -0.0
    return arr


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(sparse_matrix_pairs())
def test_zero_heavy_mat_mul_encloses_exact_product(abz):
    # infinite and near-overflow entries make some entries [-inf, inf]; an
    # entry whose every term has a factor [0, 0] stays [0, 0] all the same
    a, b, negative_zeros = abz
    k = FLOAT_KERNEL
    aa, ba = k.array(a), k.array(b)
    if negative_zeros:
        aa, ba = with_negative_zeros(aa), with_negative_zeros(ba)
    assert_encloses_exact(k.mat_mul(aa, ba).tolist(), a, b)


@pytest.mark.parametrize("r, c", [(1, 1), (3, 5), (8, 2)])
def test_all_zero_factor_gives_all_zero_product(r, c):
    rng = np.random.default_rng(r * c)
    dense = [[Interval(v, v + 1.0) for v in rng.normal(size=4)] for _ in range(r)]
    zero = [[Interval(-0.0, -0.0)] * c for _ in range(4)]
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(dense), FLOAT_KERNEL.array(zero))
    assert bits(got.tolist()) == bits(scalar_mat_mul(dense, zero)) == [[("0x0.0p+0",) * 2] * c] * r


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
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(a), FLOAT_KERNEL.array(b)).tolist()
    exact = assert_encloses_exact(got, a, b)
    _assert_tight(got, a, b, exact)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries, entries)
def test_array_arithmetic_is_bitwise_the_dunders(x, y):
    xa, ya = IntervalArray.of([x]), IntervalArray.of([y])
    for op in (lambda p, q: p + q, lambda p, q: p - q, lambda p, q: p * q):
        want = scalar_or_error(lambda: bits([[op(x, y)]]))
        got = scalar_or_error(lambda: bits([op(xa, ya).tolist()]))
        assert got == want


@pytest.mark.parametrize("op", ["add", "sub"])
def test_inf_minus_inf_raises_on_both_paths(op):
    # a product's lower endpoint is below +inf (an infinite endpoint
    # product is stepped down to the largest float), so the sums inside a
    # matrix product never meet inf - inf; a sum of infinite points does
    x = Interval(inf, inf)
    y = Interval(-inf, -inf) if op == "add" else Interval(inf, inf)
    xa, ya = IntervalArray.of([[x]]), IntervalArray.of([[y]])

    def apply(p, q):
        return p + q if op == "add" else p - q

    with pytest.raises(IntervalError, match="NaN endpoint") as scalar_err:
        apply(x, y)
    with pytest.raises(IntervalError, match="NaN endpoint") as array_err:
        apply(xa, ya)
    assert str(scalar_err.value) == str(array_err.value)


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
    xa, ya = IntervalArray.of([x]), IntervalArray.of([y])
    want = scalar_or_error(lambda: bits([[x / y]]))
    assert scalar_or_error(lambda: bits([(xa / ya).tolist()])) == want
    # a plain number on either side is a point
    for v in (y.lo, y.hi):
        want = scalar_or_error(lambda: bits([[x / v, v / x]]))
        got = scalar_or_error(lambda: bits([(xa / v).tolist() + (v / xa).tolist()]))
        assert got == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6), st.lists(entries, min_size=1, max_size=6))
def test_array_division_of_vectors(xs, ys):
    n = min(len(xs), len(ys))
    xs, ys = xs[:n], ys[:n]
    want = scalar_or_error(lambda: bits([[x / y for x, y in zip(xs, ys)]]))
    got = scalar_or_error(lambda: bits([(IntervalArray.of(xs) / IntervalArray.of(ys)).tolist()]))
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
        IntervalArray.of([x, x]) / IntervalArray.of([Interval(1.0, 1.0), y])
    assert str(array_err.value) == str(scalar_err.value)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_array_sqrt_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.sqrt() for x in xs]]))
    got = scalar_or_error(lambda: bits([IntervalArray.of(xs).sqrt().tolist()]))
    assert got == want


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(entries, min_size=1, max_size=6))
def test_array_sqrt_nonneg_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.sqrt_nonneg() for x in xs]]))
    got = scalar_or_error(lambda: bits([IntervalArray.of(xs).sqrt_nonneg().tolist()]))
    assert got == want


@pytest.mark.parametrize("x", [
    Interval(-1.0, 4.0), Interval(-5e-324, 0.0), Interval(-inf, -1.0), Interval(-2.0, -1.0),
])
def test_sqrt_of_a_negative_part_raises_on_both_paths(x):
    with pytest.raises(DomainError) as scalar_err:
        x.sqrt()
    with pytest.raises(DomainError) as array_err:
        IntervalArray.of([Interval(4.0, 9.0), x, Interval(-3.0, 1.0)]).sqrt()
    assert str(array_err.value) == str(scalar_err.value)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(unit_entries, entries), min_size=1, max_size=6))
def test_array_arccos_is_bitwise_the_method(xs):
    want = scalar_or_error(lambda: bits([[x.arccos() for x in xs]]))
    got = scalar_or_error(lambda: bits([IntervalArray.of(xs).arccos().tolist()]))
    assert got == want


# -- the stage-V invertibility test --------------------------------------------


def _oracle_residual_and_verdict(m):
    """The verdict by scalar loops only, and the exact residual m @ n - Id
    (rational (lo, hi) per entry) for the float inverse n of the midpoints."""
    r = m.nrows
    rows = m.tolist()
    n = np.linalg.inv(np.array([[x.mid() for x in row] for row in rows], dtype=float))
    n_iv = FLOAT_KERNEL.array(n).tolist()
    prod = scalar_mat_mul(rows, n_iv)
    resid = [
        [prod[i][j] - Interval.point(1.0 if i == j else 0.0) for j in range(r)]
        for i in range(r)
    ]
    bound = (Interval.point(1.0) / Interval.point(r * r)).lo
    verdict = all(x.is_finite() and x.mag() < bound for row in resid for x in row)
    exact = [[(lo - (i == j), hi - (i == j)) for j, (lo, hi) in enumerate(row)]
             for i, row in enumerate(exact_mat_mul(rows, n_iv))]
    return exact, verdict


def _assert_encloses(got, exact):
    for got_row, exact_row in zip(got.tolist(), exact):
        for g, (lo, hi) in zip(got_row, exact_row):
            assert g.lo <= lo and hi <= g.hi


@pytest.mark.parametrize("r, radius, verdict", [(75, 1e-13, True), (20, 1e-3, False)])
def test_invertibility_matches_scalar_oracle(r, radius, verdict):
    rng = np.random.default_rng(r)
    mid = np.eye(r) * 4.0 + rng.normal(size=(r, r))
    m = FLOAT_KERNEL.array(
        [[Interval(v - radius, v + radius) for v in row] for row in mid.tolist()]
    )
    exact_resid, want_verdict = _oracle_residual_and_verdict(m)
    assert want_verdict is verdict
    assert interval_matrix_invertible(m) is want_verdict
    _assert_encloses(inverse_residual(m), exact_resid)


def test_invertibility_midpoints_overflow_as_interval_mid():
    # lo + hi overflows in the diagonal entries: their midpoints fall back
    # to lo / 2 + hi / 2, as `Interval.mid` does
    big = Interval(1.0e308, 1.6e308)
    m = FLOAT_KERNEL.array([[big, Interval.point(0.5)], [Interval(-1.0, 1.0), big]])
    mid, rad = _mid_rad(m.lo, m.hi)
    assert mid.tolist() == [[x.mid() for x in row] for row in m.tolist()]
    assert (mid - rad <= m.lo).all() and (m.hi <= mid + rad).all() and rad[0, 1] == 0.0
    exact_resid, want_verdict = _oracle_residual_and_verdict(m)
    assert interval_matrix_invertible(m) is want_verdict
    _assert_encloses(inverse_residual(m), exact_resid)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_invertibility_never_raises_on_overflow():
    # the BLAS sum of 1e308 * 2 and 1e308 * -2 meets inf - inf: the entry
    # is [-inf, inf], and no IntervalError is raised
    k = FLOAT_KERNEL
    product = k.mat_mul(k.array(np.array([[1e308, 1e308]])), k.array(np.array([[2.0], [-2.0]])))
    assert (product.lo[0, 0], product.hi[0, 0]) == (-inf, inf)
    # n = [[1, -1e308], [0, 1]]: (m n)[0, 1] is exactly 1e308 - 1e308 = 0,
    # but its error bound overflows, so the residual there is [-inf, inf]
    m = k.array(np.array([[1.0, 1e308], [0.0, 1.0]]))
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
    hull = k.float_hull(k.array([x, x]))
    assert isinstance(hull, IntervalArray) and hull.shape == (2,)
    lo, hi = float(hull.lo[0]), float(hull.hi[0])
    q_lo = Fraction(*libmp.to_rational(x.lo))
    q_hi = Fraction(*libmp.to_rational(x.hi))
    assert _at_most(lo, q_lo) and _at_least(hi, q_hi)
    # the tightest such floats: the next float inward leaves the interval
    assert not _at_most(math.nextafter(lo, inf), q_lo)
    assert not _at_least(math.nextafter(hi, -inf), q_hi)


@pytest.mark.parametrize("prec", [80, 160])
@pytest.mark.parametrize("value", [0.1, -1.5, 5e-324, -2.0 ** -1022, 1.7e308, 0.0])
def test_float_hull_of_float_points_is_the_point(prec, value):
    k = MPKernel(prec)
    hull = k.float_hull(k.array([k.point(value)]))
    assert (float(hull.lo[0]), float(hull.hi[0])) == (value, value)


@pytest.mark.parametrize("prec", [53, 80, 160])
def test_lift_is_exact_and_hull_undoes_it(prec):
    k = FLOAT_KERNEL if prec == 53 else MPKernel(prec)
    a = IntervalArray(np.array([0.1, -1e300, 5e-324, -inf]), np.array([0.3, 2.0, 1e-310, inf]))
    lifted = k.lift(a)
    for x, lo, hi in zip(lifted.tolist(), a.lo.tolist(), a.hi.tolist()):
        assert x.kernel.precision == prec
        assert (x.lo_float(), x.hi_float()) == (lo, hi)
    back = k.float_hull(lifted)
    assert back.lo.tolist() == a.lo.tolist() and back.hi.tolist() == a.hi.tolist()


@pytest.mark.parametrize("prec", [80, 160])
def test_mp_matrices_multiply_and_invert_on_the_float_hull(prec):
    # the MP kernel has no product: products and the invertibility test of
    # MP entries run on their 53-bit hull
    k, third = MPKernel(prec), _mp_third(prec)
    rows = [[k.point(2.0), third], [third, k.point(1.0)]]
    m = k.float_hull(k.array(rows))
    product = FLOAT_KERNEL.mat_mul(m, FLOAT_KERNEL.array(np.eye(2)))
    for got_row, m_row in zip(product.tolist(), rows):
        for got, x in zip(got_row, m_row):
            assert isinstance(got, Interval)
            assert got.lo <= x.lo_float() and x.hi_float() <= got.hi
    assert interval_matrix_invertible(m)
    assert not interval_matrix_invertible(k.float_hull(k.array([[third, third], [third, third]])))


# -- end to end ------------------------------------------------------------------


def test_certificate_identical_with_scalar_matrix_layer(
    dodec27a, verified27a, monkeypatch
):
    """With the float kernel's whole array layer replaced by numpy object
    arrays of `Interval` (every entry through the scalar dunders and
    methods, products by `scalar_mat_mul`), dodec27a certifies to the same
    bytes."""
    objects = MPKernel.array
    monkeypatch.setattr(FloatKernel, "array", staticmethod(objects))
    monkeypatch.setattr(
        FloatKernel, "mat_mul", staticmethod(lambda a, b: objects(scalar_mat_mul(a, b)))
    )
    for name in ("bounds", "sqrt", "sqrt_nonneg", "arccos"):
        monkeypatch.setattr(FloatKernel, name, staticmethod(getattr(MPKernel, name)))
    scalar = verify.run_pipeline(dodec27a)
    assert scalar.verified
    assert cert.certificate_json(dodec27a, scalar, "krawczyk") == cert.certificate_json(
        dodec27a, verified27a, "krawczyk"
    )
