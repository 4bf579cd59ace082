"""The float kernel's array layer against the scalar `Interval` dunders.

Every endpoint the array layer computes must be bit for bit the one the
scalar loop computes, so that certificates do not depend on which of the
two formed a product.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypcert import certificate as cert
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    DomainError,
    FloatKernel,
    Interval,
    IntervalArray,
    IntervalError,
    IntervalMatrix,
    MPKernel,
    inverse_residual,
    interval_matrix_invertible,
    scalar_mat_mul,
)

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
def test_array_mat_mul_is_bitwise_the_scalar_loop(ab):
    a, b = ab
    k = FLOAT_KERNEL
    want = scalar_or_error(lambda: bits(scalar_mat_mul(a, b)))
    got = scalar_or_error(lambda: bits(k.mat_mul(k.array(a), k.array(b)).tolist()))
    assert got == want


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 5, 1), (1, 4, 6), (7, 3, 1), (8, 8, 8)])
def test_array_mat_mul_shapes(shape):
    r, n, c = shape
    rng = np.random.default_rng(sum(shape))
    a = [[Interval(v, v + abs(w)) for v, w in zip(rng.normal(size=n), rng.normal(size=n))]
         for _ in range(r)]
    b = [[Interval(v, v) for v in rng.normal(size=c)] for _ in range(n)]
    got = FLOAT_KERNEL.mat_mul(FLOAT_KERNEL.array(a), FLOAT_KERNEL.array(b))
    assert got.shape == (r, c)
    assert bits(got.tolist()) == bits(scalar_mat_mul(a, b))


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
    """m @ n - Id and the verdict, by scalar loops only."""
    r = m.nrows
    n = np.linalg.inv(np.array(m.midpoints(), dtype=float))
    n_iv = IntervalMatrix.points(n, FLOAT_KERNEL).rows
    prod = scalar_mat_mul(m.rows, n_iv)
    resid = [
        [prod[i][j] - Interval.point(1.0 if i == j else 0.0) for j in range(r)]
        for i in range(r)
    ]
    bound = (Interval.point(1.0) / Interval.point(r * r)).lo
    verdict = all(x.is_finite() and x.mag() < bound for row in resid for x in row)
    return resid, verdict


@pytest.mark.parametrize("r, radius, verdict", [(75, 1e-13, True), (20, 1e-3, False)])
def test_invertibility_matches_scalar_oracle(r, radius, verdict):
    rng = np.random.default_rng(r)
    mid = np.eye(r) * 4.0 + rng.normal(size=(r, r))
    m = IntervalMatrix(
        [[Interval(v - radius, v + radius) for v in row] for row in mid.tolist()]
    )
    want_resid, want_verdict = _oracle_residual_and_verdict(m)
    assert want_verdict is verdict
    assert interval_matrix_invertible(m) is want_verdict
    assert bits(inverse_residual(m).tolist()) == bits(want_resid)


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
    for name in ("bounds", "sqrt", "arccos"):
        monkeypatch.setattr(FloatKernel, name, staticmethod(getattr(MPKernel, name)))
    scalar = verify.run_pipeline(dodec27a)
    assert scalar.verified
    assert cert.certificate_json(dodec27a, scalar, "krawczyk") == cert.certificate_json(
        dodec27a, verified27a, "krawczyk"
    )
