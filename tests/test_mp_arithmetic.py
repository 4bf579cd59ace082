"""`MPInterval`'s sign-case `+ - * /` against the general hull in
`tests/mp_oracle.py`, endpoint for endpoint, at 80 and 160 bits."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

import tests.mp_oracle as oracle
from hypcert.interval import DomainError, MPInterval

PRECISIONS = (80, 160)
_RF = libmp.round_floor


def _mpf(x, prec):
    if isinstance(x, float):
        return libmp.from_float(x)
    m, e = x
    return libmp.from_man_exp(m, e, prec, _RF)


# every sign class, zero endpoints, points, +-inf endpoints and magnitudes
# far below the double range; (m, e) is m * 2**e, rounded to the precision
_THIRD = (0x5555555555555555555555555555555555555555, -160)
_MINUS_THIRD = (-_THIRD[0], -160)
_TINY = (3, -1080)
_HUGE = (5, 1100)
_ENDPOINT_PAIRS = [
    (0.0, 0.0), (_THIRD, _THIRD), (_MINUS_THIRD, _MINUS_THIRD),
    (0.0, 1.5), (-1.5, 0.0), (_THIRD, 7.0), (-7.0, (-1, -1)), ((-1, -1), 7.0),
    (-7.0, _THIRD), (_TINY, (7, -1080)), ((-3, -1080), _TINY), (-0.75, 0.75),
    (_HUGE, (7, 1100)), ((-7, 1100), _TINY),
    (-float("inf"), 1.0), (1.0, float("inf")), (-float("inf"), float("inf")),
    (-float("inf"), -1.0), (0.0, float("inf")), (-float("inf"), 0.0),
]
_OPERANDS = [2, -3, 0, 0.1, -2.5e-300, float("inf")]


def _interval(pair, prec):
    return MPInterval(_mpf(pair[0], prec), _mpf(pair[1], prec), prec)


def _same(got, want):
    assert not libmp.mpf_gt(got.lo, got.hi)
    assert (got.lo, got.hi, got.prec) == (want.lo, want.hi, want.prec)


def _check(fn, ref):
    try:
        want = ref()
    except DomainError:
        with pytest.raises(DomainError):
            fn()
        return
    _same(fn(), want)


def _check_all(x, y):
    _same(-x, oracle.neg(x))
    _check(lambda: x + y, lambda: oracle.add(x, y))
    _check(lambda: x - y, lambda: oracle.sub(x, y))
    _check(lambda: x * y, lambda: oracle.mul(x, y))
    _check(lambda: x / y, lambda: oracle.div(x, y))


def _check_reflected(x, k):
    p = MPInterval.point(k, x.prec)
    _check(lambda: x + k, lambda: oracle.add(x, k))
    _check(lambda: k + x, lambda: oracle.add(x, k))
    _check(lambda: x - k, lambda: oracle.sub(x, k))
    _check(lambda: k - x, lambda: oracle.add(oracle.neg(x), k))
    _check(lambda: x * k, lambda: oracle.mul(x, k))
    _check(lambda: k * x, lambda: oracle.mul(x, k))
    _check(lambda: x / k, lambda: oracle.div(x, k))
    _check(lambda: k / x, lambda: oracle.div(p, x))


@pytest.mark.parametrize("prec", PRECISIONS)
def test_every_sign_class_pair_matches_the_hull(prec):
    intervals = [_interval(pair, prec) for pair in _ENDPOINT_PAIRS]
    for x in intervals:
        for y in intervals:
            _check_all(x, y)
        for k in _OPERANDS:
            _check_reflected(x, k)


def _mp_endpoints(prec):
    finite = st.builds(
        lambda m, e: libmp.from_man_exp(m, e, prec, _RF),
        st.integers(-(2 ** (prec + 8)), 2 ** (prec + 8)),
        st.integers(-1200 - prec, 1100),
    )
    return st.one_of(
        st.sampled_from([libmp.fzero, libmp.finf, libmp.fninf]),
        st.floats(allow_nan=False).map(libmp.from_float),
        finite,
    )


def _mp_intervals(prec):
    ends = _mp_endpoints(prec)
    pairs = st.one_of(ends.map(lambda v: [v, v]), st.lists(ends, min_size=2, max_size=2))
    return pairs.map(
        lambda p: MPInterval(*sorted(p, key=functools.cmp_to_key(libmp.mpf_cmp)), prec)
    )


@pytest.mark.parametrize("prec", PRECISIONS)
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_random_intervals_match_the_hull(prec, data):
    x = data.draw(_mp_intervals(prec))
    y = data.draw(_mp_intervals(prec))
    k = data.draw(st.one_of(st.integers(-(10**30), 10**30), st.floats(allow_nan=False)))
    _check_all(x, y)
    _check_reflected(x, k)


@pytest.mark.parametrize("prec", (80, 120, 160))
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_subtraction_is_adding_the_negation(prec, data):
    # `__sub__` and `__rsub__` round [lo - b.hi, hi - b.lo] directly, with
    # no negated copy; negation is exact, so that is a + (-b) bit for bit,
    # zeros, infinities and float or integer operands included
    x = data.draw(_mp_intervals(prec))
    y = data.draw(_mp_intervals(prec))
    k = data.draw(st.one_of(st.sampled_from([0, 0.0, -0.0, float("inf"), -float("inf")]),
                            st.integers(-(10**30), 10**30), st.floats(allow_nan=False)))
    _same(x - y, x + (-y))
    _same(x - k, x + (-MPInterval.point(k, prec)))
    _same(k - x, (-x) + k)
