"""The MP kernel's Krawczyk column sums on integer arrays against the
`MPInterval` chain, endpoint for endpoint, at 80, 120 and 160 bits.

`MPKernel.sub_products` (the centre's x0 - C f(x0)) and
`MPKernel.add_columns` (the step's sums of 53-bit terms) form every
product and sum exactly on integers and round it once per endpoint.  The
reference below is the chain they replace, one `MPInterval` product or
sum per entry and column, with every float lifted by
`MPInterval.from_floats`.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from hypcert.interval import IntervalArray, IntervalError, MPInterval, MPKernel

PRECISIONS = (80, 120, 160)
inf = math.inf

# zero, both signs, subnormals, the ends of the double range and exponent
# gaps near 2**+-1000
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, -3.0 * 2.0 ** -1070,
                  2.0 ** -1000, -(2.0 ** 1000), 1.7e308, -1.7e308, 1.0, -1.0, 0.1, 3.0]
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))
# in one case of five, endpoints may be infinite: those cases take the chain
endpoint_kinds = st.sampled_from([floats] * 4 + [
    st.one_of(floats, floats, floats, st.sampled_from([inf, -inf]))])


@st.composite
def mp_values(draw, prec, endpoints=floats):
    """An mpf of at most prec bits: a float, or a prec-bit mantissa at an
    exponent from far below to far above the double range."""
    if draw(st.booleans()):
        return libmp.from_float(draw(endpoints))
    man = draw(st.integers(-(1 << prec) + 1, (1 << prec) - 1))
    return libmp.from_man_exp(man, draw(st.integers(-1200, 1100)), prec, libmp.round_floor)


def ordered(a, b):
    return (b, a) if libmp.mpf_gt(a, b) else (a, b)


@st.composite
def mp_arrays(draw, prec, n, endpoints=floats):
    pairs = [ordered(draw(mp_values(prec, endpoints)), draw(mp_values(prec, endpoints)))
             for _ in range(n)]
    out = np.empty(n, dtype=object)
    out[:] = [MPInterval(lo, hi, prec) for lo, hi in pairs]
    return out


@st.composite
def float_intervals(draw, shape, endpoints=floats):
    a = np.array(draw(st.lists(endpoints, min_size=math.prod(shape),
                               max_size=math.prod(shape)))).reshape(shape)
    b = np.array(draw(st.lists(endpoints, min_size=a.size, max_size=a.size))).reshape(shape)
    return np.minimum(a, b), np.maximum(a, b)


def chain_add_columns(acc, lo, hi, prec):
    """acc[i] + [lo[i, 0], hi[i, 0]] + ..., one MPInterval sum per term."""
    out = []
    for a, row_lo, row_hi in zip(acc, lo.tolist(), hi.tolist()):
        for tlo, thi in zip(row_lo, row_hi):
            a = a + MPInterval.from_floats(tlo, thi, prec)
        out.append(a)
    return out


def chain_sub_products(acc, c, x, prec):
    """acc[i] - c[i, 0] x[0] - ..., one MPInterval product, negation and sum
    per term."""
    out = []
    for a, row in zip(acc, c.tolist()):
        for cij, xj in zip(row, x):
            a = a + -(MPInterval.from_floats(cij, cij, prec) * xj)
        out.append(a)
    return out


def outcome(fn):
    """The endpoints and precisions of fn's entries, or its error."""
    try:
        return [(x.lo, x.hi, x.prec) for x in fn()]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def step_cases(draw):
    endpoints = draw(endpoint_kinds)
    prec = draw(st.sampled_from(PRECISIONS))
    q, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    acc = draw(mp_arrays(prec, q, endpoints))
    lo, hi = draw(float_intervals((q, n), endpoints))
    for i in range(q):  # exact cancellation: the first term undoes acc
        if draw(st.integers(0, 3)) == 0:
            v = draw(floats)
            acc[i] = MPInterval.from_floats(v, v, prec)
            lo[i, 0] = hi[i, 0] = -v
    return prec, acc, lo, hi


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(step_cases())
@example((80, np.array([MPInterval.from_floats(1.0, inf, 80)], dtype=object),
          np.array([[1.0, -inf]]), np.array([[2.0, 5.0]])))
@example((120, np.array([MPInterval.from_floats(0.5, 0.5, 120)], dtype=object),
          np.array([[2.0 ** 1000, 5e-324, -(2.0 ** 1000)]]),
          np.array([[2.0 ** 1000, 5e-324, -(2.0 ** 1000)]])))
def test_add_columns_is_the_chain_of_mp_sums(case):
    prec, acc, lo, hi = case
    k = MPKernel(prec)
    want = outcome(lambda: chain_add_columns(acc, lo, hi, prec))
    assert outcome(lambda: k.add_columns(acc, IntervalArray(lo, hi))) == want


@st.composite
def centre_cases(draw):
    endpoints = draw(endpoint_kinds)
    prec = draw(st.sampled_from(PRECISIONS))
    q, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    acc = draw(mp_arrays(prec, q, endpoints))
    x = draw(mp_arrays(prec, n, endpoints))
    c = np.array(draw(st.lists(st.one_of(endpoints, st.sampled_from([0.0, 1.0, -1.0])),
                               min_size=q * n, max_size=q * n))).reshape(q, n)
    for i in range(q):  # exact cancellation: acc[i] = c[i, 0] x[0], a point
        if draw(st.integers(0, 3)) == 0:
            v = draw(floats)
            acc[i] = MPInterval.from_floats(v, v, prec)
            x[0] = MPInterval.from_floats(v, v, prec)
            c[i, 0] = 1.0
    return prec, acc, c, x


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(centre_cases())
@example((160, np.array([MPInterval.from_floats(-inf, 0.0, 160)], dtype=object),
          np.array([[2.0]]), np.array([MPInterval.from_floats(1.0, 1.0, 160)], dtype=object)))
@example((80, np.array([MPInterval.from_floats(1.0, 1.0, 80)], dtype=object),
          np.array([[0.0, -5e-324]]),
          np.array([MPInterval.from_floats(-inf, inf, 80),
                    MPInterval.from_floats(2.0 ** 1000, 2.0 ** 1000, 80)], dtype=object)))
def test_sub_products_is_the_chain_of_mp_products_and_sums(case):
    prec, acc, c, x = case
    k = MPKernel(prec)
    want = outcome(lambda: chain_sub_products(acc, c, x, prec))
    assert outcome(lambda: k.sub_products(acc, c, x)) == want


@pytest.mark.parametrize("prec", PRECISIONS)
def test_a_nan_raises_as_the_chain_does(prec):
    k = MPKernel(prec)
    acc = np.array([MPInterval.from_floats(1.0, 2.0, prec)] * 2, dtype=object)
    lo = np.array([[0.5, 1.0], [np.nan, 1.0]])
    want = outcome(lambda: chain_add_columns(acc, lo, lo, prec))
    assert want == (IntervalError, "NaN endpoint")
    assert outcome(lambda: k.add_columns(acc, IntervalArray(lo, lo))) == want
    x = np.array([MPInterval.from_floats(1.0, 2.0, prec)] * 2, dtype=object)
    want = outcome(lambda: chain_sub_products(acc, lo, x, prec))
    assert want == (IntervalError, "NaN endpoint")
    assert outcome(lambda: k.sub_products(acc, lo, x)) == want


@pytest.mark.parametrize("prec", PRECISIONS)
def test_integer_sums_make_no_mpinterval_call(prec, monkeypatch):
    # finite inputs take the integer path: no MPInterval product, sum or lift
    k = MPKernel(prec)
    rng = np.random.default_rng(prec)
    acc, x = (k.from_bounds(v, v + 0.5) for v in rng.normal(size=(2, 6)))
    c, t = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("an MPInterval call")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__"):
        monkeypatch.setattr(MPInterval, name, refuse)
    monkeypatch.setattr(MPInterval, "from_floats", classmethod(refuse))
    k.add_columns(k.sub_products(acc, c, x), IntervalArray(t, t + 1.0))
    assert calls == []
