"""The geometry's index plans and its kernel-call budget.

`hypcert.geometry` builds what depends only on the gluing -- the Gram
gather index, the angle sums' representative order and rounds, and one
plan per Jacobian block -- once per triangulation, and evaluates each
formula in few kernel calls.  These tests pin both: a second call builds
no plan, two triangulations share none, and one 53-bit `simplex_data` or
`jacobian` makes a fixed number of `IntervalArray` products.
"""

import math

import pytest

from hypcert import geometry as geo
from hypcert.interval import FLOAT_KERNEL, IntervalArray
from hypcert.triangulation import parse_file, serialize
from tests.conftest import data_path
from tests.test_geometry_batched import bits
from tests import kernel_scalars as ks


def _fresh(name="dodec27a.tri"):
    return parse_file(data_path(name))


def _params(tri, kernel=None):
    p0 = [-math.cosh(float(l)) for l in tri.lengths]
    if kernel is None:
        return geo.EdgeParams(p0)
    return geo.EdgeParams(kernel.points(p0), kernel)


@pytest.fixture
def rounds_calls(monkeypatch):
    """The number of `_rounds` splits, which every plan makes."""
    calls = []
    rounds = geo._rounds

    def counted(target):
        calls.append(len(target))
        return rounds(target)

    monkeypatch.setattr(geo, "_rounds", counted)
    return calls


def test_second_angle_sums_builds_no_plan(rounds_calls):
    tri = _fresh()
    params = _params(tri)
    first = geo.angle_sums(tri, params)
    assert len(rounds_calls) == 1
    data = geo.simplex_data(tri, params)
    again = geo.angle_sums(tri, params, data=data)
    assert len(rounds_calls) == 1
    assert bits(again) == bits(first)


def test_jacobian_builds_one_plan_per_block(rounds_calls):
    tri = _fresh()
    params = _params(tri, FLOAT_KERNEL)
    data = geo.simplex_data(tri, params)
    full = ks.entries(geo.jacobian(tri, params, data=data))
    built = len(rounds_calls)
    assert bits(geo.jacobian(tri, params, data=data)) == bits(full)
    assert len(rounds_calls) == built
    rows, cols = list(range(0, tri.m, 3)), list(range(1, tri.m, 2))
    block = geo.jacobian(tri, params, data=data, rows=rows, cols=cols)
    assert len(rounds_calls) == built + 1  # its own plan
    assert bits(block) == bits([[full[r][c] for c in cols] for r in rows])
    geo.jacobian(tri, params, data=data, rows=rows, cols=cols)
    geo.jacobian(tri, params, data=data)
    assert len(rounds_calls) == built + 1


def test_triangulations_never_share_a_plan(rounds_calls):
    one, two = _fresh(), _fresh()
    assert one is not two and serialize(one) == serialize(two)  # parsed twice
    geo.angle_sums(one, _params(one))
    assert two.geometry_plan is None
    geo.angle_sums(two, _params(two))
    assert two.geometry_plan is not one.geometry_plan
    assert len(rounds_calls) == 2
    other = _fresh("dodec30x2.tri")
    geo.angle_sums(other, _params(other))
    assert other.geometry_plan.gram.shape == (other.n_tets, 16)
    assert one.geometry_plan.gram.shape == (one.n_tets, 16)


def _count_products(monkeypatch):
    calls = []
    mul = IntervalArray.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(IntervalArray, "__mul__", counted)
    return calls


def test_simplex_data_makes_three_interval_products(monkeypatch):
    # the minors and the cofactor expansions, then every product of the
    # realization conditions and the dihedral angles: one call each
    tri = _fresh()
    params = _params(tri, FLOAT_KERNEL)
    calls = _count_products(monkeypatch)
    geo.simplex_data(tri, params)
    assert len(calls) == 3


def test_jacobian_makes_three_interval_products(monkeypatch):
    # the 21 minors of every Gram matrix with the doubled cofactors, the
    # ratio terms, and the scaling by 1/sqrt(gap)
    tri = _fresh()
    params = _params(tri, FLOAT_KERNEL)
    data = geo.simplex_data(tri, params)
    geo.jacobian(tri, params, data=data)  # the plan is built outside the count
    calls = _count_products(monkeypatch)
    geo.jacobian(tri, params, data=data)
    assert len(calls) == 3
