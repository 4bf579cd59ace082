"""Stage V's float ball layer against exact rational arithmetic and
against the interval oracle in `tests/ball_oracle.py`.

`gimbal`'s balls hold plain floats in round-to-nearest with a-priori
rounding bounds.  `fractions.Fraction` gives the exact products and sums
those bounds must cover; the oracle gives the enclosures they must match.
"""

import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcert import geometry as geo
from hypcert import gimbal as gb
from hypcert import verify
from hypcert.interval import FLOAT_KERNEL, Interval, inverse_residual
from tests.ball_oracle import oracle_balls
from tests.test_gimbal import _scaling_member

inf = math.inf
U = Q(1, 2 ** 53)
ETA = 2.0 ** -1074

# three products of 1.5 eta each round (ties to even) to 2 eta: the sum is
# off by 1.5 eta, more than up(0) = eta
SUB_ROW = ((2.0 ** -540,) * 3,) * 3
SUB_COL = ((3 * 2.0 ** -535,) * 3,) * 3

SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 1.5e-323, 2.0 ** -1022, -(2.0 ** -1022),
    math.nextafter(2.0 ** -1022, 0.0), 2.0 ** -960, -(2.0 ** -960),
    2.0 ** -540, 3 * 2.0 ** -535, 2.0 ** -511, 2.0 ** -480,
    1.0, -1.0, 0.5, 1 / 3, math.nextafter(1.0, 2.0), 1e150, -1e150, 2.0 ** 500,
    1e300, -1e300,
]
# magnitudes whose products land near 2^-1022 and 2^-960, and large ones
SCALES = [2.0 ** -1022, 2.0 ** -960, 2.0 ** -537, 2.0 ** -511, 2.0 ** -480,
          1.0, 2.0 ** 200, 2.0 ** 500]

floats = st.one_of(
    st.sampled_from(SPECIAL),
    st.builds(lambda m, s: m * s, st.floats(-4.0, 4.0), st.sampled_from(SCALES)),
    st.floats(-10.0, 10.0),
)


@st.composite
def rotations(draw):
    """Rotations about z and x composed in floats, perturbed entrywise."""
    a, b = (draw(st.floats(-4.0, 4.0)) for _ in range(2))
    eps = draw(st.sampled_from([0.0, 1e-15, 1e-12, 1e-9]))
    rz = np.array([[math.cos(a), -math.sin(a), 0.0],
                   [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, math.cos(b), -math.sin(b)],
                   [0.0, math.sin(b), math.cos(b)]])
    m = rz @ rx
    return tuple(
        tuple(float(m[i][j]) + eps * draw(st.floats(-1.0, 1.0)) for j in range(3))
        for i in range(3)
    )


matrices = st.one_of(
    st.tuples(*[st.tuples(floats, floats, floats)] * 3),
    rotations(),
)

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)


def exact_product(a, b):
    return [
        [sum(Q(a[i][k]) * Q(b[k][j]) for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def finite(m):
    return all(math.isfinite(x) for row in m for x in row)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def spectral_at_most(e, r):
    """Exact test of ||e||_2 <= r: r^2 I - e^T e is positive semidefinite,
    that is, all its principal minors are >= 0."""
    if r == inf:
        return True
    r2 = Q(r) ** 2
    g = [
        [(r2 if i == j else 0) - sum(e[k][i] * e[k][j] for k in range(3))
         for j in range(3)]
        for i in range(3)
    ]
    return all(
        _det([[g[i][j] for j in idx] for i in idx]) >= 0
        for n in (1, 2, 3)
        for idx in itertools.combinations(range(3), n)
    )


def covers_point_error(ball, want):
    """The ball's radius bounds exact - midpoint entrywise and in norm."""
    if ball.rad == inf:
        return True
    e = [[want[i][j] - Q(ball.mid[i][j]) for j in range(3)] for i in range(3)]
    if not all(abs(x) <= Q(ball.rad) for row in e for x in row):
        return False
    return spectral_at_most(e, ball.rad)


def test_constants():
    gamma3 = 3 * U / (1 - 3 * U)
    assert Q(gb._GAMMA3_UP) >= gamma3 * (1 + U) ** 4
    assert gb._UNDERFLOW3 == 3 * ETA


@SETTINGS
@given(matrices, matrices)
@example(SUB_ROW, SUB_COL)
def test_product_error_bound_covers_exact_product(a, b):
    mid, err = gb._product_with_error(a, b)
    want = exact_product(a, b)
    for i in range(3):
        for j in range(3):
            if math.isfinite(mid[i][j]) and math.isfinite(err[i][j]):
                assert abs(want[i][j] - Q(mid[i][j])) <= Q(err[i][j]), (i, j)
            else:
                # an overflow shows in the bound, which makes the radius inf
                assert not math.isfinite(err[i][j])


@SETTINGS
@given(matrices, matrices)
@example(SUB_ROW, SUB_COL)
def test_ball_mul_of_point_balls_covers_exact_product(a, b):
    ball = gb.ball_mul(gb.BallMatrix3(a, 0.0), gb.BallMatrix3(b, 0.0))
    assert not math.isnan(ball.rad)
    if not finite(ball.mid):
        assert ball.rad == inf
        return
    assert covers_point_error(ball, exact_product(a, b))


@SETTINGS
@given(matrices)
def test_norm_bound_squared_covers_gram_row_sums(m):
    nb = gb.BallMatrix3(m, 0.0).norm_bound()
    assert not math.isnan(nb)
    if nb == inf:
        return
    gram = exact_product(tuple(zip(*m)), m)
    assert Q(nb) ** 2 >= max(sum(abs(x) for x in row) for row in gram)


@SETTINGS
@given(matrices, matrices, st.sampled_from([0.0, 1e-300, 1e-9]))
def test_ball_add_covers_exact_sum(a, b, r):
    ball = gb.ball_add(gb.BallMatrix3(a, r), gb.BallMatrix3(b, 2 * r))
    assert not math.isnan(ball.rad)
    if not finite(ball.mid):
        assert ball.rad == inf
        return
    assert ball.rad >= 3 * r
    want = [[Q(a[i][j]) + Q(b[i][j]) for j in range(3)] for i in range(3)]
    point = gb.ball_add(gb.BallMatrix3(a, 0.0), gb.BallMatrix3(b, 0.0))
    assert covers_point_error(point, want)


@st.composite
def interval_matrices(draw):
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            x, y = draw(floats), draw(st.one_of(floats, st.sampled_from([inf, -inf])))
            row.append(Interval(min(x, y), max(x, y)))
        rows.append(tuple(row))
    return tuple(rows)


@SETTINGS
@given(interval_matrices())
@example(((Interval(-1.0, 1e-300),) * 3,) * 3)
@example(((Interval(1.0, 1.0),) * 3,) * 3)
def test_ball_from_interval_mat3_covers_every_member(m):
    ball = gb.ball_from_interval_mat3(m)
    assert not math.isnan(ball.rad)
    if not all(x.is_finite() for row in m for x in row) or not finite(ball.mid):
        assert ball.rad == inf
        return
    # every member differs from the midpoint by at most d entrywise, and
    # ||E||_2 <= || |E| ||_2 <= ||d||_2
    d = []
    for row, mid_row in zip(m, ball.mid):
        d.append([])
        for x, c in zip(row, mid_row):
            assert x.lo <= c <= x.hi
            d[-1].append(max(Q(c) - Q(x.lo), Q(x.hi) - Q(c)))
    assert spectral_at_most(d, ball.rad)


def _hex(m):
    return [[x.hex() for x in row] for row in m]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(interval_matrices(), min_size=1, max_size=3))
@example([((Interval(-1.0, inf),) * 3,) * 3, ((Interval(-inf, inf),) * 3,) * 3])
def test_label_balls_from_bounds_are_bitwise_the_scalar_balls(ms):
    # the labels' ball table: `ball_from_interval_mat3` and `_norm_bound`
    # of a stack of interval matrices at once, from their endpoints
    lo = np.array([[[x.lo for x in row] for row in m] for m in ms])
    hi = np.array([[[x.hi for x in row] for row in m] for m in ms])
    mids, rads, norms = (x.tolist() for x in gb._balls_of_bounds(lo, hi))
    for m, mid, rad, norm in zip(ms, mids, rads, norms):
        ball = gb.ball_from_interval_mat3(m)
        assert _hex(mid) == _hex(ball.mid)
        assert rad.hex() == ball.rad.hex()
        assert norm.hex() == gb._norm_bound(ball.mid).hex()


def test_non_finite_label_gives_infinite_radius():
    k = gb.FLOAT_KERNEL
    rot = ((k.point(0.6), k.point(-0.8), k.point(0.0)),
           (k.point(0.8), k.point(0.6), k.point(0.0)),
           (k.point(0.0), k.point(0.0), k.point(1.0)))
    bad = ((Interval(-inf, 0.5),) + rot[0][1:],) + rot[1:]
    ball = gb.ball_from_interval_mat3(bad)
    assert ball.rad == inf
    good = gb.ball_from_interval_mat3(rot)
    for out in (gb.ball_mul(ball, good), gb.ball_mul(good, ball),
                gb.ball_add(good, ball)):
        assert out.rad == inf
    huge = gb.BallMatrix3(((1e200,) * 3,) * 3, 0.0)
    assert gb.ball_mul(huge, huge).rad == inf
    for row in gb.ball_entries(ball, k):
        for x in row:
            assert (x.lo, x.hi) == (-inf, inf)


def _stage5_inputs(tri, result):
    box = result.box
    labels = gb.CocycleLabels(tri, box.nu, data=box.gram_data)
    return labels, box


def test_infinite_label_endpoint_is_not_avoided(dodec27a, verified27a,
                                                 monkeypatch):
    # every middle-edge label's entry (0, 0), -cos, reaches down to -inf:
    # the label arrays the ball table is built from are widened
    labels, box = _stage5_inputs(dodec27a, verified27a)
    e_sim = verified27a.partition.e_sim
    labels.vertex_cos.hi[:] = inf
    lookups = []
    ball_for_letter = gb.CocycleLabels.ball_for_letter

    def recording(lab, letter):
        ball = ball_for_letter(lab, letter)
        lookups.append((letter["kind"], ball.rad))
        return ball

    monkeypatch.setattr(gb.CocycleLabels, "ball_for_letter", recording)
    verdict = gb.gimbal_lock_check(
        dodec27a, labels, e_sim, [box.theta[e] for e in e_sim]
    )
    assert not verdict.avoided
    assert "no finite inverse" in verdict.reason
    assert {rad for kind, rad in lookups if kind == "b"} == {inf}
    assert all(rad < inf for kind, rad in lookups if kind == "g")


def _margin(dg):
    lo, hi = FLOAT_KERNEL.bounds(inverse_residual(dg))
    return float(np.max(np.maximum(np.abs(lo), np.abs(hi))))


@pytest.fixture(scope="module")
def scaling12_result():
    tri = _scaling_member(12)
    result = verify.run_pipeline(tri)
    assert result.verified
    return tri, result


@pytest.mark.parametrize("name", ["dodec27a", "scaling12"])
def test_float_balls_as_tight_as_interval_oracle(name, dodec27a, verified27a,
                                                 scaling12_result, monkeypatch):
    tri, result = ((dodec27a, verified27a) if name == "dodec27a"
                   else scaling12_result)
    labels, box = _stage5_inputs(tri, result)
    e_sim = result.partition.e_sim
    loops = gb.build_loops_for_partition(tri, e_sim)
    theta_boxes = [box.theta[e] for e in e_sim]
    dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    with monkeypatch.context() as mp:
        oracle_balls(mp)
        ref = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    for row, ref_row in zip(dg.tolist(), ref.tolist()):
        for x, y in zip(row, ref_row):
            assert x.lo <= y.hi and y.lo <= x.hi
            assert x.hi - x.lo <= 1.001 * (y.hi - y.lo)
    assert _margin(dg) == pytest.approx(_margin(ref), rel=1e-3)


def test_lock_failure_quotes_its_margin(dodec27a, verified27a, monkeypatch):
    labels, box = _stage5_inputs(dodec27a, verified27a)
    params = geo.EdgeParams.from_lengths([float(l) for l in dodec27a.lengths])
    rows = gb.probe_partitions(dodec27a, params, budget=50, seed=3)
    part = next(list(p) for p, smin, locked in rows
                if locked and not math.isnan(smin))
    calls = []
    invertible = gb.interval_matrix_invertible

    def counting(m):
        calls.append(m)
        return invertible(m)

    monkeypatch.setattr(gb, "interval_matrix_invertible", counting)
    verdict = gb.gimbal_lock_check(
        dodec27a, labels, part, [box.theta[e] for e in part]
    )
    assert not verdict.avoided
    assert len(calls) == 1
    quoted = verdict.reason.split("largest residual ")[1].split(";")[0]
    worst, bound = (float(x) for x in quoted.split(" >= bound "))
    assert worst >= bound
    assert bound == pytest.approx(1 / 9, rel=0.01)
    assert worst == pytest.approx(_margin(verdict.jacobian), rel=0.06)

    # the verified partition: one invertibility test as well
    calls.clear()
    e_sim = verified27a.partition.e_sim
    verdict = gb.gimbal_lock_check(
        dodec27a, labels, e_sim, [box.theta[e] for e in e_sim]
    )
    assert verdict.avoided
    assert len(calls) == 1
