"""Stage V's float ball layer against exact rational arithmetic and
against the references in `tests/ball_oracle.py`.

`gimbal`'s balls hold plain floats in round-to-nearest with a-priori
rounding bounds, and every function of the layer takes stacks of balls,
the balls along the last axis (`stacked` and `per_ball` convert).
`fractions.Fraction` and exact dyadic integers give the exact products and
sums those bounds must cover; the oracle gives the enclosures they must
match.  Each stacked function is run on a stack that mixes draws, whose
rows must be bit for bit the function of each draw alone
(`each_row_alone`).
"""

import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcert import geometry as geo
from hypcert import gimbal as gb
from hypcert import verify
from hypcert.interval import FLOAT_KERNEL, Interval, inverse_residual
from tests.ball_oracle import (
    ScalarBall,
    each_row_alone,
    per_ball,
    scalar_ball_add,
    scalar_ball_from_interval_mat3,
    scalar_ball_mul,
    scalar_norm_bound,
    scalar_product_with_error,
    scalar_rotation_balls,
    sequential_jacobian,
    stacked,
    trig_calls,
)
from tests.conftest import links_of
from tests.test_gimbal import _bounds, _scaling_member
from tests import kernel_scalars as ks

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


def stacks(*strategies):
    """One to three draws of each strategy, to be stacked."""
    return st.lists(st.tuples(*strategies), min_size=1, max_size=3)


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


def dyadic(m):
    """A 3x3 matrix of floats or of Fractions with power-of-two denominators,
    exactly, as (A, d): integers A over one power of two d."""
    q = [[Q(x) for x in row] for row in m]
    d = max(x.denominator for row in q for x in row)
    return [[x.numerator * (d // x.denominator) for x in row] for row in q], d


def dyadic_mul(a, b):
    (x, dx), (y, dy) = a, b
    return [[sum(x[i][k] * y[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)], dx * dy


def covers_point_error(mid, rad, want):
    """The ball's radius bounds want - mid entrywise and in norm; `want` is
    exact, a dyadic (A, d) or a matrix of Fractions.  Compared in integers
    scaled by one power of two."""
    if rad == inf:
        return True
    (a, da), (m, dm) = want if isinstance(want, tuple) else dyadic(want), dyadic(mid)
    r = Q(rad)
    d = max(da, dm, r.denominator)
    e = [[a[i][j] * (d // da) - m[i][j] * (d // dm) for j in range(3)] for i in range(3)]
    r = r.numerator * (d // r.denominator)
    if not all(abs(x) <= r for row in e for x in row):
        return False
    return spectral_at_most(e, r)


def _hex(m):
    return [[x.hex() for x in row] for row in m]


def _point_balls(ms):
    """Balls of radius 0 about float 3x3 matrices, with their norm bounds."""
    mid = stacked(ms)
    return mid, np.zeros(mid.shape[-1]), gb._norm_bound(mid)


def _stacked_bounds(ms):
    """The float endpoints of interval 3x3 matrices in the ball layout."""
    return tuple(map(stacked, _bounds(ms)))


def test_constants():
    gamma3 = 3 * U / (1 - 3 * U)
    assert Q(gb._GAMMA3_UP) >= gamma3 * (1 + U) ** 4
    assert gb._UNDERFLOW3 == 3 * ETA


@SETTINGS
@given(stacks(matrices, matrices))
@example([(SUB_ROW, SUB_COL)])
def test_product_error_bound_covers_exact_product(pairs):
    a, b = (stacked(ms) for ms in zip(*pairs))
    mids, errs = each_row_alone(gb._product_with_error, a, b)
    for (ma, mb), mid, err in zip(pairs, per_ball(mids).tolist(), per_ball(errs).tolist()):
        assert (_hex(mid), _hex(err)) == tuple(map(_hex, scalar_product_with_error(ma, mb)))
        want = exact_product(ma, mb)
        for i in range(3):
            for j in range(3):
                if math.isfinite(mid[i][j]) and math.isfinite(err[i][j]):
                    assert abs(want[i][j] - Q(mid[i][j])) <= Q(err[i][j]), (i, j)
                else:
                    # an overflow shows in the bound, which makes the radius inf
                    assert not math.isfinite(err[i][j])


@SETTINGS
@given(stacks(matrices, matrices))
@example([(SUB_ROW, SUB_COL)])
def test_ball_mul_of_point_balls_covers_exact_product(pairs):
    a, b = (_point_balls(ms) for ms in zip(*pairs))
    mids, rads, norms = each_row_alone(gb.ball_mul, a, b)
    for (ma, mb), mid, rad, norm in zip(pairs, per_ball(mids).tolist(), rads.tolist(),
                                        norms.tolist()):
        ref = scalar_ball_mul(ScalarBall(ma, 0.0), ScalarBall(mb, 0.0))
        assert (_hex(mid), rad.hex(), norm.hex()) == \
            (_hex(ref.mid), ref.rad.hex(), ref.norm_bound().hex())
        assert not math.isnan(rad)
        if not finite(mid):
            assert rad == inf
            continue
        assert covers_point_error(mid, rad, exact_product(ma, mb))


@SETTINGS
@given(stacks(matrices))
def test_norm_bound_squared_covers_gram_row_sums(ms):
    ms = [m for (m,) in ms]
    norms = each_row_alone(gb._norm_bound, stacked(ms))
    for m, nb in zip(ms, norms.tolist()):
        assert nb.hex() == scalar_norm_bound(m).hex()
        assert not math.isnan(nb)
        if nb == inf:
            continue
        gram = exact_product(tuple(zip(*m)), m)
        assert Q(nb) ** 2 >= max(sum(abs(x) for x in row) for row in gram)


@SETTINGS
@given(stacks(matrices, matrices, st.sampled_from([0.0, 1e-300, 1e-9])))
def test_ball_add_covers_exact_sum(cases):
    ma, mb, r = zip(*cases)
    r = np.array(r)
    a, b = _point_balls(ma), _point_balls(mb)
    mids, rads, _ = each_row_alone(gb.ball_add, (a[0], r, a[2]), (b[0], 2 * r, b[2]))
    point_mids, point_rads, _ = each_row_alone(gb.ball_add, a, b)
    for (x, y, r), mid, rad, point_mid, point_rad in zip(
            cases, per_ball(mids).tolist(), rads.tolist(), per_ball(point_mids).tolist(),
            point_rads.tolist()):
        ref = scalar_ball_add(ScalarBall(x, r), ScalarBall(y, 2 * r))
        assert (_hex(mid), rad.hex()) == (_hex(ref.mid), ref.rad.hex())
        assert not math.isnan(rad)
        if not finite(mid):
            assert rad == inf
            continue
        assert rad >= 3 * r
        want = [[Q(x[i][j]) + Q(y[i][j]) for j in range(3)] for i in range(3)]
        assert covers_point_error(point_mid, point_rad, want)


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
@given(st.lists(interval_matrices(), min_size=1, max_size=3))
@example([((Interval(-1.0, 1e-300),) * 3,) * 3])
@example([((Interval(1.0, 1.0),) * 3,) * 3])
def test_ball_from_interval_mat3_covers_every_member(ms):
    # the balls of a stack of interval matrices (`_balls_of_bounds`)
    mids, rads, _ = each_row_alone(gb._balls_of_bounds, *_stacked_bounds(ms))
    for m, mid, rad in zip(ms, per_ball(mids).tolist(), rads.tolist()):
        assert not math.isnan(rad)
        if not all(x.is_finite() for row in m for x in row) or not finite(mid):
            assert rad == inf
            continue
        # every member differs from the midpoint by at most d entrywise, and
        # ||E||_2 <= || |E| ||_2 <= ||d||_2
        d = []
        for row, mid_row in zip(m, mid):
            d.append([])
            for x, c in zip(row, mid_row):
                assert x.lo <= c <= x.hi
                d[-1].append(max(Q(c) - Q(x.lo), Q(x.hi) - Q(c)))
        assert spectral_at_most(d, rad)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(interval_matrices(), min_size=1, max_size=3))
@example([((Interval(-1.0, inf),) * 3,) * 3, ((Interval(-inf, inf),) * 3,) * 3])
def test_label_balls_from_bounds_are_bitwise_the_scalar_balls(ms):
    # the ball tables: the scalar reference ball and its norm bound, for a
    # stack of interval matrices at once and for each alone
    mids, rads, norms = (per_ball(x).tolist() for x in
                         each_row_alone(gb._balls_of_bounds, *_stacked_bounds(ms)))
    for m, mid, rad, norm in zip(ms, mids, rads, norms):
        ref = scalar_ball_from_interval_mat3(m)
        assert _hex(mid) == _hex(ref.mid)
        assert rad.hex() == ref.rad.hex()
        assert norm.hex() == ref.norm_bound().hex()


def _rotation_boxes():
    """Seeded angle boxes: near 2 pi, 2 pi wide or wider, straddling or
    touching 0, and points; with repeats."""
    rng = random.Random(31)
    boxes = []
    for _ in range(12):
        c = 2 * math.pi + rng.uniform(-1e-6, 1e-6)
        r = 10.0 ** rng.uniform(-16, -4)
        boxes.append(Interval(c - r, c + r))
    for _ in range(4):
        lo = rng.uniform(-10.0, 10.0)
        boxes.append(Interval(lo, lo + 2 * math.pi + rng.uniform(0.0, 5.0)))
    for _ in range(4):
        r = 10.0 ** rng.uniform(-300, 0)
        boxes += [Interval(-r, r), Interval(-r, 0.0), Interval(0.0, r)]
    for x in [0.0, math.pi / 2, math.pi, 2 * math.pi] + [rng.uniform(-7.0, 7.0)
                                                         for _ in range(6)]:
        boxes.append(Interval.point(x))
    return boxes + boxes[::5]


def test_rotation_balls_are_bitwise_the_scalar_balls(monkeypatch):
    boxes = _rotation_boxes()
    with trig_calls(monkeypatch) as calls:
        got = gb.rotation_balls(ks.array(FLOAT_KERNEL, boxes))
    # one cos and one sin of the array, and no scalar interval
    assert calls == {"cos": 1, "sin": 1}
    want = scalar_rotation_balls(boxes)
    assert len(want) == len(boxes)
    for stack, refs in zip(got, zip(*want)):  # rotations, then derivatives
        mids, rads, norms = (per_ball(x).tolist() for x in stack)
        assert len(mids) == len(boxes)
        for box, mid, rad, norm, ref in zip(boxes, mids, rads, norms, refs):
            assert _hex(mid) == _hex(ref.mid), box
            assert rad.hex() == ref.rad.hex(), box
            assert norm.hex() == ref.norm_bound().hex(), box


def test_non_finite_label_gives_infinite_radius():
    rot = ((0.6, -0.8, 0.0), (0.8, 0.6, 0.0), (0.0, 0.0, 1.0))
    lo, hi = stacked([rot, rot]), stacked([rot, rot])
    lo[0, 0, 0] = -inf
    hi[0, 0, 0] = 0.5
    balls = gb._balls_of_bounds(lo, hi)
    assert balls[1][0] == inf and balls[1][1] < inf
    bad, good = (gb._take(balls, [r]) for r in (0, 1))
    for out in (gb.ball_mul(bad, good), gb.ball_mul(good, bad),
                gb.ball_add(good, bad)):
        assert out[1].tolist() == [inf]
    huge = _point_balls([((1e200,) * 3,) * 3])
    assert gb.ball_mul(huge, huge)[1].tolist() == [inf]
    # inf - inf in the midpoint: a NaN midpoint with an infinite radius
    a = _point_balls([((1e200, 1e200, 0.0),) * 3])
    b = _point_balls([((1e200,) * 3, (-1e200,) * 3, (0.0,) * 3)])
    nan_ball = gb.ball_mul(a, b)
    assert np.isnan(nan_ball[0]).all() and nan_ball[1].tolist() == [inf]
    entries = gb._entries(tuple(np.concatenate(x, axis=-1) for x in zip(balls, nan_ball)))
    for k, enc in enumerate(ks.entries(per_ball(entries))):
        for i, row in enumerate(enc):
            for j, x in enumerate(row):
                if k == 1:
                    assert x.lo <= rot[i][j] <= x.hi and x.hi - x.lo < 1e-15
                else:
                    assert (x.lo, x.hi) == (-inf, inf)


def _stage5_inputs(tri, result):
    box = result.box
    labels = gb.CocycleLabels(tri, geo.EdgeParams(box.nu, FLOAT_KERNEL), data=box.gram_data)
    return labels, box


def test_infinite_label_endpoint_is_not_avoided(dodec27a, verified27a,
                                                 monkeypatch):
    # every middle-edge label's entry (0, 0), -cos, reaches down to -inf:
    # the label arrays the ball table is built from are widened
    labels, box = _stage5_inputs(dodec27a, verified27a)
    e_sim = verified27a.partition.e_sim
    labels.vertex_cos.hi[:] = inf
    tables = []
    balls_of_bounds = gb._balls_of_bounds

    def recording(lo, hi):
        balls = balls_of_bounds(lo, hi)
        tables.append((lo, balls))
        return balls

    monkeypatch.setattr(gb, "_balls_of_bounds", recording)
    verdict = gb.gimbal_lock_check(
        dodec27a, labels, e_sim, box.theta[e_sim], links_of(dodec27a)
    )
    assert not verdict.avoided
    assert "no finite inverse" in verdict.reason
    # only the label rows the loops read are balled, in slot order
    slots = [(loop.link, w) for loop in verdict.loops for w in loop.word.tolist() if w >= 0]
    read = sorted({int(link.label[w]) for link, w in slots})
    (rad,) = [balls[1] for lo, balls in tables
              if np.array_equal(lo, stacked(labels.label_bounds()[0][read]))]
    row = {slot: r for r, slot in enumerate(read)}
    # odd slots are middle edges, even ones short edges
    assert {rad[row[link.label[w]]] for link, w in slots if w % 2} == {inf}
    assert all(rad[row[link.label[w]]] < inf for link, w in slots if not w % 2)


@st.composite
def segmented_stacks(draw):
    """Segments of 1 to 40 matrices each, stacked: the segment lengths and
    the matrices in stack order, each picked from up to 8 drawn ones."""
    lengths = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4))
    pool = draw(st.lists(matrices, min_size=1, max_size=8))
    rng = draw(st.randoms(use_true_random=False))
    return lengths, [rng.choice(pool) for _ in range(sum(lengths))]


def _turn(a):
    c, s = math.cos(a), math.sin(a)
    return ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))


# one-row segments around a long one, with subnormal products and an overflow
SCAN_EXAMPLE = ([1, 40, 1, 3],
                [SUB_ROW] + [_turn(0.1 * k) for k in range(38)] + [SUB_COL, SUB_ROW]
                + [SUB_COL, ((1e300,) * 3,) * 3, ((1e300,) * 3,) * 3, _turn(1.0)])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(segmented_stacks())
@example(SCAN_EXAMPLE)
def test_scan_covers_exact_segment_products(case):
    # row t of the scan encloses ms[t] ms[t-1] ... ms[start of its segment]
    lengths, ms = case
    start = np.repeat(np.cumsum([0] + lengths[:-1]), lengths)
    mids, rads, _ = gb._scan(_point_balls(ms), start)
    for t, (m, mid, rad) in enumerate(zip(ms, per_ball(mids).tolist(), rads.tolist())):
        exact = dyadic(m) if t == start[t] else dyadic_mul(dyadic(m), exact)
        assert not math.isnan(rad)
        if not finite(mid):
            assert rad == inf
            continue
        assert covers_point_error(mid, rad, exact), t


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(segmented_stacks())
@example(SCAN_EXAMPLE)
def test_reduce_covers_exact_block_products(case):
    # row b of the reduction encloses the product of block b's rows, its
    # last row leftmost; the segments serve as blocks, one-row and odd ones
    # included
    lengths, ms = case
    block = np.repeat(np.arange(len(lengths)), lengths)
    mids, rads, _ = gb._reduce(_point_balls(ms), block)
    assert len(rads) == len(lengths)
    ends = np.cumsum(lengths)
    for b, (mid, rad) in enumerate(zip(per_ball(mids).tolist(), rads.tolist())):
        first = ends[b] - lengths[b]
        exact = dyadic(ms[first])
        for m in ms[first + 1:ends[b]]:
            exact = dyadic_mul(dyadic(m), exact)
        assert not math.isnan(rad)
        if not finite(mid):
            assert rad == inf
            continue
        assert covers_point_error(mid, rad, exact), b


@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2"])
def test_jacobian_contains_exact_derivative_of_operand_midpoints(
        name, hyperbolic_triangulations, verified_all):
    # the exact derivative of each loop's word product, taken at the
    # midpoints of the operand balls: the label table's, and the rotation
    # and derivative balls', with the derivative at each polygon letter
    tri, result = hyperbolic_triangulations[name], verified_all[name]
    labels, box = _stage5_inputs(tri, result)
    e_sim = result.partition.e_sim
    loops = gb.build_loops_for_partition(tri, e_sim, links_of(tri))
    theta_boxes = box.theta[e_sim]
    lo, hi = FLOAT_KERNEL.bounds(gb.assemble_gimbal_jacobian(loops, labels, theta_boxes))
    label_mid = per_ball(gb._balls_of_bounds(*map(stacked, labels.label_bounds()))[0]).tolist()
    rotation_mid, derivative_mid = (per_ball(stack[0]).tolist()
                                    for stack in gb.rotation_balls(theta_boxes))
    identity = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 1)
    for li, loop in enumerate(loops):
        var_of = loop.variable
        word = loop.word.tolist()
        mats = [dyadic(rotation_mid[var_of[-1 - w]]) if w < 0
                else dyadic(label_mid[loop.link.label[w]]) for w in word]
        n = len(mats)
        before = [identity]  # before[i] = M(w[i-1]) ... M(w[0])
        for m in mats:
            before.append(dyadic_mul(m, before[-1]))
        after = [identity]  # after[k] = M(w[n-1]) ... M(w[n-k])
        for m in reversed(mats):
            after.append(dyadic_mul(after[-1], m))
        want = {}
        for i, w in enumerate(word):
            if w >= 0:
                continue
            var = var_of[-1 - w]
            d_var = dyadic(derivative_mid[var])
            a, d = dyadic_mul(after[n - 1 - i], dyadic_mul(d_var, before[i]))
            term = [[Q(x, d) for x in row] for row in a]
            want[var] = term if var not in want else [
                [x + y for x, y in zip(r1, r2)] for r1, r2 in zip(want[var], term)]
        assert want
        for var in range(len(theta_boxes)):
            for r, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
                exact = want[var][i][j] if var in want else 0
                assert Q(lo[3 * li + r, var]) <= exact <= Q(hi[3 * li + r, var]), (li, var, r)


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
                                                 scaling12_result):
    # the scan on float balls against sequential chains on `Interval` balls
    tri, result = ((dodec27a, verified27a) if name == "dodec27a"
                   else scaling12_result)
    labels, box = _stage5_inputs(tri, result)
    e_sim = result.partition.e_sim
    loops = gb.build_loops_for_partition(tri, e_sim, links_of(tri))
    theta_boxes = box.theta[e_sim]
    dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    ref = sequential_jacobian(loops, labels, ks.entries(theta_boxes))
    for row, ref_row in zip(ks.entries(dg), ref):
        for x, y in zip(row, ref_row):
            assert x.lo <= y.hi and y.lo <= x.hi
            assert x.hi - x.lo <= 1.001 * (y.hi - y.lo)
    assert _margin(dg) == pytest.approx(_margin(ks.array(FLOAT_KERNEL, ref)), rel=1e-3)


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
        dodec27a, labels, part, box.theta[part], links_of(dodec27a)
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
        dodec27a, labels, e_sim, box.theta[e_sim], links_of(dodec27a)
    )
    assert verdict.avoided
    assert len(calls) == 1
