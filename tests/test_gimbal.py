import functools
import hashlib
import math
import pathlib
import random
import struct
import sys
import types

import mpmath
import numpy as np
import pytest

from hypcert import geometry as geo
from hypcert import gimbal as gb
from hypcert import triangulation as tr
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    TWO_PI,
    FloatKernel,
    Interval,
    interval_matrix_invertible,
)
from tests.ball_oracle import (
    each_row_alone,
    gimbal_function,
    gimbal_matrix,
    per_ball,
    scalar_balls_of_bounds,
    scalar_rotation_balls,
    stack,
    stacked,
    trig_calls,
)
from tests.cocycle_closure import check_cocycle_closure
from tests.gimbal_oracle import (
    beta_label,
    dihedral_cs,
    edge_end_directions,
    gamma_label,
    label_matrix,
    middle_edge_matrix,
    prism_holonomy,
    rotation_matrix,
)
from tests.conftest import S3_TEXT, links_of, stage_one
from tests import gimbal_oracle, link_oracle
from tests.link_slots import (
    build_loop,
    expand_link,
    letter,
    letters_of,
    link_of,
    link_view,
    loop_view,
)
from tests.matrix_oracle import mat3_mul
from tests import kernel_scalars as ks


@pytest.fixture(scope="module")
def s3m():
    return tr.parse(S3_TEXT)


def random_realized_labels(t, rng, kernel=None):
    while True:
        vals = [-1.0 - rng.uniform(0.05, 2.0) for _ in range(t.m)]
        try:
            if kernel is None:
                return gb.CocycleLabels(t, geo.EdgeParams(vals)), vals
            params = geo.EdgeParams(kernel.points(vals), kernel)
            return gb.CocycleLabels(t, params), vals
        except geo.RealizationError:
            continue


# -- labels -------------------------------------------------------------------


def test_beta_label_at_right_angle():
    B = middle_edge_matrix(0.0, 1.0, 1.0, 0.0)
    assert B == ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0))


def test_gamma_label_at_zero_angle():
    R = rotation_matrix(1.0, 0.0, 1.0, 0.0)
    assert R == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))


def test_beta_involution_interval(s3m):
    k = FloatKernel()
    rng = random.Random(9)
    labels, _ = random_realized_labels(s3m, rng, kernel=k)
    link = expand_link(link_of(s3m, 0))
    for let in link.hexagons[link.corners[0]]:
        if let["kind"] != "b":
            continue
        B = beta_label(labels, let["token"])
        BB = mat3_mul(B, B)
        for i in range(3):
            for j in range(3):
                assert BB[i][j].contains(1.0 if i == j else 0.0)


def test_gamma_reversal_inverts(s3m):
    rng = random.Random(10)
    labels, _ = random_realized_labels(s3m, rng)
    link = expand_link(link_of(s3m, 0))
    for let in link.hexagons[link.corners[0]]:
        if let["kind"] != "g":
            continue
        fwd = gamma_label(labels, let["tet"], let["s_start"])
        rev = gamma_label(labels, let["tet"], let["s_end"])
        P = mat3_mul(fwd, rev)
        for i in range(3):
            for j in range(3):
                assert abs(P[i][j] - (1.0 if i == j else 0.0)) < 1e-14


def test_identified_middle_edges_share_labels(dodec27a, verified27a):
    labels = gb.CocycleLabels(dodec27a, geo.EdgeParams(verified27a.box.nu, FLOAT_KERNEL))
    links = tr.vertex_link_hexagon_complex(dodec27a)
    # each side of a middle edge reads its label from its own simplex: the
    # two sides read different rows of the table, with the same bits
    lo, hi = labels.label_bounds()
    sides = np.flatnonzero(links.other_side >= 0)
    own, other = links.label[sides], links.label[links.other_side[sides]]
    assert (own != other).any()
    assert lo[own].tobytes() == lo[other].tobytes()
    assert hi[own].tobytes() == hi[other].tobytes()


# -- cocycle closure ----------------------------------------------------------


def test_cocycle_closure_random_simplex_float(s3m):
    rng = random.Random(11)
    for _ in range(10):
        labels, _ = random_realized_labels(s3m, rng)
        assert check_cocycle_closure(s3m, labels) == []


def test_cocycle_closure_random_simplex_interval(s3m):
    k = FloatKernel()
    rng = random.Random(12)
    labels, _ = random_realized_labels(s3m, rng, kernel=k)
    assert check_cocycle_closure(s3m, labels) == []


def test_cocycle_closure_detects_wrong_index_rule(s3m):
    # the closure gate pins the index rules: labeling a short edge with
    # the dihedral angle of the wrong face pair must break closure.
    # (A global sign flip of every rotation is the mirror convention and
    # still closes; that freedom is pinned instead by the polygon
    # angle-sum identity, tested in the acceptance suite.)
    k = FloatKernel()
    rng = random.Random(13)
    labels, _ = random_realized_labels(s3m, rng, kernel=k)

    orig = gimbal_oracle.label_slot_of

    def wrong_face_pair(letter):
        if letter["kind"] == "g":
            sigma = letter["s_start"]
            letter = dict(letter, s_start=(sigma[0], sigma[2], sigma[1], sigma[3]))
        return orig(letter)

    try:
        gimbal_oracle.label_slot_of = wrong_face_pair
        fails = check_cocycle_closure(s3m, labels)
    finally:
        gimbal_oracle.label_slot_of = orig
    assert fails


# -- prisms -------------------------------------------------------------------


def test_prism_holonomy_s3(s3m):
    k = FloatKernel()
    v = -2.0
    labels = gb.CocycleLabels(s3m, geo.EdgeParams(k.points([v] * 6), k))
    link = expand_link(link_of(s3m, 0))
    theta = math.acos(-v / (1 - 2 * v))
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    want = ((c2, -s2, 0.0), (s2, c2, 0.0), (0.0, 0.0, 1.0))
    for end in link.prism_ends:
        H = prism_holonomy(labels, link, end.pid)
        for i in range(3):
            for j in range(3):
                assert H[i][j].contains(want[i][j])
        # far from the identity: a full turn is not enclosed
        assert not H[0][0].contains(1.0)


def test_prism_holonomy_single_incidence_synthetic(s3m):
    k = FloatKernel()
    labels = gb.CocycleLabels(s3m, geo.EdgeParams(k.points([-2.0] * 6), k))
    link = expand_link(link_of(s3m, 0))
    end = link.prism_ends[0]
    solo = link_oracle.PrismEnd(0, end.edge_class, end.gammas[:1], end.boundary_lvs)

    class L:
        prism_ends = [solo]

    H = prism_holonomy(labels, L, 0)
    tet, a, b = end.gammas[0]
    c, s = dihedral_cs(labels, tet, a, b)
    R = rotation_matrix(c, s, ks.point(k, 1.0), ks.point(k, 0.0))
    for i in range(3):
        for j in range(3):
            assert H[i][j].lo == R[i][j].lo and H[i][j].hi == R[i][j].hi


def test_prism_holonomy_certified_encloses_identity(dodec27a, verified27a):
    box = verified27a.box
    labels = gb.CocycleLabels(dodec27a, geo.EdgeParams(box.nu, FLOAT_KERNEL))
    link = expand_link(link_of(dodec27a, 0))
    for end in link.prism_ends[:6]:
        H = prism_holonomy(labels, link, end.pid)
        for i in range(3):
            for j in range(3):
                assert H[i][j].contains(1.0 if i == j else 0.0)


# -- gimbal loops --------------------------------------------------------------


def test_loop_builder_and_validator(hyperbolic_triangulations):
    for t in hyperbolic_triangulations.values():
        links = tr.vertex_link_hexagon_complex(t)
        for k in range(t.o):
            n_ends = len(link_of(t, k).prism_ends)
            picks = [[0], [n_ends - 1], [0, 1, 2]]
            for removed in picks:
                loop = build_loop(links, k, removed)
                assert gb.validate_gimbal_loops([loop])
                word = loop_view(loop).word
                assert sorted((-1 - word[word < 0]).tolist()) == sorted(removed)
                used = set((word[word >= 0] // 6).tolist())
                assert len(word) <= 6 * len(used) + len(removed)


def test_loop_validator_rejects_tampering(dodec27a):
    links = tr.vertex_link_hexagon_complex(dodec27a)
    loop = build_loop(links, 0, [0, 1])
    # drop a polygon letter
    bad = gb.GimbalLoop(
        loop.vertex_class,
        links,
        loop.removed,
        loop.word[loop.word != -1],
    )
    with pytest.raises(gb.GimbalLoopError):
        gb.validate_gimbal_loops([bad])
    # scramble the word order
    bad2 = gb.GimbalLoop(
        loop.vertex_class, links, loop.removed, loop.word[::-1]
    )
    with pytest.raises(gb.GimbalLoopError):
        gb.validate_gimbal_loops([bad2])


def test_loop_missing_polygon_error(dodec27a):
    links = tr.vertex_link_hexagon_complex(dodec27a)
    with pytest.raises(gb.GimbalLoopError):
        gb.build_gimbal_loops(links, [len(links.end_class)])


# -- gimbal function and its derivative ----------------------------------------


def _point_labels(tri, values):
    """Labels over point intervals: interval labels whose ball midpoints
    are (nearly) the float labels at `values`."""
    return gb.CocycleLabels(tri, geo.EdgeParams(FLOAT_KERNEL.points(values), FLOAT_KERNEL))


def test_gimbal_derivative_finite_differences(dodec27a):
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    labels = _point_labels(dodec27a, p0)
    links = tr.vertex_link_hexagon_complex(dodec27a)
    loop = build_loop(links, 0, [0, 3, 5])
    loop.variable = np.full(len(links.end_class), -1)
    loop.variable[[0, 3, 5]] = [0, 1, 2]
    t0 = {0: 6.2, 3: 6.4, 5: 6.0}

    def at(angles):
        return [ks.point(FLOAT_KERNEL, angles[pid]) for pid in (0, 3, 5)]

    der = _derivatives(loop, labels, at(t0))
    h = 1e-7
    for var, pid in ((0, 0), (1, 3), (2, 5)):
        tp = dict(t0)
        tp[pid] += h
        tm = dict(t0)
        tm[pid] -= h
        mp_ = gimbal_matrix(loop, labels, at(tp))
        mm = gimbal_matrix(loop, labels, at(tm))
        for i in range(3):
            for j in range(3):
                fd = (mp_[i][j].mid() - mm[i][j].mid()) / (2 * h)
                d = der[var][i][j]
                assert d.hi - d.lo < 1e-9
                assert abs(fd - d.mid()) < 1e-5 * max(1.0, abs(fd))


def test_absent_variable_gives_zero_block(dodec30x2, verified_all):
    res = verified_all["dodec30x2"]
    box, part = res.box, res.partition
    labels = gb.CocycleLabels(dodec30x2, geo.EdgeParams(box.nu, FLOAT_KERNEL))
    links = tr.vertex_link_hexagon_complex(dodec30x2)
    loops = gb.build_loops_for_partition(dodec30x2, part.e_sim, links=links)
    theta_boxes = box.theta[part.e_sim]
    dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    # some loose edge misses some vertex: its column block there is zero
    zero_blocks = 0
    for li, loop in enumerate(loops):
        present = set(loop.variable[list(loop.removed)].tolist())
        for var in range(len(theta_boxes)):
            if var not in present:
                zero_blocks += 1
                for r in range(3):
                    entry = dg[3 * li + r, var]
                    assert entry.lo == entry.hi == 0.0
    assert zero_blocks > 0


def test_direction_sum_oracle(dodec27a, verified27a):
    # columns of the gimbal Jacobian at full turns match the sums of the
    # two unit directions in which each loose edge leaves the vertex
    res = verified27a
    p0 = res.p0
    part = res.partition
    labels = _point_labels(dodec27a, p0)
    links = tr.vertex_link_hexagon_complex(dodec27a)
    loops = gb.build_loops_for_partition(dodec27a, part.e_sim, links=links)
    loop = loops[0]
    dirs = edge_end_directions(dodec27a, geo.EdgeParams(list(p0)))
    der = _derivatives(loop, labels, [TWO_PI] * len(part.e_sim))
    ends_of_var = {}
    for pid in loop.removed:
        ends_of_var.setdefault(int(loop.variable[pid]), []).append(pid)
    for var, pids in ends_of_var.items():
        abar = np.sum([dirs[p] for p in pids], axis=0)
        col = np.array([der[var][r][c].mid() for r, c in ((0, 1), (0, 2), (1, 2))])
        want = np.array([-abar[2], abar[1], -abar[0]])
        assert np.allclose(col, want, atol=1e-8)


@pytest.mark.parametrize("name", ["dodec27a", "dodec27b", "dodec30x2", "scaling24-seed7"])
def test_edge_direction_table_reads_each_letters_own_label(name, hyperbolic_triangulations):
    # a link's label slots name every letter from its own side; a middle
    # letter's label, from its canonical token's side, is the same bits, so
    # T is what the reference's per-letter slots give
    if name == "scaling24-seed7":
        tri = _scaling_member(24, seed=7)
    else:
        tri = hyperbolic_triangulations[name]
    params = geo.EdgeParams.from_lengths([float(l) for l in tri.lengths])
    labels = gb.CocycleLabels(tri, params)
    label, _ = labels.label_bounds()
    links = links_of(tri)
    own = links.label.tolist()
    token = [gimbal_oracle.label_slot_of(letter(links, s)) for s in range(len(links.label))]
    assert own != token  # some middle letters are named from the other side
    assert label[own].tobytes() == label[token].tobytes()


@pytest.mark.parametrize("name", ["dodec27a", "dodec27b", "dodec30x2"])
def test_edge_direction_table(name, hyperbolic_triangulations, verified_all):
    # the table is the oracle's direction sums, column by column, and its
    # columns e_sim are stage V's Jacobian at full turns for that partition
    tri = hyperbolic_triangulations[name]
    params = geo.EdgeParams.from_lengths([float(l) for l in tri.lengths])
    links = tr.vertex_link_hexagon_complex(tri)
    table = gb.edge_direction_table(tri, gb.CocycleLabels(tri, params), links)
    assert table.shape == (3 * tri.o, tri.m)
    for k in range(tri.o):
        link = link_view(links, k)
        dirs = edge_end_directions(tri, params, k, links)
        want = np.zeros((3, tri.m))
        for pid, cls in enumerate(link.end_class.tolist()):
            d = dirs[pid]
            want[:, cls] += (-d[2], d[1], -d[0])
        assert np.allclose(table[3 * k:3 * k + 3], want, rtol=0.0, atol=1e-12)

    labels = _point_labels(tri, params.values)
    partitions = [verified_all[name].partition.e_sim]
    if name == "dodec27a":
        rng = random.Random(13)
        partitions += [sorted(rng.sample(range(tri.m), 3)) for _ in range(20)]
    for e_sim in partitions:
        loops = gb.build_loops_for_partition(tri, e_sim, links=links)
        dg = gb.assemble_gimbal_jacobian(loops, labels, FLOAT_KERNEL.two_pi()[[0] * len(e_sim)])
        lo, hi = FLOAT_KERNEL.bounds(dg)
        assert np.allclose(table[:, e_sim], 0.5 * (lo + hi), rtol=0.0, atol=1e-12), e_sim


# -- lock check ----------------------------------------------------------------


def test_lock_check_avoided_on_fixture(dodec27a, verified27a):
    res = verified27a
    assert res.statuses[5].startswith("interval Jacobian invertible")
    assert res.box.loops


def test_gimbal_function_zero_at_full_turns(dodec27a, verified27a):
    box = verified27a.box
    labels = gb.CocycleLabels(dodec27a, geo.EdgeParams(box.nu, FLOAT_KERNEL))
    turns = [TWO_PI] * len(verified27a.partition.e_sim)
    for loop in box.loops:
        g0 = gimbal_function(loop, labels, turns)
        for comp in g0:
            assert comp.contains(0.0)


class _SyntheticLabels:
    """Labels for a hand-made loop: a table of fixed float-interval
    matrices, one row per name, in order."""

    def __init__(self, mats):
        self.rows = list(mats)
        self.bounds = _bounds(mats.values())

    def label_bounds(self):
        return self.bounds


def _bounds(ms):
    """The float endpoints lo, hi (k, 3, 3) of interval 3x3 matrices."""
    return (np.array([[[x.lo_float() for x in row] for row in m] for m in ms]),
            np.array([[[x.hi_float() for x in row] for row in m] for m in ms]))


def _derivatives(loop, labels, boxes):
    """Stage V's derivatives of one loop, variable -> 3x3 nested `Interval`s."""
    loops, var, m = gb.gimbal_matrix_derivatives(
        [loop], labels, gb.rotation_balls(ks.array(FLOAT_KERNEL, boxes)))
    assert (loops == 0).all()
    return dict(zip(var.tolist(), ks.entries(per_ball(m))))


def _synthetic_loop(labels, removed_pids, word):
    """A hand-made loop: an edge letter is the name of its label row, a
    polygon letter its pid; the loop's link passes the rows through."""
    rows = [-1 - w if isinstance(w, int) else labels.rows.index(w) for w in word]
    link = types.SimpleNamespace(label=np.arange(len(labels.rows)))
    variable = np.full(max(removed_pids) + 1, -1)
    variable[removed_pids] = np.arange(len(removed_pids))
    return gb.GimbalLoop(0, link, tuple(removed_pids), np.array(rows), variable)


def _const_mat3(kernel, rows):
    return tuple(tuple(ks.point(kernel, x) for x in row) for row in rows)


def test_example_gimbal_lock_antipodal_axes():
    # two loose edges whose polygons sit at antipodal points of the link:
    # m = R_T1 * Pi * R_T2 * Pi^(-1) with Pi a half turn about x; the
    # Jacobian at full turns is singular, so lock must be detected
    k = FloatKernel()
    half_turn_x = _const_mat3(
        k, ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
    )
    mats = {"pi": half_turn_x, "pi_inv": half_turn_x}
    labels = _SyntheticLabels(mats)
    loop = _synthetic_loop(labels, [0, 1], ["pi_inv", 1, "pi", 0])
    boxes = [TWO_PI, TWO_PI]
    derivs = _derivatives(loop, labels, boxes)
    D = np.zeros((2, 3))
    for var, mat in derivs.items():
        D[var] = [mat[0][1].mid(), mat[0][2].mid(), mat[1][2].mid()]
    svals = np.linalg.svd(D, compute_uv=False)
    assert svals[-1] < 1e-12  # columns are opposite: kernel direction (1,1)

    rows = [
        [derivs[v][r][c] if v in derivs else ks.point(k, 0.0) for v in range(2)]
        for (r, c) in ((0, 1), (0, 2), (1, 2))
    ]
    dg = ks.array(FLOAT_KERNEL, [row[:2] for row in rows[:2]])
    assert not interval_matrix_invertible(dg)


def test_example_lock_avoided_after_perturbation():
    # moving the vertex tips the second axis away from antipodal; the
    # same construction becomes invertible
    k = FloatKernel()
    ang = 2.0  # rotation by < pi about x
    c, s = math.cos(ang), math.sin(ang)
    tilt = _const_mat3(k, ((1.0, 0.0, 0.0), (0.0, c, -s), (0.0, s, c)))
    tilt_inv = _const_mat3(k, ((1.0, 0.0, 0.0), (0.0, c, s), (0.0, -s, c)))
    labels = _SyntheticLabels({"pi": tilt, "pi_inv": tilt_inv})
    loop = _synthetic_loop(labels, [0, 1], ["pi_inv", 1, "pi", 0])
    derivs = _derivatives(loop, labels, [TWO_PI, TWO_PI])
    D = np.zeros((2, 3))
    for var, mat in derivs.items():
        D[var] = [mat[0][1].mid(), mat[0][2].mid(), mat[1][2].mid()]
    svals = np.linalg.svd(D, compute_uv=False)
    assert svals[-1] > 0.1


# -- ball enclosures for long products ------------------------------------------


def _random_interval_mat3(rng, kernel, scale=1.0, width=1e-9):
    rows = []
    for _ in range(3):
        row = []
        for _ in range(3):
            c = rng.uniform(-scale, scale)
            w = width * rng.uniform(0.0, 1.0)
            row.append(ks.interval(kernel, c - w, c + w))
        rows.append(tuple(row))
    return tuple(rows)


def _member(rng, m):
    return [[rng.uniform(m[i][j].lo, m[i][j].hi) for j in range(3)] for i in range(3)]


def _word_products(words):
    """The ball product of each of equally long words of interval 3x3
    matrices, first letter rightmost, one `ball_mul` per letter on a stack
    with a ball per word; each word alone, as a stack of one, must give its
    ball bit for bit."""
    def products(ws):
        ball = tuple(np.repeat(x, len(ws), axis=-1) for x in gb._IDENTITY)
        for letters in zip(*ws):
            ball = gb.ball_mul(gb._balls_of_bounds(*map(stacked, _bounds(letters))), ball)
        return ball

    mixed = products(words)
    for r, word in enumerate(words):
        assert ([x[..., r:r + 1].tobytes() for x in mixed]
                == [x.tobytes() for x in products([word])])
    return mixed


def test_ball_product_encloses_member_products():
    # the midpoint/spectral-radius representation must contain every
    # product of member matrices, including for long words
    k = FloatKernel()
    rng = random.Random(77)
    words, exacts = [], []
    for scale in (1.0, 0.3):
        mats = [_random_interval_mat3(rng, k, scale=scale) for _ in range(40)]
        exact = np.eye(3)
        for m in mats:
            exact = np.array(_member(rng, m)) @ exact
        words.append(mats)
        exacts.append(exact)
    for enc, exact in zip(ks.entries(per_ball(gb._entries(_word_products(words)))), exacts):
        for i in range(3):
            for j in range(3):
                assert enc[i][j].contains(exact[i][j]), (i, j)


def test_ball_radius_additive_for_rotations():
    # rotation words keep the radius near the sum of the input radii
    # instead of blowing up exponentially
    k = FloatKernel()
    rng = random.Random(5)
    n, w = 300, 1e-12
    words = []
    for _ in range(2):
        word = []
        for _ in range(n):
            ang = rng.uniform(0, 2 * math.pi)
            c, s = math.cos(ang), math.sin(ang)
            word.append(tuple(
                tuple(ks.interval(k, x - w, x + w) for x in row)
                for row in ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
            ))
        words.append(word)
    _, rad, _ = _word_products(words)
    assert (rad < 100 * n * w).all()


def test_ball_add_soundness():
    k = FloatKernel()
    rng = random.Random(13)
    pairs = [[_random_interval_mat3(rng, k, width=1e-6) for _ in range(2)] for _ in range(2)]
    a, b = (gb._balls_of_bounds(*map(stacked, _bounds(ms))) for ms in zip(*pairs))
    enc = ks.entries(per_ball(gb._entries(each_row_alone(gb.ball_add, a, b))))
    for (ma, mb), e in zip(pairs, enc):
        sa = np.array(_member(rng, ma)) + np.array(_member(rng, mb))
        for i in range(3):
            for j in range(3):
                assert e[i][j].contains(sa[i][j])


# -- probe ---------------------------------------------------------------------


def test_probe_reports_requested_rows(dodec27a):
    params = geo.EdgeParams.from_lengths([float(l) for l in dodec27a.lengths])
    rows = gb.probe_partitions(dodec27a, params, budget=50, seed=3)
    assert len(rows) == 50
    for part, smin, locked in rows:
        assert len(part) == 3
        assert smin >= 0.0 or math.isnan(smin)
    assert any(not locked for (_, _, locked) in rows)
    assert any(locked for (_, _, locked) in rows)


def test_probe_sampling_path_two_vertices(dodec30x2):
    # the two-vertex fixture has too many partitions to enumerate: the
    # seeded sampling path must cover the budget and handle vertices that
    # receive no loose-edge polygon (those partitions are locked)
    params = geo.EdgeParams.from_lengths([float(l) for l in dodec30x2.lengths])
    rows = gb.probe_partitions(dodec30x2, params, budget=40, seed=4)
    assert len(rows) == 40
    assert all(len(part) == 6 for (part, _, _) in rows)
    again = gb.probe_partitions(dodec30x2, params, budget=40, seed=4)
    assert [r[0] for r in rows] == [r[0] for r in again]


# -- one norm bound per ball ----------------------------------------------------


def _scaling_member(moves, seed=None):
    """`dodec27a`'s cone complex after a 1-4 move in each of its first
    `moves` tetrahedra, with lengths exact from hyperboloid coordinates.
    With a seed, the tetrahedra are taken in the order that seed shuffles
    them into, as the benchmark's scaling family does."""
    return tr.parse(scaling_text(moves, seed))


def _build_fixtures():
    """`demos/build_fixtures`, imported from the demos directory."""
    demos = pathlib.Path(__file__).resolve().parent.parent / "demos"
    sys.path.insert(0, str(demos))
    try:
        import build_fixtures as bf
    finally:
        sys.path.remove(str(demos))
    return bf


def _moved_text(moves, pick):
    """The `.tri` text, with lengths, of `dodec27a`'s cone complex after
    `moves` 1-4 moves, the k-th in tetrahedron `pick(k, n_tets)`."""
    bf = _build_fixtures()
    with mpmath.workdps(60):
        tets_mv, gluings, pts = bf.build_cone_complex(0)
        hpts = bf.hyperboloid_points(pts, bf.circumradius())
        for k in range(moves):
            t = pick(k, len(tets_mv))
            tets_mv, gluings, hpts = bf.one_four_move(tets_mv, gluings, hpts, t)
        text = bf.triangulation_text(gluings)
        lengths = bf.lengths_for(tr.parse(text), tets_mv, hpts)
    return text + "lengths:\n" + " ".join(lengths) + "\n"


@functools.lru_cache(maxsize=None)
def scaling_text(moves, seed=None):
    """The `.tri` text of `_scaling_member(moves, seed)`."""
    order = list(range(27))  # dodec27a's tetrahedra
    if seed is not None:
        random.Random(seed).shuffle(order)
    return _moved_text(moves, lambda k, n_tets: order[k])


@functools.lru_cache(maxsize=None)
def resubdivided_text(moves, seed):
    """The `.tri` text of `dodec27a`'s cone complex after `moves` 1-4 moves,
    each in the tetrahedron `random.Random(seed).randrange(n_tets)` picks,
    so a tetrahedron made by a move may be subdivided again."""
    rng = random.Random(seed)
    return _moved_text(moves, lambda k, n_tets: rng.randrange(n_tets))


def _gimbal_inputs(tri):
    """Labels over point intervals at the given lengths, the stage-I loose
    edges, their loops and their angle-sum enclosures."""
    k = FloatKernel()
    p0, _, part, _ = stage_one(tri)
    params = geo.EdgeParams(k.points(p0), k)
    labels = gb.CocycleLabels(tri, params)
    sums = geo.angle_sums(tri, params, data=labels.data)
    loops = gb.build_loops_for_partition(tri, part.e_sim, links_of(tri))
    return loops, labels, sums[part.e_sim]


def _entries(dg):
    return [(x.lo.hex(), x.hi.hex()) for row in ks.entries(dg) for x in row]


@pytest.mark.parametrize("name", ["dodec27a", "scaling12"])
def test_gimbal_jacobian_memo_changes_no_bit(name, dodec27a, monkeypatch):
    # stage V takes every label ball from one table row per slot, shared by
    # the letters of that slot, and every rotation ball from one table row
    # per distinct box
    tri = dodec27a if name == "dodec27a" else _scaling_member(12)
    loops, labels, theta_boxes = _gimbal_inputs(tri)
    memo = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)

    # reference: a table row per letter occurrence, enclosing the label from
    # the scalar formulas, and every ball of the label and rotation tables
    # made one matrix at a time by the scalar reference
    letters, per_occurrence = [], []
    link = types.SimpleNamespace()  # its slots are the letter occurrences
    for loop in loops:
        word = loop.word.copy()
        edges = word >= 0
        word[edges] = len(letters) + np.arange(edges.sum())
        letters += [let for let in letters_of(loop) if let["kind"] != "P"]
        per_occurrence.append(gb.GimbalLoop(loop.vertex_class, link, loop.removed, word,
                                            loop.variable))
    link.label = np.arange(len(letters))
    ends = np.array([[[(x.lo_float(), x.hi_float()) for x in row]
                      for row in label_matrix(labels, let)] for let in letters])

    class PerOccurrence:
        def label_bounds(self):
            return ends[..., 0], ends[..., 1]

    def scalar_rotation_stacks(boxes):
        return tuple(stack(balls) for balls in zip(*scalar_rotation_balls(ks.entries(boxes))))

    with monkeypatch.context() as mp:
        mp.setattr(gb, "_balls_of_bounds", scalar_balls_of_bounds)
        mp.setattr(gb, "rotation_balls", scalar_rotation_stacks)
        reference = gb.assemble_gimbal_jacobian(per_occurrence, PerOccurrence(), theta_boxes)
    assert _entries(memo) == _entries(reference)


@pytest.mark.parametrize("name", ["dodec27a", "scaling12"])
def test_stage_v_multiplies_at_most_two_rows_per_stack_row(name, dodec27a, monkeypatch):
    # the reduction multiplies each row into its block once, and only the
    # block products, one per polygon letter and segment, are scanned
    tri = dodec27a if name == "dodec27a" else _scaling_member(12, seed=7)
    loops, labels, theta_boxes = _gimbal_inputs(tri)
    rows = []
    ball_mul = gb.ball_mul

    def counting(a, b):
        assert all(x.flags.c_contiguous for x in a + b)
        rows.append(len(a[1]))
        return ball_mul(a, b)

    monkeypatch.setattr(gb, "ball_mul", counting)
    gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    # the stack: per loop, its letters before its last polygon letter and
    # after its first
    stack = 0
    for loop in loops:
        poly = np.flatnonzero(loop.word < 0)
        if len(poly):
            stack += poly[-1] + len(loop.word) - 1 - poly[0]
    assert stack > 0
    assert sum(rows) <= 2 * stack


# sha256 of stage V's Jacobian (rows of (lo, hi) endpoints as little-endian
# doubles) at each certified box, recorded when stage I began to take its
# loose edges from the gimbal table, which changed every box and every loop
DG_SHA256 = {
    "dodec27a": "21439fa8ea34ce2c940ed961ac2ff2449477c10d105c738c8e33370270b8a3ec",
    "dodec30x2": "e7f0c299915c10d646ff21c0bde5af987726294a0491dbb1dd3c97d64d57280b",
    "scaling12": "d94e349b943bccb4ab1953aa4ee440002518a50ad419e181b416d38e5a1822e0",
}


@pytest.mark.parametrize("name", list(DG_SHA256))
def test_gimbal_jacobian_bytes_pinned(name, hyperbolic_triangulations, verified_all,
                                      monkeypatch):
    if name == "scaling12":
        tri = _scaling_member(12, seed=7)
        result = verify.run_pipeline(tri)
        assert result.verified
    else:
        tri, result = hyperbolic_triangulations[name], verified_all[name]
    box, e_sim = result.box, result.partition.e_sim
    labels = gb.CocycleLabels(tri, geo.EdgeParams(box.nu, FLOAT_KERNEL), data=box.gram_data)
    loops = gb.build_loops_for_partition(tri, e_sim, links_of(tri))
    theta_boxes = box.theta[e_sim]

    # one cos and one sin of the variables' boxes, and no scalar interval
    with trig_calls(monkeypatch) as calls:
        dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    assert calls == {"cos": 1, "sin": 1}

    digest = hashlib.sha256()
    for row in ks.entries(dg):
        for x in row:
            digest.update(struct.pack("<dd", x.lo, x.hi))
    assert digest.hexdigest() == DG_SHA256[name]
