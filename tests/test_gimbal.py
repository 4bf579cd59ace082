import hashlib
import math
import pathlib
import random
import struct
import sys

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
from tests.ball_oracle import scalar_ball_from_interval_mat3, scalar_rotation_balls
from tests.cocycle_closure import check_cocycle_closure
from tests.gimbal_oracle import (
    beta_label,
    dihedral_cs,
    edge_end_directions,
    gamma_label,
    gimbal_function,
    gimbal_matrix,
    label_matrix,
    middle_edge_matrix,
    prism_holonomy,
    rotation_matrix,
)
from tests.conftest import S3_TEXT
from tests.matrix_oracle import mat3_mul


@pytest.fixture(scope="module")
def s3m():
    return tr.parse(S3_TEXT)


def random_realized_labels(t, rng, kernel=None):
    while True:
        vals = [-1.0 - rng.uniform(0.05, 2.0) for _ in range(t.m)]
        try:
            if kernel is None:
                return gb.CocycleLabels(t, vals), vals
            params = [kernel.point(v) for v in vals]
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
    link = tr.vertex_link_hexagon_complex(s3m, 0)
    for letter in link.hexagons[link.corners[0]]:
        if letter["kind"] != "b":
            continue
        B = beta_label(labels, letter["token"])
        BB = mat3_mul(B, B)
        for i in range(3):
            for j in range(3):
                assert BB[i][j].contains(1.0 if i == j else 0.0)


def test_gamma_reversal_inverts(s3m):
    rng = random.Random(10)
    labels, _ = random_realized_labels(s3m, rng)
    link = tr.vertex_link_hexagon_complex(s3m, 0)
    for letter in link.hexagons[link.corners[0]]:
        if letter["kind"] != "g":
            continue
        fwd = gamma_label(labels, letter["tet"], letter["s_start"])
        rev = gamma_label(labels, letter["tet"], letter["s_end"])
        P = mat3_mul(fwd, rev)
        for i in range(3):
            for j in range(3):
                assert abs(P[i][j] - (1.0 if i == j else 0.0)) < 1e-14


def test_identified_middle_edges_share_labels(dodec27a, verified27a):
    labels = gb.CocycleLabels(dodec27a, verified27a.box.nu)
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    # the two hexagons adjacent to a middle edge fetch one label slot, and
    # so one ball
    for token, (c1, c2) in list(link.beta_pairs.items())[:40]:
        sides = [let for c in (c1, c2) for let in link.hexagons[c]
                 if let["kind"] == "b" and let["token"] == token]
        assert len(sides) == 2
        assert labels._slot(sides[0]) == labels._slot(sides[1])
        assert labels.ball_for_letter(sides[0]) is labels.ball_for_letter(sides[1])


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

    orig = gb.CocycleLabels._slot

    def wrong_face_pair(self, letter):
        if letter["kind"] == "g":
            sigma = letter["s_start"]
            letter = dict(letter, s_start=(sigma[0], sigma[2], sigma[1], sigma[3]))
        return orig(self, letter)

    try:
        gb.CocycleLabels._slot = wrong_face_pair
        fails = check_cocycle_closure(s3m, labels)
    finally:
        gb.CocycleLabels._slot = orig
    assert fails


# -- prisms -------------------------------------------------------------------


def test_prism_holonomy_s3(s3m):
    k = FloatKernel()
    v = -2.0
    labels = gb.CocycleLabels(s3m, [k.point(v)] * 6)
    link = tr.vertex_link_hexagon_complex(s3m, 0)
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
    labels = gb.CocycleLabels(s3m, [k.point(-2.0)] * 6)
    link = tr.vertex_link_hexagon_complex(s3m, 0)
    end = link.prism_ends[0]
    solo = tr.PrismEnd(0, end.edge_class, end.gammas[:1], end.boundary_lvs)

    class L:
        prism_ends = [solo]

    H = prism_holonomy(labels, L, 0)
    tet, a, b = end.gammas[0]
    c, s = dihedral_cs(labels, tet, a, b)
    R = rotation_matrix(c, s, k.point(1.0), k.point(0.0))
    for i in range(3):
        for j in range(3):
            assert H[i][j].lo == R[i][j].lo and H[i][j].hi == R[i][j].hi


def test_prism_holonomy_certified_encloses_identity(dodec27a, verified27a):
    box = verified27a.box
    labels = gb.CocycleLabels(dodec27a, box.nu)
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    for end in link.prism_ends[:6]:
        H = prism_holonomy(labels, link, end.pid)
        for i in range(3):
            for j in range(3):
                assert H[i][j].contains(1.0 if i == j else 0.0)


# -- gimbal loops --------------------------------------------------------------


def test_loop_builder_and_validator(hyperbolic_triangulations):
    for t in hyperbolic_triangulations.values():
        for k in range(t.o):
            link = tr.vertex_link_hexagon_complex(t, k)
            n_ends = len(link.prism_ends)
            picks = [[0], [n_ends - 1], [0, 1, 2]]
            for removed in picks:
                loop = gb.build_gimbal_loop(link, removed)
                assert gb.validate_gimbal_loop(loop)
                p_letters = [l for l in loop.word if l["kind"] == "P"]
                assert sorted(l["pid"] for l in p_letters) == sorted(removed)
                used = {l["owner"] for l in loop.word if l["kind"] != "P"}
                assert len(loop.word) <= 6 * len(used) + len(removed)


def test_loop_validator_rejects_tampering(dodec27a):
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    loop = gb.build_gimbal_loop(link, [0, 1])
    # drop a polygon letter
    bad = gb.GimbalLoop(
        loop.vertex_class,
        link,
        loop.removed,
        [l for l in loop.word if not (l["kind"] == "P" and l["pid"] == 0)],
    )
    with pytest.raises(gb.GimbalLoopError):
        gb.validate_gimbal_loop(bad)
    # scramble the word order
    bad2 = gb.GimbalLoop(
        loop.vertex_class, link, loop.removed, loop.word[::-1]
    )
    with pytest.raises(gb.GimbalLoopError):
        gb.validate_gimbal_loop(bad2)


def test_loop_missing_polygon_error(dodec27a):
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    with pytest.raises(gb.GimbalLoopError):
        gb.build_gimbal_loop(link, [len(link.prism_ends)])


# -- gimbal function and its derivative ----------------------------------------


def _point_labels(tri, values):
    """Labels over point intervals: interval labels whose ball midpoints
    are (nearly) the float labels at `values`."""
    return gb.CocycleLabels(tri, [FLOAT_KERNEL.point(v) for v in values])


def test_gimbal_derivative_finite_differences(dodec27a):
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    labels = _point_labels(dodec27a, p0)
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    loop = gb.build_gimbal_loop(link, [0, 3, 5])
    loop.variable_of_pid = {0: 0, 3: 1, 5: 2}
    t0 = {0: 6.2, 3: 6.4, 5: 6.0}

    def at(angles):
        return gb.rotation_balls([FLOAT_KERNEL.point(angles[pid]) for pid in (0, 3, 5)])

    der = gb.gimbal_matrix_derivatives(loop, labels, at(t0))
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
    labels = gb.CocycleLabels(dodec30x2, box.nu)
    links = [tr.vertex_link_hexagon_complex(dodec30x2, k) for k in range(2)]
    loops = gb.build_loops_for_partition(dodec30x2, part.e_sim, links=links)
    theta_boxes = [box.theta[e] for e in part.e_sim]
    dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    # some loose edge misses some vertex: its column block there is zero
    zero_blocks = 0
    for li, loop in enumerate(loops):
        present = set(loop.variable_of_pid.values())
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
    links = [tr.vertex_link_hexagon_complex(dodec27a, 0)]
    loops = gb.build_loops_for_partition(dodec27a, part.e_sim, links=links)
    loop = loops[0]
    dirs = edge_end_directions(dodec27a, geo.EdgeParams(list(p0)))
    t2 = gb.rotation_balls([TWO_PI] * len(part.e_sim))
    der = gb.gimbal_matrix_derivatives(loop, labels, t2)
    ends_of_var = {}
    for pid, var in loop.variable_of_pid.items():
        ends_of_var.setdefault(var, []).append(pid)
    for var, pids in ends_of_var.items():
        abar = np.sum([dirs[p] for p in pids], axis=0)
        col = np.array([der[var][r][c].mid() for r, c in ((0, 1), (0, 2), (1, 2))])
        want = np.array([-abar[2], abar[1], -abar[0]])
        assert np.allclose(col, want, atol=1e-8)


@pytest.mark.parametrize("name", ["dodec27a", "dodec27b", "dodec30x2"])
def test_edge_direction_table(name, hyperbolic_triangulations, verified_all):
    # the table is the oracle's direction sums, column by column, and its
    # columns e_sim are stage V's Jacobian at full turns for that partition
    tri = hyperbolic_triangulations[name]
    params = geo.EdgeParams.from_lengths([float(l) for l in tri.lengths])
    links = [tr.vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
    table = gb.edge_direction_table(tri, gb.CocycleLabels(tri, list(params.values)), links)
    assert table.shape == (3 * tri.o, tri.m)
    for k, link in enumerate(links):
        dirs = edge_end_directions(tri, params, k, links)
        want = np.zeros((3, tri.m))
        for end in link.prism_ends:
            d = dirs[end.pid]
            want[:, end.edge_class] += (-d[2], d[1], -d[0])
        assert np.allclose(table[3 * k:3 * k + 3], want, rtol=0.0, atol=1e-12)

    labels = _point_labels(tri, params.values)
    partitions = [verified_all[name].partition.e_sim]
    if name == "dodec27a":
        rng = random.Random(13)
        partitions += [sorted(rng.sample(range(tri.m), 3)) for _ in range(20)]
    for e_sim in partitions:
        loops = gb.build_loops_for_partition(tri, e_sim, links=links)
        dg = gb.assemble_gimbal_jacobian(loops, labels, [TWO_PI] * len(e_sim))
        lo, hi = FLOAT_KERNEL.bounds(dg)
        assert np.allclose(table[:, e_sim], 0.5 * (lo + hi), rtol=0.0, atol=1e-12), e_sim


# -- lock check ----------------------------------------------------------------


def test_lock_check_avoided_on_fixture(dodec27a, verified27a):
    res = verified27a
    assert res.statuses[5].startswith("interval Jacobian invertible")
    assert res.box.loops


def test_gimbal_function_zero_at_full_turns(dodec27a, verified27a):
    box = verified27a.box
    labels = gb.CocycleLabels(dodec27a, box.nu)
    rotations = gb.rotation_balls([TWO_PI] * len(verified27a.partition.e_sim))
    for loop in box.loops:
        g0 = gimbal_function(loop, labels, rotations)
        for comp in g0:
            assert comp.contains(0.0)


class _SyntheticLabels:
    """Labels for a hand-made loop: every edge letter looks up a fixed
    float-interval matrix by token."""

    def __init__(self, mats):
        self.mats = mats

    def ball_for_letter(self, letter):
        return gb.ball_from_interval_mat3(self.mats[letter["token"]])


def _synthetic_loop(removed_pids, word):
    loop = gb.GimbalLoop(0, None, tuple(removed_pids), word)
    loop.variable_of_pid = {pid: i for i, pid in enumerate(removed_pids)}
    return loop


def _const_mat3(kernel, rows):
    return tuple(tuple(kernel.point(x) for x in row) for row in rows)


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
    word = [
        {"kind": "edge", "token": "pi_inv"},
        {"kind": "P", "pid": 1},
        {"kind": "edge", "token": "pi"},
        {"kind": "P", "pid": 0},
    ]
    loop = _synthetic_loop([0, 1], word)
    boxes = [TWO_PI, TWO_PI]
    derivs = gb.gimbal_matrix_derivatives(loop, labels, gb.rotation_balls(boxes))
    D = np.zeros((2, 3))
    for var, mat in derivs.items():
        D[var] = [mat[0][1].mid(), mat[0][2].mid(), mat[1][2].mid()]
    svals = np.linalg.svd(D, compute_uv=False)
    assert svals[-1] < 1e-12  # columns are opposite: kernel direction (1,1)

    rows = [
        [derivs[v][r][c] if v in derivs else k.point(0.0) for v in range(2)]
        for (r, c) in ((0, 1), (0, 2), (1, 2))
    ]
    dg = FLOAT_KERNEL.array([row[:2] for row in rows[:2]])
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
    word = [
        {"kind": "edge", "token": "pi_inv"},
        {"kind": "P", "pid": 1},
        {"kind": "edge", "token": "pi"},
        {"kind": "P", "pid": 0},
    ]
    loop = _synthetic_loop([0, 1], word)
    derivs = gb.gimbal_matrix_derivatives(loop, labels, gb.rotation_balls([TWO_PI, TWO_PI]))
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
            row.append(kernel.interval(c - w, c + w))
        rows.append(tuple(row))
    return tuple(rows)


def _member(rng, m):
    return [[rng.uniform(m[i][j].lo, m[i][j].hi) for j in range(3)] for i in range(3)]


def test_ball_product_encloses_member_products():
    # the midpoint/spectral-radius representation must contain every
    # product of member matrices, including for long words
    k = FloatKernel()
    rng = random.Random(77)
    for scale in (1.0, 0.3):
        mats = [_random_interval_mat3(rng, k, scale=scale) for _ in range(40)]
        ball = gb.ball_identity()
        exact = np.eye(3)
        for m in mats:
            ball = gb.ball_mul(gb.ball_from_interval_mat3(m), ball)
            exact = np.array(_member(rng, m)) @ exact
        enc = gb.ball_entries(ball, k)
        for i in range(3):
            for j in range(3):
                assert enc[i][j].contains(exact[i][j]), (i, j)


def test_ball_radius_additive_for_rotations():
    # rotation words keep the radius near the sum of the input radii
    # instead of blowing up exponentially
    k = FloatKernel()
    rng = random.Random(5)
    n, w = 300, 1e-12
    ball = gb.ball_identity()
    for _ in range(n):
        ang = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(ang), math.sin(ang)
        m = tuple(
            tuple(k.interval(x - w, x + w) for x in row)
            for row in ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))
        )
        ball = gb.ball_mul(gb.ball_from_interval_mat3(m), ball)
    assert ball.rad < 100 * n * w


def test_ball_add_soundness():
    k = FloatKernel()
    rng = random.Random(13)
    a = _random_interval_mat3(rng, k, width=1e-6)
    b = _random_interval_mat3(rng, k, width=1e-6)
    ball = gb.ball_add(gb.ball_from_interval_mat3(a), gb.ball_from_interval_mat3(b))
    enc = gb.ball_entries(ball, k)
    sa = np.array(_member(rng, a)) + np.array(_member(rng, b))
    for i in range(3):
        for j in range(3):
            assert enc[i][j].contains(sa[i][j])


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
    demos = pathlib.Path(__file__).resolve().parent.parent / "demos"
    dps = mpmath.mp.dps
    sys.path.insert(0, str(demos))
    try:
        import build_fixtures as bf  # its import sets mpmath's precision
    finally:
        sys.path.remove(str(demos))
        mpmath.mp.dps = dps
    with mpmath.workdps(60):
        tets_mv, gluings, pts = bf.build_cone_complex(0)
        hpts = bf.hyperboloid_points(pts, bf.circumradius())
        order = list(range(len(tets_mv)))
        if seed is not None:
            random.Random(seed).shuffle(order)
        for t in order[:moves]:
            tets_mv, gluings, hpts = bf.one_four_move(tets_mv, gluings, hpts, t)
        text = bf.triangulation_text(gluings)
        lengths = bf.lengths_for(tr.parse(text), tets_mv, hpts)
    return tr.parse(text + "lengths:\n" + " ".join(lengths) + "\n")


def _gimbal_inputs(tri):
    """Labels over point intervals at the given lengths, the stage-I loose
    edges, their loops and their angle-sum enclosures."""
    k = FloatKernel()
    p0 = [-math.cosh(float(l)) for l in tri.lengths]
    M = geo.jacobian(tri, geo.EdgeParams(p0))
    rows, cols = verify.select_submatrix(M, tri.m - 3 * tri.o)
    part = verify.make_partition(tri, rows, cols)
    params = geo.EdgeParams([k.point(v) for v in p0])
    labels = gb.CocycleLabels(tri, params)
    sums = geo.angle_sums(tri, params, data=labels.data)
    loops = gb.build_loops_for_partition(tri, part.e_sim)
    return loops, labels, [sums[e] for e in part.e_sim]


def _entries(dg):
    return [(x.lo.hex(), x.hi.hex()) for row in dg.tolist() for x in row]


@pytest.mark.parametrize("name", ["dodec27a", "scaling12"])
def test_gimbal_jacobian_memo_changes_no_bit(name, dodec27a, monkeypatch):
    tri = dodec27a if name == "dodec27a" else _scaling_member(12)
    loops, labels, theta_boxes = _gimbal_inputs(tri)

    # a normal run: each label and rotation ball comes from a table with
    # its norm bound; every other ball multiplied gets its norm bound once
    norms, operands, looked_up, rotated = [], {}, {}, {}
    norm_bound, ball_mul = gb._norm_bound, gb.ball_mul
    ball_for_letter, rotation_balls = gb.CocycleLabels.ball_for_letter, gb.rotation_balls

    def counting_norm(m):
        norms.append(m)
        return norm_bound(m)

    def recording_mul(a, b):
        operands[id(a)], operands[id(b)] = a, b
        return ball_mul(a, b)

    def recording_lookup(lab, letter):
        ball = ball_for_letter(lab, letter)
        looked_up[id(ball)] = ball
        return ball

    def recording_rotations(boxes):
        pairs = rotation_balls(boxes)
        rotated.update((id(ball), ball) for pair in pairs for ball in pair)
        return pairs

    with monkeypatch.context() as mp:
        mp.setattr(gb, "_norm_bound", counting_norm)
        mp.setattr(gb, "ball_mul", recording_mul)
        mp.setattr(gb.CocycleLabels, "ball_for_letter", recording_lookup)
        mp.setattr(gb, "rotation_balls", recording_rotations)
        memo = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    assert looked_up and looked_up.keys() <= operands.keys()
    from_tables = looked_up.keys() | (rotated.keys() & operands.keys())
    assert len(rotated.keys() & operands.keys()) >= len(set(theta_boxes))
    assert len(norms) == len(operands) - len(from_tables)  # none twice

    # reference: a new ball per letter occurrence, enclosing the label from
    # the scalar formulas one entry at a time, rotation balls made one entry
    # at a time too, and norm bounds recomputed at every product
    made = []

    def oracle_ball(lab, letter):
        made.append(letter)
        return scalar_ball_from_interval_mat3(label_matrix(lab, letter))

    with monkeypatch.context() as mp:
        mp.setattr(gb.BallMatrix3, "norm_bound",
                   lambda ball: gb._norm_bound(ball.mid))
        mp.setattr(gb.CocycleLabels, "ball_for_letter", oracle_ball)
        mp.setattr(gb, "rotation_balls", scalar_rotation_balls)
        reference = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    # the reference went through the seam: once per edge letter
    assert len(made) == sum(let["kind"] != "P" for loop in loops for let in loop.word)
    assert _entries(memo) == _entries(reference)


# sha256 of stage V's Jacobian (rows of (lo, hi) endpoints as little-endian
# doubles) at each certified box, recorded before the rotations of a
# Jacobian were shared between its letters
DG_SHA256 = {
    "dodec27a": "b786b2836b22d166f7532e1dabd31f843346d9d48a056e45ce20b78e47021d06",
    "dodec30x2": "e2215b85e2e6afe901e6a8b6b01165d2f02568fc999d7dbb447db6f33607af9f",
    "scaling12": "1dc340a82db3f2f266bf783008c5bc4a4653a78272db0311b23c471a577b3b36",
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
    labels = gb.CocycleLabels(tri, box.nu, data=box.gram_data)
    loops = gb.build_loops_for_partition(tri, e_sim)
    theta_boxes = [box.theta[e] for e in e_sim]

    # one cos and one sin per distinct variable box, shared by its letters
    calls = []
    cos_like = Interval._cos_like

    def counting(x, *args):
        calls.append(x)
        return cos_like(x, *args)

    with monkeypatch.context() as mp:
        mp.setattr(Interval, "_cos_like", counting)
        dg = gb.assemble_gimbal_jacobian(loops, labels, theta_boxes)
    assert len(calls) == 2 * len(set(theta_boxes))

    digest = hashlib.sha256()
    for row in dg.tolist():
        for x in row:
            digest.update(struct.pack("<dd", x.lo, x.hi))
    assert digest.hexdigest() == DG_SHA256[name]
