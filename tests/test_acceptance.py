"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Tolerances are fixed here; nothing is calibrated at runtime.
"""

import itertools
import math
import random
import time
import types

import numpy as np
import pytest

from hypcert import certificate as cert
from hypcert import geometry as geo
from hypcert import gimbal as gb
from hypcert import triangulation as tr
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    TWO_PI,
    FloatKernel,
    interval_matrix_invertible,
)
from tests.cocycle_closure import check_cocycle_closure
from tests.conftest import HYPERBOLIC_FIXTURES, S3_TEXT, data_path
from tests.kernel_scalars import array, entries
from tests.geometry_oracle import (
    cofactors,
    dihedral_angle,
    gram_matrix,
    simplex_data,
    vertex_angle,
)
from tests.ball_oracle import gimbal_function, per_ball
from tests.gimbal_oracle import polygon_angle_sum, prism_holonomy
from tests.link_slots import expand_link, link_of, loop_view


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_end_to_end_certification():
    """Every bundled closed hyperbolic fixture certifies, fast and tight."""
    details = []
    for name in HYPERBOLIC_FIXTURES:
        tri = tr.parse_file(data_path(name))
        assert 9 <= tri.n_tets <= 46
        t0 = time.perf_counter()
        result = verify.run_pipeline(tri, precision=53)
        elapsed = time.perf_counter() - t0
        assert result.verified, (name, result.statuses)
        assert elapsed < 60.0, (name, elapsed)
        box = result.box
        widths = FLOAT_KERNEL.width(box.nu)
        assert max(widths) < 1e-8, (name, max(widths))
        assert FLOAT_KERNEL.contains_two_pi(box.theta).all(), name
        details.append(f"{name} in {elapsed:.1f}s width {max(widths):.1e}")
    report(1, "; ".join(details))


def test_criterion_02_soundness_negatives():
    """The sphere fixture and perturbed inputs never verify."""
    s3 = tr.parse_file(data_path("s3_twotet.tri"))
    for seed in range(100):
        result = verify.run_pipeline(s3, seed=seed, solver_max_iters=40)
        assert not result.verified, seed
    tri = tr.parse_file(data_path("dodec27a.tri"))
    rng = random.Random(7)
    fail_steps = set()

    def realized(lengths):
        try:
            p = geo.EdgeParams.from_lengths(lengths)
            for t in range(tri.n_tets):
                simplex_data(tri, p, t)
            return True
        except geo.RealizationError:
            return False

    cases = [[float(l) + 0.5 for l in tri.lengths]]
    for eps in (1e-2, 1e-3, 1e-4):
        while True:
            pert = [float(l) + eps * rng.choice((-1, 1)) for l in tri.lengths]
            if realized(pert):
                cases.append(pert)
                break
    for pert in cases:
        result = verify.run_pipeline(tri, lengths=pert)
        assert not result.verified
        assert result.failed_step in (2, 4), result.failed_step
        fail_steps.add(result.failed_step)
    report(2, f"sphere fixture failed 100/100 seeded runs; perturbed inputs "
              f"failed at steps {sorted(fail_steps)}")


def _fd_column(tri, vals, i, h):
    """Central finite difference of all angle sums in one parameter, from
    the batched float `geometry.angle_sums`."""
    sums = {}
    for sign in (+1, -1):
        w = list(vals)
        w[i] += sign * h
        sums[sign] = geo.angle_sums(tri, geo.EdgeParams(w))
    return ((sums[1] - sums[-1]) / (2 * h)).tolist()


def _richardson_column(tri, vals, i, h):
    """(4 D(h/2) - D(h)) / 3 of central differences D: the h^2 truncation
    error cancels, which near a flat simplex is larger than 1e-5 at h = 1e-6."""
    half = _fd_column(tri, vals, i, h / 2)
    full = _fd_column(tri, vals, i, h)
    return [(4.0 * a - b) / 3.0 for a, b in zip(half, full)]


def _jacobian_fd_error(name, rng, samples=50, h=1e-6):
    """Worst relative error of `geometry.jacobian` against the Richardson
    finite differences, over `samples` random realized parameter sets."""
    tri = tr.parse_file(data_path(name))
    base = [float(l) for l in tri.lengths]
    worst = 0.0
    done = 0
    while done < samples:
        vals = [-math.cosh(l * (1 + 0.08 * rng.uniform(-1, 1))) for l in base]
        try:
            M = geo.jacobian(tri, geo.EdgeParams(vals))
        except geo.RealizationError:
            continue
        done += 1
        for i in range(tri.m):
            col = _richardson_column(tri, vals, i, h)
            for j in range(tri.m):
                err = abs(M[j][i] - col[j]) / max(1.0, abs(M[j][i]))
                worst = max(worst, err)
    return worst


def test_criterion_03_jacobian_matches_finite_differences():
    """50 random realized parameter sets per fixture, relative error 1e-5."""
    worst = 0.0
    for name in HYPERBOLIC_FIXTURES:
        # a str seed is hashed with sha512, not with the per-run str hash
        worst = max(worst, _jacobian_fd_error(name, random.Random(name)))
        assert worst < 1e-5, (name, worst)
    report(3, f"150 random realized parameter sets, worst relative error "
              f"{worst:.2e} < 1e-5")


def test_criterion_04_closed_form_regressions():
    """Regular-simplex angles against the general code path and limits."""
    s3 = tr.parse(S3_TEXT)
    rng = random.Random(123)
    for _ in range(100):
        v = -1.0 - rng.uniform(1e-4, 3.0)
        g = gram_matrix(s3, geo.EdgeParams([v] * 6), 0)
        c = cofactors(g)
        theta = dihedral_angle(g, c, 0, 1)
        eta = vertex_angle(g, 0, 1, 2)
        assert abs(theta - math.acos(-v / (1 - 2 * v))) < 1e-10
        assert abs(eta - math.acos(v / (v - 1))) < 1e-10
    v = -1.0001
    g = gram_matrix(s3, geo.EdgeParams([v] * 6), 0)
    c = cofactors(g)
    d_theta = abs(dihedral_angle(g, c, 0, 1) - math.acos(1 / 3))
    d_eta = abs(vertex_angle(g, 0, 1, 2) - math.pi / 3)
    assert d_theta < 1e-3 and d_eta < 1e-3
    report(4, f"100 random parameters to 1e-10; flat limits off by "
              f"{d_theta:.1e} and {d_eta:.1e}")


def test_criterion_05_cocycle_closure(hyperbolic_triangulations, verified_all):
    """Label products around every 2-cell enclose the identity."""
    cells = 0
    for name, tri in hyperbolic_triangulations.items():
        box = verified_all[name].box
        labels = gb.CocycleLabels(tri, geo.EdgeParams(box.nu, FLOAT_KERNEL))
        failures = check_cocycle_closure(tri, labels)
        assert failures == [], (name, failures[:3])
        cells += tri.n_tets * 14  # 4 small + 4 big hexagons + 6 rectangles
    report(5, f"{cells} two-cells closed over all fixtures")


def test_criterion_06_polygon_identities(hyperbolic_triangulations, verified_all):
    """Gimbal function vanishes at full turns and at the polygon angle
    sums; prism holonomies enclose the expected rotations."""
    checked_loops = holonomies = 0
    for name, tri in hyperbolic_triangulations.items():
        res = verified_all[name]
        box = res.box
        labels = gb.CocycleLabels(tri, geo.EdgeParams(box.nu, FLOAT_KERNEL))
        links = [expand_link(link_of(tri, k)) for k in range(tri.o)]
        for loop in res.box.loops:
            link, view = links[loop.vertex_class], loop_view(loop)
            turns = [TWO_PI] * len(res.partition.e_sim)
            g_turns = gimbal_function(loop, labels, turns)
            assert all(comp.contains(0.0) for comp in g_turns), name
            deltas = {}  # variable -> the angle sum of one of its polygons
            for pid in view.removed:
                deltas.setdefault(int(view.variable[pid]), polygon_angle_sum(labels, link, pid))
            g_delta = gimbal_function(loop, labels, deltas)
            assert all(comp.contains(0.0) for comp in g_delta), name
            checked_loops += 1
        for link in links:
            for end in link.prism_ends:
                H = prism_holonomy(labels, link, end.pid)
                # certified: every angle sum is a full turn, holonomy is Id
                for i in range(3):
                    for j in range(3):
                        assert H[i][j].contains(1.0 if i == j else 0.0), name
                holonomies += 1
    report(6, f"{checked_loops} loops vanish at full turns and polygon sums; "
              f"{holonomies} prism holonomies enclose the identity")


def test_criterion_07_pivoting_stability():
    """Full pivoting commutes with permutations and transposition."""
    rng = np.random.default_rng(2024)
    h = 12
    for trial in range(1000):
        M = rng.uniform(-10, 10, size=(20, 20))
        rows, cols = verify.select_submatrix(M, h)
        pr = rng.permutation(20)
        pc = rng.permutation(20)
        rows_p, cols_p = verify.select_submatrix(M[np.ix_(pr, pc)], h)
        inv_r = np.argsort(pr)
        inv_c = np.argsort(pc)
        assert sorted(inv_r[r] for r in rows) == rows_p, trial
        assert sorted(inv_c[c] for c in cols) == cols_p, trial
        rows_t, cols_t = verify.select_submatrix(M.T, h)
        assert rows_t == cols and cols_t == rows, trial
    report(7, "1000 random 20x20 matrices: permutation and transpose "
              "equivariance hold")


def test_criterion_08_interval_invertibility_soundness():
    """The invertibility test never certifies a planted singular member."""
    k = FloatKernel()
    assert interval_matrix_invertible(k.points(np.eye(3)))
    assert not interval_matrix_invertible(k.points(np.zeros((3, 3))))
    assert not interval_matrix_invertible(k.from_bounds(-np.ones((3, 3)), np.ones((3, 3))))
    rng = np.random.default_rng(99)
    certified_good = 0
    for trial in range(400):
        n = int(rng.integers(2, 7))
        u = rng.normal(size=(n, n - 1))
        v = rng.normal(size=(n - 1, n))
        m = u @ v
        pad = 10.0 ** rng.uniform(-15, -1)
        M = k.from_bounds(m - pad, m + pad)
        assert not interval_matrix_invertible(M), trial
        # sanity on the same draw made honestly invertible
        m2 = m + 3.0 * np.eye(n) * np.sign(np.linalg.det(m + 3 * np.eye(n)) or 1)
        M2 = k.from_bounds(m2 - 1e-12, m2 + 1e-12)
        if interval_matrix_invertible(M2):
            certified_good += 1
    assert certified_good > 350
    report(8, f"400 planted singular enclosures all rejected; "
              f"{certified_good} honest ones certified")


def test_criterion_09_gimbal_probe(dodec27a):
    """Exhaustive partition scan on a one-vertex fixture, plus the locked
    construction from two antipodal rotation axes."""
    params = geo.EdgeParams.from_lengths([float(l) for l in dodec27a.lengths])
    n_partitions = math.comb(dodec27a.m, 3 * dodec27a.o)
    rows = gb.probe_partitions(dodec27a, params, budget=n_partitions + 1)
    assert len(rows) == n_partitions
    avoiding = [r for r in rows if not r[2]]
    locked = [r for r in rows if r[2]]
    assert avoiding, "no lock-avoiding partition found"

    # the geodesic-style lock: a loop whose polygons sit at antipodal
    # points produces rotations about one common axis
    half_turn_x = np.diag([1.0, -1.0, -1.0])[None]

    class SyntheticLabels:
        def label_bounds(self):
            return half_turn_x, half_turn_x

    # every edge letter reads row 0, the half turn; P1 and P0 are -2, -1
    link = types.SimpleNamespace(label=np.zeros(2, dtype=np.intp))
    loop = gb.GimbalLoop(0, link, (0, 1), np.array([1, -2, 0, -1]), variable=np.arange(2))
    _, var, m = gb.gimbal_matrix_derivatives(
        [loop], SyntheticLabels(), gb.rotation_balls(FLOAT_KERNEL.two_pi()[[0, 0]])
    )
    derivs = dict(zip(var.tolist(), entries(per_ball(m))))
    D = np.array(
        [
            [derivs[v][r][c].mid() for v in (0, 1)]
            for (r, c) in ((0, 1), (0, 2), (1, 2))
        ]
    )
    smin = np.linalg.svd(D, compute_uv=False)[-1]
    assert smin < 1e-12
    dg2 = array(FLOAT_KERNEL, [[derivs[v][0][1] for v in (0, 1)],
                               [derivs[v][0][2] for v in (0, 1)]])
    assert not interval_matrix_invertible(dg2)
    report(9, f"exhaustive scan over {n_partitions} partitions: "
              f"{len(avoiding)} avoid lock, {len(locked)} locked; antipodal "
              f"construction flagged locked (sigma_min {smin:.1e})")


def test_criterion_10_krawczyk_unit_check():
    """The scalar square-root-of-two instance with the stated box."""
    k = FloatKernel()

    def f(xs):
        return xs * xs - 2.0

    def jac(xs):
        return (xs * 2.0)[None]

    X = k.from_bounds([1.41], [1.42])
    centre = verify.KrawczykCentre(f, [1.4142], [[0.35356]], k)
    K = verify.krawczyk_step(centre, jac, X)
    assert k.inside(K, X).all()
    assert 1.41418 <= K.lo[0] and K.hi[0] <= 1.41425
    report(10, f"K = [{K.lo[0]:.6f}, {K.hi[0]:.6f}] inside [1.41418, 1.41425] "
               f"inside the interior of [1.41, 1.42]")
