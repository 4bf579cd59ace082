import hashlib
import math
import random

import mpmath
import numpy as np
import pytest

from hypcert import certificate, cli
from hypcert import geometry as geo
from hypcert import gimbal
from hypcert import triangulation as tr
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    REAL_KERNEL,
    FloatKernel,
    MPInterval,
    MPKernel,
    kernel_for_precision,
)
from hypcert.triangulation import parse_file
from tests import krawczyk_oracle
from tests.conftest import data_path, links_of, stage_one
from tests.geometry_oracle import point_like
from tests.matrix_oracle import assert_encloses_exact, select_submatrix_full_update
from tests.test_gimbal import _scaling_member, resubdivided_text
from tests import kernel_scalars as ks


# -- step I: pivot selection --------------------------------------------------


def test_select_submatrix_examples():
    rows, cols = verify.select_submatrix([[0, 0, 0], [0, 5, 0], [0, 0, 0]], 1)
    assert rows == [1] and cols == [1]
    rows, cols = verify.select_submatrix([[1, 2], [2, 4]], 1)
    assert rows == [1] and cols == [1]


def test_select_submatrix_zero_pivot():
    with pytest.raises(verify.RankDeficiency):
        verify.select_submatrix([[1, 2], [2, 4]], 2)
    with pytest.raises(verify.RankDeficiency):
        verify.select_submatrix([[1.0]], 2)


def test_select_submatrix_permutation_equivariance():
    rng = np.random.default_rng(42)
    for _ in range(50):
        M = rng.uniform(-5, 5, size=(8, 8))
        h = 5
        rows, cols = verify.select_submatrix(M, h)
        pr = rng.permutation(8)
        pc = rng.permutation(8)
        M2 = M[np.ix_(pr, pc)]
        rows2, cols2 = verify.select_submatrix(M2, h)
        # row r of M appears as row pr.index(r) of M2
        inv_r = np.argsort(pr)
        inv_c = np.argsort(pc)
        assert sorted(inv_r[r] for r in rows) == rows2
        assert sorted(inv_c[c] for c in cols) == cols2


def test_select_submatrix_transpose_swaps():
    rng = np.random.default_rng(43)
    for _ in range(50):
        M = rng.uniform(-5, 5, size=(7, 7))
        rows, cols = verify.select_submatrix(M, 4)
        rows_t, cols_t = verify.select_submatrix(M.T, 4)
        assert rows == cols_t and cols == rows_t


def test_select_submatrix_matches_full_update_with_ties():
    # the trailing-only update picks the full update's pivots, ties
    # included: small integer entries tie often
    rng = np.random.default_rng(44)
    for _ in range(300):
        n_rows, n_cols = (int(x) for x in rng.integers(1, 9, size=2))
        M = rng.integers(-2, 3, size=(n_rows, n_cols)).astype(float)
        h = int(rng.integers(0, min(n_rows, n_cols) + 1))
        try:
            want = select_submatrix_full_update(M, h)
        except ValueError:
            with pytest.raises(verify.RankDeficiency):
                verify.select_submatrix(M, h)
        else:
            assert verify.select_submatrix(M, h) == want


def _jacobian_and_table(tri):
    """The float Jacobian M = dTheta/dnu and the gimbal table T at the
    input's lengths."""
    params, data, _ = verify._evaluate(tri, [-math.cosh(float(l)) for l in tri.lengths])
    labels = gimbal.CocycleLabels(tri, params, data=data)
    table = gimbal.edge_direction_table(tri, labels, links_of(tri))
    return geo.jacobian(tri, params, data=data), table


@pytest.mark.parametrize("name", ["dodec27a", "dodec27b", "dodec30x2"])
def test_select_submatrix_matches_full_update_on_fixtures(name, hyperbolic_triangulations):
    tri = hyperbolic_triangulations[name]
    M, T = _jacobian_and_table(tri)
    for A, h in ((M, tri.m - 3 * tri.o), (T, 3 * tri.o)):
        assert verify.select_submatrix(A, h) == select_submatrix_full_update(A, h)


# -- step I: the redundancy theorem at the float point ------------------------


@pytest.mark.parametrize("name", ["dodec27a", "dodec27b", "dodec30x2"])
def test_table_annihilates_the_symmetric_length_jacobian(name, hyperbolic_triangulations):
    # T M = 0, and J_l = M diag(dnu/dl), dnu/dl = -sinh l, is symmetric
    tri = hyperbolic_triangulations[name]
    M, T = _jacobian_and_table(tri)
    norm = np.linalg.norm
    assert norm(T @ M) <= 1e-14 * norm(T) * norm(M)
    J = M * -np.sinh(np.array([float(l) for l in tri.lengths]))
    assert norm(J - J.T) <= 1e-13 * norm(J)


@pytest.mark.parametrize("name, budget", [("dodec27a", None), ("dodec27b", None),
                                          ("dodec30x2", 4000)])
def test_locked_exactly_when_the_kept_block_is_singular(name, budget,
                                                         hyperbolic_triangulations):
    # every loose set R the probe reads as locked (T[:, R] singular) leaves a
    # singular kept block M[K, K], and every other one an invertible block;
    # sigma_min / sigma_max of the locked ones' blocks is at most 6e-16, of
    # the others at least 5e-5
    tri = hyperbolic_triangulations[name]
    M, _ = _jacobian_and_table(tri)
    params = geo.EdgeParams([-math.cosh(float(l)) for l in tri.lengths])
    budget = budget or math.comb(tri.m, 3 * tri.o)
    rows = gimbal.probe_partitions(tri, params, budget=budget)
    assert len(rows) == budget
    for loose, _, locked in rows:
        kept = sorted(set(range(tri.m)) - set(loose))
        sv = np.linalg.svd(M[np.ix_(kept, kept)], compute_uv=False)
        assert locked == (sv[-1] / sv[0] < 1e-10), (loose, sv[-1] / sv[0])
    assert 0 < sum(locked for _, _, locked in rows) < len(rows)


def test_locked_table_fails_step_one(dodec27a, monkeypatch, capsys):
    # a table of rank below 3o leaves no lock-free loose set: step 1 fails,
    # the certificate says so, and `certify` exits 2
    monkeypatch.setattr(gimbal, "edge_direction_table",
                        lambda tri, labels, links: np.zeros((3 * tri.o, tri.m)))
    res = verify.run_pipeline(dodec27a)
    assert not res.verified and res.failed_step == 1
    assert res.statuses[1].startswith("failed: gimbal lock at the candidate")
    doc = certificate.certificate_dict(dodec27a, res, "krawczyk")
    assert doc["status"] == "FAILED" and doc["failed_step"] == 1
    assert cli.main(["certify", str(data_path("dodec27a.tri"))]) == cli.EXIT_UNVERIFIED
    assert "(step 1: failed: gimbal lock at the candidate" in capsys.readouterr().err


def test_one_run_builds_each_link_once_and_one_kept_block(monkeypatch):
    # the links record stage I asks for serves stage V, and is built once;
    # stage I's float Jacobian is the kept block only, whose plan stage II's
    # interval Jacobians reuse
    tri = parse_file(data_path("dodec30x2.tri"))  # a fresh parse: no plans yet
    asked, built, blocks = [], [], []
    link, build, jacobian = tr.vertex_link_hexagon_complex, tr._build_links, geo.jacobian

    def spy_link(tri):
        asked.append(tri)
        return link(tri)

    def spy_build(tri):
        built.append(tri)
        return build(tri)

    def spy_jacobian(tri, params, data=None, rows=None, cols=None):
        blocks.append((params.kernel, rows, cols))
        return jacobian(tri, params, data=data, rows=rows, cols=cols)

    for module in (verify, gimbal, certificate):
        monkeypatch.setattr(module, "vertex_link_hexagon_complex", spy_link)
    monkeypatch.setattr(tr, "_build_links", spy_build)
    monkeypatch.setattr(geo, "jacobian", spy_jacobian)
    res = verify.run_pipeline(tri)
    assert res.verified
    assert asked == built == [tri] and tri.o == 2
    kept = res.partition.e_eq
    assert [(r, c) for k, r, c in blocks if k is REAL_KERNEL] == [(kept, kept)]
    assert all(r == c == kept for _, r, c in blocks)
    assert list(tri.geometry_plan.blocks) == [(tuple(kept), tuple(kept))]


@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2"])
def test_stage_one_partition_sizes(name, hyperbolic_triangulations):
    # 3o loose edges, the rest kept, both sorted; the variable parameters
    # are the kept edges, and the kept block is square
    tri = hyperbolic_triangulations[name]
    m, o = tri.m, tri.o
    _, _, part, jsub = stage_one(tri)
    part.check(m, o)
    assert len(part.e_sim) == 3 * o
    assert part.e_sim == sorted(part.e_sim) and part.e_eq == sorted(part.e_eq)
    assert part.e_eq == sorted(set(range(m)) - set(part.e_sim))
    assert part.e_var is part.e_eq
    assert jsub.shape == (m - 3 * o, m - 3 * o)


def test_pivot_partition_gives_invertible_subsystem(dodec27a):
    # the table's loose edges leave a well-conditioned kept block
    _, _, part, jsub = stage_one(dodec27a)
    assert np.linalg.cond(jsub) < 1e8


# -- step II: the Krawczyk operator ------------------------------------------


def _on_arrays(kernel, f, jac):
    """f and its Jacobian, written on lists of scalars, in the protocol of
    `KrawczykCentre` and `krawczyk_step`: kernel arrays in and out, the
    Jacobian on 53-bit arrays."""
    return (lambda v: ks.array(kernel, f(ks.entries(v))),
            lambda v: ks.array(FLOAT_KERNEL, jac(ks.entries(v))))


def test_krawczyk_scalar_instance():
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
    assert k.contains(K, math.sqrt(2.0)).all()


def test_krawczyk_synthetic_system_contains_true_root():
    # f = (x^2 + y^2 - 4, x*y - 1); root near (1.93, 0.517)
    k = FloatKernel()

    def f(xs):
        x, y = xs
        return [x * x + y * y - 4.0, x * y - 1.0]

    def jac(xs):
        x, y = xs
        return [[x * 2.0, y * 2.0], [y, x]]

    f, jac = _on_arrays(k, f, jac)

    mpmath.mp.prec = 120
    gx, gy = mpmath.mpf("1.9"), mpmath.mpf("0.5")
    for _ in range(80):
        fx = [gx * gx + gy * gy - 4, gx * gy - 1]
        J = mpmath.matrix([[2 * gx, 2 * gy], [gy, gx]])
        d = mpmath.lu_solve(J, mpmath.matrix(fx))
        gx, gy = gx - d[0], gy - d[1]
    x0 = [float(gx), float(gy)]
    C = np.linalg.inv(np.array([[2 * x0[0], 2 * x0[1]], [x0[1], x0[0]]]))
    enc = verify._certify_root(f, jac, x0, C.tolist(), k, 1e-15)
    assert enc is not None
    assert mpmath.mpf(enc.lo[0]) <= gx <= mpmath.mpf(enc.hi[0])
    assert mpmath.mpf(enc.lo[1]) <= gy <= mpmath.mpf(enc.hi[1])


def test_krawczyk_scalar_mp_kernel():
    k = MPKernel(100)

    def f(xs):
        return xs * xs - 2.0

    def jac(xs):
        return (xs * 2.0)[None]

    enc = verify._certify_root(f, jac, [1.41421356237], [[0.35355339]], k, 1e-11)
    assert enc is not None
    mpmath.mp.prec = 150
    assert mpmath.mpf(enc[0].lo_float()) <= mpmath.sqrt(2) <= mpmath.mpf(enc[0].hi_float())


# -- bootstrap ----------------------------------------------------------------


def test_bootstrap_fixture_residual(dodec27a):
    init = [-math.cosh(float(l)) for l in dodec27a.lengths]
    values, resid = verify.bootstrap_solve(dodec27a, init=init)
    assert resid < 1e-9


def test_bootstrap_exact_init_fixed_point(dodec27a):
    init = [-math.cosh(float(l)) for l in dodec27a.lengths]
    values, resid = verify.bootstrap_solve(dodec27a, init=init)
    for a, b in zip(values, init):
        assert abs(a - b) < 1e-12


def test_bootstrap_s3_fails(s3):
    with pytest.raises(verify.SolveFailure):
        verify.bootstrap_solve(s3, init=[-2.0] * 6, max_iters=60)


def test_bootstrap_evaluates_each_point_once(monkeypatch):
    # s3's solve fails: every line-search candidate is one simplex_data
    # call, and the Jacobian at the current point reuses its data
    points = []
    simplex_data = geo.simplex_data

    def spy(tri, params):
        points.append(tuple(params.values.tolist()))
        return simplex_data(tri, params)

    monkeypatch.setattr(geo, "simplex_data", spy)
    tri = parse_file(data_path("s3_twotet.tri"))
    with pytest.raises(verify.SolveFailure) as info:
        verify.bootstrap_solve(tri)
    assert str(info.value) == "no convergence: residual 3.903e+00 >= 1.0e-09"
    assert len(points) > 1
    assert len(set(points)) == len(points)


# -- steps III/IV and the pipeline -------------------------------------------


def test_s3_step_four_fails(s3):
    k = FloatKernel()
    part = verify.Partition(e_sim=list(range(6)), e_eq=[])
    box = verify.CertifiedBox(
        nu=k.points([-2.0] * 6),
        theta=None,
        partition=part,
        precision=53,
    )
    with pytest.raises(verify.StepFailure) as err:
        verify.check_realization_and_angles(s3, box)
    assert err.value.step == 4


def test_widened_box_conservative(dodec27a, verified27a):
    # inflating the certified box a million-fold may only flip checks
    # from pass to fail, never crash or upgrade
    k = FloatKernel()
    box0 = verified27a.box
    wide = []
    for x in ks.entries(box0.nu):
        c = x.mid()
        w = max(x.width(), 1e-14) * 1e6
        wide.append(ks.interval(k, c - w, c + w))
    box = verify.CertifiedBox(
        nu=ks.array(k, wide), theta=None, partition=box0.partition, precision=53
    )
    try:
        verify.check_realization_and_angles(dodec27a, box)
    except verify.StepFailure as exc:
        assert exc.step in (3, 4)


def test_pipeline_verifies_fixture(verified27a):
    res = verified27a
    assert res.verified and res.failed_step == 0
    assert all(k in res.statuses for k in (1, 2, 3, 4, 5))
    box, k = res.box, FLOAT_KERNEL
    assert np.isfinite(k.bounds(box.nu)).all()
    assert k.width(box.nu).max() < 1e-8
    assert k.contains_two_pi(box.theta).all()
    assert k.width(box.theta[box.partition.e_sim]).max() < 1e-6


def test_pipeline_point_intervals_on_fixed(verified27a):
    # the fixed parameters are the loose edges
    box = verified27a.box
    assert (FLOAT_KERNEL.width(box.nu[box.partition.e_sim]) == 0.0).all()


def test_pipeline_perturbed_fails_step_two(dodec27a):
    pert = [float(l) + 0.5 for l in dodec27a.lengths]
    res = verify.run_pipeline(dodec27a, lengths=pert)
    assert not res.verified
    assert res.failed_step == 2
    assert res.box is None


def test_pipeline_small_perturbation_never_verifies(dodec27a):
    pert = [float(l) + 2e-4 for l in dodec27a.lengths]
    res = verify.run_pipeline(dodec27a, lengths=pert)
    assert not res.verified
    assert res.failed_step in (2, 4)


def test_pipeline_s3_fails(s3):
    res = verify.run_pipeline(s3, lengths=[1.0] * 6)
    assert not res.verified
    assert res.failed_step == 1
    assert res.box is None


def test_pipeline_mp_precision(dodec27a):
    res = verify.run_pipeline(dodec27a, precision=80)
    assert res.verified
    assert MPKernel(80).width(res.box.nu).max() < 1e-16


def test_no_certificate_after_failure(dodec27a):
    pert = [float(l) + 0.3 for l in dodec27a.lengths]
    res = verify.run_pipeline(dodec27a, lengths=pert)
    assert not res.verified
    # a failed run never carries a completed box with loops
    assert res.box is None or res.box.loops is None


def test_partition_check_raises_on_bad_input():
    good = verify.Partition(e_sim=[0, 1, 2], e_eq=[3])
    good.check(4, 1)
    for bad in (
        verify.Partition(e_sim=[0, 1, 2], e_eq=[2]),
        verify.Partition(e_sim=[0, 1, 2], e_eq=[3, 4]),
        verify.Partition(e_sim=[0, 1], e_eq=[2, 3]),
    ):
        with pytest.raises(ValueError):
            bad.check(4, 1)


def _partial_by_loops(f_iv, x0, C, kernel):
    # the centre term x0 - sum_j C[:, j] f(x0)[j], one scalar at a time
    x0_iv = [ks.point(kernel, v) for v in x0]
    fx0 = ks.entries(f_iv(ks.array(kernel, x0_iv)))
    partial = []
    for i in range(len(x0)):
        acc = x0_iv[i]
        for j in range(len(x0)):
            acc = acc - ks.point(kernel, C[i][j]) * fx0[j]
        partial.append(acc)
    return partial


def _krawczyk_by_loops(f_iv, jac_iv, x0, X, C, kernel):
    # the operator written out entry by entry, summing j ascending; the
    # Jacobian term on 53-bit intervals (J on the outward float hull of X,
    # X - x0 hulled outward), each of its terms lifted exactly into the
    # kernel.  The one product C J(X) is `FloatKernel.mat_mul`'s, checked
    # to enclose the exact product
    n = len(x0)
    f64 = FloatKernel()

    def hull(x):
        return ks.interval(f64, x.lo_float(), x.hi_float())

    x0_iv = [ks.point(kernel, v) for v in x0]
    X = ks.entries(X)
    JX = ks.entries(jac_iv(ks.array(f64, [hull(x) for x in X])))
    dX = [hull(x - p) for x, p in zip(X, x0_iv)]
    C_iv = f64.points(np.asarray(C, dtype=float))
    CJ = ks.entries(f64.mat_mul(C_iv, ks.array(f64, JX)))
    assert_encloses_exact(CJ, ks.entries(C_iv), JX)
    K = []
    for i, acc in enumerate(_partial_by_loops(f_iv, x0, C, kernel)):
        for j in range(n):
            term = (ks.point(f64, 1.0 if i == j else 0.0) - CJ[i][j]) * dX[j]
            acc = acc + ks.interval(kernel, term.lo, term.hi)
        K.append(acc)
    return K


@pytest.mark.parametrize("kernel", [FloatKernel(), MPKernel(80)])
def test_krawczyk_step_matches_entrywise_operator(kernel):
    # x^2 + y - 3 = 0, x y - 2 = 0, x + y z = 1 near (1, 2, 0)
    def f_iv(v):
        x, y, z = v
        return [x * x + y - 3.0, x * y - 2.0, x + y * z - 1.0]

    def jac_iv(v):
        x, y, z = v
        one, zero = point_like(x, 1.0), point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

    f_iv, jac_iv = _on_arrays(kernel, f_iv, jac_iv)
    x0 = [1.01, 1.98, 0.003]
    C = np.linalg.inv(np.array([[2.02, 1, 0], [1.98, 1.01, 0], [1, 0.003, 1.98]])).tolist()
    X = kernel.from_bounds(np.subtract(x0, 0.05), np.add(x0, 0.05))
    centre = verify.KrawczykCentre(f_iv, x0, C, kernel)
    got = ks.entries(verify.krawczyk_step(centre, jac_iv, X))
    want = _krawczyk_by_loops(f_iv, jac_iv, x0, X, C, kernel)
    for g, w in zip(got, want):
        assert (g.lo, g.hi) == (w.lo, w.hi)


@pytest.mark.parametrize("kernel", [FloatKernel(), MPKernel(80)])
def test_certify_root_evaluates_f_once_per_centre(kernel):
    # the system of test_krawczyk_step_matches_entrywise_operator
    centres, jac_calls = [], []

    def f_iv(v):
        centres.append(tuple((x.lo_float(), x.hi_float()) for x in v))
        x, y, z = v
        return [x * x + y - 3.0, x * y - 2.0, x + y * z - 1.0]

    def jac_iv(v):
        jac_calls.append(1)
        x, y, z = v
        one, zero = point_like(x, 1.0), point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

    f_iv, jac_iv = _on_arrays(kernel, f_iv, jac_iv)

    # the root (1, 2, 0) is singular; (-2, -1, -3) is not.  Centred on that
    # root, every contracted box still contains the centre, so refinement
    # goes on past the first step
    x0 = [-2.0, -1.0, -3.0]
    C = np.linalg.inv(np.array([[-4.0, 1, 0], [-1, -2, 0], [1, -3, -1]]))
    enc = verify._certify_root(f_iv, jac_iv, x0, C.tolist(), kernel, 1e-9)
    assert enc is not None
    assert len(jac_calls) > 1  # several operator steps ...
    assert len(centres) == len(set(centres)) == 1  # ... around one centre


@pytest.mark.parametrize("name, bits", [
    *((f, b) for f in ("dodec27a", "dodec27b", "dodec30x2") for b in (53, 80, 120, 160)),
    ("dodec30x2~1e-7", 53),
])
def test_operator_boxes_contain_their_centre(hyperbolic_triangulations, monkeypatch,
                                             name, bits):
    # the mean-value form of K(x0, X) needs x0 in X: refinement used to go on
    # after the contracted box had left x0 (at 80 bits on every fixture, at
    # 53 bits on dodec30x2 with lengths off by 1e-7), and at 120 and 160 bits
    # the fixtures then failed at step 4
    fixture, _, rel = name.partition("~")
    tri = hyperbolic_triangulations[fixture]
    lengths = None
    if rel:
        rng = random.Random(0)
        lengths = [float(l) * (1 + float(rel) * rng.uniform(-1, 1)) for l in tri.lengths]
    applied = []
    step = verify.krawczyk_step

    def recording_step(centre, jac_iv, X):
        applied.append((ks.entries(centre.x0), ks.entries(X)))
        return step(centre, jac_iv, X)

    monkeypatch.setattr(verify, "krawczyk_step", recording_step)
    res = verify.run_pipeline(tri, lengths=lengths, precision=bits)
    assert res.verified, res.statuses
    assert applied
    for x0, X in applied:
        assert all(x.encloses(c) for x, c in zip(X, x0))
    kernel = kernel_for_precision(bits)
    assert kernel.contains_two_pi(res.box.theta[res.partition.e_eq]).all()


@pytest.mark.parametrize("bits", [80, 120])
def test_jacobian_and_gimbal_labels_are_53_bit_at_every_precision(dodec27a, monkeypatch,
                                                                  bits):
    # above 53 bits only the residual, the centre's partial sums and steps
    # III-IV run at working precision: no Jacobian, label or theta box of
    # stage I, II or V is an MPInterval, and the MP kernel has no matrix
    # product; stage I's labels are float ones at p0, stage V's 53-bit
    seen = []
    jacobian, lock_check = geo.jacobian, gimbal.gimbal_lock_check
    labels_init = gimbal.CocycleLabels.__init__
    label_bounds = gimbal.CocycleLabels.label_bounds

    def spy_jacobian(tri, params, *args, **kwargs):
        seen.append(("jacobian", ks.entries(params.values)))
        return jacobian(tri, params, *args, **kwargs)

    def spy_labels_init(self, tri, params, data=None):
        seen.append(("labels", ks.entries(params.values)))
        labels_init(self, tri, params, data=data)
        # the arrays every label and label ball is built from
        seen.append(("label", [x for arr in (self.dihedral_cos, self.dihedral_sin,
                                             self.vertex_cos, self.vertex_sin)
                               for row in ks.entries(arr) for x in row]))

    def spy_label_bounds(self):
        seen.append(("bounds", [self.kernel]))
        return label_bounds(self)

    def spy_lock_check(tri, labels, e_sim, theta_boxes, links=None):
        seen.append(("theta", ks.entries(theta_boxes)))
        return lock_check(tri, labels, e_sim, theta_boxes, links=links)

    monkeypatch.setattr(geo, "jacobian", spy_jacobian)
    monkeypatch.setattr(gimbal, "gimbal_lock_check", spy_lock_check)
    monkeypatch.setattr(gimbal.CocycleLabels, "__init__", spy_labels_init)
    monkeypatch.setattr(gimbal.CocycleLabels, "label_bounds", spy_label_bounds)
    res = verify.run_pipeline(dodec27a, precision=bits)
    assert res.verified, res.statuses
    assert all(isinstance(x, MPInterval) for x in [*res.box.nu, *res.box.theta])
    assert {name for name, _ in seen} == {"jacobian", "labels", "label", "bounds", "theta"}
    for name, values in seen:
        assert not any(isinstance(v, MPInterval) for v in values), name
    assert [values[0] for name, values in seen if name == "bounds"] == [REAL_KERNEL,
                                                                         FLOAT_KERNEL]
    assert not hasattr(MPKernel, "mat_mul")


def test_stage_two_reuses_stage_one_float_data(dodec27a, verified27a, monkeypatch):
    # float Jacobians and angle sums at p0: stage I's are handed to step II
    calls = []
    jacobian, angle_sums = geo.jacobian, geo.angle_sums

    def counting(fn, name):
        def wrapper(tri, params, *args, **kwargs):
            if params.kernel is REAL_KERNEL:
                calls.append(name)
            return fn(tri, params, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(geo, "jacobian", counting(jacobian, "jacobian"))
    monkeypatch.setattr(geo, "angle_sums", counting(angle_sums, "angle_sums"))
    result = verify.run_pipeline(dodec27a)
    assert result.verified
    assert calls == ["angle_sums", "jacobian"]
    assert [(x.lo, x.hi) for x in ks.entries(result.box.nu)] == [
        (x.lo, x.hi) for x in ks.entries(verified27a.box.nu)
    ]


# -- the SimplexData stage II hands to stage III -------------------------------

# sha256 of `certificate_json` of `resubdivided_text(8, 3)` (51 tetrahedra),
# pinned before stage III took stage II's SimplexData
RESUBDIVIDED_SHA256 = "f28a7fd9a002ed09ee6eb50b03946cc935673c0771ad61e40771c33abd27f1ae"


def _handoff_run(monkeypatch, tri, precision=53):
    """run_pipeline with its `simplex_data` calls counted, the boxes of its
    operator steps recorded, and whether stage III found SimplexData on the
    box; returns (result, calls, step boxes, handed)."""
    calls, steps, handed = [], [], []
    simplex_data, step = geo.simplex_data, verify.krawczyk_step
    stage_three = verify.check_realization_and_angles

    def counting(tri, params):
        calls.append(1)
        return simplex_data(tri, params)

    def recording_step(centre, jac_iv, X):
        steps.append(X)
        return step(centre, jac_iv, X)

    def spy_stage_three(tri, box):
        handed.append(box.gram_data is not None)
        return stage_three(tri, box)

    monkeypatch.setattr(geo, "simplex_data", counting)
    monkeypatch.setattr(verify, "krawczyk_step", recording_step)
    monkeypatch.setattr(verify, "check_realization_and_angles", spy_stage_three)
    res = verify.run_pipeline(tri, precision=precision)
    assert res.verified, res.statuses
    return res, len(calls), steps, handed == [True]


def _same_box(a, b):
    return [(x.lo, x.hi) for x in ks.entries(a)] == [(x.lo, x.hi) for x in ks.entries(b)]


def _certificate_digest(tri, res):
    text = certificate.certificate_json(tri, res, "krawczyk")
    return hashlib.sha256(text.encode()).hexdigest()


def test_stage_three_takes_last_step_data_after_refinement(monkeypatch):
    # re-subdivided, the refinement narrows the box once and then stops; its
    # last step saw the certified box, so stage III forms no SimplexData
    # (one evaluation at p0, one at the centre, three steps)
    tri = tr.parse(resubdivided_text(8, 3))
    assert tri.n_tets == 51
    res, calls, steps, handed = _handoff_run(monkeypatch, tri)
    assert handed and calls == 5
    kept = res.partition.e_eq
    assert _same_box(res.box.nu[kept], steps[-1])
    assert not _same_box(steps[-1], steps[-2])  # the refinement narrowed the box
    assert _certificate_digest(tri, res) == RESUBDIVIDED_SHA256


def test_stage_three_forms_data_when_last_step_saw_another_box(monkeypatch):
    # one refinement step narrows the box and none evaluates the result, so
    # stage III forms the SimplexData of the certified box itself
    monkeypatch.setattr(verify, "_REFINE_ROUNDS", 1)
    tri = tr.parse(resubdivided_text(8, 3))
    res, calls, steps, handed = _handoff_run(monkeypatch, tri)
    assert not handed and calls == 5
    assert not _same_box(res.box.nu[res.partition.e_eq], steps[-1])
    assert _certificate_digest(tri, res) == RESUBDIVIDED_SHA256


@pytest.mark.parametrize("bits, want_calls", [(53, 4), (80, 5), (120, 5)])
def test_stage_three_handoff_only_at_53_bits(dodec27a, monkeypatch, bits, want_calls):
    # above 53 bits stage III runs on MP arrays and stage V forms 53-bit
    # data of its own
    _, calls, _, handed = _handoff_run(monkeypatch, dodec27a, precision=bits)
    assert (calls, handed) == (want_calls, bits == 53)


# -- step II: the skipped inflation rounds ------------------------------------


def _synthetic_system(kernel):
    # the system of test_krawczyk_step_matches_entrywise_operator
    def f_iv(v):
        x, y, z = v
        return [x * x + y - 3.0, x * y - 2.0, x + y * z - 1.0]

    def jac_iv(v):
        x, y, z = v
        one, zero = point_like(x, 1.0), point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

    x0 = [1.01, 1.98, 0.003]
    C = np.linalg.inv(np.array([[2.02, 1, 0], [1.98, 1.01, 0], [1, 0.003, 1.98]])).tolist()
    return (*_on_arrays(kernel, f_iv, jac_iv), x0, C)


def _kept_system(tri, kernel, lengths=None):
    """(f_iv, jac_iv, x0, C, kernel, residual scale) as `krawczyk_certify`
    hands them to `_certify_root` after run_pipeline's stage I."""
    p0, residual, partition, jsub = stage_one(tri, lengths)
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_certify_root", lambda *args: captured.append(args))
        with pytest.raises(verify.StepFailure):
            verify.krawczyk_certify(tri, p0, partition, jsub, residual, kernel=kernel)
    return captured[0]


def _system(name, dodec27a, kernel):
    if name == "synthetic":
        return _synthetic_system(kernel)
    return _kept_system(dodec27a, kernel)[:4]


@pytest.mark.parametrize("bits", [53, 80])
@pytest.mark.parametrize("name", ["synthetic", "dodec27a"])
def test_centre_term_and_operator_match_scalar_loops(dodec27a, name, bits):
    # the column terms of x0 - C f(x0) and of (I - C J(X)) (X - x0) are each
    # formed in one product; every entry is still summed left to right over j,
    # and C J(X) encloses the exact product
    kernel = FloatKernel() if bits == 53 else MPKernel(bits)
    f_iv, jac_iv, x0, C = _system(name, dodec27a, kernel)
    centre = verify.KrawczykCentre(f_iv, x0, C, kernel)
    got = ks.entries(centre.partial)
    want = _partial_by_loops(f_iv, x0, C, kernel)
    assert [(g.lo, g.hi) for g in got] == [(w.lo, w.hi) for w in want]
    # wide enough that summing the columns in another order changes bits
    X = kernel.from_bounds(np.subtract(x0, 0.01), np.add(x0, 0.01))
    got = ks.entries(verify.krawczyk_step(centre, jac_iv, X))
    want = _krawczyk_by_loops(f_iv, jac_iv, x0, X, C, kernel)
    assert [(g.lo, g.hi) for g in got] == [(w.lo, w.hi) for w in want]


def test_operator_makes_no_mp_call_per_entry_of_a_square_array(dodec27a, monkeypatch):
    # at 80 bits the centre's q x q products and sums and the step's q x q
    # sums run on integer arrays: outside f(x0), O(q) MPInterval lifts,
    # products and sums, where the lifted chain made q^2 of each
    kernel = MPKernel(80)
    f_iv, jac_iv, x0, C = _kept_system(dodec27a, kernel)[:4]
    q = len(x0)
    X = kernel.from_bounds(np.subtract(x0, 1e-12), np.add(x0, 1e-12))
    calls = {"from_floats": 0, "mul": 0, "add": 0}
    in_f = []

    def counted(name, fn):
        def wrapper(*args):
            if not in_f:
                calls[name] += 1
            return fn(*args)
        return wrapper

    def f_uncounted(v):
        in_f.append(1)
        try:
            return f_iv(v)
        finally:
            in_f.pop()

    from_floats = MPInterval.from_floats.__func__
    monkeypatch.setattr(MPInterval, "from_floats", classmethod(counted("from_floats", from_floats)))
    for name, kind in (("__mul__", "mul"), ("__rmul__", "mul"), ("__add__", "add"),
                       ("__radd__", "add")):
        monkeypatch.setattr(MPInterval, name, counted(kind, getattr(MPInterval, name)))
    centre = verify.KrawczykCentre(f_uncounted, x0, C, kernel)
    verify.krawczyk_step(centre, jac_iv, X)
    assert q == 25
    assert calls["from_floats"] <= 2 * q and calls["mul"] == 0 and calls["add"] <= 2 * q


@pytest.mark.parametrize("bits", [53, 80])
@pytest.mark.parametrize("name", ["synthetic", "dodec27a"])
def test_operator_image_encloses_centre_term(dodec27a, name, bits):
    # what the skip in _certify_root rests on: K(x0, X) contains x0 - C f(x0)
    # entry by entry for every box X that contains x0
    kernel = FloatKernel() if bits == 53 else MPKernel(bits)
    f_iv, jac_iv, x0, C = _system(name, dodec27a, kernel)
    centre = verify.KrawczykCentre(f_iv, x0, C, kernel)
    partial = ks.entries(centre.partial)
    rng = random.Random(bits)
    for _ in range(12):
        below, above = ([10.0 ** rng.uniform(-14, -6) for _ in x0] for _ in range(2))
        X = [ks.interval(kernel, v - a, v + b) for v, a, b in zip(x0, below, above)]
        assert all(x.contains(v) for x, v in zip(X, x0))
        K = ks.entries(verify.krawczyk_step(centre, jac_iv, ks.array(kernel, X)))
        assert all(k.encloses(p) for k, p in zip(K, partial))


def _stage_two_case(name, tris):
    fixture, _, rel = name.partition("~")
    if fixture == "scaling12-seed7":
        return _scaling_member(12, seed=7), None
    tri = tris[fixture]
    lengths = None
    if rel:
        rng = random.Random(0)
        lengths = [float(l) * (1 + float(rel) * rng.uniform(-1, 1)) for l in tri.lengths]
    return tri, lengths


@pytest.mark.parametrize("name, bits, steps", [
    # the containing round plus, at 53 bits, one refinement step (5 or 6
    # steps when every round applied the operator)
    *((f, b, {53: 2, 80: 1}.get(b)) for f in ("dodec27a", "dodec27b", "dodec30x2")
      for b in (53, 80, 120, 160)),
    ("scaling12-seed7", 53, None),
    ("dodec30x2~1e-7", 53, None),
    ("dodec27a~1e-6", 53, 20),  # fails at step 2: no round is skipped
])
def test_certify_root_matches_loop_without_skip(hyperbolic_triangulations, monkeypatch,
                                                name, bits, steps):
    # skipping an inflation round whose centre term is not strictly inside
    # the box returns what applying the operator in every round returns
    tri, lengths = _stage_two_case(name, hyperbolic_triangulations)
    kernel = FloatKernel() if bits == 53 else MPKernel(bits)
    args = _kept_system(tri, kernel, lengths)
    applied, applied_without_skip = [], []

    def counting(step, calls):
        def wrapper(centre, jac_iv, X):
            calls.append(1)
            return step(centre, jac_iv, X)
        return wrapper

    monkeypatch.setattr(verify, "krawczyk_step", counting(verify.krawczyk_step, applied))
    monkeypatch.setattr(krawczyk_oracle, "krawczyk_step",
                        counting(krawczyk_oracle.krawczyk_step, applied_without_skip))
    got = verify._certify_root(*args)
    want = krawczyk_oracle.certify_root(*args)
    assert (want is None) == (name == "dodec27a~1e-6")
    if want is None:
        assert got is None
    else:
        assert [(g.lo, g.hi) for g in ks.entries(got)] == [(w.lo, w.hi) for w in want]
    assert len(applied) <= len(applied_without_skip)
    if steps is not None:
        assert len(applied) == steps
