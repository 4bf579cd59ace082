import math
import random

import mpmath
import numpy as np
import pytest

from hypcert import geometry as geo
from hypcert import gimbal
from hypcert import scalars as sc
from hypcert import verify
from hypcert.interval import FLOAT_KERNEL, FloatKernel, MPInterval, MPKernel, contains_two_pi
from tests import krawczyk_oracle
from tests.matrix_oracle import assert_encloses_exact
from tests.test_gimbal import _scaling_member


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


def test_make_partition_sizes(dodec27a):
    m, o = dodec27a.m, dodec27a.o
    h = m - 3 * o
    rng = np.random.default_rng(1)
    rows = sorted(rng.choice(m, size=h, replace=False).tolist())
    cols = sorted(rng.choice(m, size=h, replace=False).tolist())
    part = verify.make_partition(dodec27a, rows, cols)
    assert len(part.e_sim) == 3 * o
    assert len(part.e_fixed) == 3 * o
    assert sorted(part.e_sim + part.e_eq) == list(range(m))
    assert sorted(part.e_fixed + part.e_var) == list(range(m))


def test_pivot_partition_gives_invertible_subsystem(dodec27a):
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    M = np.array(geo.jacobian(dodec27a, geo.EdgeParams(p0)))
    h = dodec27a.m - 3 * dodec27a.o
    rows, cols = verify.select_submatrix(M, h)
    sub = M[np.ix_(rows, cols)]
    assert np.linalg.cond(sub) < 1e8


# -- step II: the Krawczyk operator ------------------------------------------


def test_krawczyk_scalar_instance():
    k = FloatKernel()

    def f(xs):
        return [xs[0] * xs[0] - 2.0]

    def jac(xs):
        return [[xs[0] * 2.0]]

    X = [k.interval(1.41, 1.42)]
    centre = verify.KrawczykCentre(f, [1.4142], [[0.35356]], k)
    K = verify.krawczyk_step(centre, jac, X)
    assert K[0].strictly_inside(X[0])
    assert 1.41418 <= K[0].lo and K[0].hi <= 1.41425
    assert K[0].contains(math.sqrt(2.0))


def test_krawczyk_synthetic_system_contains_true_root():
    # f = (x^2 + y^2 - 4, x*y - 1); root near (1.93, 0.517)
    k = FloatKernel()

    def f(xs):
        x, y = xs
        return [x * x + y * y - 4.0, x * y - 1.0]

    def jac(xs):
        x, y = xs
        return [[x * 2.0, y * 2.0], [y, x]]

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
    assert mpmath.mpf(enc[0].lo) <= gx <= mpmath.mpf(enc[0].hi)
    assert mpmath.mpf(enc[1].lo) <= gy <= mpmath.mpf(enc[1].hi)


def test_krawczyk_scalar_mp_kernel():
    k = MPKernel(100)

    def f(xs):
        return [xs[0] * xs[0] - 2.0]

    def jac(xs):
        return [[xs[0] * 2.0]]

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


# -- steps III/IV and the pipeline -------------------------------------------


def test_s3_step_four_fails(s3):
    k = FloatKernel()
    part = verify.Partition(
        e_sim=list(range(6)), e_eq=[], e_fixed=list(range(6)), e_var=[]
    )
    box = verify.CertifiedBox(
        nu=[k.point(-2.0) for _ in range(6)],
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
    for x in box0.nu:
        c = x.mid()
        w = max(x.width(), 1e-14) * 1e6
        wide.append(k.interval(c - w, c + w))
    box = verify.CertifiedBox(
        nu=wide, theta=None, partition=box0.partition, precision=53
    )
    try:
        verify.check_realization_and_angles(dodec27a, box)
    except verify.StepFailure as exc:
        assert exc.step in (3, 4)


def test_pipeline_verifies_fixture(verified27a):
    res = verified27a
    assert res.verified and res.failed_step == 0
    assert all(k in res.statuses for k in (1, 2, 3, 4, 5))
    box = res.box
    assert all(x.is_finite() for x in box.nu)
    assert max(x.width() for x in box.nu) < 1e-8
    assert all(contains_two_pi(th) for th in box.theta)
    loose_widths = [box.theta[e].width() for e in box.partition.e_sim]
    assert max(loose_widths) < 1e-6


def test_pipeline_point_intervals_on_fixed(verified27a):
    box = verified27a.box
    for e in box.partition.e_fixed:
        assert box.nu[e].width() == 0.0


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
    assert max(x.width() for x in res.box.nu) < 1e-16


def test_no_certificate_after_failure(dodec27a):
    pert = [float(l) + 0.3 for l in dodec27a.lengths]
    res = verify.run_pipeline(dodec27a, lengths=pert)
    assert not res.verified
    # a failed run never carries a completed box with loops
    assert res.box is None or res.box.loops is None


def test_partition_check_raises_on_bad_input():
    good = verify.Partition(e_sim=[0, 1, 2], e_eq=[3], e_fixed=[1, 2, 3], e_var=[0])
    good.check(4, 1)
    for bad in (
        verify.Partition(e_sim=[0, 1, 2], e_eq=[2], e_fixed=[1, 2, 3], e_var=[0]),
        verify.Partition(e_sim=[0, 1, 2], e_eq=[3], e_fixed=[1, 2], e_var=[0, 3]),
        verify.Partition(e_sim=[0, 1], e_eq=[2, 3], e_fixed=[1, 2, 3], e_var=[0]),
    ):
        with pytest.raises(ValueError):
            bad.check(4, 1)


def _partial_by_loops(f_iv, x0, C, kernel):
    # the centre term x0 - sum_j C[:, j] f(x0)[j], one scalar at a time
    x0_iv = [kernel.point(v) for v in x0]
    fx0 = f_iv(x0_iv)
    partial = []
    for i in range(len(x0)):
        acc = x0_iv[i]
        for j in range(len(x0)):
            acc = acc - kernel.point(C[i][j]) * fx0[j]
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
        return f64.interval(x.lo_float(), x.hi_float())

    x0_iv = [kernel.point(v) for v in x0]
    JX = jac_iv([hull(x) for x in X])
    dX = [hull(x - p) for x, p in zip(X, x0_iv)]
    C_iv = f64.array(np.asarray(C, dtype=float))
    CJ = f64.mat_mul(C_iv, f64.array(JX)).tolist()
    assert_encloses_exact(CJ, C_iv.tolist(), JX)
    K = []
    for i, acc in enumerate(_partial_by_loops(f_iv, x0, C, kernel)):
        for j in range(n):
            term = (f64.point(1.0 if i == j else 0.0) - CJ[i][j]) * dX[j]
            acc = acc + kernel.interval(term.lo, term.hi)
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
        one, zero = sc.point_like(x, 1.0), sc.point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

    x0 = [1.01, 1.98, 0.003]
    C = np.linalg.inv(np.array([[2.02, 1, 0], [1.98, 1.01, 0], [1, 0.003, 1.98]])).tolist()
    X = [kernel.interval(v - 0.05, v + 0.05) for v in x0]
    centre = verify.KrawczykCentre(f_iv, x0, C, kernel)
    got = verify.krawczyk_step(centre, jac_iv, X)
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
        one, zero = sc.point_like(x, 1.0), sc.point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

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
        applied.append((centre.x0.tolist(), list(X)))
        return step(centre, jac_iv, X)

    monkeypatch.setattr(verify, "krawczyk_step", recording_step)
    res = verify.run_pipeline(tri, lengths=lengths, precision=bits)
    assert res.verified, res.statuses
    assert applied
    for x0, X in applied:
        assert all(x.encloses(c) for x, c in zip(X, x0))
    assert all(contains_two_pi(res.box.theta[e]) for e in res.partition.e_eq)


@pytest.mark.parametrize("bits", [80, 120])
def test_jacobian_and_gimbal_labels_are_53_bit_at_every_precision(dodec27a, monkeypatch,
                                                                  bits):
    # above 53 bits only the residual, the centre's partial sums and steps
    # III-IV run at working precision: no Jacobian, label or theta box of
    # stage II or V is an MPInterval, and the MP kernel has no matrix product
    seen = []
    jacobian, lock_check = geo.jacobian, gimbal.gimbal_lock_check
    labels_init = gimbal.CocycleLabels.__init__
    ball_for_letter = gimbal.CocycleLabels.ball_for_letter

    def spy_jacobian(tri, params, *args, **kwargs):
        seen.append(("jacobian", params.values))
        return jacobian(tri, params, *args, **kwargs)

    def spy_labels_init(self, tri, params, data=None):
        seen.append(("labels", list(params)))
        labels_init(self, tri, params, data=data)
        # the arrays every label and label ball is built from
        seen.append(("label", [x for arr in (self.dihedral_cos, self.dihedral_sin,
                                             self.vertex_cos, self.vertex_sin)
                               for row in arr.tolist() for x in row]))

    def spy_ball_for_letter(self, letter):
        seen.append(("ball", [self.kernel]))
        return ball_for_letter(self, letter)

    def spy_lock_check(tri, labels, e_sim, theta_boxes, links=None):
        seen.append(("theta", theta_boxes))
        return lock_check(tri, labels, e_sim, theta_boxes, links=links)

    monkeypatch.setattr(geo, "jacobian", spy_jacobian)
    monkeypatch.setattr(gimbal, "gimbal_lock_check", spy_lock_check)
    monkeypatch.setattr(gimbal.CocycleLabels, "__init__", spy_labels_init)
    monkeypatch.setattr(gimbal.CocycleLabels, "ball_for_letter", spy_ball_for_letter)
    res = verify.run_pipeline(dodec27a, precision=bits)
    assert res.verified, res.statuses
    assert all(isinstance(x, MPInterval) for x in res.box.nu + res.box.theta)
    assert {name for name, _ in seen} == {"jacobian", "labels", "label", "ball", "theta"}
    for name, values in seen:
        assert not any(isinstance(v, MPInterval) for v in values), name
    assert {values[0] for name, values in seen if name == "ball"} == {FLOAT_KERNEL}
    assert not hasattr(MPKernel, "mat_mul")


def test_stage_two_reuses_stage_one_float_data(dodec27a, verified27a, monkeypatch):
    # float Jacobians and angle sums at p0: stage I's are handed to step II
    calls = []
    jacobian, angle_sums = geo.jacobian, geo.angle_sums

    def counting(fn, name):
        def wrapper(tri, params, *args, **kwargs):
            if isinstance(params[0], float):
                calls.append(name)
            return fn(tri, params, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(geo, "jacobian", counting(jacobian, "jacobian"))
    monkeypatch.setattr(geo, "angle_sums", counting(angle_sums, "angle_sums"))
    result = verify.run_pipeline(dodec27a)
    assert result.verified
    assert calls == ["angle_sums", "jacobian"]
    assert [(x.lo, x.hi) for x in result.box.nu] == [
        (x.lo, x.hi) for x in verified27a.box.nu
    ]


# -- step II: the skipped inflation rounds ------------------------------------


def _synthetic_system():
    # the system of test_krawczyk_step_matches_entrywise_operator
    def f_iv(v):
        x, y, z = v
        return [x * x + y - 3.0, x * y - 2.0, x + y * z - 1.0]

    def jac_iv(v):
        x, y, z = v
        one, zero = sc.point_like(x, 1.0), sc.point_like(x, 0.0)
        return [[x * 2.0, one, zero], [y, x, zero], [one, z, y]]

    x0 = [1.01, 1.98, 0.003]
    C = np.linalg.inv(np.array([[2.02, 1, 0], [1.98, 1.01, 0], [1, 0.003, 1.98]])).tolist()
    return f_iv, jac_iv, x0, C


def _kept_system(tri, kernel, lengths=None):
    """(f_iv, jac_iv, x0, C, kernel, residual scale) as `krawczyk_certify`
    hands them to `_certify_root` after run_pipeline's stage I."""
    p0 = [-math.cosh(float(l)) for l in (lengths or tri.lengths)]
    M = geo.jacobian(tri, geo.EdgeParams(p0))
    partition = verify.make_partition(tri, *verify.select_submatrix(M, tri.m - 3 * tri.o))
    jsub = np.array(M)[partition.e_eq][:, partition.e_var]
    residual = verify._residual_vec(tri, p0)
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_certify_root", lambda *args: captured.append(args))
        with pytest.raises(verify.StepFailure):
            verify.krawczyk_certify(tri, p0, partition, jsub, residual, kernel=kernel)
    return captured[0]


def _system(name, dodec27a, kernel):
    if name == "synthetic":
        return _synthetic_system()
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
    got = centre.partial.tolist()
    want = _partial_by_loops(f_iv, x0, C, kernel)
    assert [(g.lo, g.hi) for g in got] == [(w.lo, w.hi) for w in want]
    # wide enough that summing the columns in another order changes bits
    X = [kernel.interval(v - 0.01, v + 0.01) for v in x0]
    got = verify.krawczyk_step(centre, jac_iv, X)
    want = _krawczyk_by_loops(f_iv, jac_iv, x0, X, C, kernel)
    assert [(g.lo, g.hi) for g in got] == [(w.lo, w.hi) for w in want]


@pytest.mark.parametrize("bits", [53, 80])
@pytest.mark.parametrize("name", ["synthetic", "dodec27a"])
def test_operator_image_encloses_centre_term(dodec27a, name, bits):
    # what the skip in _certify_root rests on: K(x0, X) contains x0 - C f(x0)
    # entry by entry for every box X that contains x0
    kernel = FloatKernel() if bits == 53 else MPKernel(bits)
    f_iv, jac_iv, x0, C = _system(name, dodec27a, kernel)
    centre = verify.KrawczykCentre(f_iv, x0, C, kernel)
    partial = centre.partial.tolist()
    rng = random.Random(bits)
    for _ in range(12):
        below, above = ([10.0 ** rng.uniform(-14, -6) for _ in x0] for _ in range(2))
        X = [kernel.interval(v - a, v + b) for v, a, b in zip(x0, below, above)]
        assert all(x.contains(v) for x, v in zip(X, x0))
        K = verify.krawczyk_step(centre, jac_iv, X)
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
        assert [(g.lo, g.hi) for g in got] == [(w.lo, w.hi) for w in want]
    assert len(applied) <= len(applied_without_skip)
    if steps is not None:
        assert len(applied) == steps
