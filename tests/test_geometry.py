import math
import random

import numpy as np
import pytest

from hypcert import geometry as geo
from hypcert import triangulation as tr
from hypcert.interval import FLOAT_KERNEL, FloatKernel, MPKernel
from tests import geometry_oracle as oracle
from tests.conftest import S3_TEXT
from tests.geometry_oracle import (
    cofactors,
    dihedral_angle,
    gram_matrix,
    realization_check,
    vertex_angle,
)
from tests import kernel_scalars as ks
from tests.triangulation_oracle import edge_classes


@pytest.fixture(scope="module")
def s3m():
    return tr.parse(S3_TEXT)


def regular_params(v):
    return geo.EdgeParams([v] * 6)


def theta_regular(v):
    return math.acos(-v / (1 - 2 * v))


def eta_regular(v):
    return math.acos(v / (v - 1))


def test_gram_matrix_construction(s3m):
    v = -math.cosh(1.0)
    g = gram_matrix(s3m, regular_params(v), 0)
    for i in range(4):
        assert g[i][i] == -1.0
        for j in range(4):
            if i != j:
                assert g[i][j] == v
    g1 = gram_matrix(s3m, regular_params(v), 1)
    assert g1 == g  # both tets share every edge class


def test_edge_params_precondition():
    with pytest.raises(geo.RealizationError):
        geo.EdgeParams([-1.0] * 6)
    with pytest.raises(geo.RealizationError):
        geo.EdgeParams([-2.0] * 5 + [-0.5])


def test_cofactor_closed_forms(s3m):
    rng = random.Random(99)
    for _ in range(100):
        v = -1.0 - rng.uniform(1e-4, 3.0)
        g = gram_matrix(s3m, regular_params(v), 0)
        c = cofactors(g)
        cii = (v + 1) ** 2 * (2 * v - 1)
        cij = -v * (v + 1) ** 2
        for i in range(4):
            assert abs(c[i][i] - cii) <= 1e-10 * abs(cii)
            for j in range(4):
                if i != j:
                    assert abs(c[i][j] - cij) <= 1e-10 * abs(cij) + 1e-15


def test_cofactor_symmetry_random(s3m):
    rng = random.Random(3)
    vals = [-1.0 - rng.uniform(0.1, 2.0) for _ in range(6)]
    g = gram_matrix(s3m, geo.EdgeParams(vals), 0)
    c = cofactors(g)
    for i in range(4):
        for j in range(4):
            assert abs(c[i][j] - c[j][i]) < 1e-12


def test_numeric_spot_values(s3m):
    v = -math.cosh(1.0)
    g = gram_matrix(s3m, regular_params(v), 0)
    c = cofactors(g)
    assert abs(c[0][0] - (-1.20524)) < 1e-4
    assert abs(c[0][1] - 0.45513) < 1e-4
    th = dihedral_angle(g, c, 0, 1)
    assert abs(th - 1.1828) < 1e-3


def test_angle_closed_forms_and_limits(s3m):
    rng = random.Random(4)
    for _ in range(100):
        v = -1.0 - rng.uniform(1e-4, 3.0)
        g = gram_matrix(s3m, regular_params(v), 0)
        c = cofactors(g)
        assert abs(dihedral_angle(g, c, 0, 1) - theta_regular(v)) < 1e-10
        assert abs(vertex_angle(g, 0, 1, 2) - eta_regular(v)) < 1e-10
    v = -1.0001
    g = gram_matrix(s3m, regular_params(v), 0)
    c = cofactors(g)
    assert abs(dihedral_angle(g, c, 0, 1) - math.acos(1 / 3)) < 1e-3
    assert abs(vertex_angle(g, 0, 1, 2) - math.pi / 3) < 1e-3


def test_angles_symmetric(s3m):
    rng = random.Random(8)
    vals = [-1.0 - rng.uniform(0.2, 1.5) for _ in range(6)]
    g = gram_matrix(s3m, geo.EdgeParams(vals), 0)
    c = cofactors(g)
    for i in range(4):
        for j in range(i + 1, 4):
            a = dihedral_angle(g, c, i, j)
            b = dihedral_angle(g, c, j, i)
            assert abs(a - b) < 1e-12
    assert vertex_angle(g, 0, 1, 2) == vertex_angle(g, 0, 2, 1)


def test_realization_matches_eigenvalue_signature(s3m):
    rng = random.Random(12)
    agree = disagree = 0
    for _ in range(300):
        vals = [-1.0 - rng.uniform(-0.5, 3.0) for _ in range(6)]
        if any(v >= -1.0 for v in vals):
            continue
        g = gram_matrix(s3m, geo.EdgeParams(vals), 0)
        c = cofactors(g)
        ok, _reason = realization_check(g, c)
        eig = np.linalg.eigvalsh(np.array(g))
        want = (eig < 0).sum() == 1 and (eig > 0).sum() == 3
        # the cofactor conditions are strictly stronger than the signature
        if ok:
            assert want
            agree += 1
        else:
            disagree += 1
    assert agree > 10 and disagree > 10


def test_realization_regular_always(s3m):
    rng = random.Random(5)
    for _ in range(50):
        v = -1.0 - rng.uniform(1e-3, 4.0)
        g = gram_matrix(s3m, regular_params(v), 0)
        ok, reason = realization_check(g)
        assert ok, reason
        # eigenvalues -1-v (x3) and 3v-1 (x1)
        eig = sorted(np.linalg.eigvalsh(np.array(g)))
        assert abs(eig[0] - (3 * v - 1)) < 1e-9
        for e in eig[1:]:
            assert abs(e - (-1 - v)) < 1e-9


def test_realization_rejects_forced_shallow_matrix(s3m):
    # parameters > -1 are rejected upstream; a Gram matrix built from them
    # anyway must still fail the condition audit (all eigenvalues negative)
    v = -0.5
    g = [[-1.0 if i == j else v for j in range(4)] for i in range(4)]
    ok, reason = realization_check(g)
    assert not ok and reason


def test_realization_interval_conservative(s3m):
    k = FloatKernel()
    # an enclosure straddling the determinant sign change must fail
    v_good = ks.interval(k, -2.0, -2.0)
    wide = ks.interval(k, -4.0, -1.001)
    params = geo.EdgeParams(ks.array(k, [wide] + [v_good] * 5), k)
    g = gram_matrix(s3m, params, 0)
    ok, reason = realization_check(g)
    assert not ok
    assert reason


def test_angle_sums_s3(s3m):
    for v in (-1.5, -2.0, -3.0):
        sums = geo.angle_sums(s3m, regular_params(v))
        want = 2 * theta_regular(v)
        for s in sums:
            assert abs(s - want) < 1e-12
        assert want < 2 * math.pi - 1.0  # never a hyperbolic structure


def test_angle_sum_additivity(s3m):
    vals = [-2.0, -1.9, -2.1, -2.3, -1.7, -2.05]
    data = geo.simplex_data(s3m, geo.EdgeParams(vals))
    sums = geo.angle_sums(s3m, geo.EdgeParams(vals), data=data)
    for ec in edge_classes(s3m):
        manual = sum(oracle.simplices(data)[t].theta_at_edge[e]
                     for (t, e, _) in ec.representatives)
        assert abs(sums[ec.index] - manual) < 1e-15


def _fd_jacobian(t, vals, h=1e-6):
    m = len(vals)
    out = np.zeros((m, m))
    for i in range(m):
        vp = list(vals)
        vp[i] += h
        vm = list(vals)
        vm[i] -= h
        sp = geo.angle_sums(t, geo.EdgeParams(vp))
        sm = geo.angle_sums(t, geo.EdgeParams(vm))
        out[:, i] = [(a - b) / (2 * h) for a, b in zip(sp, sm)]
    return out


def random_realized(t, rng, spread=0.5):
    base = t.lengths
    while True:
        if base is not None:
            vals = [
                -math.cosh(float(l) * (1 + spread * rng.uniform(-0.1, 0.1)))
                for l in base
            ]
        else:
            vals = [-1.0 - rng.uniform(0.3, 2.0) for _ in range(t.m)]
        try:
            geo.simplex_data(t, geo.EdgeParams(vals))
            return vals
        except geo.RealizationError:
            continue


def test_jacobian_vs_finite_differences(s3m):
    rng = random.Random(17)
    for _ in range(10):
        vals = random_realized(s3m, rng)
        M = np.array(geo.jacobian(s3m, geo.EdgeParams(vals)))
        F = _fd_jacobian(s3m, vals)
        err = np.abs(M - F) / np.maximum(1.0, np.abs(M))
        assert err.max() < 1e-5


def test_jacobian_at_right_dihedral_angle(s3m):
    # tune one parameter until a cofactor crosses zero: theta = pi/2
    rng = random.Random(2)
    vals = [-2.0, -2.0, -2.0, -2.0, -2.0, -2.0]

    def c01(x):
        w = list(vals)
        w[5] = x  # edge (2,3) parameter drives cofactor (0,1)
        g = gram_matrix(s3m, geo.EdgeParams(w), 0)
        return cofactors(g)[0][1]

    lo, hi = -6.0, -1.05
    assert c01(lo) * c01(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c01(lo) * c01(mid) <= 0:
            hi = mid
        else:
            lo = mid
    w = list(vals)
    w[5] = 0.5 * (lo + hi)
    g = gram_matrix(s3m, geo.EdgeParams(w), 0)
    c = cofactors(g)
    assert abs(c[0][1]) < 1e-9
    th = dihedral_angle(g, c, 0, 1)
    assert abs(th - math.pi / 2) < 1e-8
    M = np.array(geo.jacobian(s3m, geo.EdgeParams(w)))
    F = _fd_jacobian(s3m, w)
    assert np.isfinite(M).all()
    err = np.abs(M - F) / np.maximum(1.0, np.abs(M))
    assert err.max() < 1e-5


def test_interval_contains_float_evaluation(s3m):
    k = FloatKernel()
    rng = random.Random(21)
    vals = random_realized(s3m, rng)
    p_f = geo.EdgeParams(vals)
    p_iv = geo.EdgeParams(k.points(vals), k)
    sums_f = geo.angle_sums(s3m, p_f)
    sums_iv = ks.entries(geo.angle_sums(s3m, p_iv))
    for sf, si in zip(sums_f, sums_iv):
        assert si.contains(sf)
    Mf = geo.jacobian(s3m, p_f)
    Miv = ks.entries(geo.jacobian(s3m, p_iv))
    for i in range(6):
        for j in range(6):
            assert Miv[i][j].contains(Mf[i][j])


def test_angles_inside_zero_pi_when_realized(s3m):
    rng = random.Random(31)
    for _ in range(20):
        vals = random_realized(s3m, rng)
        data = oracle.simplices(geo.simplex_data(s3m, geo.EdgeParams(vals)))[0]
        for th in data.theta_at_edge.values():
            assert 0.0 < th < math.pi
        g = data.gram
        for i in range(4):
            others = [x for x in range(4) if x != i]
            for j in others:
                for kk in others:
                    if j < kk:
                        eta = vertex_angle(g, i, j, kk)
                        assert 0.0 < eta < math.pi


# -- block form of the Jacobian -----------------------------------------------


def _bits(x):
    """Every endpoint of x exactly (raw mpf tuples stay as they are)."""
    def exact(v):
        return v.hex() if isinstance(v, float) else v

    return (exact(x.lo), exact(x.hi)) if oracle.is_interval(x) else exact(x)


def _assert_block(tri, params, rows, cols):
    full = ks.entries(geo.jacobian(tri, params))
    block = ks.entries(geo.jacobian(tri, params, rows=rows, cols=cols))
    assert len(block) == len(rows)
    for r, row in zip(rows, block):
        assert len(row) == len(cols)
        for c, entry in zip(cols, row):
            assert _bits(entry) == _bits(full[r][c]), (r, c)


def _fixture_param_sets(result):
    """The candidate as floats, the certified box at 53 bits and an
    80-bit box of width 2e-13 around the candidate."""
    k80 = MPKernel(80)
    return {
        "float": geo.EdgeParams(list(result.p0)),
        "interval53": geo.EdgeParams(result.box.nu, FLOAT_KERNEL),
        "mp80": geo.EdgeParams(
            k80.from_bounds(np.subtract(result.p0, 1e-13), np.add(result.p0, 1e-13)), k80
        ),
    }


@pytest.mark.parametrize("kind", ["float", "interval53", "mp80"])
def test_jacobian_block_is_subblock_of_full(kind, hyperbolic_triangulations,
                                            verified_all):
    rng = random.Random(41)
    for name, tri in hyperbolic_triangulations.items():
        result = verified_all[name]
        params = _fixture_param_sets(result)[kind]
        part = result.partition
        _assert_block(tri, params, part.e_eq, part.e_var)
        # arbitrary subsets, in arbitrary order
        for _ in range(2):
            rows = rng.sample(range(tri.m), rng.randint(1, tri.m))
            cols = rng.sample(range(tri.m), rng.randint(1, tri.m))
            _assert_block(tri, params, rows, cols)


def test_jacobian_block_on_s3(s3m):
    rng = random.Random(43)
    vals = random_realized(s3m, rng)
    k = FloatKernel()
    for params in (geo.EdgeParams(vals),
                   geo.EdgeParams(k.points(vals), k)):
        _assert_block(s3m, params, list(range(6)), list(range(6)))
        for _ in range(10):
            rows = rng.sample(range(6), rng.randint(1, 6))
            cols = rng.sample(range(6), rng.randint(1, 6))
            _assert_block(s3m, params, rows, cols)
        assert geo.jacobian(s3m, params, rows=[], cols=[2]).shape == (0, 1)
        assert geo.jacobian(s3m, params, rows=[1], cols=[]).shape == (1, 0)


def _away_from(tri, tet):
    """The edge classes that no local edge of `tet` belongs to."""
    near = set(tri.edge_table[tet].tolist())
    return [e for e in range(tri.m) if e not in near]


def _raised(fn):
    with pytest.raises(geo.RealizationError) as info:
        fn()
    return str(info.value)


def test_jacobian_block_checks_every_simplex_realized(dodec27a):
    # widen the edges of tet 5 until it cannot be proven realized; a block
    # that avoids all of its edges must still fail, with the same message
    k = FloatKernel()
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    nu = [ks.point(k, v) for v in p0]
    for e in dodec27a.edge_table[5].tolist():
        nu[e] = ks.interval(k, p0[e] - 0.3, p0[e] + 0.3)
    params = geo.EdgeParams(ks.array(k, nu), k)
    away = _away_from(dodec27a, 5)
    assert away
    full = _raised(lambda: geo.jacobian(dodec27a, params))
    block = _raised(lambda: geo.jacobian(dodec27a, params, rows=away, cols=away))
    assert block == full


@pytest.mark.parametrize("kind", ["float", "interval53"])
def test_jacobian_block_checks_every_angle_gap(kind, dodec27a):
    # simplex data whose tet 7 has c_23^2 > c_22 c_33: its angle gap at
    # faces (2, 3) is not positive; the block avoiding tet 7 must raise too
    k = FloatKernel()
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    params = (geo.EdgeParams(p0) if kind == "float"
              else geo.EdgeParams(k.points(p0), k))
    data = geo.simplex_data(dodec27a, params)
    c22_plus_c33 = data.cof[7:8, 10] + data.cof[7:8, 15]
    data.cof[7:8, 11] = data.cof[7:8, 14] = c22_plus_c33
    # the simplex data keeps the gaps of its realization check: the gap
    # c_22 c_33 - c_23^2 about faces (2, 3), along local edge (0, 1)
    data.gap[7:8, 0] = data.cof[7:8, 10] * data.cof[7:8, 15] - c22_plus_c33 * c22_plus_c33
    away = _away_from(dodec27a, 7)
    full = _raised(lambda: geo.jacobian(dodec27a, params, data=data))
    block = _raised(lambda: geo.jacobian(dodec27a, params, data=data,
                                         rows=away, cols=away))
    assert "tet 7: degenerate angle gap at faces (2,3)" in full
    assert block == full


def _det4_by_minors(g):
    """det g along row 0 with every 3x3 minor computed afresh."""
    acc = None
    for j in range(4):
        m = oracle._minor3(g, 0, j)
        term = g[0][j] * (m if j % 2 == 0 else -m)
        acc = term if acc is None else acc + term
    return acc


@pytest.mark.parametrize("kind", ["float", "interval53", "mp80"])
def test_determinant_reuses_cofactors_exactly(kind, hyperbolic_triangulations,
                                              verified_all, monkeypatch):
    seen = []
    det4 = oracle._det4

    def spy(g, cof):
        seen.append((g, det4(g, cof)))
        return seen[-1][1]

    monkeypatch.setattr(oracle, "_det4", spy)
    for name, tri in hyperbolic_triangulations.items():
        params = _fixture_param_sets(verified_all[name])[kind]
        for t in range(tri.n_tets):
            g = gram_matrix(tri, params, t)
            ok, _reason = realization_check(g)
            assert ok
    assert len(seen) == sum(t.n_tets for t in hyperbolic_triangulations.values())
    for g, a0 in seen:
        assert _bits(a0) == _bits(_det4_by_minors(g))
