"""The batched geometry against the per-simplex oracle, endpoint for endpoint.

`hypcert.geometry` evaluates each per-simplex formula once for all
simplices; `tests.geometry_oracle` evaluates the same formulas one simplex
and one scalar at a time.  Both must give the same bits, and the same
failure for the same input, for plain floats, 53-bit `Interval`s and
80-bit `MPInterval`s.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypcert import geometry as geo
from hypcert import triangulation as tr
from hypcert import verify
from hypcert.interval import (
    FLOAT_KERNEL,
    REAL_KERNEL,
    Interval,
    IntervalArray,
    MPInterval,
    MPKernel,
    RealKernel,
)
from tests import geometry_oracle as oracle
from tests.test_geometry import _bits, _fixture_param_sets
from tests.test_gimbal import _scaling_member
from tests import kernel_scalars as ks

KINDS = ("float", "interval53", "mp80")
INPUTS = ("dodec27a", "dodec27b", "dodec30x2", "scaling12")


@pytest.fixture(scope="module")
def verified_inputs(hyperbolic_triangulations, verified_all):
    out = {name: (tri, verified_all[name])
           for name, tri in hyperbolic_triangulations.items()}
    tri = _scaling_member(12)
    result = verify.run_pipeline(tri)
    assert result.verified
    out["scaling12"] = (tri, result)
    return out


def bits(x):
    """Every endpoint of a scalar, or of kernel arrays, nested lists and
    dicts of them."""
    if isinstance(x, (np.ndarray, IntervalArray)):
        return bits(ks.entries(x))
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, list):
        return [bits(v) for v in x]
    return _bits(x)


def raised(fn, exc=geo.RealizationError):
    with pytest.raises(exc) as info:
        fn()
    return str(info.value)


def kernel_of_kind(kind):
    return {"float": REAL_KERNEL, "interval53": FLOAT_KERNEL,
            "mp80": MPKernel(80)}[kind]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", INPUTS)
def test_simplex_data_and_angle_sums_match_oracle(name, kind, verified_inputs):
    tri, result = verified_inputs[name]
    params = _fixture_param_sets(result)[kind]
    data = geo.simplex_data(tri, params)
    want = [oracle.simplex_data(tri, params, t) for t in range(tri.n_tets)]
    for t, got in enumerate(oracle.simplices(data)):
        assert got.tet == t
        assert bits(got.gram) == bits(want[t].gram)
        assert bits(got.cof) == bits(want[t].cof)
        assert bits(got.theta_at_edge) == bits(want[t].theta_at_edge)
    sums = bits(oracle.angle_sums(tri, params, data=want))
    assert bits(geo.angle_sums(tri, params)) == sums
    assert bits(geo.angle_sums(tri, params, data=data)) == sums


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", INPUTS)
def test_jacobian_matches_oracle(name, kind, verified_inputs):
    tri, result = verified_inputs[name]
    params = _fixture_param_sets(result)[kind]
    want = [oracle.simplex_data(tri, params, t) for t in range(tri.n_tets)]
    data = geo.simplex_data(tri, params)
    assert bits(geo.jacobian(tri, params)) == bits(oracle.jacobian(tri, params, data=want))
    part = result.partition
    rng = random.Random(len(name) + tri.m)
    blocks = [(part.e_eq, part.e_var)] + [
        (rng.sample(range(tri.m), rng.randint(1, tri.m)),
         rng.sample(range(tri.m), rng.randint(1, tri.m)))
        for _ in range(2)
    ]
    for rows, cols in blocks:
        expected = bits(oracle.jacobian(tri, params, data=want, rows=rows, cols=cols))
        assert bits(geo.jacobian(tri, params, rows=rows, cols=cols)) == expected
        assert bits(geo.jacobian(tri, params, data=data, rows=rows, cols=cols)) == expected


def _random_gram_and_cofactors(rng):
    """A Gram matrix with entries mostly in [-3, -1], sometimes in
    [-0.9, 0.3], and its cofactors with up to three symmetric pairs
    scaled by a random factor, so that every realization condition is the
    first to fail for some draw."""
    lo, hi = (-0.9, 0.3) if rng.random() < 0.15 else (-3.0, -1.0)
    g = [[-1.0] * 4 for _ in range(4)]
    for (a, b) in tr.LOCAL_EDGES:
        g[a][b] = g[b][a] = rng.uniform(lo, hi)
    cof = oracle.cofactors(g)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(4), rng.randrange(4)
        cof[i][j] = cof[j][i] = cof[i][j] * rng.uniform(-2.0, 3.0)
    return g, cof


def _widened(x, rng, kernel):
    w = rng.choice([0.0, 0.0, 1e-9, 1e-3]) * (abs(x) + 1.0)
    return ks.interval(kernel, x - w, x + w)


@pytest.mark.parametrize("kind", KINDS)
def test_realization_verdicts_and_reasons_match_oracle(kind):
    rng = random.Random(2024)
    k = kernel_of_kind(kind)
    pairs = [_random_gram_and_cofactors(rng) for _ in range(400)]
    if kind != "float":
        pairs = [([[_widened(x, rng, k) for x in row] for row in g],
                  [[_widened(x, rng, k) for x in row] for row in cof])
                 for g, cof in pairs]
    G = ks.array(k, [[x for row in g for x in row] for g, _ in pairs])
    C = ks.array(k, [[x for row in cof for x in row] for _, cof in pairs])
    failed = geo._realization(k, G, C)[0]
    reasons = set()
    for (g, cof), row in zip(pairs, failed):
        ok, reason = oracle.realization_check(g, cof)
        got = geo._REASONS[int(np.argmax(row))] if row.any() else None
        assert got == reason
        reasons.add(reason)
    assert len(reasons) == 1 + len(geo._REASONS)  # every condition, and success


@pytest.mark.parametrize("kind", KINDS)
def test_first_failure_message_matches_oracle(kind, s3):
    # random parameters, many of them outside (-inf, -1), on the two
    # simplices of s3: a simplex fails several conditions at once, and the
    # message names the first, of the first failing simplex
    rng = random.Random(11)
    k = kernel_of_kind(kind)
    messages = set()
    for _ in range(60):
        lo, hi = rng.choice([(-0.9, 0.3), (-1.5, -0.5), (-3.0, -1.0)])
        vals = [rng.uniform(lo, hi) for _ in range(s3.m)]
        if kind != "float":
            vals = [_widened(v, rng, k) for v in vals]
        params = geo.EdgeParams(ks.array(k, vals), k, check=False)
        want = _oracle_failure(s3, params)
        if want is None:
            geo.simplex_data(s3, params)
        else:
            assert raised(lambda: geo.simplex_data(s3, params)) == want
        messages.add(want)
    assert len(messages) >= 4


@pytest.mark.parametrize("kind", KINDS)
def test_cofactors_match_oracle_on_random_gram_matrices(kind):
    rng = random.Random(77)
    k = kernel_of_kind(kind)
    gs = [_random_gram_and_cofactors(rng)[0] for _ in range(60)]
    if kind != "float":
        gs = [[[_widened(x, rng, k) if x != -1.0 else ks.point(k, -1.0) for x in row]
               for row in g] for g in gs]
        for g in gs:  # a Gram matrix is symmetric
            for i in range(4):
                for j in range(i):
                    g[i][j] = g[j][i]
    C = geo._cofactors(ks.array(k, [[x for row in g for x in row] for g in gs]))
    for g, row in zip(gs, ks.entries(C)):
        assert bits(row) == bits([x for r in oracle.cofactors(g) for x in r])
        # symmetric bit for bit: c_ji is a copy of c_ij
        assert all(bits(row[4 * i + j]) == bits(row[4 * j + i])
                   for i in range(4) for j in range(i))


@pytest.mark.parametrize("n", [1, 7])
def test_cofactors_make_58_products_per_simplex(n, monkeypatch):
    # 14 shared 2x2 minors of two products and ten upper expansions of
    # three per Gram row: at 80 bits each product is one MPInterval call
    k = MPKernel(80)
    rng = random.Random(n)
    gs = [_random_gram_and_cofactors(rng)[0] for _ in range(n)]
    G = ks.array(k, [[ks.point(k, x) for row in g for x in row] for g in gs])
    calls = []
    mul = MPInterval.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(MPInterval, "__mul__", counted)
    monkeypatch.setattr(MPInterval, "__rmul__", counted)
    geo._cofactors(G)
    assert len(calls) == 58 * n


def _oracle_failure(tri, params):
    """The message of the oracle's first failing simplex, in simplex order."""
    for t in range(tri.n_tets):
        try:
            oracle.simplex_data(tri, params, t)
        except geo.RealizationError as exc:
            return str(exc)
    return None


@pytest.mark.parametrize("kind", ["interval53", "mp80"])
def test_two_bad_simplices_raise_the_first(kind, dodec27a):
    # widen the edges of tets 9 and 20 until neither can be proven realized
    k = kernel_of_kind(kind)
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    nu = [ks.point(k, v) for v in p0]
    for tet in (9, 20):
        for e in dodec27a.edge_table[tet].tolist():
            nu[e] = ks.interval(k, p0[e] - 0.3, p0[e] + 0.3)
    params = geo.EdgeParams(ks.array(k, nu), k)
    bad = [t for t in range(dodec27a.n_tets)
           if not oracle.realization_check(oracle.gram_matrix(dodec27a, params, t))[0]]
    assert len(bad) >= 2
    want = _oracle_failure(dodec27a, params)
    assert want.startswith(f"tet {bad[0]}: ")
    assert raised(lambda: geo.simplex_data(dodec27a, params)) == want
    assert raised(lambda: geo.angle_sums(dodec27a, params)) == want
    assert raised(lambda: geo.jacobian(dodec27a, params)) == want
    away = sorted(set(range(dodec27a.m)) - set(dodec27a.edge_table[bad].ravel().tolist()))
    assert raised(lambda: geo.jacobian(dodec27a, params, rows=away, cols=away)) == want


def _shrunk_sqrt(monkeypatch, kind):
    """Make every sqrt return a tenth of its value, on the scalar and the
    array path alike: the dihedral cosines then leave [-1, 1] although
    every simplex still passes the realization conditions, which use no
    sqrt."""
    def shrink(fn):
        return lambda x: fn(x) * 0.1

    if kind == "float":
        monkeypatch.setattr(oracle, "sqrt", shrink(math.sqrt))
        monkeypatch.setattr(RealKernel, "sqrt", staticmethod(shrink(np.sqrt)))
    elif kind == "interval53":
        monkeypatch.setattr(Interval, "sqrt", shrink(Interval.sqrt))
        monkeypatch.setattr(IntervalArray, "sqrt", shrink(IntervalArray.sqrt))
    else:
        monkeypatch.setattr(MPInterval, "sqrt", shrink(MPInterval.sqrt))


@pytest.mark.parametrize("kind", KINDS)
def test_cosine_outside_arccos_domain_still_raises_in_the_jacobian(
        kind, dodec27a, verified_all, monkeypatch):
    params = _fixture_param_sets(verified_all["dodec27a"])[kind]
    _shrunk_sqrt(monkeypatch, kind)
    if kind == "float":
        # math.acos's own ValueError, as a float dihedral angle raises it
        with pytest.raises(ValueError, match="math domain error"):
            oracle.simplex_data(dodec27a, params, 0)
        for fn in (geo.simplex_data, geo.angle_sums, geo.jacobian):
            with pytest.raises(ValueError, match="math domain error"):
                fn(dodec27a, params)
        return
    want = _oracle_failure(dodec27a, params)
    assert want.startswith("dihedral angle (")
    assert "arccos needs argument inside [-1,1]" in want
    assert raised(lambda: geo.jacobian(dodec27a, params)) == want
    part = verified_all["dodec27a"].partition
    assert raised(lambda: geo.jacobian(dodec27a, params, rows=part.e_eq,
                                       cols=part.e_var)) == want
    assert raised(lambda: geo.angle_sums(dodec27a, params)) == want


def test_angle_gap_is_checked_on_every_simplex(dodec27a):
    # a simplex whose angle gap the cofactors no longer prove positive
    # fails the Jacobian with the oracle's message, first simplex first;
    # the simplex data keeps the gaps of its realization check, so they are
    # formed again from the changed cofactors
    k = FLOAT_KERNEL
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    params = geo.EdgeParams(k.points(p0), k)
    data = geo.simplex_data(dodec27a, params)
    want = [oracle.simplex_data(dodec27a, params, t) for t in range(dodec27a.n_tets)]
    for t, (i, j) in ((4, (0, 1)), (11, (1, 3))):
        c = data.cof[t:t + 1]
        c_ij = c[:, 5 * i] + c[:, 5 * j]
        data.cof[t:t + 1, 4 * i + j] = data.cof[t:t + 1, 4 * j + i] = c_ij
        edge = tr.LOCAL_EDGES.index(tuple(x for x in range(4) if x not in (i, j)))
        data.gap[t:t + 1, edge] = c[:, 5 * i] * c[:, 5 * j] - c_ij * c_ij
        cof = [list(row) for row in want[t].cof]
        cof[i][j] = cof[j][i] = cof[i][i] + cof[j][j]
        want[t] = oracle.GramData(t, want[t].gram, cof, want[t].theta_at_edge)
    expected = raised(lambda: oracle.jacobian(dodec27a, params, data=want))
    assert expected == "tet 4: degenerate angle gap at faces (0,1)"
    assert raised(lambda: geo.jacobian(dodec27a, params, data=data)) == expected


@pytest.mark.parametrize("kind", ["interval53", "mp80"])
def test_earlier_arccos_failure_wins_over_later_realization_failure(
        kind, dodec27a, monkeypatch):
    # every realized simplex now fails its arccos domain test, and the
    # simplices around a tet that shares no edge with tet 0 fail
    # realization: tet 0's failure comes first
    k = kernel_of_kind(kind)
    p0 = [-math.cosh(float(l)) for l in dodec27a.lengths]
    nu = [ks.point(k, v) for v in p0]

    def edges(t):
        return set(dodec27a.edge_table[t].tolist())

    far = max(t for t in range(dodec27a.n_tets) if not edges(t) & edges(0))
    for e in edges(far):
        nu[e] = ks.interval(k, p0[e] - 0.3, p0[e] + 0.3)
    params = geo.EdgeParams(ks.array(k, nu), k)
    assert not oracle.realization_check(oracle.gram_matrix(dodec27a, params, far))[0]
    _shrunk_sqrt(monkeypatch, kind)
    want = _oracle_failure(dodec27a, params)
    assert want.startswith("dihedral angle (")
    assert raised(lambda: geo.simplex_data(dodec27a, params)) == want
    assert raised(lambda: geo.jacobian(dodec27a, params)) == want


# -- each distinct Gram row once ---------------------------------------------


def _evaluated(tri, params):
    """The arrays and dihedral angles of `simplex_data` and the angle sums,
    bit for bit, or the type and message of what they raise."""
    try:
        data = geo.simplex_data(tri, params)
        return bits([data.gram, data.cof, data.cos, data.gap, data.theta,
                     geo.angle_sums(tri, params, data=data)])
    except ValueError as exc:  # RealizationError, or math.acos's own
        return type(exc).__name__, str(exc)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS),
       changed=st.lists(st.integers(0, 27), max_size=3, unique=True),
       value=st.floats(-3.0, 0.3), half=st.sampled_from([0.0, 1e-9, 1e-3]),
       shrunk=st.booleans())
# every simplex unrealized, all with one row
@example(kind="mp80", changed=list(range(28)), value=-0.5, half=0.0, shrunk=False)
# every simplex realized, all with one row, and their cosines leave [-1, 1]
@example(kind="mp80", changed=list(range(28)), value=-1.5, half=1e-9, shrunk=True)
@example(kind="float", changed=list(range(28)), value=-1.5, half=0.0, shrunk=True)
def test_repeated_rows_evaluate_as_without_dedup(dodec27a, kind, changed, value, half, shrunk):
    # dodec27a's candidate has 15 distinct Gram rows in 27; a few edges
    # changed to one value keep most repeats and may make a later simplex
    # fail.  The distinct rows' evaluation gathered back, or the failure it
    # raises, is that of every row evaluated on its own
    k = kernel_of_kind(kind)
    vals = np.array([-math.cosh(float(l)) for l in dodec27a.lengths])
    vals[changed] = value
    if kind != "float":
        w = half * (np.abs(vals) + 1.0)
        vals = k.from_bounds(vals - w, vals + w)
    params = geo.EdgeParams(vals, k, check=False)
    with pytest.MonkeyPatch.context() as mp:
        if shrunk:
            _shrunk_sqrt(mp, kind)
        got = _evaluated(dodec27a, params)
        mp.setattr(geo, "_distinct_rows", lambda edges, ids: (None, None))
        assert got == _evaluated(dodec27a, params)


@pytest.mark.parametrize("kind", KINDS)
def test_the_centre_evaluates_each_distinct_row_once(kind, dodec27a):
    # dodec27a's candidate has 15 distinct Gram rows in 27; a 53-bit box
    # around it, with its edges of equal value widened alike, has the same
    k = kernel_of_kind(kind)
    p0 = np.array([-math.cosh(float(l)) for l in dodec27a.lengths])
    values = p0 if kind == "float" else k.from_bounds(p0 - 1e-12, p0 + 1e-12)
    first, rows = geo._distinct_rows(geo._plan(dodec27a).edges, k.equal_ids(values))
    assert len(first) == 15 and list(first) == sorted(first) and first[0] == 0
    assert list(rows[first]) == list(range(15))
    for t, r in enumerate(rows):
        assert first[r] <= t
        assert k.equal_ids(values)[dodec27a.edge_table[t]].tolist() == \
            k.equal_ids(values)[dodec27a.edge_table[first[r]]].tolist()
