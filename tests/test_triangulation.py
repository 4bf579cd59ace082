import pytest

from hypcert import triangulation as tr
from tests.conftest import BAD_LINK_TEXT, S3_TEXT


def test_s3_classes(s3):
    assert s3.o == 4
    assert s3.m == 6
    for ec in s3.edge_classes:
        assert len(ec.representatives) == 2


def test_unglued_face_rejected():
    with pytest.raises(tr.TriangulationError, match="not closed"):
        tr.parse("tets 1\ntet 0: - - - -\n")


def test_even_permutation_rejected():
    text = S3_TEXT.replace("1:1023", "1:0123", 1)
    with pytest.raises(tr.TriangulationError):
        tr.parse(text)


def test_non_involutive_rejected():
    text = """tets 2
tet 0: 1:1023 1:1023 1:1023 1:1023
tet 1: 0:1032 0:1023 0:1023 0:1023
"""
    with pytest.raises(tr.TriangulationError, match="involutive|unglued|not closed"):
        tr.parse(text)


def test_bad_link_rejected():
    with pytest.raises(tr.TriangulationError, match="Euler characteristic"):
        tr.parse(BAD_LINK_TEXT)


def test_syntax_errors():
    with pytest.raises(tr.TriangulationError):
        tr.parse("tets x\n")
    with pytest.raises(tr.TriangulationError):
        tr.parse("tets 1\ntet 0: 0:10 0:1023 0:1023 0:1023\n")
    with pytest.raises(tr.TriangulationError):
        tr.parse("tets 1\ntet 0: 0:1022 0:1023 0:1023 0:1023\n")


def test_one_vertex_edge_count(dodec27a, dodec27b):
    # chi = 0 for a closed complex forces E = V + T
    for t in (dodec27a, dodec27b):
        assert t.o == 1
        assert t.m == t.n_tets + 1


def test_euler_characteristic_zero(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        V, E, T = t.o, t.m, t.n_tets
        F = 2 * T
        assert V - E + F - T == 0


def test_orbit_partition_sizes(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        assert sum(len(ec.representatives) for ec in t.edge_classes) == 6 * t.n_tets
        assert sum(len(vc.representatives) for vc in t.vertex_classes) == 4 * t.n_tets


def test_round_trip(dodec27a):
    t2 = tr.parse(tr.serialize(dodec27a))
    assert [e.representatives for e in t2.edge_classes] == [
        e.representatives for e in dodec27a.edge_classes
    ]
    assert [v.representatives for v in t2.vertex_classes] == [
        v.representatives for v in dodec27a.vertex_classes
    ]


def _disjoint_copies(tri, copies):
    n = tri.n_tets
    tets = [
        tr.Tetrahedron(c * n + t.index, [c * n + j for j in t.neighbors], t.perms)
        for c in range(copies)
        for t in tri.tets
    ]
    return tr.serialize(tr.Triangulation(tets), lengths=tri.lengths * copies)


@pytest.mark.parametrize("copies", [2, 3])
def test_disconnected_triangulation_rejected(dodec27a, copies):
    with pytest.raises(tr.TriangulationError, match=f"disconnected: {copies} components"):
        tr.parse(_disjoint_copies(dodec27a, copies))


def test_incidences_s3(s3):
    for ec in s3.edge_classes:
        assert len(tr.edge_incidences(s3, ec)) == 2


def _brute_force_edge_orbits(t):
    """Independent orbit computation: union-find over (tet, edge) pairs
    directly from the face gluing maps."""
    items = [(tet, e) for tet in range(t.n_tets) for e in tr.LOCAL_EDGES]
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for tet in range(t.n_tets):
        for f in range(4):
            j, p = t.neighbor(tet, f)
            for (a, b) in tr.LOCAL_EDGES:
                if a == f or b == f:
                    continue
                img = (min(p[a], p[b]), max(p[a], p[b]))
                union((tet, (a, b)), (j, img))

    groups = {}
    for x in items:
        groups.setdefault(find(x), set()).add(x)
    return {frozenset(g) for g in groups.values()}


def test_edge_classes_match_brute_force(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        mine = {
            frozenset((tt, e) for (tt, e, _) in ec.representatives)
            for ec in t.edge_classes
        }
        assert mine == _brute_force_edge_orbits(t)


ONE_TET_ONE_VERTEX = "tets 1\ntet 0: 0:1023 0:1023 0:1230 0:3012\n"


def test_multiplicity_two_incidence_exists(dodec27b):
    # a one-tetrahedron one-vertex triangulation necessarily has edge
    # classes meeting the tet several times; so does the second bundled
    # fixture; the multiplicity must survive in edge_incidences
    for t in (tr.parse(ONE_TET_ONE_VERTEX), dodec27b):
        found = False
        for ec in t.edge_classes:
            tets = [tt for (tt, _, _) in ec.representatives]
            if len(tets) != len(set(tets)):
                found = True
                inc = tr.edge_incidences(t, ec)
                assert len(inc) == len(ec.representatives)
        assert found
        assert {
            frozenset((tt, e) for (tt, e, _) in ec.representatives)
            for ec in t.edge_classes
        } == _brute_force_edge_orbits(t)


def test_canonical_edge_order(dodec27a):
    keys = [
        min(
            (tt, tr.LOCAL_EDGE_INDEX[e])
            for (tt, e, _) in ec.representatives
        )
        for ec in dodec27a.edge_classes
    ]
    assert keys == sorted(keys)


def test_orientation_flags(dodec27a):
    for ec in dodec27a.edge_classes:
        min_rep = min(
            ec.representatives, key=lambda r: (r[0], tr.LOCAL_EDGE_INDEX[r[1]])
        )
        assert min_rep[2] == 1
        for (_, _, o) in ec.representatives:
            assert o in (-1, 1)


def test_lengths_section(dodec27a):
    assert dodec27a.lengths is not None
    assert len(dodec27a.lengths) == dodec27a.m
    with pytest.raises(tr.TriangulationError, match="lengths"):
        tr.parse("tets 2\n"
                 "tet 0: 1:1023 1:1023 1:1023 1:1023\n"
                 "tet 1: 0:1023 0:1023 0:1023 0:1023\n"
                 "lengths:\n1.0 1.0\n")


# -- hexagonal vertex links --------------------------------------------------


def test_link_hexagon_counts(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = tr.vertex_link_hexagon_complex(t, k)
            assert link.n_hexagons == len(t.vertex_classes[k].representatives)


def test_link_euler_characteristic(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = tr.vertex_link_hexagon_complex(t, k)
            V = len(set(link.lv_of.values()))
            E = len(link.beta_pairs) + len(link.gamma_to_end)
            F = link.n_hexagons + len(link.prism_ends)
            assert V - E + F == 2


def test_prism_end_boundary_lengths(hyperbolic_triangulations, s3):
    # each end polygon has one side per incidence of its edge class
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = tr.vertex_link_hexagon_complex(t, k)
            for end in link.prism_ends:
                inc = len(t.edge_classes[end.edge_class].representatives)
                assert len(end.gammas) == inc


def test_prism_ends_cover_edge_ends(dodec30x2):
    t = dodec30x2
    total = sum(
        len(tr.vertex_link_hexagon_complex(t, k).prism_ends) for k in range(t.o)
    )
    assert total == 2 * t.m


def test_hexagon_boundary_closes(dodec27a):
    link = tr.vertex_link_hexagon_complex(dodec27a, 0)
    for corner, letters in link.hexagons.items():
        for cur, nxt in zip(letters, letters[1:] + letters[:1]):
            assert cur["end"] == nxt["start"]
        kinds = [let["kind"] for let in letters]
        assert kinds == ["g", "b"] * 3


@pytest.mark.parametrize("bad", ["1000", "711", "-1000", "nan", "inf", "-inf"])
def test_lengths_must_have_a_finite_cosh(dodec27a, bad):
    text = tr.serialize(dodec27a, lengths=())
    head = text.rsplit("lengths:", 1)[0]
    values = ["1.0"] * dodec27a.m
    values[3] = bad
    with pytest.raises(tr.TriangulationError, match="length 3 is"):
        tr.parse(head + "lengths:\n" + " ".join(values) + "\n")
    values[3] = "710"  # cosh(710) is still a finite float
    assert tr.parse(head + "lengths:\n" + " ".join(values) + "\n").lengths[3] == 710
