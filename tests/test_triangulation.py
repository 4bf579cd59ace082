import dataclasses
import itertools
import random

import numpy as np
import pytest

from hypcert import triangulation as tr
from tests import link_oracle
from tests.link_slots import expand_link
from tests.conftest import BAD_LINK_TEXT, DEGREE_ONE_TEXT, S3_TEXT


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
        # the parsed edge table names the same class at every local edge
        table = t.edge_table
        assert table.shape == (t.n_tets, 6) and table.dtype == np.intp
        assert not table.flags.writeable
        assert all(table[tt, tr.LOCAL_EDGE_INDEX[e]] == ec.index
                   for ec in t.edge_classes for (tt, e, _) in ec.representatives)


# edge valences 3 and 3 (a gluing with a degree-1 edge fails to parse)
ONE_TET_ONE_VERTEX = "tets 1\ntet 0: 0:3201 0:1230 0:3012 0:2310\n"


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
            link = expand_link(tr.vertex_link_hexagon_complex(t, k))
            V = len({letter["start"] for cycle in link.hexagons.values() for letter in cycle})
            E = len(link.beta_pairs) + len(link.gamma_to_end)
            F = link.n_hexagons + len(link.prism_ends)
            assert V - E + F == 2


def test_prism_end_boundary_lengths(hyperbolic_triangulations, s3):
    # each end polygon has one side per incidence of its edge class
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = tr.vertex_link_hexagon_complex(t, k)
            for cycle, cls in zip(link.prism_ends, link.end_class):
                assert len(cycle) == len(t.edge_classes[cls].representatives)


def test_prism_ends_cover_edge_ends(dodec30x2):
    t = dodec30x2
    total = sum(
        len(tr.vertex_link_hexagon_complex(t, k).prism_ends) for k in range(t.o)
    )
    assert total == 2 * t.m


def test_hexagon_boundary_closes(dodec27a):
    link = expand_link(tr.vertex_link_hexagon_complex(dodec27a, 0))
    for corner, letters in link.hexagons.items():
        for cur, nxt in zip(letters, letters[1:] + letters[:1]):
            assert cur["end"] == nxt["start"]
        kinds = [let["kind"] for let in letters]
        assert kinds == ["g", "b"] * 3


def test_degree_one_edge_has_no_link():
    # valences [2, 9, 1]: the degree-1 edge's prism end is a one-sided polygon
    with pytest.raises(tr.TriangulationError,
                       match="^edge class 2 has degree 1: a single dihedral angle, "
                             "less than pi, cannot make a full turn$"):
        tr.parse(DEGREE_ONE_TEXT)


def assert_link_matches(link, ref):
    """The slot tables of `link`, expanded (`tests/link_slots.py`), have
    every field of the reference's `LinkComplex`, equal, and in the same
    order where the reference's order is deterministic (it fills
    `lv_to_pid` from a set).  A letter has one key more than the
    reference's, its owner hexagon."""
    link = expand_link(link)
    for f in dataclasses.fields(ref):
        got, want = getattr(link, f.name), getattr(ref, f.name)
        if f.name == "hexagons":
            assert all(let["owner"] == c for c, lets in got.items() for let in lets)
            got = {c: [{key: v for key, v in let.items() if key != "owner"} for let in lets]
                   for c, lets in got.items()}
        assert got == want, f.name
        if isinstance(want, dict) and f.name != "lv_to_pid":
            assert list(got) == list(want), f.name


_ODD = [p for p in itertools.permutations(range(4)) if tr.perm_parity(p) == -1]


def _random_gluing(rng, n):
    """A random closed, oriented gluing of n tetrahedra: the faces paired at
    random, each pair by a random odd permutation."""
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    rows = [[None] * 4 for _ in range(n)]
    for (t1, f1), (t2, f2) in zip(faces[::2], faces[1::2]):
        p = rng.choice([p for p in _ODD if p[f1] == f2])
        rows[t1][f1] = f"{t2}:{''.join(map(str, p))}"
        rows[t2][f2] = f"{t1}:{''.join(map(str, tr.perm_inverse(p)))}"
    return f"tets {n}\n" + "".join(f"tet {t}: {' '.join(r)}\n" for t, r in enumerate(rows))


def test_random_gluings_links_match_reference():
    # small gluings are full of self-glued tetrahedra and low-degree edges;
    # parsing rejects those with an edge class of degree 1, whose prism end
    # is a one-sided polygon the reference's walk cannot close
    rng = random.Random(19)
    parsed = degree_one = 0
    while parsed < 300:
        try:
            tri = tr.parse(_random_gluing(rng, rng.randint(1, 3)))
        except tr.TriangulationError as exc:
            degree_one += "has degree 1" in str(exc)
            continue
        parsed += 1
        assert min(len(ec.representatives) for ec in tri.edge_classes) >= 2
        for k in range(tri.o):
            assert_link_matches(tr.vertex_link_hexagon_complex(tri, k),
                                link_oracle.vertex_link_hexagon_complex(tri, k))
    assert degree_one > 0


@pytest.mark.parametrize("bad", ["1000", "711", "-1000", "nan", "inf", "-inf",
                                 "0", "-0.0", "-5e-324", "-1.0"])
def test_lengths_must_have_a_finite_cosh(dodec27a, bad):
    text = tr.serialize(dodec27a, lengths=())
    head = text.rsplit("lengths:", 1)[0]
    values = ["1.0"] * dodec27a.m
    values[3] = bad
    with pytest.raises(tr.TriangulationError, match="length 3 is"):
        tr.parse(head + "lengths:\n" + " ".join(values) + "\n")
    values[3] = "710"  # cosh(710) is still a finite float
    assert tr.parse(head + "lengths:\n" + " ".join(values) + "\n").lengths[3] == 710


def test_negated_lengths_are_rejected(dodec27a):
    # cosh is even, so the negated lengths of a hyperbolic structure have
    # its edge parameters: parsing, not the certificate, must refuse them
    text = tr.serialize(dodec27a, lengths=[-l for l in dodec27a.lengths])
    with pytest.raises(tr.TriangulationError,
                       match=f"length 0 is {-dodec27a.lengths[0]!r}: not positive"):
        tr.parse(text)
    values = list(dodec27a.lengths)
    values[-1] = 5e-324  # the least positive float is a length
    assert tr.parse(tr.serialize(dodec27a, lengths=values)).lengths == values
