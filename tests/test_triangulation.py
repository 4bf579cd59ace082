import dataclasses
import itertools
import random
import re

import numpy as np
import pytest

from hypcert import triangulation as tr
from tests import link_oracle
from tests import triangulation_oracle as oracle
from tests.link_slots import expand_link, link_of, link_view
from tests.conftest import BAD_LINK_TEXT, DEGREE_ONE_TEXT, S3_TEXT


def test_s3_classes(s3):
    assert s3.o == 4
    assert s3.m == 6
    assert s3.edge_degrees.tolist() == [2] * 6


TABLES = ("neighbor_table", "perm_table", "edge_table", "vertex_table", "edge_states",
          "edge_degrees")


def test_tables_are_read_only_intp(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        n = t.n_tets
        shapes = [(n, 4), (n, 4), (n, 6), (n, 4), (6 * n,), (t.m,)]
        for name, shape in zip(TABLES, shapes):
            table = getattr(t, name)
            assert table.shape == shape and table.dtype == np.intp, name
            assert not table.flags.writeable, name


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


BAD_HEADERS = (
    ("tetsXYZ 2", "missing 'tets N' header"),
    ("tets 0_2", "malformed 'tets N' header: bad tet count '0_2'"),
    ("tets \uff12", "malformed 'tets N' header: bad tet count '\uff12'"),
    ("tets +2", "malformed 'tets N' header: bad tet count '+2'"),
    ("tets -2", "malformed 'tets N' header: bad tet count '-2'"),
    ("tets 2 junk", "malformed 'tets N' header: expected 2 tokens, got 'tets 2 junk'"),
    ("tets", "malformed 'tets N' header: expected 2 tokens, got 'tets'"),
    ("tets 0", "need at least one tetrahedron"),
)


@pytest.mark.parametrize("header, message", BAD_HEADERS, ids=[h for h, _ in BAD_HEADERS])
def test_header_is_tets_and_ascii_digits(header, message):
    # int() reads '0_2', a full-width 2 and '+2' as 2
    body = S3_TEXT.split("\n", 1)[1]
    with pytest.raises(tr.TriangulationError, match=f"^{re.escape(message)}$"):
        tr.parse(f"{header}\n{body}")
    assert tr.parse(f"tets 02\n{body}").n_tets == 2


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
    # the walk states name every incidence once, and the classes are
    # numbered from 0 without a gap
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        states = t.edge_states
        assert t.edge_degrees.sum() == 6 * t.n_tets
        incidences = 6 * (states // 24) + tr.PERM_EDGE[states % 24]
        assert sorted(incidences.tolist()) == list(range(6 * t.n_tets))
        assert set(t.vertex_table.ravel().tolist()) == set(range(t.o))


def test_round_trip(dodec27a):
    t2 = tr.parse(tr.serialize(dodec27a))
    for name in TABLES:
        assert np.array_equal(getattr(t2, name), getattr(dodec27a, name)), name
    assert t2.lengths == dodec27a.lengths


def _disjoint_copies(tri, copies):
    n = tri.n_tets
    rows = [f"tet {c * n + i}: " + " ".join(f"{c * n + j}:{tr.PERM_STRINGS[p]}"
                                              for j, p in zip(row, prow))
            for c in range(copies)
            for i, (row, prow) in enumerate(zip(tri.neighbor_table.tolist(),
                                                tri.perm_table.tolist()))]
    lengths = " ".join(map(repr, tri.lengths * copies))
    return f"tets {copies * n}\n" + "\n".join(rows) + f"\nlengths:\n{lengths}\n"


@pytest.mark.parametrize("copies", [2, 3])
def test_disconnected_triangulation_rejected(dodec27a, copies):
    with pytest.raises(tr.TriangulationError, match=f"disconnected: {copies} components"):
        tr.parse(_disjoint_copies(dodec27a, copies))


def test_incidences_s3(s3):
    # each class's walk states are incidences of that class
    bounds = np.cumsum(s3.edge_degrees).tolist()
    for k, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
        states = s3.edge_states[lo:hi]
        assert len(states) == 2
        assert (s3.edge_table[states // 24, tr.PERM_EDGE[states % 24]] == k).all()


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
            j, p = oracle.neighbor(t, tet, f)
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
        classes = oracle.edge_classes(t)
        mine = {
            frozenset((tt, e) for (tt, e, _) in ec.representatives)
            for ec in classes
        }
        assert mine == _brute_force_edge_orbits(t)
        # the parsed edge table names the same class at every local edge
        assert all(t.edge_table[tt, tr.LOCAL_EDGE_INDEX[e]] == ec.index
                   for ec in classes for (tt, e, _) in ec.representatives)


# edge valences 3 and 3 (a gluing with a degree-1 edge fails to parse)
ONE_TET_ONE_VERTEX = "tets 1\ntet 0: 0:3201 0:1230 0:3012 0:2310\n"


def test_multiplicity_two_incidence_exists(dodec27b):
    # a one-tetrahedron one-vertex triangulation necessarily has edge
    # classes meeting the tet several times; so does the second bundled
    # fixture; the multiplicity must survive in the walk states
    for t in (tr.parse(ONE_TET_ONE_VERTEX), dodec27b):
        found = False
        classes = oracle.edge_classes(t)
        for ec in classes:
            tets = [tt for (tt, _, _) in ec.representatives]
            if len(tets) != len(set(tets)):
                found = True
                assert np.count_nonzero(t.edge_table == ec.index) == len(tets)
        assert found
        assert {
            frozenset((tt, e) for (tt, e, _) in ec.representatives)
            for ec in classes
        } == _brute_force_edge_orbits(t)


def test_canonical_edge_order(dodec27a):
    keys = [
        min(
            (tt, tr.LOCAL_EDGE_INDEX[e])
            for (tt, e, _) in ec.representatives
        )
        for ec in oracle.edge_classes(dodec27a)
    ]
    assert keys == sorted(keys)


def test_orientation_flags(dodec27a):
    for ec in oracle.edge_classes(dodec27a):
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
            link = link_of(t, k)
            assert link.n_hexagons == np.count_nonzero(t.vertex_table == k)


def test_link_euler_characteristic(hyperbolic_triangulations, s3):
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = expand_link(link_of(t, k))
            V = len({letter["start"] for cycle in link.hexagons.values() for letter in cycle})
            E = len(link.beta_pairs) + len(link.gamma_to_end)
            F = link.n_hexagons + len(link.prism_ends)
            assert V - E + F == 2


def test_prism_end_boundary_lengths(hyperbolic_triangulations, s3):
    # each end polygon has one side per incidence of its edge class
    for t in list(hyperbolic_triangulations.values()) + [s3]:
        for k in range(t.o):
            link = link_of(t, k)
            for cycle, cls in zip(link.prism_ends, link.end_class):
                assert len(cycle) == t.edge_degrees[cls]


def test_prism_ends_cover_edge_ends(dodec30x2):
    t = dodec30x2
    links = tr.vertex_link_hexagon_complex(t)
    assert len(links.end_class) == links.polygon_offsets[-1] == 2 * t.m
    assert sorted(links.end_class.tolist()) == sorted(2 * list(range(t.m)))


def test_hexagon_boundary_closes(dodec27a):
    link = expand_link(link_of(dodec27a, 0))
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


def assert_link_matches(links, k, ref):
    """Link k of the record `links`, cut out and expanded
    (`tests/link_slots.py`), has every field of the reference's
    `LinkComplex`, equal, and in the same order where the reference's order
    is deterministic (it fills `lv_to_pid` from a set).  A letter has one
    key more than the reference's, its owner hexagon.  Every field of the
    record is a read-only np.intp array: links are kept on their
    triangulation."""
    for f in dataclasses.fields(links):
        a = getattr(links, f.name)
        assert a.dtype == np.intp and not a.flags.writeable, f.name
    link = expand_link(link_view(links, k))
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
        assert tri.edge_degrees.min() >= 2
        links = tr.vertex_link_hexagon_complex(tri)
        for k in range(tri.o):
            assert_link_matches(links, k, link_oracle.vertex_link_hexagon_complex(tri, k))
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


@pytest.mark.parametrize("bad", ["1_0", "1.0_5", "\uff11.5", "1.5\u0661", "1.0x"])
def test_length_is_an_ascii_decimal(dodec27a, bad):
    # float() reads the first four, as 10.0, 1.05, 1.5 and 1.51
    head = tr.serialize(dodec27a, lengths=()).rsplit("lengths:", 1)[0]
    values = ["1.0"] * dodec27a.m
    values[3] = bad
    with pytest.raises(tr.TriangulationError,
                       match=f"^length 3 is {re.escape(repr(bad))}: not a number$"):
        tr.parse(head + "lengths:\n" + " ".join(values) + "\n")


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
