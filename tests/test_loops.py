"""Stage V's vertex links and gimbal loops against their reference.

`tests/link_oracle.py` keeps the link builder, the loop builder and the
loop validator as they were before they became linear in a link's
letters and before links and loops became integer slot tables and words.
Expanded into the reference's dicts (`tests/link_slots.py`), the links
must match it field for field and the loops letter for letter, on the
bundled fixtures, on the benchmark's scaling inputs and on every removed
set `tests/test_gimbal.py` builds loops for; and both validators must
reject each tampered loop with the same message.  Each link is cut out of
the triangulation's `VertexLinks` and numbered on its own (`link_view`),
and each loop likewise (`loop_view`).  Each link's spanning tree
(`VertexLinks.order`, `entry`) must be that of a breadth-first search with
a plain queue, and each loop must bound the shortest prefix of its order
that touches the removed polygons.
"""

import collections
import random

import numpy as np
import pytest

from hypcert import gimbal as gb
from hypcert import triangulation as tr
from tests import link_oracle
from tests.conftest import data_path, stage_one
from tests.link_slots import (
    build_loop,
    expand_link,
    expand_loop,
    global_word,
    letters_of,
    link_view,
    loop_view,
    serialize_letters,
)
from tests.test_gimbal import _scaling_member
from tests.test_triangulation import _random_gluing, assert_link_matches

FIXTURES = ("dodec27a", "dodec27b", "dodec30x2", "s3_twotet")
SCALING = tuple(f"scaling{k}-seed{seed}" for k in (12, 24) for seed in (1, 2, 3, 7, 8))


def _input(name):
    if name.startswith("scaling"):
        moves, seed = name[len("scaling"):].split("-seed")
        return _scaling_member(int(moves), seed=int(seed))
    return tr.parse_file(data_path(name + ".tri"))


def _loose_edge_sets(name, tri):
    """The loose edges `tests/test_gimbal.py` builds loops for: stage I's,
    and on dodec27a twenty random triples as well."""
    if name == "s3_twotet":  # rejected in stage I
        return []
    out = [stage_one(tri)[2].e_sim]
    if name == "dodec27a":
        rng = random.Random(13)
        out += [sorted(rng.sample(range(tri.m), 3)) for _ in range(20)]
    return out


def _least_prefix(link, removed):
    """The hexagons of the shortest prefix of `link.order` whose letters
    end on every polygon in `removed`."""
    order, touched = link.order.tolist(), set()
    for size, h in enumerate(order, 1):
        touched.update(link.end_pid[6 * h:6 * h + 6].tolist())
        if touched >= set(removed):
            return set(order[:size])
    raise AssertionError("the link's hexagons do not touch every removed polygon")


def _queue_bfs(link):
    """The order and entry letters of a breadth-first search of `link`'s
    hexagons with a plain queue: from hexagon 0, middle letters 1, 3, 5."""
    entry, order, queue = {0: 0}, [], collections.deque([0])
    while queue:
        h = queue.popleft()
        order.append(h)
        for j in (1, 3, 5):
            c, i = divmod(int(link.other_side[6 * h + j]), 6)
            if c not in entry:
                entry[c] = i
                queue.append(c)
    return order, [entry[c] for c in range(link.n_hexagons)]


def assert_trees_are_a_queue_bfs(links):
    for got in (links.order, links.entry):
        assert got.dtype == np.intp and not got.flags.writeable
    for k in range(len(links.hexagon_offsets) - 1):
        link = link_view(links, k)
        order, entry = _queue_bfs(link)
        assert sorted(order) == list(range(link.n_hexagons))
        assert link.order.tolist() == order
        assert link.entry.tolist() == entry


@pytest.mark.parametrize("name", FIXTURES + SCALING)
def test_link_spanning_trees_are_a_queue_bfs(name):
    assert_trees_are_a_queue_bfs(tr.vertex_link_hexagon_complex(_input(name)))


def test_random_gluings_link_spanning_trees_are_a_queue_bfs():
    rng = random.Random(23)
    parsed = 0
    while parsed < 200:
        try:
            tri = tr.parse(_random_gluing(rng, rng.randint(1, 4)))
        except tr.TriangulationError:
            continue
        parsed += 1
        assert_trees_are_a_queue_bfs(tr.vertex_link_hexagon_complex(tri))


@pytest.mark.parametrize("name", FIXTURES + SCALING)
def test_links_and_loops_match_reference(name):
    tri = _input(name)
    loose = [set(e_sim) for e_sim in _loose_edge_sets(name, tri)]
    links = tr.vertex_link_hexagon_complex(tri)
    for k in range(tri.o):
        link = link_view(links, k)
        ref = link_oracle.vertex_link_hexagon_complex(tri, k)
        assert_link_matches(links, k, ref)
        expanded = expand_link(link)
        n = len(link.prism_ends)
        picks = [s for s in ([0], [n - 1], [0, 1, 2], [0, 1], [0, 3, 5]) if max(s) < n]
        picks += [[pid for pid, cls in enumerate(link.end_class.tolist()) if cls in e]
                  for e in loose]
        for removed in picks:
            loop = build_loop(links, k, removed)
            view = loop_view(loop)
            want = link_oracle.build_gimbal_loop(ref, removed)
            assert letters_of(view) == want.word, (k, removed)
            assert loop.serialize() == serialize_letters(want.word)
            assert link_oracle.validate_gimbal_loop(expand_loop(view, expanded))
            hexagons = set((view.word[view.word >= 0] // 6).tolist())
            assert hexagons == _least_prefix(link, removed), (k, removed)
        with pytest.raises(gb.GimbalLoopError, match=f"^no prism end {n} in this link$"):
            link_oracle.build_gimbal_loop(ref, [n])
    n = len(links.end_class)
    with pytest.raises(gb.GimbalLoopError, match=f"^no prism end {n} in these links$"):
        gb.build_gimbal_loops(links, [n])


# -- the validator, clause by clause ---------------------------------------------


def _lap(link, c, lv):
    """The slots around hexagon c, from its letter that starts at lv."""
    i = next(i for i in range(6) if link.start[6 * c + i] == lv)
    return [6 * c + (i + j) % 6 for j in range(6)]


def _move(word, i, j):
    """The word with its letter i moved to just after its letter j."""
    out = list(word)
    letter = out.pop(i)
    out.insert(j + (j < i), letter)
    return out


def _tampered(case, links, k):
    """A loop over link k of `links` broken in one way, the same loop as the
    reference's dicts, and the message both must raise."""
    link = link_view(links, k)
    loop = loop_view(build_loop(links, k, [0, 1, len(link.prism_ends) - 1]))
    word, removed = loop.word.tolist(), loop.removed
    poly = [i for i, w in enumerate(word) if w < 0]
    # an edge letter followed by an edge letter
    i = next(i for i in range(len(word) - 1) if word[i] >= 0 and word[i + 1] >= 0)
    # a middle edge of the loop's first hexagon, and its other side
    side_a, side_b = 1, int(link.other_side[1])
    reference = None
    if case == "empty loop":
        word, message = [], "empty loop"
    elif case == "doubled polygon letter":
        word = word[:poly[0] + 1] + word[poly[0]:]
        message = "removed polygons not each visited exactly once"
    elif case == "polygon letter after a polygon letter":
        word = _move(word, poly[1], poly[0])
        message = "polygon letter preceded by another polygon"
    elif case == "unanchored polygon letter":
        pid = -1 - word[poly[0]]
        j = next(j for j in range(len(word) - 1)
                 if word[j] >= 0 and word[j + 1] >= 0 and link.end_pid[word[j]] != pid)
        word, message = _move(word, poly[0], j), "polygon letter not anchored on its boundary"
    elif case == "open edge path":
        word, message = word[:i] + word[i + 1:], "edge word is not a closed path"
    elif case == "owner slot does not match":
        # a slot is its owner hexagon's letter, so an owner cannot disagree
        # with its slot: the word names slot i of a hexagon past the link's
        # last, the next link's or none, and the reference's dicts give a
        # letter another hexagon owns
        reference = letters_of(loop, word)
        other = next(let["owner"] for let in reference
                     if let["kind"] != "P" and let["owner"] != reference[i]["owner"])
        reference[i] = dict(reference[i], owner=other)
        word[i] += 6 * link.n_hexagons
        message = "letter does not match a unique owner slot"
    elif case == "unclaimed slot":
        # both sides of one middle edge, there and back: the other ten slots
        # of their hexagons are neither claimed nor crossed
        word, removed = [side_a, side_b], ()
        message = "hexagon slots and word letters disagree"
    elif case == "doubly claimed slot":
        # a second lap around a used hexagon
        word = word[:i] + _lap(link, word[i] // 6, link.start[word[i]]) + word[i:]
        message = "hexagon slots and word letters disagree"
    elif case == "disconnected hexagons":
        # laps around two neighbours that cross no middle edge
        lv = link.start[side_a]
        word = _lap(link, side_a // 6, lv) + _lap(link, side_b // 6, lv)
        removed, message = (), "hexagon disk is not connected"
    first = links.polygon_offsets[k]
    bad = gb.GimbalLoop(k, links, tuple(p + first for p in removed), global_word(links, k, word))
    if reference is None:
        reference = letters_of(loop, word)
    return bad, gb.GimbalLoop(k, expand_link(link), removed, reference), message


TAMPERING = [
    "empty loop",
    "doubled polygon letter",
    "polygon letter after a polygon letter",
    "unanchored polygon letter",
    "open edge path",
    "owner slot does not match",
    "unclaimed slot",
    "doubly claimed slot",
    "disconnected hexagons",
]


@pytest.mark.parametrize("case", TAMPERING)
@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2"])
def test_validator_rejects_tampering(case, name, hyperbolic_triangulations):
    links = tr.vertex_link_hexagon_complex(hyperbolic_triangulations[name])
    bad, reference, message = _tampered(case, links, 0)
    with pytest.raises(gb.GimbalLoopError, match=f"^{message}$"):
        gb.validate_gimbal_loops([bad])
    with pytest.raises(gb.GimbalLoopError, match=f"^{message}$"):
        link_oracle.validate_gimbal_loop(reference)


@pytest.mark.parametrize("case", TAMPERING)
@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2", "scaling12-seed1"])
def test_stacked_validator_raises_the_first_bad_loops_message(case, name):
    # the tampered loop on link k in place of the k-th of a partition's
    # loops, one per link: the message is the one it raises alone, also with
    # the next loop emptied, which fails an earlier clause
    tri = _input(name)
    links = tr.vertex_link_hexagon_complex(tri)
    good = gb.build_loops_for_partition(tri, stage_one(tri)[2].e_sim, links)
    assert len(good) == tri.o
    for k in range(tri.o):
        bad, _, message = _tampered(case, links, k)
        lists = [good[:k] + [bad] + good[k + 1:]]
        if k + 1 < tri.o:
            empty = gb.GimbalLoop(k + 1, links, (), np.zeros(0, dtype=np.intp))
            lists.append(good[:k] + [bad, empty] + good[k + 2:])
        for loops in lists:
            with pytest.raises(gb.GimbalLoopError, match=f"^{message}$"):
                gb.validate_gimbal_loops(loops)


@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2", "scaling12-seed1"])
def test_validator_rejects_two_loops_on_one_link(name):
    # loops share one slot numbering: two on one link would mix their claims
    tri = _input(name)
    links = tr.vertex_link_hexagon_complex(tri)
    loops = gb.build_loops_for_partition(tri, stage_one(tri)[2].e_sim, links)
    assert gb.validate_gimbal_loops(loops)
    for k in range(tri.o):
        for again in (loops[k], build_loop(links, k, [0])):
            with pytest.raises(gb.GimbalLoopError, match="^two loops on one vertex link$"):
                gb.validate_gimbal_loops(loops[:k + 1] + [again] + loops[k + 1:])


@pytest.mark.parametrize("name", FIXTURES + tuple(f"scaling{k}-seed{seed}" for k in (12, 24)
                                                  for seed in (1, 7)))
def test_stacked_validator_accepts_every_partition(name, monkeypatch):
    # every partition's loops, and the loops around no polygon; building a
    # partition's loops validates them once
    tri = _input(name)
    links = tr.vertex_link_hexagon_complex(tri)
    calls = []
    validate = gb.validate_gimbal_loops

    def counting(loops):
        calls.append(len(loops))
        return validate(loops)

    monkeypatch.setattr(gb, "validate_gimbal_loops", counting)
    for e_sim in _loose_edge_sets(name, tri):
        calls.clear()
        loops = gb.build_loops_for_partition(tri, e_sim, links)
        assert calls == [tri.o]
        assert validate(loops)
    assert validate(gb.build_gimbal_loops(links, []))
