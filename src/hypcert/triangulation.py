"""Triangulation combinatorics.

Parses a plain-text gluing table for a finite triangulation of a closed
oriented 3-manifold, validates it (involutive gluings, orientability,
connectedness, spherical vertex links, no edge of degree 1) and keeps the
gluing as read-only integer tables: each face's neighbour and gluing
permutation, each local edge's edge class, each corner's vertex class,
and the edge classes' incidences as walk states, which carry the
orientation of each incidence.  The hexagonal vertex-link complexes of
the doubly truncated simplices are built from the same tables, all links
in one record of integer arrays under one numbering (`VertexLinks`), which
stage I and stage V read as it is.

File format (UTF-8, line oriented, '#' comments allowed)::

    tets N
    tet i: j0:abcd j1:abcd j2:abcd j3:abcd
    ...
    lengths:
    l_1 l_2 ... l_m

Face f of tet i is glued to tet jf via the vertex map 0->a, 1->b, 2->c,
3->d.  N and a gluing's target are ASCII digits; a gluing is its target,
a colon and one of the 24 permutation strings; an unglued face is written
'-' (rejected later as not closed).  The optional lengths section lists
one ASCII decimal per edge class in canonical order, each positive and
with a finite cosh.

A permutation is held as its index in S4 (`PERMS`, in lexicographic
order, so indices order as the tuples do).  Parity and involution are
table lookups, vertex classes a flood over the integer corner ids
4 tet + v, and edge classes a walk over the states 24 tet + s.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TriangulationError",
    "Triangulation",
    "parse",
    "parse_file",
    "serialize",
    "VertexLinks",
    "vertex_link_hexagon_complex",
]

# local edges of a tetrahedron in canonical order
LOCAL_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
LOCAL_EDGE_INDEX = {e: i for i, e in enumerate(LOCAL_EDGES)}

def perm_parity(p):
    """+1 for even, -1 for odd."""
    inv = 0
    for i in range(4):
        for j in range(i + 1, 4):
            if p[i] > p[j]:
                inv += 1
    return -1 if inv % 2 else 1


def perm_inverse(p):
    q = [0] * 4
    for i, v in enumerate(p):
        q[v] = i
    return tuple(q)


PERMS = tuple(itertools.permutations(range(4)))
PERM_STRINGS = tuple("".join(map(str, p)) for p in PERMS)
_PERM_INDEX = {s: i for i, s in enumerate(PERM_STRINGS)}  # of a permutation string
_PERM_INDEX_OF = {p: i for i, p in enumerate(PERMS)}  # of a permutation tuple
_INVERSE = [_PERM_INDEX_OF[perm_inverse(p)] for p in PERMS]
_ODD = [perm_parity(p) == -1 for p in PERMS]
_COMPOSE = np.array([[_PERM_INDEX_OF[tuple(p[x] for x in q)] for q in PERMS] for p in PERMS])
_APPLY = np.array(PERMS)  # [p, v]: the image of v under p
# per permutation s: the local edge s(0) s(1), in LOCAL_EDGES order; an
# edge walk state 24 tet + s is the incidence of that edge in tet, run
# s(0) -> s(1)
PERM_EDGE = np.array([LOCAL_EDGE_INDEX[tuple(sorted(s[:2]))] for s in PERMS])
# per permutation s, for the edge walk: the face s(2) it leaves through,
# the state s (2 3), the directed edge 4 s(0) + s(1) and the reversed state
_EXIT = _APPLY[:, 2]
_SWAP23 = np.array([_PERM_INDEX_OF[(s[0], s[1], s[3], s[2])] for s in PERMS])
_DIRECTED = 4 * _APPLY[:, 0] + _APPLY[:, 1]
_REVERSED = [_PERM_INDEX_OF[(s[1], s[0], s[2], s[3])] for s in PERMS]
# the first state of each local edge (a, b): a -> b, leaving through the
# smaller of its two faces
_FIRST_STATE = np.array([_PERM_INDEX_OF[(a, b, *(f for f in range(4) if f not in (a, b)))]
                         for a, b in LOCAL_EDGES])


class TriangulationError(ValueError):
    pass


@dataclass(eq=False)
class Triangulation:
    """A validated gluing as read-only np.intp tables.

    Edge class k's incidences are edge_states[d_0 + ... + d_{k-1}:][:d_k]
    for its degrees d = edge_degrees: walk states 24 tet + s, the local
    edge PERM_EDGE[s] of tet run s(0) -> s(1), in the order of the walk
    around the edge.  Classes are in the order of their first local edge
    (tet, LOCAL_EDGES index), which is also the first state of the class,
    run from the smaller vertex to the larger."""

    neighbor_table: np.ndarray  # (n_tets, 4): the tet across each face
    perm_table: np.ndarray  # (n_tets, 4): the face's gluing, an index in PERMS
    edge_table: np.ndarray  # (n_tets, 6): each local edge's edge class
    vertex_table: np.ndarray  # (n_tets, 4): each corner's vertex class
    edge_states: np.ndarray  # (6 n_tets,): incidences, grouped by class
    edge_degrees: np.ndarray  # (m,): the incidences of each class
    lengths: list = None
    # the index plans of `geometry` and the `VertexLinks`, which depend only
    # on the gluing: built on first use and kept here
    geometry_plan: object = field(default=None, repr=False)
    links: object = field(default=None, repr=False)

    @property
    def n_tets(self):
        return len(self.neighbor_table)

    @property
    def m(self):
        return len(self.edge_degrees)

    @property
    def o(self):
        return int(self.vertex_table.max()) + 1


def _parse_gluing(tok, n_tets, i, f):
    """(target tet, permutation index) of one gluing token, or (None, None)."""
    if tok == "-":
        return None, None
    tgt, colon, perm = tok.partition(":")
    if not colon:
        raise TriangulationError(f"tet {i} face {f}: bad gluing token {tok!r}")
    if not (tgt.isascii() and tgt.isdigit()):
        raise TriangulationError(f"tet {i} face {f}: bad target tet in {tok!r}")
    if int(tgt) >= n_tets:
        raise TriangulationError(f"tet {i} face {f}: target tet {int(tgt)} out of range")
    p = _PERM_INDEX.get(perm)
    if p is None:
        if len(perm) != 4 or not all(c in "0123" for c in perm):
            raise TriangulationError(f"tet {i} face {f}: bad permutation {perm!r}")
        raise TriangulationError(f"tet {i} face {f}: {perm!r} is not a permutation")
    return int(tgt), p


def _parse_lengths(vals):
    lengths = []
    for i, v in enumerate(vals):
        # float() also reads digit separators and non-ASCII digits
        try:
            if not v.isascii() or "_" in v:
                raise ValueError
            lengths.append(float(v))
        except ValueError:
            raise TriangulationError(f"length {i} is {v!r}: not a number") from None
    for i, l in enumerate(lengths):
        # cosh is even: a negated length would pass for its absolute value
        if not l > 0.0:
            raise TriangulationError(f"length {i} is {l!r}: not positive")
        try:
            ok = math.isfinite(math.cosh(l))
        except OverflowError:
            ok = False
        if not ok:
            raise TriangulationError(f"length {i} is {l!r}: its cosh is not a finite float")
    return lengths


def _frozen(a):
    a = np.asarray(a, dtype=np.intp)
    a.flags.writeable = False
    return a


def parse(text):
    """Parse and fully validate a triangulation file."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    header = lines[0].split() if lines else []
    if header[:1] != ["tets"]:
        raise TriangulationError("missing 'tets N' header")
    if len(header) != 2:
        raise TriangulationError(
            f"malformed 'tets N' header: expected 2 tokens, got {lines[0]!r}")
    if not (header[1].isascii() and header[1].isdigit()):
        raise TriangulationError(f"malformed 'tets N' header: bad tet count {header[1]!r}")
    n = int(header[1])
    if n == 0:
        raise TriangulationError("need at least one tetrahedron")

    nb, pi = [], []  # (n, 4) tables: neighbour tet and permutation index
    for i in range(n):
        if i + 1 >= len(lines):
            raise TriangulationError(f"missing line for tet {i}")
        head, _, rest = lines[i + 1].partition(":")
        if head.split() != ["tet", str(i)]:
            raise TriangulationError(f"expected 'tet {i}:', got {lines[i + 1]!r}")
        toks = rest.split()
        if len(toks) != 4:
            raise TriangulationError(f"tet {i}: expected 4 face gluings")
        row = [_parse_gluing(tok, n, i, f) for f, tok in enumerate(toks)]
        nb.append([j for j, _ in row])
        pi.append([p for _, p in row])

    lengths = None
    if n + 1 < len(lines):
        if lines[n + 1] != "lengths:":
            raise TriangulationError(f"unexpected line {lines[n + 1]!r}")
        lengths = _parse_lengths(" ".join(lines[n + 2:]).split())

    _validate_gluings(nb, pi)
    _validate_connected(nb)
    nb, pi = _frozen(nb), _frozen(pi)
    edge_table, states, degrees = _edge_classes(nb, pi)
    vertex_table = _vertex_classes(nb, pi)
    _validate_links(vertex_table, states, degrees)
    if (degrees == 1).any():
        # a degree-1 edge's angle sum is one dihedral angle, less than pi,
        # and no vertex link through it has a hexagon decomposition
        raise TriangulationError(
            f"edge class {np.argmax(degrees == 1)} has degree 1: a single dihedral angle, "
            "less than pi, cannot make a full turn"
        )
    if lengths is not None and len(lengths) != len(degrees):
        raise TriangulationError(
            f"lengths section has {len(lengths)} values, expected {len(degrees)}"
        )
    return Triangulation(nb, pi, edge_table, vertex_table, states, degrees, lengths)


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(tri, lengths=None):
    out = [f"tets {tri.n_tets}"]
    for i, (row, prow) in enumerate(zip(tri.neighbor_table.tolist(), tri.perm_table.tolist())):
        out.append(f"tet {i}: " + " ".join(f"{j}:{PERM_STRINGS[p]}" for j, p in zip(row, prow)))
    if lengths is None:
        lengths = tri.lengths
    if lengths is not None:
        out.append("lengths:")
        out.append(" ".join(repr(float(x)) for x in lengths))
    return "\n".join(out) + "\n"


def _validate_gluings(nb, pi):
    for t, (row, prow) in enumerate(zip(nb, pi)):
        for f in range(4):
            j, p = row[f], prow[f]
            if j is None:
                raise TriangulationError(f"tet {t} face {f} unglued: triangulation is not closed")
            pf = PERMS[p][f]
            if j == t and pf == f:
                raise TriangulationError(f"tet {t} face {f} glued to itself")
            if not _ODD[p]:
                raise TriangulationError(
                    f"tet {t} face {f}: gluing permutation "
                    f"{PERM_STRINGS[p]} is even; triangulation not oriented"
                )
            if nb[j][pf] != t or pi[j][pf] != _INVERSE[p]:
                raise TriangulationError(f"gluing of tet {t} face {f} is not involutive")


def _validate_connected(nb):
    seen, components = bytearray(len(nb)), 0
    for start in range(len(nb)):
        if seen[start]:
            continue
        components += 1
        seen[start] = 1
        stack = [start]
        while stack:
            for j in nb[stack.pop()]:
                if not seen[j]:
                    seen[j] = 1
                    stack.append(j)
    if components > 1:
        raise TriangulationError(f"triangulation is disconnected: {components} components")


def _edge_classes(nb, pi):
    """Edge table, walk states and degrees of the edge classes, found by
    walking once around each edge, in the order of their first local edge
    (tet, LOCAL_EDGES index), which is also the first state of its class,
    direction a -> b.

    The walk runs on states 24 tet + s: the directed edge s(0) -> s(1),
    about to leave through face s(2).  Crossing it with the gluing p enters
    through p(s(2)) and leaves through p(s(3)), the state p s (2 3).
    """
    n = len(nb)
    state = np.arange(24 * n)
    tet, s = state // 24, state % 24
    face = _EXIT[s]
    nxt = (24 * nb[tet, face] + _COMPOSE[pi[tet, face], _SWAP23[s]]).tolist()
    directed = (16 * tet + _DIRECTED[s]).tolist()  # 16 tet + 4 s(0) + s(1)
    incidence = (6 * tet + PERM_EDGE[s]).tolist()
    seen, states, degrees = [-1] * (6 * n), [], []
    for x0 in (24 * np.arange(n)[:, None] + _FIRST_STATE).ravel().tolist():
        if seen[incidence[x0]] >= 0:
            continue
        home, flip = directed[x0], directed[x0 - x0 % 24 + _REVERSED[x0 % 24]]
        cycle, x = [x0], nxt[x0]
        for _ in range(6 * n + 1):
            if directed[x] == home:
                break
            if directed[x] == flip:
                raise TriangulationError(
                    "edge cycle closes with a flip; gluing data not orientable")
            cycle.append(x)
            x = nxt[x]
        else:
            raise TriangulationError("bad gluing data: edge cycle does not close")
        for x in cycle:
            if seen[incidence[x]] >= 0:
                raise TriangulationError("edge orbit revisits an incidence")
            seen[incidence[x]] = len(degrees)
        states += cycle
        degrees.append(len(cycle))
    return _frozen(seen).reshape(n, 6), _frozen(states), _frozen(degrees)


def _vertex_classes(nb, pi):
    """The (n, 4) vertex table of the corner ids 4 tet + v, classes in the
    order of their least corner: each corner takes the least label of its
    neighbours across the faces, then its label's label, until nothing
    changes."""
    corner = np.arange(4 * len(nb))
    tet, v = corner // 4, corner % 4
    across = [np.where(v == f, corner, 4 * nb[tet, f] + _APPLY[pi[tet, f], v]) for f in range(4)]
    label = corner
    while True:
        new = np.minimum.reduce([label[c] for c in across])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return _frozen(np.unique(label, return_inverse=True)[1]).reshape(len(nb), 4)


def _validate_links(vertex_table, states, degrees):
    # per vertex class: corner count C and edge-end count P give the Euler
    # characteristic of the (connected) link surface: chi = P - C/2
    first = states[np.cumsum(degrees) - degrees]  # each class's least local edge
    ends = vertex_table[(first // 24)[:, None], _APPLY[first % 24, :2]]
    o = vertex_table.max() + 1
    corners = np.bincount(vertex_table.ravel(), minlength=o)
    chi = np.bincount(ends.ravel(), minlength=o) - corners // 2
    bad = (corners % 2 == 1) | (chi != 2)
    if bad.any():
        k = np.argmax(bad)
        if corners[k] % 2:
            raise TriangulationError("odd corner count in vertex link")
        raise TriangulationError(
            f"vertex link of class {k} has Euler characteristic {chi[k]}, not a 2-sphere"
        )


# ---------------------------------------------------------------------------
# vertex links made of small hexagons
# ---------------------------------------------------------------------------
#
# A corner (tet, a) of a doubly truncated simplex carries a small hexagon
# whose vertices are indexed by the permutations s with s(0) = a.  The
# boundary alternates short edges (swap of positions 2,3) and middle edges
# (swap of positions 1,2).  Crossing a middle edge passes to the
# neighbouring simplex through the face s(3); crossing a short edge enters
# the end polygon of the prism around the edge s(0)s(1).
#
# Canonical hexagon orientation: the traversal in which every short edge
# starts at an even permutation.  Adjacent hexagons then traverse a shared
# middle edge in opposite directions, so the orientations patch to an
# orientation of the whole link surface.


def _swap12(s):
    return (s[0], s[2], s[1], s[3])


def _swap23(s):
    return (s[0], s[1], s[3], s[2])


def hexagon_cycle(a):
    """Canonical boundary of the small hexagon at local vertex a.

    Returns a tuple of 6 (kind, sigma_start, sigma_end) letters, kind 'g'
    (short) or 'b' (middle), starting from the minimal even permutation
    with s(0) = a.
    """
    start = min(s for s in PERMS if s[0] == a and perm_parity(s) == 1)
    letters, s = [], start
    for _ in range(3):
        t = _swap23(s)
        u = _swap12(t)
        letters += [("g", s, t), ("b", t, u)]
        s = u
    # a middle edge keeps s(3), the face its other side lies across
    if s != start or any(k == "b" and s0[3] != s1[3] for k, s0, s1 in letters):
        raise TriangulationError(f"hexagon at vertex {a} does not close on its faces")
    return tuple(letters)


# A simplex has 24 label slots, one per edge of its doubly truncated form
# up to direction.  Slot 2 e + k is the short edge about local edge e
# (LOCAL_EDGES order), its rotation by the dihedral angle taken positively
# (k = 0, from an odd permutation) or negatively (k = 1).  Slot 12 + v is
# the middle edge with vertex angle v = (i, j, k) of `VERTEX_ANGLES`, the
# angle at vertex i of the triangle i j k, j > k: the middle edge between
# s and swap12(s) with (s(0), s(2), s(1)) = (i, j, k), s(1) < s(2).
VERTEX_ANGLES = tuple(
    (i, hi, lo)
    for i in range(4)
    for lo, hi in itertools.combinations([x for x in range(4) if x != i], 2)
)


def _label_slot(kind, s0, s1):
    if kind == "g":
        return 2 * LOCAL_EDGE_INDEX[tuple(sorted(s0[:2]))] + (perm_parity(s0) == 1)
    s = min(s0, s1)
    return 12 + VERTEX_ANGLES.index((s[0], s[2], s[1]))


# Letter i of the hexagon at local vertex a is letter 6 a + i of its
# simplex: its start permutation's index, and its label slot; each middle
# edge's slot is named from its own side, the same label bits as from its
# other side's, since the vertex-angle formula is symmetric in the
# triangle's two other vertices and float products commute
_START = np.array([_PERM_INDEX_OF[s0] for a in range(4) for _, s0, _ in hexagon_cycle(a)])
HEXAGON_SLOTS = np.array([_label_slot(*letter) for a in range(4) for letter in hexagon_cycle(a)])
_LETTER_AT = np.argsort(_START)  # permutation index -> the letter starting there
_LAST = np.array([s[3] for s in PERMS])
_SUCC = np.array([1, 2, 3, 4, 5, 0] * 4) + np.repeat(np.arange(0, 24, 6), 6)


@dataclass(eq=False)
class VertexLinks:
    """All vertex links as read-only np.intp arrays, stacked in
    vertex-class order under one numbering.  Link k has the hexagons
    hexagon_offsets[k] up to hexagon_offsets[k + 1], in the order of their
    sorted corners, and the polygons polygon_offsets[k] up to
    polygon_offsets[k + 1].  Slot 6 c + i is letter i of the hexagon at
    corners[c] (`hexagon_cycle`), a short edge at even i and a middle edge
    at odd i.  A link vertex is the smaller id 24 tet + perm index of the
    two hexagon vertices (tet, s) that a gluing identifies; a letter's
    token is its short edge's own start, or its middle edge's smaller
    side's smaller end, as 24 tet + perm index.

    `order` and `entry` are each link's breadth-first spanning tree of
    hexagons, which stage I's frames and stage V's gimbal loops both walk:
    in its hexagon range, `order` runs from the link's first hexagon over
    each hexagon's middle letters 1, 3 and 5 in turn, and hexagon c is
    entered through the letter 6 c + entry[c] that first reaches it, a
    first hexagon through its letter 0."""

    corners: np.ndarray  # (C, 2) rows tet, a
    start: np.ndarray  # slot -> the link vertex it starts at
    token: np.ndarray  # slot -> its token
    label: np.ndarray  # slot -> its label slot, 24 tet + `HEXAGON_SLOTS`
    other_side: np.ndarray  # slot -> its middle edge's other side, or -1
    end_pid: np.ndarray  # slot -> the polygon its last vertex lies on
    end_slots: np.ndarray  # each polygon's short-edge slots in order, polygon by polygon
    end_offsets: np.ndarray  # polygon -> its first in end_slots; then their count
    end_class: np.ndarray  # polygon -> the edge class of its prism
    order: np.ndarray  # the hexagons in breadth-first order, link by link
    entry: np.ndarray  # hexagon -> the letter it is entered through
    hexagon_offsets: np.ndarray  # link -> its first hexagon; then their count
    polygon_offsets: np.ndarray  # link -> its first polygon; then their count


def vertex_link_hexagon_complex(tri):
    """The hexagon-and-polygon decomposition of every vertex link, one
    `VertexLinks`, from one pass over the 24 n letters, made on first use
    and kept on `tri`.  A letter's link vertices and token, and a middle
    edge's other side, are the partner of (tet, s) across the face s(3):
    tet's neighbour there and the composed permutation.  The prism-end
    polygons are walked from the short edges in token order, each short
    edge starting where the last one ended (a gluing flips the parity of
    s); a link numbers its polygons in that order.
    """
    if tri.links is None:
        tri.links = _build_links(tri)
    return tri.links


def _build_links(tri):
    n, nb, pi = tri.n_tets, tri.neighbor_table, tri.perm_table
    tet = np.repeat(np.arange(n), 24)  # letter g = 24 tet + 6 a + i
    own = np.tile(_START, n)
    face = _LAST[own]
    j, partner = nb[tet, face], _COMPOSE[pi[tet, face], own]
    start = np.minimum(24 * tet + own, 24 * j + partner)
    succ = tet * 24 + np.tile(_SUCC, n)
    middle = np.tile(np.arange(24) % 2 == 1, n)
    token = 24 * tet + own
    token[middle] = np.minimum(24 * tet + np.minimum(own, own[succ]),
                               24 * j + np.minimum(partner, partner[succ]))[middle]
    # the other side of a middle edge runs from the partner of its end
    other = np.where(middle, 24 * j + _LETTER_AT[partner[succ]], -1)

    # prism ends: short edge g is followed by the one starting at its end.
    # Walked link by link from the short edges in token order, `walk` holds
    # the polygons' short edges, polygon after polygon, from `first` on
    short = np.flatnonzero(~middle)
    short_from = np.empty(24 * n, dtype=np.intp)
    short_from[start[short]] = short
    nxt = short_from[start[succ]]
    vclass, o = tri.vertex_table.ravel(), tri.o  # of the corner 4 tet + a
    pid, nxt_l, walk, first = [-1] * (24 * n), nxt.tolist(), [], []
    for g in short[np.lexsort((token[short], vclass[short // 6]))].tolist():
        if pid[g] >= 0:
            continue
        first.append(len(walk))
        x = g
        while pid[x] < 0:
            pid[x] = len(first) - 1
            walk.append(x)
            x = nxt_l[x]
    heads = np.array(walk)[first]

    # the links' letters in vertex-class order, each link's in the order of
    # its sorted corners
    corner_order = np.argsort(vclass, kind="stable")
    letters = (6 * corner_order[:, None] + np.arange(6)).ravel()  # slot -> letter
    slot = np.empty(24 * n, dtype=np.intp)
    slot[letters] = np.arange(24 * n)
    other_side = np.where(other[letters] >= 0, slot[other[letters]], -1)
    hexagon_offsets, polygon_offsets = (np.concatenate(([0], np.cumsum(np.bincount(
        x, minlength=o)))) for x in (vclass, vclass[heads // 6]))

    # the breadth-first spanning trees, one queue: a link's queue runs dry
    # once it holds all of the link's hexagons, and the next hexagon is the
    # next link's first
    sides, order, entry = other_side.tolist(), [], [-1] * (4 * n)
    for t in range(4 * n):
        if t == len(order):
            order.append(t)
            entry[t] = 0
        for j in (1, 3, 5):
            c, i = divmod(sides[6 * order[t] + j], 6)
            if entry[c] < 0:
                order.append(c)
                entry[c] = i
    corners = np.stack(np.divmod(corner_order, 4), axis=1)
    label = (24 * tet + np.tile(HEXAGON_SLOTS, n))[letters]
    return VertexLinks(*map(_frozen, (
        corners, start[letters], token[letters], label, other_side, np.array(pid)[nxt][letters],
        slot[walk], first + [len(walk)], tri.edge_table[tet, PERM_EDGE[own]][heads], order,
        entry, hexagon_offsets, polygon_offsets)))
