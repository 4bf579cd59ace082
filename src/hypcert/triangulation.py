"""Triangulation combinatorics.

Parses a plain-text gluing table for a finite triangulation of a closed
oriented 3-manifold, validates it (involutive gluings, orientability,
connectedness, spherical vertex links) and derives the structures every
later stage needs: edge classes with orientation flags, vertex classes,
and the hexagonal vertex-link complexes of the doubly truncated simplices.

File format (UTF-8, line oriented, '#' comments allowed)::

    tets N
    tet i: j0:abcd j1:abcd j2:abcd j3:abcd
    ...
    lengths:
    l_1 l_2 ... l_m

Face f of tet i is glued to tet jf via the vertex map 0->a, 1->b, 2->c,
3->d.  An unglued face is written '-' (rejected later as not closed).
The optional lengths section lists one decimal per edge class in
canonical order.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

__all__ = [
    "TriangulationError",
    "Tetrahedron",
    "EdgeClass",
    "VertexClass",
    "Triangulation",
    "LinkComplex",
    "parse",
    "parse_file",
    "serialize",
    "edge_incidences",
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


def compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


class TriangulationError(ValueError):
    pass


@dataclass
class Tetrahedron:
    index: int
    neighbors: list  # 4 entries: tet index or None
    perms: list  # 4 entries: vertex map tuple or None


@dataclass
class EdgeClass:
    index: int
    # (tet, (a, b) with a < b, orient) -- orient +1 if the class direction
    # runs a -> b for this representative
    representatives: list


@dataclass
class VertexClass:
    index: int
    representatives: list  # (tet, vertex)


@dataclass
class Triangulation:
    tets: list
    edge_classes: list = field(default_factory=list)
    vertex_classes: list = field(default_factory=list)
    edge_class_of: dict = field(default_factory=dict)  # (tet, (a,b) sorted) -> idx
    vertex_class_of: dict = field(default_factory=dict)  # (tet, v) -> idx
    lengths: list = None

    @property
    def n_tets(self):
        return len(self.tets)

    @property
    def m(self):
        return len(self.edge_classes)

    @property
    def o(self):
        return len(self.vertex_classes)

    def neighbor(self, tet, face):
        t = self.tets[tet]
        return t.neighbors[face], t.perms[face]

    def edge_class_index(self, tet, a, b):
        return self.edge_class_of[(tet, (min(a, b), max(a, b)))]


def _parse_gluing(tok, n_tets, where):
    if tok == "-":
        return None, None
    if ":" not in tok:
        raise TriangulationError(f"{where}: bad gluing token {tok!r}")
    tgt, perm = tok.split(":", 1)
    try:
        tgt = int(tgt)
    except ValueError:
        raise TriangulationError(f"{where}: bad target tet in {tok!r}") from None
    if not (0 <= tgt < n_tets):
        raise TriangulationError(f"{where}: target tet {tgt} out of range")
    if len(perm) != 4 or not all(c in "0123" for c in perm):
        raise TriangulationError(f"{where}: bad permutation {perm!r}")
    p = tuple(int(c) for c in perm)
    if sorted(p) != [0, 1, 2, 3]:
        raise TriangulationError(f"{where}: {perm!r} is not a permutation")
    return tgt, p


def parse(text):
    """Parse and fully validate a triangulation file."""
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines or not lines[0].startswith("tets"):
        raise TriangulationError("missing 'tets N' header")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise TriangulationError("malformed 'tets N' header") from None
    if n <= 0:
        raise TriangulationError("need at least one tetrahedron")

    tets = []
    pos = 1
    for i in range(n):
        if pos >= len(lines):
            raise TriangulationError(f"missing line for tet {i}")
        line = lines[pos]
        pos += 1
        head, _, rest = line.partition(":")
        if head.split() != ["tet", str(i)]:
            raise TriangulationError(f"expected 'tet {i}:', got {line!r}")
        toks = rest.split()
        if len(toks) != 4:
            raise TriangulationError(f"tet {i}: expected 4 face gluings")
        neighbors, perms = [], []
        for f, tok in enumerate(toks):
            tgt, p = _parse_gluing(tok, n, f"tet {i} face {f}")
            neighbors.append(tgt)
            perms.append(p)
        tets.append(Tetrahedron(i, neighbors, perms))

    lengths = None
    if pos < len(lines):
        if lines[pos] != "lengths:":
            raise TriangulationError(f"unexpected line {lines[pos]!r}")
        vals = " ".join(lines[pos + 1 :]).split()
        lengths = [float(v) for v in vals]
        for i, l in enumerate(lengths):
            try:
                ok = math.isfinite(math.cosh(l))
            except OverflowError:
                ok = False
            if not ok:
                raise TriangulationError(
                    f"length {i} is {l!r}: its cosh is not a finite float"
                )

    tri = Triangulation(tets)
    _validate_gluings(tri)
    _validate_connected(tri)
    _build_edge_classes(tri)
    _build_vertex_classes(tri)
    _validate_links(tri)
    tri.lengths = lengths
    if lengths is not None and len(lengths) != tri.m:
        raise TriangulationError(
            f"lengths section has {len(lengths)} values, expected {tri.m}"
        )
    return tri


def parse_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def serialize(tri, lengths=None):
    out = [f"tets {tri.n_tets}"]
    for t in tri.tets:
        toks = []
        for f in range(4):
            if t.neighbors[f] is None:
                toks.append("-")
            else:
                toks.append(
                    f"{t.neighbors[f]}:" + "".join(str(v) for v in t.perms[f])
                )
        out.append(f"tet {t.index}: " + " ".join(toks))
    if lengths is None:
        lengths = tri.lengths
    if lengths is not None:
        out.append("lengths:")
        out.append(" ".join(repr(float(x)) for x in lengths))
    return "\n".join(out) + "\n"


def _validate_gluings(tri):
    for t in tri.tets:
        for f in range(4):
            if t.neighbors[f] is None:
                raise TriangulationError(
                    f"tet {t.index} face {f} unglued: triangulation is not closed"
                )
            j, p = t.neighbors[f], t.perms[f]
            if j == t.index and p[f] == f:
                raise TriangulationError(
                    f"tet {t.index} face {f} glued to itself"
                )
            if perm_parity(p) != -1:
                raise TriangulationError(
                    f"tet {t.index} face {f}: gluing permutation "
                    f"{''.join(map(str, p))} is even; triangulation not oriented"
                )
            partner = tri.tets[j]
            pf = p[f]
            if partner.neighbors[pf] != t.index or partner.perms[pf] != perm_inverse(p):
                raise TriangulationError(
                    f"gluing of tet {t.index} face {f} is not involutive"
                )


def _validate_connected(tri):
    seen, components = set(), 0
    for start in range(tri.n_tets):
        components += start not in seen
        stack = [start]
        while stack:
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                stack.extend(tri.tets[t].neighbors)
    if components > 1:
        raise TriangulationError(f"triangulation is disconnected: {components} components")


def _cross(tri, tet, a, b, face):
    """Push the directed edge (a, b) of `tet` through `face`."""
    j, p = tri.neighbor(tet, face)
    return j, p[a], p[b]


def _trace_edge(tri, tet0, a0, b0):
    """Walk once around the edge (a0, b0) of tet0.

    Returns the cycle of (tet, a, b) directed incidences in rotation
    order.  Each undirected (tet, {a,b}) appears exactly once.
    """
    # leave through the smaller of the two faces adjacent to the edge
    faces0 = [f for f in range(4) if f not in (a0, b0)]
    out_face = faces0[0]
    cycle = [(tet0, a0, b0)]
    tet, a, b = tet0, a0, b0
    guard = 0
    while True:
        guard += 1
        if guard > 6 * tri.n_tets + 1:
            raise TriangulationError("bad gluing data: edge cycle does not close")
        entered = tri.tets[tet].perms[out_face][out_face]
        tet, a, b = _cross(tri, tet, a, b, out_face)
        if (tet, a, b) == (tet0, a0, b0):
            return cycle
        if (tet, a, b) == (tet0, b0, a0):
            raise TriangulationError(
                "edge cycle closes with a flip; gluing data not orientable"
            )
        cycle.append((tet, a, b))
        faces = [f for f in range(4) if f not in (a, b)]
        out_face = faces[0] if faces[1] == entered else faces[1]


def _build_edge_classes(tri):
    seen = set()
    classes = []
    for tet in range(tri.n_tets):
        for (a, b) in LOCAL_EDGES:
            if (tet, (a, b)) in seen:
                continue
            cycle = _trace_edge(tri, tet, a, b)
            reps = []
            for (t, x, y) in cycle:
                key = (t, (min(x, y), max(x, y)))
                if key in seen:
                    raise TriangulationError("edge orbit revisits an incidence")
                seen.add(key)
                reps.append((t, key[1], 1 if x < y else -1))
            classes.append(reps)
    # canonical order: by minimal (tet, local edge index) representative
    def class_key(reps):
        return min((t, LOCAL_EDGE_INDEX[e]) for (t, e, _) in reps)

    classes.sort(key=class_key)
    tri.edge_classes = []
    tri.edge_class_of = {}
    for idx, reps in enumerate(classes):
        # re-anchor orientation to the minimal representative's ascending order
        min_rep = min(reps, key=lambda r: (r[0], LOCAL_EDGE_INDEX[r[1]]))
        flip = min_rep[2]
        reps = [(t, e, o * flip) for (t, e, o) in reps]
        tri.edge_classes.append(EdgeClass(idx, reps))
        for (t, e, _) in reps:
            tri.edge_class_of[(t, e)] = idx


def _build_vertex_classes(tri):
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for tet in range(tri.n_tets):
        for v in range(4):
            parent[(tet, v)] = (tet, v)
    for tet in range(tri.n_tets):
        t = tri.tets[tet]
        for f in range(4):
            for v in range(4):
                if v == f:
                    continue
                union((tet, v), (t.neighbors[f], t.perms[f][v]))

    groups = {}
    for key in parent:
        groups.setdefault(find(key), []).append(key)
    ordered = sorted(groups.values(), key=min)
    tri.vertex_classes = []
    tri.vertex_class_of = {}
    for idx, reps in enumerate(ordered):
        tri.vertex_classes.append(VertexClass(idx, sorted(reps)))
        for r in reps:
            tri.vertex_class_of[r] = idx


def _validate_links(tri):
    # per vertex class: corner count C and edge-end count P give the Euler
    # characteristic of the (connected) link surface: chi = P - C/2
    ends_at = [0] * tri.o
    for ec in tri.edge_classes:
        t, (a, b), _ = min(
            ec.representatives, key=lambda r: (r[0], LOCAL_EDGE_INDEX[r[1]])
        )
        ends_at[tri.vertex_class_of[(t, a)]] += 1
        ends_at[tri.vertex_class_of[(t, b)]] += 1
    for vc in tri.vertex_classes:
        c = len(vc.representatives)
        if c % 2:
            raise TriangulationError("odd corner count in vertex link")
        chi = ends_at[vc.index] - c // 2
        if chi != 2:
            raise TriangulationError(
                f"vertex link of class {vc.index} has Euler characteristic "
                f"{chi}, not a 2-sphere"
            )


def edge_incidences(tri, edge_class):
    """All (tet, local-edge) incidences of the class, multiplicity kept."""
    if isinstance(edge_class, int):
        edge_class = tri.edge_classes[edge_class]
    return [(t, e) for (t, e, _) in edge_class.representatives]


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


@functools.cache
def hexagon_cycle(a):
    """Canonical boundary of the small hexagon at local vertex a.

    Returns a tuple of 6 (kind, sigma_start, sigma_end) letters, kind 'g'
    (short) or 'b' (middle), starting from the minimal even permutation
    with s(0) = a.  Computed once per vertex.
    """
    rest = sorted(v for v in range(4) if v != a)
    start = None
    for perm in itertools.permutations(rest):
        s = (a,) + perm
        if perm_parity(s) == 1:
            start = s
            break
    letters = []
    s = start
    for _ in range(3):
        t = _swap23(s)
        letters.append(("g", s, t))
        u = _swap12(t)
        letters.append(("b", t, u))
        s = u
    assert s == start
    return tuple(letters)


@dataclass
class PrismEnd:
    """End polygon of the prism around one edge class, at one vertex."""

    pid: int
    edge_class: int
    gammas: list  # gamma tokens (tet, a, b) in cyclic order
    boundary_lvs: frozenset  # link-vertex ids on the boundary


@dataclass
class LinkComplex:
    vertex_class: int
    corners: list  # (tet, a), sorted
    hexagons: dict  # corner -> list of 6 letter dicts
    lv_of: dict  # (tet, sigma) -> canonical link-vertex id
    beta_pairs: dict  # beta token -> (corner, corner)
    beta_of_corner: dict  # corner -> list of beta tokens in boundary order
    prism_ends: list  # PrismEnd, sorted by pid
    gamma_to_end: dict  # gamma token (tet,a,b) -> pid
    ends_of_class: dict  # edge class -> list of pids in this link
    lv_to_pid: dict = field(default_factory=dict)  # link vertex -> its polygon

    @property
    def n_hexagons(self):
        return len(self.corners)


def _letterize(tet, kind, s_start, s_end):
    """Uniform letter record used by the loop builder and validator."""
    return {
        "kind": kind,
        "tet": tet,
        "s_start": s_start,
        "s_end": s_end,
        "start": (tet, s_start),
        "end": (tet, s_end),
    }


def vertex_link_hexagon_complex(tri, vertex_class):
    """Build the hexagon-and-polygon decomposition of one vertex link."""
    if isinstance(vertex_class, VertexClass):
        k = vertex_class.index
    else:
        k = vertex_class
    corners = sorted(tri.vertex_classes[k].representatives)
    corner_set = set(corners)

    # canonical link-vertex id: the identified partner of (tet, s) across
    # the face s(3); keep the lexicographically smaller of the pair
    def lv_id(tet, s):
        f = s[3]
        j, p = tri.neighbor(tet, f)
        partner = (j, compose(p, s))
        return min((tet, s), partner)

    hexagons = {}
    lv_of = {}
    beta_sides = {}
    beta_of_corner = {}
    for corner in corners:
        tet, a = corner
        letters = []
        betas = []
        for kind, s0, s1 in hexagon_cycle(a):
            letters.append(_letterize(tet, kind, s0, s1))
            lv_of[(tet, s0)] = lv_id(tet, s0)
            if kind == "b":
                token_side = (tet, min(s0, s1), max(s0, s1))
                betas.append(token_side)
        hexagons[corner] = letters
        beta_of_corner[corner] = betas

    # identify beta edges across face gluings
    beta_canon = {}
    beta_pairs = {}
    for corner in corners:
        tet, a = corner
        for side in beta_of_corner[corner]:
            _, s0, s1 = side
            f = s0[3]
            assert s1[3] == f
            j, p = tri.neighbor(tet, f)
            t0, t1 = compose(p, s0), compose(p, s1)
            other = (j, min(t0, t1), max(t0, t1))
            token = min(side, other)
            beta_canon[side] = token
            beta_pairs.setdefault(token, []).append(corner)
    for token, cs in beta_pairs.items():
        if len(cs) != 2:
            raise TriangulationError("middle edge not shared by two hexagons")
    beta_pairs = {tok: tuple(cs) for tok, cs in beta_pairs.items()}
    beta_of_corner = {
        c: [beta_canon[s] for s in sides] for c, sides in beta_of_corner.items()
    }
    # rewrite letters to carry canonical tokens and link-vertex endpoints
    for corner in corners:
        for letter in hexagons[corner]:
            tet = letter["tet"]
            s0, s1 = letter["s_start"], letter["s_end"]
            if letter["kind"] == "b":
                letter["token"] = beta_canon[(tet, min(s0, s1), max(s0, s1))]
            else:
                letter["token"] = (tet, s0[0], s0[1])
            letter["start"] = lv_of[(tet, s0)]
            letter["end"] = lv_of[(tet, s1)]

    # prism end polygons: connected cycles of gamma edges through shared
    # link-vertices
    gamma_endpoints = {}
    for corner in corners:
        for letter in hexagons[corner]:
            if letter["kind"] == "g":
                gamma_endpoints[letter["token"]] = (letter["start"], letter["end"])
    lv_to_gammas = {}
    for tok, (u, v) in gamma_endpoints.items():
        lv_to_gammas.setdefault(u, []).append(tok)
        lv_to_gammas.setdefault(v, []).append(tok)
    for lv, toks in lv_to_gammas.items():
        if len(toks) != 2:
            raise TriangulationError("link vertex not on exactly two short edges")

    prism_ends = []
    gamma_to_end = {}
    ends_of_class = {}
    unvisited = set(gamma_endpoints)
    comps = []
    while unvisited:
        start = min(unvisited)
        comp = [start]
        unvisited.discard(start)
        frontier = start
        cur_lv = gamma_endpoints[start][1]
        while True:
            nxt = [g for g in lv_to_gammas[cur_lv] if g != frontier]
            assert len(nxt) == 1
            nxt = nxt[0]
            if nxt == start:
                break
            comp.append(nxt)
            unvisited.discard(nxt)
            u, v = gamma_endpoints[nxt]
            cur_lv = v if u == cur_lv else u
            frontier = nxt
        comps.append(comp)
    comps.sort(key=lambda c: min(c))
    lv_to_pid = {}
    for pid, comp in enumerate(comps):
        tet, a, b = comp[0]
        cls = tri.edge_class_index(tet, a, b)
        lvs = set()
        for tok in comp:
            u, v = gamma_endpoints[tok]
            lvs.update((u, v))
            gamma_to_end[tok] = pid
        for lv in lvs:
            lv_to_pid[lv] = pid
        prism_ends.append(PrismEnd(pid, cls, comp, frozenset(lvs)))
        ends_of_class.setdefault(cls, []).append(pid)

    return LinkComplex(
        vertex_class=k,
        corners=corners,
        hexagons=hexagons,
        lv_of=lv_of,
        beta_pairs=beta_pairs,
        beta_of_corner=beta_of_corner,
        prism_ends=prism_ends,
        gamma_to_end=gamma_to_end,
        ends_of_class=ends_of_class,
        lv_to_pid=lv_to_pid,
    )
