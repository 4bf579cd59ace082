"""Test-only reference for `hypcert.triangulation.parse`.

The parser as it was when it still worked on tuple keys: tokens read with
`int()`, permutations compared as tuples, vertex classes from a union-find
on (tet, vertex) pairs and edge classes from a walk that builds a tuple
per step.  The code is kept unchanged, so the parser on integer tables is
tested field for field, and message for message, against it.  Three
inputs differ on purpose: a header that is not exactly 'tets' and ASCII
digits, a gluing target that `int()` reads but that is not ASCII digits,
and a length that is not ASCII, has a '_' or that `float()` cannot read
(this reference lets that `ValueError` escape).

It keeps the object model the parser built then: `Tetrahedron`,
`EdgeClass`, `VertexClass` and a `Triangulation` of them.  `reference`
turns the tables of a parsed `hypcert.triangulation.Triangulation` into
that model, and `neighbor`, `edge_class_index`, `edge_classes` and
`vertex_classes` read single facts off the tables, for the other test
references.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from hypcert.triangulation import (
    LOCAL_EDGE_INDEX,
    LOCAL_EDGES,
    PERM_EDGE,
    PERMS,
    TriangulationError,
)


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
    edge_table: np.ndarray = field(default=None, compare=False, repr=False)
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


# -- facts of a parsed `hypcert.triangulation.Triangulation` -----------------


def neighbor(tri, tet, face):
    """The tet across `face` of `tet` and the gluing's vertex map."""
    return int(tri.neighbor_table[tet, face]), PERMS[tri.perm_table[tet, face]]


def edge_class_index(tri, tet, a, b):
    return int(tri.edge_table[tet, LOCAL_EDGE_INDEX[(min(a, b), max(a, b))]])


def edge_classes(tri):
    """`EdgeClass`es of the walk states: (tet, (a, b) with a < b, orient)
    per state 24 tet + s, orient +1 if s runs a -> b."""
    bounds = np.cumsum(tri.edge_degrees).tolist()
    states = tri.edge_states.tolist()
    classes = []
    for k, (lo, hi) in enumerate(zip([0] + bounds, bounds)):
        reps = []
        for x in states[lo:hi]:
            t, s = divmod(x, 24)
            reps.append((t, LOCAL_EDGES[PERM_EDGE[s]], 1 if PERMS[s][0] < PERMS[s][1] else -1))
        classes.append(EdgeClass(k, reps))
    return classes


def vertex_classes(tri):
    """`VertexClass`es of the vertex table, each corner list sorted."""
    return [VertexClass(k, [(int(t), int(v)) for t, v in zip(*np.nonzero(tri.vertex_table == k))])
            for k in range(tri.o)]


def reference(tri):
    """The object model of a parsed triangulation's tables."""
    ref = Triangulation(
        [Tetrahedron(i, row, [PERMS[p] for p in prow]) for i, (row, prow)
         in enumerate(zip(tri.neighbor_table.tolist(), tri.perm_table.tolist()))],
        edge_classes(tri), vertex_classes(tri), edge_table=tri.edge_table, lengths=tri.lengths)
    ref.edge_class_of = {(t, e): ec.index for ec in ref.edge_classes
                         for (t, e, _) in ec.representatives}
    ref.vertex_class_of = {r: vc.index for vc in ref.vertex_classes for r in vc.representatives}
    return ref


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
            # cosh is even: a negated length would pass for its absolute value
            if not l > 0.0:
                raise TriangulationError(f"length {i} is {l!r}: not positive")
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
    _validate_degrees(tri)
    tri.lengths = lengths
    if lengths is not None and len(lengths) != tri.m:
        raise TriangulationError(
            f"lengths section has {len(lengths)} values, expected {tri.m}"
        )
    return tri


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
    tri.edge_table = np.array(
        [[tri.edge_class_of[(t, e)] for e in LOCAL_EDGES] for t in range(tri.n_tets)],
        dtype=np.intp,
    ).reshape(tri.n_tets, 6)
    tri.edge_table.flags.writeable = False


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


def _validate_degrees(tri):
    # a degree-1 edge's angle sum is one dihedral angle, less than pi, and no
    # vertex link through it has a hexagon decomposition
    for ec in tri.edge_classes:
        if len(ec.representatives) == 1:
            raise TriangulationError(
                f"edge class {ec.index} has degree 1: a single dihedral angle, "
                "less than pi, cannot make a full turn"
            )
