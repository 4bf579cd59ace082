"""Test-only reference for stage V's combinatorics.

The vertex-link builder, the gimbal-loop builder and the loop validator as
they were before they became linear in a link's letters: per-letter
dicts rewritten in a second pass, the prism-end polygons found by
`min(unvisited)`, the loop grown as a Python list with `list.index` and
slice assignment, and a validator keyed on nested tuples.  The code is
kept unchanged, so `hypcert.triangulation.vertex_link_hexagon_complex`,
`hypcert.gimbal.build_gimbal_loop` and `hypcert.gimbal.validate_gimbal_loop`
are tested field for field, letter for letter and message for message
against it.
"""

from dataclasses import dataclass, field

from hypcert.gimbal import GimbalLoop, GimbalLoopError
from hypcert.triangulation import TriangulationError, hexagon_cycle
from tests.triangulation_oracle import VertexClass, edge_class_index, neighbor, vertex_classes


@dataclass
class PrismEnd:
    """End polygon of the prism around one edge class, at one vertex."""

    pid: int
    edge_class: int
    gammas: list  # gamma tokens (tet, a, b) in cyclic order
    boundary_lvs: frozenset  # link-vertex ids on the boundary


def compose(p, q):
    """(p o q)(i) = p(q(i))."""
    return (p[q[0]], p[q[1]], p[q[2]], p[q[3]])


@dataclass
class LinkComplex:
    vertex_class: int
    corners: list  # (tet, a), sorted
    hexagons: dict  # corner -> list of 6 letter dicts
    beta_pairs: dict  # beta token -> (corner, corner)
    beta_of_corner: dict  # corner -> list of beta tokens in boundary order
    prism_ends: list  # PrismEnd, sorted by pid
    gamma_to_end: dict  # gamma token (tet,a,b) -> pid
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
    corners = sorted(vertex_classes(tri)[k].representatives)
    corner_set = set(corners)

    # canonical link-vertex id: the identified partner of (tet, s) across
    # the face s(3); keep the lexicographically smaller of the pair
    def lv_id(tet, s):
        f = s[3]
        j, p = neighbor(tri, tet, f)
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
            j, p = neighbor(tri, tet, f)
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
        cls = edge_class_index(tri, tet, a, b)
        lvs = set()
        for tok in comp:
            u, v = gamma_endpoints[tok]
            lvs.update((u, v))
            gamma_to_end[tok] = pid
        for lv in lvs:
            lv_to_pid[lv] = pid
        prism_ends.append(PrismEnd(pid, cls, comp, frozenset(lvs)))

    return LinkComplex(
        vertex_class=k,
        corners=corners,
        hexagons=hexagons,
        beta_pairs=beta_pairs,
        beta_of_corner=beta_of_corner,
        prism_ends=prism_ends,
        gamma_to_end=gamma_to_end,
        lv_to_pid=lv_to_pid,
    )


def build_gimbal_loop(link, removed_pids):
    """Grow a hexagon-boundary loop until it touches every removed polygon.

    Starts from one hexagon boundary and repeatedly replaces a middle edge
    with the other five edges of the unused hexagon behind it, hexagon by
    hexagon in breadth-first order; afterwards each removed-polygon letter
    is spliced in after the first word position ending on its boundary.
    """
    removed = sorted(removed_pids)
    for pid in removed:
        if pid >= len(link.prism_ends):
            raise GimbalLoopError(f"no prism end {pid} in this link")

    start = link.corners[0]
    word = [dict(letter, owner=start) for letter in link.hexagons[start]]
    # the middle-edge token at each word position (None at a short edge),
    # kept in step with word, so that list.index finds a token's position
    betas = [letter["token"] if letter["kind"] == "b" else None for letter in word]
    used = {start}
    queue = [start]
    untouched = set(removed)
    for letter in word:
        untouched.discard(link.lv_to_pid[letter["end"]])

    while untouched:
        if not queue:
            raise GimbalLoopError(
                "link exhausted before touching every removed polygon"
            )
        h = queue.pop(0)
        for token in link.beta_of_corner[h]:
            c1, c2 = link.beta_pairs[token]
            other = c2 if c1 == h else c1
            if other in used:
                continue
            try:
                idx = betas.index(token)
            except ValueError:
                continue
            cycle = link.hexagons[other]
            j0 = next(
                i
                for i, let in enumerate(cycle)
                if let["kind"] == "b" and let["token"] == token
            )
            replacement = [
                dict(letter, owner=other)
                for letter in cycle[j0 + 1 :] + cycle[:j0]
            ]
            assert replacement[0]["start"] == word[idx]["start"]
            assert replacement[-1]["end"] == word[idx]["end"]
            word[idx : idx + 1] = replacement
            betas[idx : idx + 1] = [
                letter["token"] if letter["kind"] == "b" else None
                for letter in replacement
            ]
            used.add(other)
            queue.append(other)
            for letter in replacement:
                untouched.discard(link.lv_to_pid[letter["end"]])
            if not untouched:
                break

    # splice removed-polygon letters after the first anchoring edge
    insert_at = {}
    pending = set(removed)
    for i, let in enumerate(word):
        pid = link.lv_to_pid[let["end"]]
        if pid in pending:
            insert_at[i] = pid
            pending.discard(pid)
        if not pending:
            break
    final = []
    for i, letter in enumerate(word):
        final.append(letter)
        if i in insert_at:
            pid = insert_at[i]
            final.append(
                {
                    "kind": "P",
                    "pid": pid,
                    "edge_class": link.prism_ends[pid].edge_class,
                    "start": letter["end"],
                    "end": letter["end"],
                }
            )
    loop = GimbalLoop(
        vertex_class=link.vertex_class,
        link=link,
        removed=tuple(removed),
        word=final,
    )
    validate_gimbal_loop(loop)
    return loop


def validate_gimbal_loop(loop):
    """Independent check of every gimbal-loop clause.

    Raises GimbalLoopError unless: each removed polygon letter occurs
    exactly once and follows an edge ending on its boundary; dropping the
    polygon letters leaves a closed edge path; that path is the boundary
    of a disk of hexagons glued along the crossed middle edges, traversed
    with the link's orientation.
    """
    link = loop.link
    word = loop.word
    n = len(word)
    if n == 0:
        raise GimbalLoopError("empty loop")

    # polygon letters: multiplicity and anchoring
    seen_p = [let["pid"] for let in word if let["kind"] == "P"]
    if sorted(seen_p) != sorted(loop.removed):
        raise GimbalLoopError("removed polygons not each visited exactly once")
    for i, let in enumerate(word):
        if let["kind"] != "P":
            continue
        prev = word[(i - 1) % n]
        if prev["kind"] == "P":
            raise GimbalLoopError("polygon letter preceded by another polygon")
        if prev["end"] not in link.prism_ends[let["pid"]].boundary_lvs:
            raise GimbalLoopError("polygon letter not anchored on its boundary")

    # dropping polygons leaves a closed edge path
    edges = [let for let in word if let["kind"] != "P"]
    for cur, nxt in zip(edges, edges[1:] + edges[:1]):
        if cur["end"] != nxt["start"]:
            raise GimbalLoopError("edge word is not a closed path")

    # reconstruct the disk: used hexagons glued along crossed middle edges
    used = sorted({let["owner"] for let in edges})
    used_set = set(used)
    word_count = {}
    for let in edges:
        word_count[let["token"]] = word_count.get(let["token"], 0) + 1
    crossed = []
    for token, (c1, c2) in link.beta_pairs.items():
        if c1 in used_set and c2 in used_set and word_count.get(token, 0) == 0:
            crossed.append(token)

    token_slots = {}
    all_slots = []
    for h in used:
        for i, letter in enumerate(link.hexagons[h]):
            token_slots.setdefault(letter["token"], []).append((h, i))
            all_slots.append((h, i))

    # every slot of every used hexagon is either crossed or claimed exactly
    # once by a word letter running in the hexagon's own direction
    claims = {}
    for let in edges:
        h = let["owner"]
        cands = [
            (hh, i)
            for (hh, i) in token_slots.get(let["token"], ())
            if hh == h
            and link.hexagons[h][i]["start"] == let["start"]
            and link.hexagons[h][i]["end"] == let["end"]
        ]
        if len(cands) != 1:
            raise GimbalLoopError("letter does not match a unique owner slot")
        claims[cands[0]] = claims.get(cands[0], 0) + 1
    crossed_slots = set()
    for token in crossed:
        slots = token_slots.get(token, ())
        if len(slots) != 2:
            raise GimbalLoopError("crossed edge without two used sides")
        crossed_slots.update(slots)
    for slot in all_slots:
        want = 0 if slot in crossed_slots else 1
        if claims.get(slot, 0) != want:
            raise GimbalLoopError("hexagon slots and word letters disagree")

    # Euler characteristic of the glued hexagon complex must be a disk's
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for h in used:
        for i in range(6):
            parent[(h, i)] = (h, i)
    hex_parent = {h: h for h in used}

    def hfind(x):
        while hex_parent[x] != x:
            hex_parent[x] = hex_parent[hex_parent[x]]
            x = hex_parent[x]
        return x

    for token in crossed:
        (h1, i1), (h2, i2) = token_slots[token]
        union((h1, i1), (h2, (i2 + 1) % 6))
        union((h1, (i1 + 1) % 6), (h2, i2))
        hex_parent[hfind(h1)] = hfind(h2)
    if len({hfind(h) for h in used}) != 1:
        raise GimbalLoopError("hexagon disk is not connected")
    v = len({find(x) for x in parent})
    e = 6 * len(used) - len(crossed)
    f = len(used)
    if v - e + f != 1:
        raise GimbalLoopError("hexagon union is not a disk")

    if len(word) > 6 * len(used) + len(loop.removed):
        raise GimbalLoopError("loop longer than its hexagon budget")
    return True
