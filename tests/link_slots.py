"""Stage V's slot tables expanded into the dicts of `tests/link_oracle.py`.

The vertex links of a triangulation are one record of integer arrays,
every link's slots and polygons numbered after the previous links', and a
gimbal loop is an integer word in that numbering
(`hypcert.triangulation.VertexLinks`, `hypcert.gimbal.GimbalLoop`).
`link_view` and `loop_view` cut one link, or one loop's link, out of the
record, numbered on its own: the per-link tables the reference's link is
compared with.  The reference builds per-letter dicts keyed on tuples.
`expand_link` and `letters_of` turn a link and a loop into those, field
for field and in the reference's orders, so the tests compare the two
letter for letter and feed the reference's validator and the scalar
oracles.  `letter` and `letters_of` read a view or the record alike.
Tests only.
"""

from dataclasses import dataclass

import numpy as np

from hypcert.gimbal import GimbalLoop, build_gimbal_loops
from hypcert.triangulation import PERMS, _swap12, hexagon_cycle, vertex_link_hexagon_complex
from tests.link_oracle import LinkComplex, PrismEnd


_CYCLES = [hexagon_cycle(a) for a in range(4)]


@dataclass(eq=False)
class LinkView:
    """One vertex link as integer arrays over its own slots 6 c + i, letter
    i of its hexagon c, and its own polygons; every array read-only."""

    vertex_class: int
    corners: np.ndarray  # (C, 2) rows tet, a; sorted
    start: np.ndarray  # slot -> the link vertex it starts at
    token: np.ndarray  # slot -> its token
    label: np.ndarray  # slot -> its label slot
    other_side: np.ndarray  # slot -> its middle edge's other side, or -1
    end_pid: np.ndarray  # slot -> the prism end its last vertex lies on
    prism_ends: list  # pid -> its short-edge slots, in order around the polygon
    end_class: np.ndarray  # pid -> the edge class of its prism
    order: np.ndarray  # the hexagons in breadth-first order
    entry: np.ndarray  # hexagon -> the letter it is entered through

    @property
    def n_hexagons(self):
        return len(self.corners)


def _frozen(a):
    a = np.array(a, dtype=np.intp)
    a.flags.writeable = False
    return a


def link_view(links, k):
    """Link k of the record `links`, numbered on its own."""
    (h0, h1), (p0, p1) = links.hexagon_offsets[k:k + 2], links.polygon_offsets[k:k + 2]
    slots = slice(6 * h0, 6 * h1)
    other = links.other_side[slots]
    ends = links.end_slots - 6 * h0
    return LinkView(k, *map(_frozen, (
        links.corners[h0:h1], links.start[slots], links.token[slots], links.label[slots],
        np.where(other >= 0, other - 6 * h0, -1), links.end_pid[slots] - p0)),
        [ends[links.end_offsets[p]:links.end_offsets[p + 1]].tolist() for p in range(p0, p1)],
        *map(_frozen, (links.end_class[p0:p1], links.order[h0:h1] - h0, links.entry[h0:h1])))


def link_of(tri, k):
    """`link_view` of link k of `tri`."""
    return link_view(vertex_link_hexagon_complex(tri), k)


def global_word(links, k, word):
    """A word over `link_view(links, k)` in the record's numbering."""
    word = np.asarray(word, dtype=np.intp)
    return np.where(word >= 0, word + 6 * links.hexagon_offsets[k],
                    word - links.polygon_offsets[k])


def build_loop(links, k, removed):
    """The gimbal loop on link k of `links` around its polygons `removed`,
    numbered on their own, as `gimbal.build_gimbal_loops` builds it among
    loops around no polygon on the other links."""
    return build_gimbal_loops(links, [p + links.polygon_offsets[k] for p in removed])[k]


@dataclass
class LoopView:
    """A gimbal loop over its `link_view`: its word, removed polygons and
    polygon variables numbered on their own."""

    vertex_class: int
    link: LinkView
    removed: tuple
    word: np.ndarray
    variable: np.ndarray = None


def loop_view(loop):
    """`loop` over `link_view` of its link."""
    links, k = loop.link, loop.vertex_class
    (h0, _), (p0, p1) = links.hexagon_offsets[k:k + 2], links.polygon_offsets[k:k + 2]
    word = np.where(loop.word >= 0, loop.word - 6 * h0, loop.word + p0)
    variable = None if loop.variable is None else loop.variable[p0:p1]
    return LoopView(k, link_view(links, k), tuple(p - p0 for p in loop.removed), word, variable)


def link_vertex(x):
    """A link-vertex id 24 tet + perm index as the reference's (tet, s)."""
    tet, s = divmod(int(x), 24)
    return tet, PERMS[s]


def letter(link, slot):
    """Slot `slot` of `link` as the reference's letter dict, owner included."""
    c, i = divmod(int(slot), 6)
    tet, a = (int(x) for x in link.corners[c])
    kind, s0, s1 = _CYCLES[a][i]
    if kind == "b":
        t, s = link_vertex(link.token[slot])
        token = (t, s, _swap12(s))
    else:
        token = (tet, a, s0[1])
    return {"kind": kind, "tet": tet, "s_start": s0, "s_end": s1,
            "start": link_vertex(link.start[slot]),
            "end": link_vertex(link.start[6 * c + (i + 1) % 6]),
            "token": token, "owner": (tet, a)}


def expand_link(link):
    """The reference's `LinkComplex` of a `LinkView`."""
    corners = [(int(t), int(a)) for t, a in link.corners]
    hexagons, beta_pairs, beta_of_corner = {}, {}, {}
    for c, corner in enumerate(corners):
        hexagons[corner] = [letter(link, 6 * c + i) for i in range(6)]
        beta_of_corner[corner] = [let["token"] for let in hexagons[corner][1::2]]
        for token in beta_of_corner[corner]:
            beta_pairs[token] = beta_pairs.get(token, ()) + (corner,)
    prism_ends, gamma_to_end, lv_to_pid = [], {}, {}
    for pid, (cycle, cls) in enumerate(zip(link.prism_ends, link.end_class.tolist())):
        gammas = [letter(link, s)["token"] for s in cycle]
        lvs = frozenset(link_vertex(link.start[s]) for s in cycle)
        prism_ends.append(PrismEnd(pid, cls, gammas, lvs))
        gamma_to_end.update(dict.fromkeys(gammas, pid))
        lv_to_pid.update(dict.fromkeys(lvs, pid))
    return LinkComplex(link.vertex_class, corners, hexagons, beta_pairs, beta_of_corner,
                       prism_ends, gamma_to_end, lv_to_pid)


def letters_of(loop, word=None):
    """A slot-word loop's word, or another slot word over its link, as the
    reference's letter dicts, pids as the word numbers them: a polygon
    letter starts and ends where the edge letter before it ends."""
    out, end = [], None
    for w in (loop.word if word is None else word):
        if w >= 0:
            out.append(letter(loop.link, w))
            end = out[-1]["end"]
        else:
            out.append({"kind": "P", "pid": -1 - int(w),
                        "edge_class": int(loop.link.end_class[-1 - w]), "start": end, "end": end})
    return out


def expand_loop(loop, link=None):
    """A `LoopView` over the reference's link (`expand_link`), with dict
    letters."""
    return GimbalLoop(loop.vertex_class, link or expand_link(loop.link), loop.removed,
                      letters_of(loop))


def serialize_letters(word):
    """A dict word as certificate text, as `GimbalLoop.serialize` wrote it
    from dict letters."""
    out = []
    for letter in word:
        if letter["kind"] == "P":
            out.append(f"P{letter['pid']}")
        elif letter["kind"] == "b":
            t, s0, s1 = letter["token"]
            out.append(f"b:{t}:" + "".join(map(str, s0)))
        else:
            t, a, b = letter["token"]
            s = letter["s_start"]
            out.append(f"g:{t}:{a}{b}:" + "".join(map(str, s)))
    return " ".join(out)
