"""Stage V's slot tables expanded into the dicts of `tests/link_oracle.py`.

A vertex link holds integer arrays over its slots and a gimbal loop an
integer word (`hypcert.triangulation.LinkComplex`,
`hypcert.gimbal.GimbalLoop`).  The reference builds per-letter dicts
keyed on tuples.  `expand_link` and `letters_of` turn the first into the
second, field for field and in the reference's orders, so the tests
compare the two letter for letter and feed the reference's validator
and the scalar oracles.  Tests only.
"""

from hypcert.gimbal import GimbalLoop
from hypcert.triangulation import PERMS, _swap12, hexagon_cycle
from tests.link_oracle import LinkComplex, PrismEnd


_CYCLES = [hexagon_cycle(a) for a in range(4)]


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
    """The reference's `LinkComplex` of a slot-table link."""
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
    reference's letter dicts: a polygon letter starts and ends where the
    edge letter before it ends."""
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
    """The loop over the reference's link (`expand_link`), with dict letters."""
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
