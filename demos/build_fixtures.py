"""Build the bundled triangulation fixtures from first principles.

The positive fixtures come from the closed hyperbolic manifold obtained by
gluing opposite faces of a regular dodecahedron with a 3/10 turn.  With
dihedral angle 2*pi/5 the dodecahedron tiles hyperbolic space with five
cells around every edge, so the quotient carries a hyperbolic structure
whose geometry is known in closed form.  Coning the dodecahedron from one
of its own vertices gives a 27-tetrahedron triangulation of the quotient;
every edge is a chord between dodecahedron vertices, so every edge length
is computable to arbitrary precision from the circumradius and the
Euclidean central angles.

Outputs (written into src/hypcert/data/):
  dodec27a.tri   cone triangulation, one diagonal choice (27 tets, 1 vertex)
  dodec27b.tri   same manifold, other diagonals          (27 tets, 1 vertex)
  dodec30x2.tri  dodec27a after a 1-4 move in one tet    (30 tets, 2 vertices)
  s3_twotet.tri  the two-tetrahedron sphere              (negative fixture)

Run:  python demos/build_fixtures.py
"""

import os
import sys

import mpmath as mp
import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hypcert import geometry as geo
from hypcert import triangulation as tr

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "hypcert", "data")
TOL = mp.mpf(10) ** -35


def norm(v):
    return mp.sqrt(sum(x * x for x in v))


def dot(a, b):
    return sum(a[k] * b[k] for k in range(3))


def cross(a, b):
    return mp.matrix(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


# ---------------------------------------------------------------------------
# dodecahedron combinatorics and the 3/10-turn face pairing
# ---------------------------------------------------------------------------


def dodecahedron():
    phi = (1 + mp.sqrt(5)) / 2
    inv = 1 / phi
    pts = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                pts.append(mp.matrix([sx, sy, sz]))
    for s1 in (1, -1):
        for s2 in (1, -1):
            pts.append(mp.matrix([0, s1 * inv, s2 * phi]))
            pts.append(mp.matrix([s1 * inv, s2 * phi, 0]))
            pts.append(mp.matrix([s1 * phi, 0, s2 * inv]))
    assert len(pts) == 20

    normals = []
    for s1 in (1, -1):
        for s2 in (1, -1):
            normals.append(mp.matrix([0, s1 * phi, s2]))
            normals.append(mp.matrix([s1 * phi, s2, 0]))
            normals.append(mp.matrix([s1, 0, s2 * phi]))

    faces = []
    for n in normals:
        dots = [dot(n, p) for p in pts]
        top = max(dots)
        face = [i for i, d in enumerate(dots) if top - d < TOL]
        assert len(face) == 5
        nn = n / norm(n)
        center = sum((pts[i] for i in face), mp.matrix([0, 0, 0])) / 5
        ref = pts[face[0]] - center
        ref = ref / norm(ref)
        ref2 = cross(nn, ref)

        def angle(i, ref=ref, ref2=ref2, center=center):
            d = pts[i] - center
            return mp.atan2(dot(ref2, d), dot(ref, d))

        face = sorted(face, key=angle)
        faces.append(face)
    return pts, faces, normals


def rotation_about(axis, angle):
    x, y, z = axis
    c, s = mp.cos(angle), mp.sin(angle)
    C = 1 - c
    return mp.matrix(
        [
            [c + x * x * C, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, c + y * y * C, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, c + z * z * C],
        ]
    )


def face_pairings(pts, faces, normals):
    """Vertex-id maps of the 3/10-turn antipodal gluing, one per face.

    The classical description rotates a face by three tenths of a turn and
    pushes it through to the opposite face.  Relative to the central
    inversion (which already matches vertices to vertices) that twist is
    minus one fifth of a turn; it is the choice that identifies the thirty
    edges in six classes of five, as the 72-degree dihedral angle requires.
    Five tenths would collapse to the inversion itself (the projective
    space) and one tenth gives the three-fold spherical identification.
    """

    def vertex_id(q):
        for i, p in enumerate(pts):
            if norm(p - q) < TOL:
                return i
        raise AssertionError("pairing image is not a vertex")

    twist = -2 * 2 * mp.pi / 10
    out = []
    for fi, face in enumerate(faces):
        n = normals[fi] / norm(normals[fi])
        rot = rotation_about(n, twist)
        vmap = {v: vertex_id(rot * (-pts[v])) for v in face}
        assert set(vmap.values()) == {vertex_id(-pts[v]) for v in face}
        out.append(vmap)
    return out


# ---------------------------------------------------------------------------
# boundary triangulation and the cone
# ---------------------------------------------------------------------------


def triangulate_pentagon(face, apex):
    i = face.index(apex)
    cyc = face[i:] + face[:i]
    return [(cyc[0], cyc[j], cyc[j + 1]) for j in range(1, 4)]


def boundary_triangles(pts, faces, pairings, cone_vertex, free_apex_rank):
    """Pentagon triangulations compatible with the pairing.

    Returns (triangles per face, glue map sending each boundary triangle,
    as a vertex tuple, to its partner triangle's vertices).  Faces through
    the cone vertex must be fanned there; free face pairs are fanned from
    an apex chosen by rank.
    """
    partner_of = {}
    for fi, face in enumerate(faces):
        target = {pairings[fi][v] for v in face}
        partner_of[fi] = next(fj for fj, g in enumerate(faces) if set(g) == target)

    tri_of_face = {}
    glue = {}
    done = set()
    order = sorted(
        range(12), key=lambda fi: (cone_vertex not in faces[fi], min(faces[fi]))
    )
    for fi in order:
        if fi in done:
            continue
        face = faces[fi]
        apex = cone_vertex if cone_vertex in face else sorted(face)[free_apex_rank % 5]
        tris = triangulate_pentagon(face, apex)
        vmap = pairings[fi]
        tri_of_face[fi] = tris
        tri_of_face[partner_of[fi]] = [tuple(vmap[v] for v in t) for t in tris]
        for t in tris:
            image = tuple(vmap[v] for v in t)
            glue[t] = image
            inv = {vmap[v]: v for v in face}
            glue[image] = tuple(inv[w] for w in image)
        done.update((fi, partner_of[fi]))
    return tri_of_face, glue


def build_cone_complex(free_apex_rank):
    """27 positively oriented tetrahedra with model-vertex tuples, plus the
    face gluing table."""
    pts, faces, normals = dodecahedron()
    pairings = face_pairings(pts, faces, normals)
    v0 = 0
    tri_of_face, glue = boundary_triangles(pts, faces, pairings, v0, free_apex_rank)

    all_tris = [t for fi in range(12) for t in tri_of_face[fi]]
    assert len(all_tris) == 36

    def orient_positive(mv):
        a, b, c, d = (pts[i] for i in mv)
        m = mp.matrix(3, 3)
        for col, w in enumerate((b - a, c - a, d - a)):
            for row in range(3):
                m[row, col] = w[row]
        det = mp.det(m)
        assert abs(det) > TOL
        return mv if det > 0 else (mv[0], mv[1], mv[3], mv[2])

    tets_mv = []
    for t in sorted(all_tris, key=lambda t: tuple(sorted(t))):
        if v0 in t:
            continue
        tets_mv.append(orient_positive((v0,) + t))
    assert len(tets_mv) == 27

    # vertex maps for boundary triangles, keyed by frozenset
    surface_vmap = {}
    for t, image in glue.items():
        surface_vmap[frozenset(t)] = dict(zip(t, image))

    gluings = _glue_faces(tets_mv, surface_vmap)
    return tets_mv, gluings, pts


def _glue_faces(tets_mv, surface_vmap):
    face_owner = {}
    for ti, mv in enumerate(tets_mv):
        for f in range(4):
            key = frozenset(mv[j] for j in range(4) if j != f)
            face_owner.setdefault(key, []).append((ti, f))

    gluings = [[None] * 4 for _ in tets_mv]
    for ti, mv in enumerate(tets_mv):
        for f in range(4):
            if gluings[ti][f] is not None:
                continue
            key = frozenset(mv[j] for j in range(4) if j != f)
            owners = face_owner[key]
            if len(owners) == 2:
                # interior wall: identity on model vertices
                (t1, f1), (t2, f2) = owners
                vmap = {v: v for v in key}
            else:
                assert len(owners) == 1, "non-manifold face"
                t1, f1 = ti, f
                vmap = surface_vmap[key]
                image = frozenset(vmap.values())
                partners = face_owner[image]
                assert len(partners) == 1
                t2, f2 = partners[0]
            perm = [None] * 4
            for j in range(4):
                if j == f1:
                    perm[j] = f2
                else:
                    perm[j] = tets_mv[t2].index(vmap[tets_mv[t1][j]])
            assert sorted(perm) == [0, 1, 2, 3]
            perm = tuple(perm)
            gluings[t1][f1] = (t2, perm)
            gluings[t2][f2] = (t1, tr.perm_inverse(perm))
    return gluings


# ---------------------------------------------------------------------------
# geometry: circumradius and chord lengths
# ---------------------------------------------------------------------------


def circumradius():
    """Distance from the center to a vertex for dihedral angle 2*pi/5.

    Derived through the characteristic orthoscheme: the spherical vertex
    figure fixes the pentagon angle beta, plane trigonometry in the face
    fixes the in-face radii, and a right triangle through the face foot
    lifts them to the 3-dimensional inradius and circumradius.
    """
    theta = 2 * mp.pi / 5
    cos_beta = mp.cos(theta) / (1 - mp.cos(theta))
    beta = mp.acos(cos_beta)
    r_face = mp.acosh(mp.cot(mp.pi / 5) * mp.cot(beta / 2))
    r_edge = mp.acosh(mp.cos(beta / 2) / mp.sin(mp.pi / 5))
    rho = mp.atanh(mp.tan(theta / 2) * mp.sinh(r_edge))
    R = mp.acosh(mp.cosh(rho) * mp.cosh(r_face))

    # cross check: the edge length from the face triangle equals the chord
    # between adjacent vertices computed from R and the central angle
    half_edge = mp.asinh(mp.sinh(r_face) * mp.sin(mp.pi / 5))
    edge_from_face = 2 * half_edge
    phi = (1 + mp.sqrt(5)) / 2
    u = mp.matrix([1, 1, 1])
    w = mp.matrix([0, 1 / phi, phi])
    cos_central = dot(u, w) / (norm(u) * norm(w))
    edge_from_R = mp.acosh(
        mp.cosh(R) ** 2 - mp.sinh(R) ** 2 * cos_central
    )
    assert abs(edge_from_face - edge_from_R) < TOL, "orthoscheme derivation broken"
    return R


def hyperboloid_points(pts, R):
    """Embed the scaled dodecahedron vertices in the hyperboloid model."""
    out = {}
    ch, sh = mp.cosh(R), mp.sinh(R)
    for i, p in enumerate(pts):
        u = p / norm(p)
        out[i] = mp.matrix([ch, sh * u[0], sh * u[1], sh * u[2]])
    return out


def hyp_distance(x, y):
    q = x[0] * y[0] - x[1] * y[1] - x[2] * y[2] - x[3] * y[3]
    return mp.acosh(q)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def triangulation_text(gluings):
    lines = [f"tets {len(gluings)}"]
    for i, row in enumerate(gluings):
        toks = []
        for f in range(4):
            t2, perm = row[f]
            toks.append(f"{t2}:" + "".join(str(v) for v in perm))
        lines.append(f"tet {i}: " + " ".join(toks))
    return "\n".join(lines) + "\n"


def lengths_for(tri, tets_mv, hpts, digits=22):
    """Edge-class lengths in canonical order, checked for consistency."""
    out = []
    for states in np.split(tri.edge_states, np.cumsum(tri.edge_degrees)[:-1]):
        vals = []
        for t, s in zip(*np.divmod(states, 24)):
            mv = tets_mv[t]
            a, b = tr.LOCAL_EDGES[tr.PERM_EDGE[s]]
            vals.append(hyp_distance(hpts[mv[a]], hpts[mv[b]]))
        for v in vals[1:]:
            assert abs(v - vals[0]) < TOL, "edge class mixes chord lengths"
        out.append(mp.nstr(vals[0], digits, strip_zeros=False))
    return out


def emit(name, text):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def residual_report(tri, lengths):
    params = geo.EdgeParams.from_lengths([float(x) for x in lengths])
    sums = geo.angle_sums(tri, params)
    worst = max(abs(s - 2 * mp.pi) for s in sums)
    return float(worst)


def build_positive_fixture(name, free_apex_rank):
    tets_mv, gluings, pts = build_cone_complex(free_apex_rank)
    text = triangulation_text(gluings)
    tri = tr.parse(text)
    assert tri.o == 1, tri.o
    assert tri.m == tri.n_tets + 1
    R = circumradius()
    hpts = hyperboloid_points(pts, R)
    lens = lengths_for(tri, tets_mv, hpts)
    full = text + "lengths:\n" + " ".join(lens) + "\n"
    tri2 = tr.parse(full)
    worst = residual_report(tri2, lens)
    print(f"{name}: {tri.n_tets} tets, o={tri.o}, m={tri.m}, "
          f"max |Theta - 2pi| = {worst:.3e}")
    assert worst < 1e-12
    emit(name, full)
    return tets_mv, gluings, hpts, full


def one_four_move(tets_mv, gluings, hpts, tet0=0):
    """Replace tet0 by four tetrahedra around an interior apex point."""
    mv0 = tets_mv[tet0]
    s = hpts[mv0[0]] + hpts[mv0[1]] + hpts[mv0[2]] + hpts[mv0[3]]
    q = s[0] * s[0] - s[1] * s[1] - s[2] * s[2] - s[3] * s[3]
    assert q > 0
    apex = s / mp.sqrt(q)
    apex_id = max(hpts) + 1
    hpts = dict(hpts)
    hpts[apex_id] = apex

    n = len(tets_mv)
    # new tet for slot j sits at index tet0 (j=0) or n-1+j (j=1..3)
    def new_index(j):
        return tet0 if j == 0 else n - 1 + j

    new_tets_mv = list(tets_mv)
    new_gluings = [list(row) for row in gluings]
    for j in range(1, 4):
        new_tets_mv.append(None)
        new_gluings.append([None] * 4)
    for j in range(4):
        mv = list(mv0)
        mv[j] = apex_id
        new_tets_mv[new_index(j)] = tuple(mv)

    for j in range(4):
        tj = new_index(j)
        # outer face keeps tet0's old gluing
        t2, perm = gluings[tet0][j]
        if t2 == tet0:
            t2 = new_index(perm[j])
        new_gluings[tj][j] = (t2, perm)
        if t2 != tj or perm[j] != j:
            new_gluings[t2][perm[j]] = (tj, tr.perm_inverse(perm))
        # inner faces: swap slots i and j
        for i in range(4):
            if i == j:
                continue
            perm_ij = list(range(4))
            perm_ij[i], perm_ij[j] = j, i
            new_gluings[tj][i] = (new_index(i), tuple(perm_ij))
    # external partners of old tet0 that were not tet0 itself need
    # retargeting (done above when writing new_gluings[t2][perm[j]])
    return new_tets_mv, new_gluings, hpts


def build_two_vertex_fixture(name, tets_mv, gluings, hpts):
    new_mv, new_gluings, new_hpts = one_four_move(tets_mv, gluings, hpts)
    text = triangulation_text(new_gluings)
    tri = tr.parse(text)
    assert tri.o == 2, tri.o
    lens = lengths_for(tri, new_mv, new_hpts)
    full = text + "lengths:\n" + " ".join(lens) + "\n"
    tri2 = tr.parse(full)
    worst = residual_report(tri2, lens)
    print(f"{name}: {tri.n_tets} tets, o={tri.o}, m={tri.m}, "
          f"max |Theta - 2pi| = {worst:.3e}")
    assert worst < 1e-12
    emit(name, full)


S3_TEXT = """# two tetrahedra whose boundaries are identified; the quotient is the
# 3-sphere and carries no hyperbolic structure
tets 2
tet 0: 1:1023 1:1023 1:1023 1:1023
tet 1: 0:1023 0:1023 0:1023 0:1023
"""


def main():
    with mp.workdps(60):
        tets_mv, gluings, hpts, _ = build_positive_fixture("dodec27a.tri", 0)
        build_positive_fixture("dodec27b.tri", 2)
        build_two_vertex_fixture("dodec30x2.tri", tets_mv, gluings, hpts)
    emit("s3_twotet.tri", S3_TEXT)
    t = tr.parse(S3_TEXT)
    print(f"s3_twotet: {t.n_tets} tets, o={t.o}, m={t.m}")


if __name__ == "__main__":
    main()
