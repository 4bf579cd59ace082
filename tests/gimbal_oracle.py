"""Gimbal-side geometry that no stage of the pipeline computes.

Scalar label and rotation matrices, prism holonomies, polygon angle sums,
the gimbal matrix and function themselves (stage V needs only their
derivatives) and the float edge directions on a vertex link.  The tests
check stage V's labels and Jacobian and the probe's edge-direction table
against these identities, and the batched labels against `label_matrix`,
one letter at a time from the scalar formulas.  Stage V reads its labels
only as a table of endpoints; `label_of` rebuilds a label as a matrix of
scalars from the label arrays.  Tests only.
"""

from hypcert import gimbal as gb
from hypcert import scalars as sc
from hypcert.geometry import opposite_edge
from hypcert.interval import FLOAT_KERNEL
from hypcert.triangulation import (
    LOCAL_EDGE_INDEX,
    perm_parity,
    vertex_link_hexagon_complex,
)
from tests.geometry_oracle import (
    cos_dihedral,
    cos_vertex_angle,
    sin_dihedral,
    sin_vertex_angle,
)
from tests.matrix_oracle import mat3_identity, mat3_mul


def rotation_matrix(cos_w, sin_w, one, zero):
    """Rotation about the z-axis from precomputed cos/sin."""
    return (
        (cos_w, -sin_w, zero),
        (sin_w, cos_w, zero),
        (zero, zero, one),
    )


def rotation_matrix_derivative(cos_w, sin_w, zero):
    """d/dw of the z-rotation by w, from precomputed cos/sin."""
    return ((-sin_w, -cos_w, zero), (cos_w, -sin_w, zero), (zero, zero, zero))


def middle_edge_matrix(cos_e, sin_e, one, zero):
    return (
        (-cos_e, zero, sin_e),
        (zero, -one, zero),
        (sin_e, zero, cos_e),
    )


def _one_zero(labels):
    return labels.kernel.point(1.0), labels.kernel.point(0.0)


def label_of(labels, letter):
    """The pipeline's label of an edge letter as a matrix of scalars, from
    the label arrays at its slot `labels._slot(letter)`."""
    one, zero = _one_zero(labels)
    tet, local = divmod(labels._slot(letter), 24)
    if local < 12:
        e, negative = divmod(local, 2)
        c, s = labels.dihedral_cos[tet].tolist()[e], labels.dihedral_sin[tet].tolist()[e]
        return rotation_matrix(c, -s if negative else s, one, zero)
    v = local - 12
    c, s = labels.vertex_cos[tet].tolist()[v], labels.vertex_sin[tet].tolist()[v]
    return middle_edge_matrix(c, s, one, zero)


def gamma_label(labels, tet, sigma):
    """The pipeline's label of the short edge of simplex `tet` starting at
    corner permutation sigma."""
    return label_of(labels, {"kind": "g", "tet": tet, "s_start": sigma})


def beta_label(labels, token):
    """The pipeline's label of a middle edge, from its canonical token."""
    return label_of(labels, {"kind": "b", "token": token})


def dihedral_cs(labels, tet, a, b):
    """(cos, sin) of the dihedral angle of simplex `tet` along its local
    edge {a, b}, read from the label arrays."""
    e = LOCAL_EDGE_INDEX[(min(a, b), max(a, b))]
    return labels.dihedral_cos[tet].tolist()[e], labels.dihedral_sin[tet].tolist()[e]


def label_matrix(labels, letter):
    """An edge letter's label from the scalar formulas, on the simplex
    scalars of `labels.data`: a middle edge from its canonical side s, with
    the vertex angle at s(0) in the triangle s(0) s(2) s(1); a short edge
    from s as the rotation by the dihedral angle between faces s(2) and
    s(3), positive when s is odd."""
    one, zero = _one_zero(labels)
    if letter["kind"] == "b":
        tet, s0, _s1 = letter["token"]
        g = labels.data[tet].gram
        i, j, k = s0[0], s0[2], s0[1]
        return middle_edge_matrix(
            cos_vertex_angle(g, i, j, k), sin_vertex_angle(g, i, j, k), one, zero
        )
    tet, sigma = letter["tet"], letter["s_start"]
    cof = labels.data[tet].cof
    i, j = opposite_edge(sigma[0], sigma[1])
    c, s = cos_dihedral(cof, i, j), sin_dihedral(cof, i, j)
    return rotation_matrix(c, s if perm_parity(sigma) == -1 else -s, one, zero)


def theta_interval(labels, tet, a, b):
    """The dihedral angle of simplex `tet` at its edge {a, b}."""
    return labels.data[tet].theta_at_edge[(min(a, b), max(a, b))]


def prism_holonomy(labels, link, pid):
    """Ordered product of the short-edge labels around one prism end.

    With the orientation induced from the removed polygon all factors are
    z-rotations by the positive dihedral angles, so the product encloses
    the rotation by the full angle sum around the edge class.
    """
    end = link.prism_ends[pid]
    one, zero = _one_zero(labels)
    acc = mat3_identity(one, zero)
    for (tet, a, b) in end.gammas:
        c, s = dihedral_cs(labels, tet, a, b)
        acc = mat3_mul(rotation_matrix(c, s, one, zero), acc)
    return acc


def polygon_angle_sum(labels, link, pid):
    """Sum of the branch-reduced rotation angles along the polygon boundary.

    Every boundary label is a rotation by a dihedral angle in (0, pi), so
    the branch reduction to (-pi, pi] is the angle itself and the sum is
    the angle sum around the edge class.
    """
    end = link.prism_ends[pid]
    acc = None
    for (tet, a, b) in end.gammas:
        th = theta_interval(labels, tet, a, b)
        acc = th if acc is None else acc + th
    return acc


def gimbal_matrix(loop, labels, rotations):
    """Product of the letter matrices, first-traversed letter rightmost.

    The labels are intervals, and `rotations[var]` starts with the ball of
    the rotation by variable var's angle (`gimbal.rotation_balls`).  The
    product goes through ball arithmetic (entrywise interval products of
    long near-rotation words diverge); the result is an entrywise
    float-interval enclosure.
    """
    acc = gb.ball_identity()
    for letter in loop.word:
        if letter["kind"] == "P":
            ball = rotations[loop.variable_of_pid[letter["pid"]]][0]
        else:
            ball = labels.ball_for_letter(letter)
        acc = gb.ball_mul(ball, acc)
    return gb.ball_entries(acc, FLOAT_KERNEL)


def gimbal_function(loop, labels, rotations):
    m = gimbal_matrix(loop, labels, rotations)
    return (m[0][1], m[0][2], m[1][2])


def edge_end_directions(tri, params, vertex_class=0, links=None):
    """Float developing computation on one vertex link.

    Transports the corner frames over the link and reads off, for every
    prism end, the unit direction in which the corresponding edge leaves
    the vertex (the z-axis of any corner frame on that polygon).  Returns
    {pid: direction}, in the frame of the first corner.
    """
    labels = gb.CocycleLabels(tri, [float(sc.midpoint(v)) for v in params.values])
    if links is None:
        link = vertex_link_hexagon_complex(tri, vertex_class)
    else:
        link = links[vertex_class]
    # frame transport: walking a letter u -> w multiplies the frame by the
    # label inverse (the label moves the simplex from u- to w-position)
    base = link.corners[0]
    frames = {}  # lv id -> 3x3 frame matrix
    first_lv = link.hexagons[base][0]["start"]
    frames[first_lv] = mat3_identity(1.0, 0.0)
    pending = [base]
    seen_corners = set()
    while pending:
        corner = pending.pop()
        if corner in seen_corners:
            continue
        cycle = link.hexagons[corner]
        known = next(
            (i for i, let in enumerate(cycle) if let["start"] in frames), None
        )
        if known is None:
            pending.insert(0, corner)
            continue
        seen_corners.add(corner)
        for step in range(6):
            let = cycle[(known + step) % 6]
            m = label_of(labels, let)
            mt = tuple(tuple(m[j][i] for j in range(3)) for i in range(3))
            if let["end"] not in frames:
                frames[let["end"]] = mat3_mul(frames[let["start"]], mt)
        for token in link.beta_of_corner[corner]:
            c1, c2 = link.beta_pairs[token]
            other = c2 if c1 == corner else c1
            if other not in seen_corners:
                pending.append(other)
    directions = {}
    for end in link.prism_ends:
        lv = next(iter(end.boundary_lvs))
        fr = frames[lv]
        directions[end.pid] = (fr[0][2], fr[1][2], fr[2][2])
    return directions
