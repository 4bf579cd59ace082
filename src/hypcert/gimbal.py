"""Rotation cocycles on doubly truncated simplices and the gimbal test.

The short and middle edges of a doubly truncated simplex carry SO(3)
labels computed from the simplex angles:

* a middle edge starting at the corner permutation s gets the involution
  ``[[-cos e, 0, sin e], [0, -1, 0], [sin e, 0, cos e]]`` with
  e the vertex angle at s(0) in the triangle s(0)s(2)s(1);
* a short edge starting at s gets the z-rotation by the dihedral angle
  between faces s(2) and s(3), taken positively when s is an odd
  permutation and negatively when s is even.

The sign rule extends the explicitly known labels by even relabelings.
Stage V relies on the sign rule as stated; the test suite checks that the
label product around every 2-cell of the complex encloses the identity
(`tests/cocycle_closure.py`), on random simplices and on the bundled
fixtures.

On each vertex link, removing the prism-end polygons of the edges whose
angle sums are only approximately full turns leaves a surface with
boundary.  A gimbal loop is a cyclic word in link edges plus one letter
per removed polygon; substituting z-rotations for the polygon letters
gives the gimbal matrix, and the upper-triangular entries of the per-link
matrices assemble the gimbal function g.  Invertibility of the interval
Jacobian [Dg(K)] over the box K of angle-sum enclosures upgrades the
approximate edge equations to exact ones.
"""

from __future__ import annotations

import itertools
import math
from math import inf, nextafter
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import scalars as sc
from .interval import (
    FLOAT_KERNEL,
    IntervalMatrix,
    interval_matrix_invertible,
    inverse_residual,
)
from .triangulation import (
    TriangulationError,
    perm_parity,
    vertex_link_hexagon_complex,
)

__all__ = [
    "CocycleLabels",
    "GimbalLoop",
    "GimbalLoopError",
    "build_gimbal_loop",
    "validate_gimbal_loop",
    "gimbal_matrix",
    "gimbal_matrix_derivatives",
    "assemble_gimbal_jacobian",
    "gimbal_lock_check",
    "prism_holonomy",
    "polygon_angle_sum",
    "probe_partitions",
    "rotation_matrix",
    "rotation_matrix_derivative",
    "mat3_mul",
    "mat3_identity",
    "edge_end_directions",
]


class GimbalLoopError(ValueError):
    pass


# ---------------------------------------------------------------------------
# midpoint-radius enclosures for long rotation products
#
# Entrywise interval products of hundreds of near-rotation matrices blow
# up exponentially (the entry 1-norms of a rotation exceed 1).  A ball
# (float midpoint matrix, spectral-norm radius) fixes this: rotation
# midpoints have operator norm one up to rounding, so radii only grow
# additively along a product.  The balls hold plain floats and are computed
# in round-to-nearest.  Every bound is made rigorous by stepping a
# round-to-nearest result up one float: a result rounded to nearest lies
# within half an ulp of the exact value, so up(fl(x)) >= x for every real x,
# with up(y) = nextafter(y, inf).  Midpoint products carry an a-priori
# rounding-error bound (`_product_with_error`).  A non-finite midpoint or
# bound makes the radius inf, and an infinite radius encloses everything.
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of round-to-nearest doubles
_GAMMA3_UP = 3 * _U * (1 + 8 * _U)  # exact; >= gamma_3 (1 + u)^4
_UNDERFLOW3 = 3 * 2.0 ** -1074  # 3 eta, eta the smallest positive subnormal


class BallMatrix3:
    """{ mid + E : ||E||_2 <= rad }, entrywise |E_ij| <= rad as well.

    `mid` is a 3x3 tuple of floats.  The norm bound of the midpoint is
    computed at most once, when a product first needs it.
    """

    __slots__ = ("mid", "rad", "_norm")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad
        self._norm = None

    def norm_bound(self):
        """Rigorous upper bound for the spectral norm of the midpoint."""
        if self._norm is None:
            self._norm = _norm_bound(self.mid)
        return self._norm


def _product_with_error(a, b):
    """fl(a b) for 3x3 float matrices, and entrywise bounds on its error.

    Entry (i, j) of the midpoint is p = x0 + x1 + x2 with x_k = a_ik * b_kj,
    all rounded to nearest and summed left to right.  Its bound is
    e = up(G s + 3 eta), with s = |x0| + |x1| + |x2| rounded to nearest,
    G = 3u (1 + 8u) >= gamma_3 (1 + u)^4, gamma_3 = 3u / (1 - 3u),
    u = 2^-53 and eta = 2^-1074.

    Lemma: unless something overflows, |p - sum_k a_ik b_kj| <= e.
    Proof.  A rounded product is x_k = a b (1 + d) + t with |d| <= u and
    |t| <= eta / 2 (t only in gradual underflow); a rounded sum of floats
    is (x + y)(1 + d), never worse.  Hence (Higham, Accuracy and Stability
    of Numerical Algorithms, section 3.1) |p - sum a b| <= gamma_3 sum |a b|
    + 3 (eta / 2)(1 + gamma_2).  Writing a rounding as fl(x) = x / (1 + d)
    instead gives |a b| <= (1 + u)|x_k| + eta / 2 and sum |x_k| <=
    (1 + u)^2 s, so the error is at most gamma_3 (1 + u)^3 s + 2 eta.
    Finally fl(G s) >= G s / (1 + u) - eta / 2 >= gamma_3 (1 + u)^3 s -
    eta / 2, and up(fl(y + 3 eta)) >= y + 3 eta.  An overflow makes p or s
    non-finite, and then e is inf or NaN.
    """
    bt = tuple(zip(*b))
    mid = []
    err = []
    for a0, a1, a2 in a:
        mid_row = []
        err_row = []
        for b0, b1, b2 in bt:
            x0 = a0 * b0
            x1 = a1 * b1
            x2 = a2 * b2
            mid_row.append(x0 + x1 + x2)
            err_row.append(nextafter(
                _GAMMA3_UP * (abs(x0) + abs(x1) + abs(x2)) + _UNDERFLOW3, inf
            ))
        mid.append(tuple(mid_row))
        err.append(err_row)
    return tuple(mid), err


def _max_row_sum(rows):
    """Upper bound for the largest row sum of nonnegative floats; inf if
    any entry is inf or NaN."""
    worst = 0.0
    for row in rows:
        acc = row[0]
        for x in row[1:]:
            acc = nextafter(acc + x, inf)
        if not acc <= worst:
            worst = acc if acc < inf else inf
    return worst


def _spec_bound(radii):
    """Rigorous upper bound for the spectral norm of a nonnegative 3x3
    matrix of floats: sqrt(max row sum * max col sum)."""
    prod = nextafter(_max_row_sum(radii) * _max_row_sum(zip(*radii)), inf)
    return nextafter(math.sqrt(prod), inf)


def _norm_bound(m):
    """Rigorous upper bound for ||m||_2 via max row sum of |m^T m|, for a
    3x3 float matrix m; m^T m is formed by `_product_with_error`."""
    gram, err = _product_with_error(tuple(zip(*m)), m)
    rows = (
        (abs(g0), e0, abs(g1), e1, abs(g2), e2)
        for (g0, g1, g2), (e0, e1, e2) in zip(gram, err)
    )
    return nextafter(math.sqrt(_max_row_sum(rows)), inf)


def ball_from_interval_mat3(m):
    """Enclose an entrywise-interval 3x3 matrix in a ball."""
    mid = []
    radii = []
    for row in m:
        mid_row = []
        rad_row = []
        for x in row:
            lo, hi = x.lo_float(), x.hi_float()
            c = 0.5 * (lo + hi)
            mid_row.append(c)
            rad_row.append(max(nextafter(c - lo, inf), nextafter(hi - c, inf)))
        mid.append(tuple(mid_row))
        radii.append(rad_row)
    return BallMatrix3(tuple(mid), _spec_bound(radii))


def ball_identity():
    return BallMatrix3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 0.0)


def _radius(rad):
    """inf for a NaN or infinite radius."""
    return rad if rad < inf else inf


def ball_mul(a, b):
    """Product enclosure: midpoint product with its rounding bound, plus
    norm cross terms."""
    mid, err = _product_with_error(a.mid, b.mid)
    rad = nextafter(_spec_bound(err) + nextafter(a.norm_bound() * b.rad, inf), inf)
    rad = nextafter(rad + nextafter(a.rad * b.norm_bound(), inf), inf)
    rad = nextafter(rad + nextafter(a.rad * b.rad, inf), inf)
    return BallMatrix3(mid, _radius(rad))


def ball_add(a, b):
    """Sum enclosure: a rounded sum s is within u |s| of the exact one."""
    mid = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.mid, b.mid)
    )
    radii = [[nextafter(_U * abs(s), inf) for s in row] for row in mid]
    rad = nextafter(nextafter(_spec_bound(radii) + a.rad, inf) + b.rad, inf)
    return BallMatrix3(mid, _radius(rad))


def ball_entries(ball, kernel):
    """Entrywise interval enclosure of a ball (the whole line where its
    radius is infinite)."""
    r = ball.rad
    if r == inf:
        whole = kernel.interval(-inf, inf)
        return ((whole,) * 3,) * 3
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            c = kernel.point(ball.mid[i][j])
            row.append(c + kernel.interval(-r, r))
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# generic 3x3 helpers (work for floats and intervals alike)
# ---------------------------------------------------------------------------


def mat3_mul(a, b):
    return tuple(
        tuple(
            a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
            for j in range(3)
        )
        for i in range(3)
    )


def mat3_identity(one, zero):
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


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


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


class CocycleLabels:
    """SO(3) labels for the short and middle edges of every simplex.

    Generic over the scalar type of `params` (floats or intervals).  One
    matrix is computed per canonical edge token, so identified edges of
    glued simplices share their label bit for bit.
    """

    def __init__(self, tri, params, data=None):
        self.tri = tri
        self.params = params
        if data is None:
            data = geo.simplex_data(tri, params)
        self.data = data
        sample = params[0]
        self.one = sc.point_like(sample, 1.0)
        self.zero = sc.point_like(sample, 0.0)
        self._gamma_cs = {}  # (tet, a, b) undirected -> (cos, sin) of dihedral
        self._beta_cache = {}  # canonical beta token -> matrix
        self._gamma_cache = {}  # (tet, a, b, sign) -> matrix

    def _dihedral_cs(self, tet, a, b):
        key = (tet, min(a, b), max(a, b))
        if key not in self._gamma_cs:
            i, j = geo.opposite_edge(a, b)
            cof = self.data[tet].cof
            c = geo.cos_dihedral(cof, i, j)
            s = geo.sin_dihedral(cof, i, j)
            self._gamma_cs[key] = (c, s)
        return self._gamma_cs[key]

    def gamma_for_sigma(self, tet, sigma):
        """Label of the short edge starting at corner permutation sigma."""
        a, b = sigma[0], sigma[1]
        sign = 1 if perm_parity(sigma) == -1 else -1
        key = (tet, min(a, b), max(a, b), sign)
        if key not in self._gamma_cache:
            c, s = self._dihedral_cs(tet, a, b)
            self._gamma_cache[key] = rotation_matrix(
                c, s if sign > 0 else -s, self.one, self.zero
            )
        return self._gamma_cache[key]

    def beta_for_token(self, token):
        """Label of a middle edge, computed once from its canonical side."""
        if token not in self._beta_cache:
            tet, s0, _s1 = token
            g = self.data[tet].gram
            c = geo.cos_vertex_angle(g, s0[0], s0[2], s0[1])
            s = geo.sin_vertex_angle(g, s0[0], s0[2], s0[1])
            self._beta_cache[token] = middle_edge_matrix(c, s, self.one, self.zero)
        return self._beta_cache[token]

    def for_letter(self, letter):
        if letter["kind"] == "b":
            return self.beta_for_token(letter["token"])
        if letter["kind"] == "g":
            return self.gamma_for_sigma(letter["tet"], letter["s_start"])
        raise GimbalLoopError(f"letter of kind {letter['kind']!r} has no label")

    def theta_interval(self, tet, a, b):
        return self.data[tet].theta_at_edge[(min(a, b), max(a, b))]


# ---------------------------------------------------------------------------
# prisms
# ---------------------------------------------------------------------------


def prism_holonomy(labels, link, pid):
    """Ordered product of the short-edge labels around one prism end.

    With the orientation induced from the removed polygon all factors are
    z-rotations by the positive dihedral angles, so the product encloses
    the rotation by the full angle sum around the edge class.
    """
    end = link.prism_ends[pid]
    acc = mat3_identity(labels.one, labels.zero)
    for (tet, a, b) in end.gammas:
        c, s = labels._dihedral_cs(tet, a, b)
        acc = mat3_mul(rotation_matrix(c, s, labels.one, labels.zero), acc)
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
        th = labels.theta_interval(tet, a, b)
        acc = th if acc is None else acc + th
    return acc


# ---------------------------------------------------------------------------
# gimbal loops
# ---------------------------------------------------------------------------


@dataclass
class GimbalLoop:
    vertex_class: int
    link: object
    removed: tuple  # pids of removed polygons, sorted
    word: list  # letters in traversal order; P letters have kind 'P'
    variable_of_pid: dict = field(default_factory=dict)

    def serialize(self):
        out = []
        for letter in self.word:
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


def build_gimbal_loop(link, removed_pids, validate=True):
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
            idx = next(
                (
                    i
                    for i, let in enumerate(word)
                    if let["kind"] == "b" and let["token"] == token
                ),
                None,
            )
            if idx is None:
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
    if validate:
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


# ---------------------------------------------------------------------------
# gimbal matrix, derivatives, lock check
# ---------------------------------------------------------------------------


def _letter_operands(loop, labels, t_of_pid, rotations=None):
    """The loop's letter matrices in word order (balls for interval labels)
    and each polygon letter's rotation derivative, by pid.  A rotation and
    its derivative come from one cos and one sin of the angle, kept in
    `rotations` by angle for callers that share it between loops.  Labels
    are cached per token: one ball per distinct matrix, by id (`ball_of`
    keeps the matrix alive)."""
    rotations = {} if rotations is None else rotations
    interval = sc.is_interval(labels.one)
    mats, deriv, ball_of = [], {}, {}
    for letter in loop.word:
        if letter["kind"] == "P":
            w = t_of_pid[letter["pid"]]
            if w not in rotations:
                c, s = sc.cos(w), sc.sin(w)
                pair = (rotation_matrix(c, s, labels.one, labels.zero),
                        rotation_matrix_derivative(c, s, labels.zero))
                rotations[w] = tuple(map(ball_from_interval_mat3, pair)) if interval else pair
            m, deriv[letter["pid"]] = rotations[w]
        else:
            m = labels.for_letter(letter)
            if interval:
                if id(m) not in ball_of:
                    ball_of[id(m)] = (m, ball_from_interval_mat3(m))
                m = ball_of[id(m)][1]
        mats.append(m)
    return mats, deriv


def gimbal_matrix(loop, labels, t_of_pid):
    """Product of the letter matrices, first-traversed letter rightmost.

    Interval-valued labels go through ball arithmetic (entrywise interval
    products of long near-rotation words diverge); the result is then an
    entrywise float-interval enclosure.  Float labels multiply directly.
    """
    mats, _ = _letter_operands(loop, labels, t_of_pid)
    if sc.is_interval(labels.one):
        acc = ball_identity()
        for ball in mats:
            acc = ball_mul(ball, acc)
        return ball_entries(acc, FLOAT_KERNEL)
    acc = mat3_identity(labels.one, labels.zero)
    for m in mats:
        acc = mat3_mul(m, acc)
    return acc


def gimbal_function(loop, labels, t_of_pid):
    m = gimbal_matrix(loop, labels, t_of_pid)
    return (m[0][1], m[0][2], m[1][2])


def gimbal_matrix_derivatives(loop, labels, t_of_pid, rotations=None):
    """d(gimbal matrix)/d(T_var) for every variable occurring in the loop.

    The derivative replaces one rotation letter at a time by the rotation
    derivative and sums over occurrences.  Prefix and suffix products make
    this linear in the word length.  `rotations` (see `_letter_operands`)
    may be shared between the loops of one Jacobian.
    """
    word = loop.word
    n = len(word)
    mats, deriv = _letter_operands(loop, labels, t_of_pid, rotations)
    if sc.is_interval(labels.one):
        # at each polygon letter i, suffix[i] = M(w[i-1]) ... M(w[0]) and
        # prefix[i + 1] = M(w[n-1]) ... M(w[i+1]); the other partial
        # products are not kept
        suffix, prefix = {}, {}
        ident = part = ball_identity()
        for i in range(n):
            if word[i]["kind"] == "P":
                suffix[i] = part
            part = ball_mul(mats[i], part)
        part = ident
        for i in range(n - 1, -1, -1):
            if word[i]["kind"] == "P":
                prefix[i + 1] = part
            part = ball_mul(part, mats[i])
        acc = {}
        for i, letter in enumerate(word):
            if letter["kind"] != "P":
                continue
            var = loop.variable_of_pid[letter["pid"]]
            term = ball_mul(prefix[i + 1], ball_mul(deriv[letter["pid"]], suffix[i]))
            acc[var] = term if var not in acc else ball_add(acc[var], term)
        return {v: ball_entries(b, FLOAT_KERNEL) for v, b in acc.items()}
    ident = mat3_identity(labels.one, labels.zero)
    suffix = [ident] * (n + 1)
    for i in range(n):
        suffix[i + 1] = mat3_mul(mats[i], suffix[i])
    prefix = [ident] * (n + 1)
    for i in range(n - 1, -1, -1):
        prefix[i] = mat3_mul(prefix[i + 1], mats[i])
    out = {}
    for i, letter in enumerate(word):
        if letter["kind"] != "P":
            continue
        var = loop.variable_of_pid[letter["pid"]]
        term = mat3_mul(prefix[i + 1], mat3_mul(deriv[letter["pid"]], suffix[i]))
        if var in out:
            out[var] = tuple(
                tuple(out[var][r][c] + term[r][c] for c in range(3)) for r in range(3)
            )
        else:
            out[var] = term
    return out


def assemble_gimbal_jacobian(loops, labels, box_of_variable):
    """Interval Jacobian [Dg(K)]: 3 rows per vertex, one column per
    variable; rows carry the (0,1), (0,2), (1,2) entries.

    The ball evaluation hands back 53-bit interval entries whatever the
    working precision; that is sound, and ample for the inversion margin.
    """
    nvar = len(box_of_variable)
    zero = FLOAT_KERNEL.point(0.0)
    rows = []
    rotations = {}  # one rotation and derivative per variable's box
    for loop in loops:
        t_of_pid = {
            pid: box_of_variable[var] for pid, var in loop.variable_of_pid.items()
        }
        derivs = gimbal_matrix_derivatives(loop, labels, t_of_pid, rotations)
        for (r, c) in ((0, 1), (0, 2), (1, 2)):
            rows.append(
                [
                    derivs[v][r][c] if v in derivs else zero
                    for v in range(nvar)
                ]
            )
    return IntervalMatrix(rows)


def build_loops_for_partition(tri, e_sim, links=None, validate=True):
    """One gimbal loop per vertex class; polygon variables indexed by the
    position of their edge class in e_sim."""
    var_of_class = {cls: i for i, cls in enumerate(e_sim)}
    if links is None:
        links = [vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
    loops = []
    for link in links:
        removed = [
            pid
            for pid, end in enumerate(link.prism_ends)
            if end.edge_class in var_of_class
        ]
        loop = build_gimbal_loop(link, removed, validate=validate)
        loop.variable_of_pid = {
            pid: var_of_class[link.prism_ends[pid].edge_class] for pid in removed
        }
        loops.append(loop)
    return loops


@dataclass
class GimbalVerdict:
    avoided: bool
    reason: str
    loops: list
    jacobian: IntervalMatrix = None


def gimbal_lock_check(tri, labels, e_sim, theta_boxes, links=None):
    """Step that upgrades approximate edge equations to exact ones.

    e_sim: edge-class indices whose angle sums are only enclosed; the box
    K is their list of angle-sum enclosures `theta_boxes` (same order).
    Returns verdict `avoided` only if the interval Jacobian of the gimbal
    function over K is provably invertible.
    """
    expected = 3 * tri.o
    if len(e_sim) != expected or len(theta_boxes) != expected:
        return GimbalVerdict(False, f"need exactly {expected} loose edges", [])
    from .interval import contains_two_pi

    if not all(contains_two_pi(b) for b in theta_boxes):
        return GimbalVerdict(
            False, "box does not contain the full-turn point", []
        )
    try:
        loops = build_loops_for_partition(tri, e_sim, links=links)
    except (GimbalLoopError, TriangulationError) as exc:
        return GimbalVerdict(False, f"loop construction failed: {exc}", [])
    dg = assemble_gimbal_jacobian(loops, labels, theta_boxes)
    if interval_matrix_invertible(dg):
        return GimbalVerdict(True, "interval Jacobian invertible", loops, dg)
    return GimbalVerdict(
        False,
        "gimbal lock not excluded: interval Jacobian not proven invertible "
        f"({_invertibility_margin(dg)}; perturb the structure or pick another "
        "partition)",
        loops,
        dg,
    )


def _invertibility_margin(dg):
    """The margin `interval_matrix_invertible` missed: the largest entry of
    |m N - I| against its bound 1/r^2."""
    resid = inverse_residual(dg)
    if resid is None:
        return "no finite inverse of the midpoint matrix"
    lo, hi = dg.kernel.bounds(resid)
    worst = float(np.max(np.maximum(np.abs(lo), np.abs(hi))))
    return f"largest residual {worst:.1e} >= bound {1.0 / dg.nrows ** 2:.1e}"


# ---------------------------------------------------------------------------
# direction extraction and the partition probe
# ---------------------------------------------------------------------------


def edge_end_directions(tri, params, vertex_class=0, links=None):
    """Float developing computation on one vertex link.

    Transports the corner frames over the link and reads off, for every
    prism end, the unit direction in which the corresponding edge leaves
    the vertex (the z-axis of any corner frame on that polygon).  Returns
    {pid: direction}, in the frame of the first corner.
    """
    labels = CocycleLabels(tri, [float(sc.midpoint(v)) for v in params.values])
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
            m = labels.for_letter(let)
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


def probe_partitions(tri, params, budget=20000, seed=0, sigma_tol=1e-7):
    """Scan edge partitions for gimbal lock at the float level.

    For each candidate loose set of 3o edges, evaluates the float gimbal
    Jacobian at full turns and records its smallest singular value.
    Exhaustive when the number of partitions fits the budget (always the
    case for one or two vertices at moderate size), sampled otherwise.
    Rows: (partition tuple, sigma_min, locked flag).
    """
    import random as _random

    floats = [float(sc.midpoint(v)) for v in params.values]
    labels = CocycleLabels(tri, floats)
    links = [vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
    m, o = tri.m, tri.o
    need = 3 * o
    total = math.comb(m, need)
    rows = []
    if total <= budget:
        candidates = itertools.combinations(range(m), need)
    else:
        rng = _random.Random(seed)
        pool = list(range(m))
        candidates = (
            tuple(sorted(rng.sample(pool, need))) for _ in range(budget)
        )
    two_pi = sc.TWO_PI_FLOAT
    rotations = {}  # every angle is a full turn
    for e_sim in candidates:
        try:
            loops = build_loops_for_partition(
                tri, list(e_sim), links=links, validate=False
            )
        except (GimbalLoopError, TriangulationError):
            rows.append((e_sim, float("nan"), True))
            continue
        dg_rows = []
        for loop in loops:
            t_of_pid = {pid: two_pi for pid in loop.variable_of_pid}
            derivs = gimbal_matrix_derivatives(loop, labels, t_of_pid, rotations)
            for (r, c) in ((0, 1), (0, 2), (1, 2)):
                dg_rows.append(
                    [
                        derivs[v][r][c] if v in derivs else 0.0
                        for v in range(need)
                    ]
                )
        dg = np.array(dg_rows, dtype=float)
        svals = np.linalg.svd(dg, compute_uv=False)
        smin = float(svals[-1]) if len(svals) else 0.0
        smax = float(svals[0]) if len(svals) else 0.0
        locked = smin <= sigma_tol * max(smax, 1.0)
        rows.append((e_sim, smin, locked))
    return rows
