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
approximate edge equations to exact ones.  Stage V evaluates that Jacobian
in ball arithmetic along each loop.

At full turns the polygon letters are identities and the rest of a loop
closes, so the Jacobian's column of a loose edge is, per link, the sum of
the directions in which the edge leaves the vertex, written
(-w_z, w_y, -w_x).  Those directions do not depend on the partition: the
unverified partition probe reads every partition's float Jacobian off one
table of them (`edge_direction_table`).
"""

from __future__ import annotations

import itertools
import math
import random
from math import inf, nextafter
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import scalars as sc
from .interval import (
    FLOAT_KERNEL,
    IntervalArray,
    interval_matrix_invertible,
    inverse_residual,
)
from .triangulation import (
    LOCAL_EDGE_INDEX,
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
    "gimbal_matrix_derivatives",
    "assemble_gimbal_jacobian",
    "gimbal_lock_check",
    "edge_direction_table",
    "probe_partitions",
    "rotation_balls",
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
# Every 3x3 operand of a loop gets its ball, with its midpoint's norm
# bound, from a table of float endpoints (`_balls_of_bounds`): one table
# for the labels of all simplices (`CocycleLabels.label_bounds`) and one
# for the rotations of a Jacobian's variables (`rotation_balls`).  The
# products along a loop stay scalar and sequential (`ball_mul`).  Balls
# follow Rump, Acta Numerica 19 (2010).
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of round-to-nearest doubles
_GAMMA3_UP = 3 * _U * (1 + 8 * _U)  # exact; >= gamma_3 (1 + u)^4
_UNDERFLOW3 = 3 * 2.0 ** -1074  # 3 eta, eta the smallest positive subnormal


class BallMatrix3:
    """{ mid + E : ||E||_2 <= rad }, entrywise |E_ij| <= rad as well.

    `mid` is a 3x3 tuple of floats.  The norm bound of the midpoint is
    given (the balls of an endpoint table carry theirs) or computed at most
    once, when a product first needs it.
    """

    __slots__ = ("mid", "rad", "_norm")

    def __init__(self, mid, rad, norm=None):
        self.mid = mid
        self.rad = rad
        self._norm = norm

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


def _max_row_sums(rows):
    """`_max_row_sum` of each matrix in a stack (k, r, c) of nonnegative
    floats, step by step."""
    worst = np.zeros(rows.shape[0])
    for i in range(rows.shape[1]):
        acc = rows[:, i, 0]
        for j in range(1, rows.shape[2]):
            acc = np.nextafter(acc + rows[:, i, j], inf)
        worst = np.where(acc <= worst, worst, np.where(acc < inf, acc, inf))
    return worst


def _balls_of_bounds(lo, hi):
    """Enclose a stack of 3x3 interval matrices, given by their float
    endpoints (k, 3, 3), in balls: midpoints (k, 3, 3), radii (k,) and the
    midpoints' norm bounds (k,).  An entry's midpoint is c = 0.5 (lo + hi)
    and its radius max(up(c - lo), up(hi - c)); a ball's radius is
    `_spec_bound` of those, and its norm bound `_norm_bound` of its
    midpoint, each rounding step applied elementwise in that order
    (``max(a, b)`` keeps a unless b > a, NaN included)."""
    with np.errstate(all="ignore"):
        mid = 0.5 * (lo + hi)
        a, b = np.nextafter(mid - lo, inf), np.nextafter(hi - mid, inf)
        radii = np.where(b > a, b, a)
        row_sum, col_sum = _max_row_sums(radii), _max_row_sums(radii.transpose(0, 2, 1))
        prod = np.nextafter(row_sum * col_sum, inf)
        rad = np.nextafter(np.sqrt(prod), inf)
        # mid^T mid by `_product_with_error`: term k of entry (i, j) is
        # mid[k][i] * mid[k][j]; rows interleave |gram| and the error bounds
        x = mid[:, :, :, None] * mid[:, :, None, :]
        gram = x[:, 0] + x[:, 1] + x[:, 2]
        err = np.nextafter(
            _GAMMA3_UP * (np.abs(x[:, 0]) + np.abs(x[:, 1]) + np.abs(x[:, 2])) + _UNDERFLOW3,
            inf,
        )
        rows = np.stack([np.abs(gram), err], axis=-1).reshape(-1, 3, 6)
        norm = np.nextafter(np.sqrt(_max_row_sums(rows)), inf)
    return mid, rad, norm


def _balls(lo, hi):
    """The balls of `_balls_of_bounds` as `BallMatrix3`s with their norm
    bounds, in stack order."""
    mids, rads, norms = (x.tolist() for x in _balls_of_bounds(lo, hi))
    return [BallMatrix3(tuple(map(tuple, m)), r, n) for m, r, n in zip(mids, rads, norms)]


def ball_from_interval_mat3(m):
    """Enclose an entrywise-interval 3x3 matrix in a ball: the one-matrix
    case of `_balls_of_bounds`, from the entries' outward float bounds."""
    lo = np.array([[[x.lo_float() for x in row] for row in m]])
    hi = np.array([[[x.hi_float() for x in row] for row in m]])
    return _balls(lo, hi)[0]


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
# labels
# ---------------------------------------------------------------------------


# A simplex has 24 label slots.  Slot 2 e + k is the short edge about local
# edge e (LOCAL_EDGES order), a rotation by the dihedral angle taken
# positively (k = 0, from an odd permutation) or negatively (k = 1).  Slot
# 12 + v is the middle edge with vertex angle v = (i, j, k) of
# `_VERTEX_ANGLES`, the angle at vertex i of the triangle i j k, j > k, in
# the operand order of the scalar formula cos_vertex_angle(g, i, j, k): the
# middle edge from s with (s(0), s(2), s(1)) = (i, j, k), s(1) < s(2), the
# side a canonical token names.


_VERTEX_ANGLES = tuple(
    (i, hi, lo)
    for i in range(4)
    for lo, hi in itertools.combinations([x for x in range(4) if x != i], 2)
)
_VA_IJ = np.array([4 * i + j for i, j, k in _VERTEX_ANGLES])  # Gram columns
_VA_IK = np.array([4 * i + k for i, j, k in _VERTEX_ANGLES])
_VA_JK = np.array([4 * j + k for i, j, k in _VERTEX_ANGLES])
_GAMMA_SLOT = {}  # corner permutation -> slot of the short edge starting there
_BETA_SLOT = {}  # corner permutation s, s(1) < s(2) -> slot of its middle edge
for _s in itertools.permutations(range(4)):
    _GAMMA_SLOT[_s] = 2 * LOCAL_EDGE_INDEX[tuple(sorted(_s[:2]))] + (perm_parity(_s) == 1)
    if _s[1] < _s[2]:
        _BETA_SLOT[_s] = 12 + _VERTEX_ANGLES.index((_s[0], _s[2], _s[1]))
del _s


class CocycleLabels:
    """SO(3) labels for the short and middle edges of every simplex.

    Generic over the kind of `params` (floats or intervals).  The cosine
    and sine of every dihedral angle and every vertex angle are kernel
    arrays over all simplices: the dihedral cosines are `SimplexData.cos`,
    the vertex-angle cosines come from the Gram columns, and each sine is
    sqrt_nonneg(-(c c) + 1), all in the operation order of the scalar
    formulas (kept in `tests/geometry_oracle.py`), so bit for bit the
    scalar values.  Every label is read from one table: the float
    endpoints of the entries of every label slot (`label_bounds`), made
    from the arrays on first use.  Interval labels enter stage V as the
    balls of that table (`ball_for_letter`); float labels, whose two
    endpoints are the label itself, feed `edge_direction_table`.  A middle
    edge is labelled from its canonical token, so identified edges of
    glued simplices share their label bit for bit.
    """

    def __init__(self, tri, params, data=None):
        if data is None:
            data = geo.simplex_data(tri, params)
        self.data = data
        kernel = self.kernel = data.kernel
        g_ij, g_ik, g_jk = (data.gram[:, cols] for cols in (_VA_IJ, _VA_IK, _VA_JK))
        self.dihedral_cos = data.cos
        self.vertex_cos = (g_ij * g_ik + g_jk) / (
            kernel.sqrt(g_ij * g_ij - 1.0) * kernel.sqrt(g_ik * g_ik - 1.0)
        )
        self.dihedral_sin, self.vertex_sin = (
            kernel.sqrt_nonneg(-(c * c) + 1.0) for c in (self.dihedral_cos, self.vertex_cos)
        )
        self._bounds = None  # lo, hi of every slot's label
        self._balls = None  # every slot's ball

    def _slot(self, letter):
        """The flat slot, 24 tet + local slot, of an edge letter's label."""
        kind = letter["kind"]
        if kind == "b":
            tet, s0, _s1 = letter["token"]
            return 24 * tet + _BETA_SLOT[s0]
        if kind == "g":
            return 24 * letter["tet"] + _GAMMA_SLOT[letter["s_start"]]
        raise GimbalLoopError(f"letter of kind {kind!r} has no label")

    def label_bounds(self):
        """The float endpoints lo, hi, each (24 n, 3, 3), of every slot's
        label, made on first use with `kernel.bounds`.  A short edge with
        dihedral cos c and sine s' (s' = s, or -s in the negative slot) is
        ((c, -s', 0), (s', c, 0), (0, 0, 1)); a middle edge with
        vertex-angle cos c and sine s is ((-c, 0, s), (0, -1, 0), (s, 0, c))."""
        if self._bounds is None:
            kernel = self.kernel
            n = self.dihedral_cos.shape[0]
            lo, hi = np.zeros((2, n, 24, 3, 3))

            def put(slots, i, j, x):
                lo[:, slots, i, j], hi[:, slots, i, j] = (
                    (x, x) if isinstance(x, float) else kernel.bounds(x))

            c, s = self.dihedral_cos, self.dihedral_sin
            for slots, s_arg in ((slice(0, 12, 2), s), (slice(1, 12, 2), -s)):
                put(slots, 0, 0, c)
                put(slots, 0, 1, -s_arg)
                put(slots, 1, 0, s_arg)
                put(slots, 1, 1, c)
                put(slots, 2, 2, 1.0)
            c, s, slots = self.vertex_cos, self.vertex_sin, slice(12, 24)
            put(slots, 0, 0, -c)
            put(slots, 0, 2, s)
            put(slots, 1, 1, -1.0)
            put(slots, 2, 0, s)
            put(slots, 2, 2, c)
            self._bounds = lo.reshape(-1, 3, 3), hi.reshape(-1, 3, 3)
        return self._bounds

    def ball_for_letter(self, letter):
        """The ball of an edge letter's interval label, with its norm bound:
        the balls of all slots are made from `label_bounds` on first use."""
        if self._balls is None:
            self._balls = _balls(*self.label_bounds())
        return self._balls[self._slot(letter)]


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


# ---------------------------------------------------------------------------
# gimbal matrix derivatives, lock check
# ---------------------------------------------------------------------------


def rotation_balls(boxes):
    """The z-rotation by each 53-bit interval angle of `boxes` and its
    derivative, ((c, -s, 0), (s, c, 0), (0, 0, 1)) and
    ((-s, -c, 0), (c, -s, 0), (0, 0, 0)), as balls with their norm bounds:
    one pair per box, in order.  One cos and one sin is taken per distinct
    box, and all the balls come from one endpoint table
    (`_balls_of_bounds`), filled from `IntervalArray`s, whose negation
    makes -0.0 0.0 as `Interval`'s does."""
    distinct = list(dict.fromkeys(boxes))
    k = len(distinct)
    c = FLOAT_KERNEL.array([w.cos() for w in distinct])
    s = FLOAT_KERNEL.array([w.sin() for w in distinct])
    lo, hi = np.zeros((2, 2, k, 3, 3))  # rotations, then derivatives
    entries = ((0, 0, 0, c), (0, 0, 1, -s), (0, 1, 0, s), (0, 1, 1, c),
               (1, 0, 0, -s), (1, 0, 1, -c), (1, 1, 0, c), (1, 1, 1, -s))
    for which, i, j, x in entries:
        lo[which, :, i, j], hi[which, :, i, j] = FLOAT_KERNEL.bounds(x)
    lo[0, :, 2, 2] = hi[0, :, 2, 2] = 1.0
    balls = _balls(lo.reshape(-1, 3, 3), hi.reshape(-1, 3, 3))
    of_box = {w: (balls[i], balls[k + i]) for i, w in enumerate(distinct)}
    return [of_box[w] for w in boxes]


def gimbal_matrix_derivatives(loop, labels, rotations):
    """d(gimbal matrix)/d(T_var) for every variable occurring in the loop.

    `rotations[var]` holds the balls of the rotation by variable var's
    angle and of its derivative (`rotation_balls`); an edge letter's ball
    comes from the labels' `ball_for_letter`.  The derivative replaces one
    rotation letter at a time by the rotation derivative and sums over
    occurrences.  Prefix and suffix products make this linear in the word
    length.  The products are balls (`ball_mul`, `ball_add`); the result is
    their 53-bit entrywise enclosures.
    """
    word = loop.word
    n = len(word)
    poly = [i for i, letter in enumerate(word) if letter["kind"] == "P"]
    if not poly:
        return {}
    var_of = loop.variable_of_pid
    mats = [
        rotations[var_of[letter["pid"]]][0] if letter["kind"] == "P"
        else labels.ball_for_letter(letter)
        for letter in word
    ]
    # at each polygon letter i, suffix[i] = M(w[i-1]) ... M(w[0]) and
    # prefix[i + 1] = M(w[n-1]) ... M(w[i+1]); the chains stop at the last
    # and at the first polygon letter, since no product beyond is read
    first, last = poly[0], poly[-1]
    ident = part = ball_identity()
    suffix, prefix = {}, {}
    for i in range(last):
        if word[i]["kind"] == "P":
            suffix[i] = part
        part = ball_mul(mats[i], part)
    suffix[last] = part
    part = ident
    for i in range(n - 1, first, -1):
        if word[i]["kind"] == "P":
            prefix[i + 1] = part
        part = ball_mul(part, mats[i])
    prefix[first + 1] = part
    acc = {}
    for i in poly:
        var = var_of[word[i]["pid"]]
        term = ball_mul(prefix[i + 1], ball_mul(rotations[var][1], suffix[i]))
        acc[var] = term if var not in acc else ball_add(acc[var], term)
    return {v: ball_entries(b, FLOAT_KERNEL) for v, b in acc.items()}


def assemble_gimbal_jacobian(loops, labels, box_of_variable):
    """Interval Jacobian [Dg(K)] as a 53-bit `IntervalArray`: 3 rows per
    vertex, one column per variable; rows carry the (0,1), (0,2), (1,2)
    entries.

    The ball evaluation hands back 53-bit interval entries whatever the
    working precision; that is sound, and ample for the inversion margin.
    """
    nvar = len(box_of_variable)
    zero = FLOAT_KERNEL.point(0.0)
    rows = []
    rotations = rotation_balls(box_of_variable)
    for loop in loops:
        derivs = gimbal_matrix_derivatives(loop, labels, rotations)
        for (r, c) in ((0, 1), (0, 2), (1, 2)):
            rows.append(
                [
                    derivs[v][r][c] if v in derivs else zero
                    for v in range(nvar)
                ]
            )
    return FLOAT_KERNEL.array(rows)


def build_loops_for_partition(tri, e_sim, links=None):
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
        loop = build_gimbal_loop(link, removed)
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
    jacobian: IntervalArray = None


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
    lo, hi = FLOAT_KERNEL.bounds(resid)
    worst = float(np.max(np.maximum(np.abs(lo), np.abs(hi))))
    return f"largest residual {worst:.1e} >= bound {1.0 / len(lo) ** 2:.1e}"


# ---------------------------------------------------------------------------
# the partition probe
#
# At full turns every polygon letter of a loop is the identity, and the
# rest of the word bounds a disk of hexagons, whose labels close: the whole
# product is the identity.  So at polygon letter i the derivative
# P R'(2 pi) S, with S the product of the letters before i and P of those
# after, is S^T Z S, where Z = R'(0) is the cross product with e_z.  For a
# rotation S that is the cross product with w = S^T e_z, the third row of
# S; its (0,1), (0,2), (1,2) entries are (-w_z, w_y, -w_x).  S is the frame
# at the letter's vertex, transported from the loop's first vertex, and w is
# the direction in which the polygon's edge leaves the vertex: the same at
# every boundary vertex of the polygon, since short-edge labels are
# z-rotations.  None of this depends on the partition, so the float
# Jacobian of every partition is a choice of columns of one table.
# ---------------------------------------------------------------------------

_SIGMA_TOL = 1e-7  # locked: sigma_min <= _SIGMA_TOL * max(sigma_max, 1)


def edge_direction_table(tri, labels, links):
    """The float gimbal Jacobian at full turns, one column per edge class.

    `labels` are float `CocycleLabels`, read from their `label_bounds`,
    and `links` the vertex links in vertex-class order.  On link k, frames
    are transported from the vertex where its gimbal loops begin,
    S(end) = label S(start) along the hexagon letters.  Each prism end adds
    (-w_z, w_y, -w_x), w the third row of the frame at one of its boundary
    vertices, to rows 3k..3k+2 of its edge class's column.  A path to a vertex other than the loop's differs from
    it by closing hexagons and by polygons whose holonomies are rotations
    by their angle sums, so columns e_sim are the partition's float
    Jacobian up to the float point's angle-sum residuals.
    """
    table = np.zeros((3 * len(links), tri.m))
    label, _ = labels.label_bounds()
    for k, link in enumerate(links):
        leaving = {}  # link vertex -> the hexagon letters starting there
        for cycle in link.hexagons.values():
            for letter in cycle:
                leaving.setdefault(letter["start"], []).append(letter)
        start = link.hexagons[link.corners[0]][0]["start"]
        frames = {start: np.eye(3)}
        queue = [start]
        for lv in queue:
            for letter in leaving[lv]:
                if letter["end"] not in frames:
                    frames[letter["end"]] = label[labels._slot(letter)] @ frames[lv]
                    queue.append(letter["end"])
        for end in link.prism_ends:
            w = frames[min(end.boundary_lvs)][2]
            table[3 * k:3 * k + 3, end.edge_class] += (-w[2], w[1], -w[0])
    return table


def probe_partitions(tri, params, budget=20000, seed=0):
    """Scan edge partitions for gimbal lock at the float level.

    At full turns a loose edge's column of the float gimbal Jacobian is,
    per vertex link, the sum of the directions in which the edge leaves
    the vertex: the polygon letters are identities there and the rest of
    each loop closes (see the comment above).  No partition changes those
    directions, so for each candidate loose set of 3o edges the Jacobian is
    read off one `edge_direction_table`, and its smallest singular value
    recorded; the set is locked when that is at most 1e-7 times
    max(1, largest).  Exhaustive when the number of partitions fits
    the budget (always the case for one or two vertices at moderate size),
    sampled otherwise.  Rows: (partition tuple, sigma_min, locked flag).
    """
    floats = [float(sc.midpoint(v)) for v in params.values]
    links = [vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
    table = edge_direction_table(tri, CocycleLabels(tri, floats), links)
    m, need = tri.m, 3 * tri.o
    if math.comb(m, need) <= budget:
        candidates = itertools.combinations(range(m), need)
    else:
        rng = random.Random(seed)
        pool = list(range(m))
        candidates = (tuple(sorted(rng.sample(pool, need))) for _ in range(budget))
    rows = []
    for e_sim in candidates:
        svals = np.linalg.svd(table[:, list(e_sim)], compute_uv=False)
        smin = float(svals[-1])
        rows.append((e_sim, smin, smin <= _SIGMA_TOL * max(float(svals[0]), 1.0)))
    return rows
