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
per removed polygon, held as an integer array: a slot 6 c + i (letter i
of hexagon c) or -1 - p for polygon p, in the one numbering of the
triangulation's stacked vertex links (`triangulation.VertexLinks`).  Its
construction, its validator, its text and its label rows read those
tables as they are; a partition's loops, one per link, are built,
validated and planned in one pass each.  A loop bounds a disk cut from
its link's breadth-first spanning tree of hexagons (`VertexLinks.order`
and `entry`), the tree along which `edge_direction_table` carries its
frames, so the two walk the same hexagons.  Substituting z-rotations
for the polygon letters gives the gimbal matrix, and the upper-triangular
entries of the per-link matrices assemble the gimbal function g.
Invertibility of the interval Jacobian [Dg(K)] over the box K of
angle-sum enclosures upgrades the approximate edge equations to exact
ones.  Stage V evaluates that Jacobian in ball arithmetic along each loop.

At full turns the polygon letters are identities and the rest of a loop
closes, so the Jacobian's column of a loose edge is, per link, the sum of
the directions in which the edge leaves the vertex, written
(-w_z, w_y, -w_x).  Those directions do not depend on the partition: the
unverified partition probe reads every partition's float Jacobian off one
table of them (`edge_direction_table`), and stage I picks the loose edges
by full pivoting on that table (`verify.select_subsystem`).
"""

from __future__ import annotations

import itertools
import math
import random
from math import inf
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .interval import (
    FLOAT_KERNEL,
    IntervalArray,
    interval_matrix_invertible,
    inverse_residual,
)
from .triangulation import (
    PERM_STRINGS,
    VERTEX_ANGLES,
    vertex_link_hexagon_complex,
)

__all__ = [
    "CocycleLabels",
    "GimbalLoop",
    "GimbalLoopError",
    "build_gimbal_loops",
    "validate_gimbal_loops",
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
#
# Balls come in stacks: a ball stack is (mid, rad, norm), the midpoints a
# C-contiguous (3, 3, k) array, the radii (k,) and rigorous bounds on the
# midpoints' spectral norms (k,), so that an entry of all k balls is one
# contiguous row.  Every function below applies its rounding steps
# elementwise over the stack, so each of its balls is bounded as one ball
# alone would be; gathers copy into that layout (`_take`).
# Every 3x3 operand of a loop gets its ball from a table of float endpoints
# (`_balls_of_bounds`): one table for the labels of all simplices
# (`CocycleLabels.label_bounds`) and one for the rotations of a Jacobian's
# variables (`rotation_balls`).  The products along all loops of a Jacobian
# come from one segmented tree reduction of the letters between polygon
# letters (`_reduce`) and one segmented scan of the block products (`_scan`).
# Balls follow Rump, Acta Numerica 19 (2010).
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of round-to-nearest doubles
_GAMMA3_UP = 3 * _U * (1 + 8 * _U)  # exact; >= gamma_3 (1 + u)^4
_UNDERFLOW3 = 3 * 2.0 ** -1074  # 3 eta, eta the smallest positive subnormal


@np.errstate(all="ignore")
def _product_with_error(a, b):
    """fl(a b) for stacks of 3x3 float matrices, and entrywise bounds on
    its error.

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
    x0, x1, x2 = (a[:, k, None] * b[None, k] for k in range(3))
    s = np.abs(x0) + np.abs(x1) + np.abs(x2)
    return x0 + x1 + x2, np.nextafter(_GAMMA3_UP * s + _UNDERFLOW3, inf)


@np.errstate(all="ignore")
def _max_row_sums(cols):
    """Upper bound for the largest row sum of each matrix in a stack of
    nonnegative floats, given as its columns cols[j], each (r, k): every
    row summed left to right, each partial sum stepped up; inf where a sum
    is inf or NaN."""
    acc = cols[0] + cols[1]
    np.nextafter(acc, inf, out=acc)
    for c in cols[2:]:
        np.nextafter(np.add(acc, c, out=acc), inf, out=acc)
    return np.where(acc < inf, acc, inf).max(axis=0)


@np.errstate(all="ignore")
def _spec_bound(radii):
    """Rigorous upper bound for the spectral norm of each nonnegative 3x3
    float matrix in a stack: sqrt(max row sum * max col sum)."""
    prod = np.nextafter(_max_row_sums(radii.swapaxes(0, 1)) * _max_row_sums(radii), inf)
    return np.nextafter(np.sqrt(prod), inf)


def _norm_bound(m):
    """Rigorous upper bound for ||m||_2 of each 3x3 float matrix m in a
    stack, via the max row sum of |m^T m|; m^T m is formed by
    `_product_with_error`, and its rows interleave |m^T m| with the error
    bounds."""
    gram, err = _product_with_error(m.swapaxes(0, 1), m)
    gram = np.abs(gram)
    return np.nextafter(np.sqrt(_max_row_sums(
        [x for j in range(3) for x in (gram[:, j], err[:, j])])), inf)


@np.errstate(all="ignore")
def _balls_of_bounds(lo, hi):
    """Enclose a stack of 3x3 interval matrices, given by their float
    endpoints (3, 3, k), in a ball stack.  An entry's midpoint is
    c = 0.5 (lo + hi) and its radius max(up(c - lo), up(hi - c)); a ball's
    radius is `_spec_bound` of those, and its norm bound `_norm_bound` of
    its midpoint (``max(a, b)`` keeps a unless b > a, NaN included)."""
    mid = 0.5 * (lo + hi)
    a, b = np.nextafter(mid - lo, inf), np.nextafter(hi - mid, inf)
    return mid, _spec_bound(np.where(b > a, b, a)), _norm_bound(mid)


def _radius(rad):
    """inf for a NaN or infinite radius."""
    return np.where(rad < inf, rad, inf)


@np.errstate(all="ignore")
def ball_mul(a, b):
    """Product enclosure of two ball stacks, ball by ball: midpoint product
    with its rounding bound, plus norm cross terms."""
    (a_mid, a_rad, a_norm), (b_mid, b_rad, b_norm) = a, b
    mid, err = _product_with_error(a_mid, b_mid)
    rad = np.nextafter(_spec_bound(err) + np.nextafter(a_norm * b_rad, inf), inf)
    rad = np.nextafter(rad + np.nextafter(a_rad * b_norm, inf), inf)
    rad = np.nextafter(rad + np.nextafter(a_rad * b_rad, inf), inf)
    return mid, _radius(rad), _norm_bound(mid)


@np.errstate(all="ignore")
def ball_add(a, b):
    """Sum enclosure of two ball stacks, ball by ball: a rounded sum s is
    within u |s| of the exact one."""
    (a_mid, a_rad, _), (b_mid, b_rad, _) = a, b
    mid = a_mid + b_mid
    rad = np.nextafter(_spec_bound(np.nextafter(_U * np.abs(mid), inf)) + a_rad, inf)
    rad = np.nextafter(rad + b_rad, inf)
    return mid, _radius(rad), _norm_bound(mid)


def _entries(ball):
    """Entrywise enclosure of a ball stack as a 53-bit `IntervalArray`
    (3, 3, k): mid + [-rad, rad], or the whole line where the radius is
    infinite."""
    mid, rad, _ = ball
    whole = rad == inf
    r = np.where(whole, 0.0, rad)
    m = np.where(whole, 0.0, mid)
    out = IntervalArray(m, m) + IntervalArray(-r, r)
    out.lo[..., whole], out.hi[..., whole] = -inf, inf
    return out


def _take(ball, rows):
    """The balls at the integer index array `rows`, as a contiguous stack."""
    mid, rad, norm = ball
    return mid.take(rows, axis=-1), rad[rows], norm[rows]


def _scan(x, start):
    """Segmented inclusive scan of a ball stack by doubling (Hillis and
    Steele, CACM 29, 1986): ball t becomes x[t] x[t-1] ... x[start[t]].  At
    d = 1, 2, 4, ... every ball t with t - d >= start[t] becomes
    ball_mul(x[t], x[t-d]), one stacked call per level.  Any bracketing of
    sound ball products is sound."""
    x = tuple(a.copy() for a in x)
    pos = np.arange(len(start)) - start
    d = 1
    while d <= pos.max(initial=0):
        t = np.flatnonzero(pos >= d)
        for a, new in zip(x, ball_mul(_take(x, t), _take(x, t - d))):
            a[..., t] = new
        d *= 2
    return x


def _reduce(x, block):
    """Segmented tree reduction of a ball stack (Blelloch, CMU-CS-90-190,
    1990): one ball per block, x[last] ... x[first] over the block's balls,
    `block` being every ball's nondecreasing block number.  At each level
    every ball at an even position in its block, with a next ball in the
    block, becomes ball_mul(next ball, ball), one stacked call per level, and
    the odd balls drop out.  Any bracketing of sound ball products is sound."""
    x = tuple(a.copy() for a in x)
    while True:
        rows = np.arange(len(block))
        first = np.concatenate(([True], block[1:] != block[:-1]))
        even = np.flatnonzero((rows - np.maximum.accumulate(np.where(first, rows, 0))) % 2 == 0)
        t = even[(even < len(block) - 1)]
        t = t[~first[t + 1]]
        if not len(t):
            return x
        for a, new in zip(x, ball_mul(_take(x, t + 1), _take(x, t))):
            a[..., t] = new
        x, block = _take(x, even), block[even]


_IDENTITY = (np.eye(3)[..., None], np.zeros(1), _norm_bound(np.eye(3)[..., None]))
_UPPER = ([0, 0, 1], [1, 2, 2])  # the (0,1), (0,2), (1,2) entries of a matrix


# ---------------------------------------------------------------------------
# labels
# ---------------------------------------------------------------------------


# The 24 label slots of a simplex are laid out by `triangulation`: the
# short edges' dihedral rotations first, then the middle edges' vertex
# angles, in the operand order of the scalar formula
# cos_vertex_angle(g, i, j, k) for (i, j, k) in `VERTEX_ANGLES`.
_VA_IJ = np.array([4 * i + j for i, j, k in VERTEX_ANGLES])  # Gram columns
_VA_IK = np.array([4 * i + k for i, j, k in VERTEX_ANGLES])
_VA_JK = np.array([4 * j + k for i, j, k in VERTEX_ANGLES])


class CocycleLabels:
    """SO(3) labels for the short and middle edges of every simplex.

    Generic over the kernel of the `EdgeParams` (floats or intervals),
    which `data`, when given, must be the `SimplexData` of.  The cosine
    and sine of every dihedral angle and every vertex angle are kernel
    arrays over all simplices: the dihedral cosines are `SimplexData.cos`,
    the vertex-angle cosines come from the Gram columns over the sinh of
    the edges, sqrt(nu nu - 1), taken once per edge class and gathered by
    the Gram index, and each sine is
    sqrt_nonneg(-(c c) + 1), all in the operation order of the scalar
    formulas (kept in `tests/geometry_oracle.py`), so bit for bit the
    scalar values.  Every label is read from one table: the float
    endpoints of the entries of every label slot (`label_bounds`), made
    from the arrays on first use, at the row a link's `label` gives each
    of its slots.  Interval labels enter stage V as the balls of that
    table; float labels, whose two endpoints are the label itself, feed
    `edge_direction_table`.  The two sides of a middle edge read different
    rows with the same bits.
    """

    def __init__(self, tri, params, data=None):
        if data is None:
            data = geo.simplex_data(tri, params)
        self.data = data
        kernel = self.kernel = data.kernel
        g_ij, g_ik, g_jk = (data.gram[:, cols] for cols in (_VA_IJ, _VA_IK, _VA_JK))
        nu = params.values
        sinh, gram = kernel.sqrt(nu * nu - 1.0), geo._plan(tri).gram
        self.dihedral_cos = data.cos
        self.vertex_cos = (g_ij * g_ik + g_jk) / (sinh[gram[:, _VA_IJ]] * sinh[gram[:, _VA_IK]])
        self.dihedral_sin, self.vertex_sin = (
            kernel.sqrt_nonneg(-(c * c) + 1.0) for c in (self.dihedral_cos, self.vertex_cos)
        )
        self._bounds = None  # lo, hi of every slot's label

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
                lo[:, slots, i, j], hi[:, slots, i, j] = kernel.bounds(x)

            c, s = self.dihedral_cos, self.dihedral_sin
            for slots, s_arg in ((slice(0, 12, 2), s), (slice(1, 12, 2), -s)):
                put(slots, 0, 0, c)
                put(slots, 0, 1, -s_arg)
                put(slots, 1, 0, s_arg)
                put(slots, 1, 1, c)
            c, s = self.vertex_cos, self.vertex_sin
            put(slice(12, 24), 0, 0, -c)
            put(slice(12, 24), 0, 2, s)
            put(slice(12, 24), 2, 0, s)
            put(slice(12, 24), 2, 2, c)
            lo[:, :12, 2, 2] = hi[:, :12, 2, 2] = 1.0
            lo[:, 12:, 1, 1] = hi[:, 12:, 1, 1] = -1.0
            self._bounds = lo.reshape(-1, 3, 3), hi.reshape(-1, 3, 3)
        return self._bounds


# ---------------------------------------------------------------------------
# gimbal loops
# ---------------------------------------------------------------------------


@dataclass
class GimbalLoop:
    vertex_class: int
    link: object  # the `VertexLinks` its slots and polygons are numbered in
    removed: tuple  # the removed polygons on its link, sorted
    # letters in traversal order, an integer array: a slot, or -1 - p for
    # the letter of removed polygon p
    word: np.ndarray
    # polygon -> its variable, -1 where its edge class is kept: one array,
    # set on all loops of a partition (`build_loops_for_partition`)
    variable: np.ndarray = None

    def serialize(self):
        """The word as text: a polygon as P<pid>, pid its place among its
        link's polygons, a short edge as g:<tet>:<ab>:<s> from its start s,
        and a middle edge as b:<tet>:<s> from its token."""
        token, out = self.link.token.tolist(), []
        first = int(self.link.polygon_offsets[self.vertex_class])
        for w in self.word.tolist():
            if w < 0:
                out.append(f"P{-1 - w - first}")
            else:
                tet, s = divmod(token[w], 24)
                out.append(f"{_KIND[w & 1]}{tet}{_TOKEN_TEXT[w & 1][s]}")
        return " ".join(out)


# a slot's text after its tet: a short edge's at even slots, a middle edge's at odd
_KIND = ("g:", "b:")
_TOKEN_TEXT = ([f":{s[:2]}:{s}" for s in PERM_STRINGS], [f":{s}" for s in PERM_STRINGS])


def build_gimbal_loops(links, removed):
    """One gimbal loop per link of the `VertexLinks` `links`, validated
    together: the boundary of the least disk of hexagons that touches every
    removed polygon of the link (`removed`, polygons of any links), walked
    from the link's first letter, with each removed-polygon letter spliced
    in after the first letter ending on it.

    The disk is the shortest prefix of the link's breadth-first `order`
    whose hexagons' letters end on every removed polygon, glued along each
    hexagon's entry letter; a link's first letter is a short edge, never
    crossed.  All walks are taken at once by doubling: the next 2^j letters
    are the 2^j-th power of the next-letter table at the first 2^j.
    """
    hexagons, polygons = links.hexagon_offsets, links.polygon_offsets
    sizes = np.diff(hexagons)
    rank = np.arange(hexagons[-1]) - np.repeat(hexagons[:-1], sizes)  # place in its link's order
    reach = np.repeat(sizes, np.diff(polygons))  # each polygon's first rank touching it
    np.minimum.at(reach, links.end_pid.reshape(-1, 6)[links.order], rank[:, None])
    r_pid = np.sort(np.asarray(removed, dtype=np.intp).ravel(), kind="stable")
    wrong = (r_pid < 0) | (r_pid >= polygons[-1])
    if wrong.any():
        raise GimbalLoopError(f"no prism end {r_pid[wrong][0]} in these links")
    r_lid = np.searchsorted(polygons, r_pid, side="right") - 1
    need = np.zeros(len(sizes), dtype=np.intp)
    np.maximum.at(need, r_lid, reach[r_pid])
    if (need == sizes).any():
        raise GimbalLoopError("link exhausted before touching every removed polygon")
    disk = links.order[(rank >= 1) & (rank <= np.repeat(need, sizes))]  # and each first hexagon
    other = links.other_side
    into = 6 * disk + links.entry[disk]
    crossed = np.concatenate((into, other[into]))
    # each letter's next on the boundary: the next of its hexagon, or past
    # a crossed middle letter, the one after its other side
    nxt = np.arange(1, 6 * hexagons[-1] + 1)
    nxt[5::6] -= 6
    nxt[crossed - 1] = nxt[other[crossed]]
    # a walk's length: its disk's 6 (need + 1) slots less the 2 need crossed
    length = 4 * need + 6
    walk, jump = 6 * hexagons[:-1, None], nxt  # walk[:, t]: letter t of each walk
    while walk.shape[1] < length.max():
        walk, jump = np.concatenate((walk, jump[walk]), axis=1), jump[jump]
    keep = np.arange(walk.shape[1]) < length[:, None]
    letters, lid = walk[keep], np.nonzero(keep)[0]
    at = np.full(polygons[-1], len(letters))  # each polygon's first letter ending on it
    np.minimum.at(at, links.end_pid[letters], np.arange(len(letters)))
    spliced = r_pid[at[r_pid] < len(letters)]
    spliced = spliced[np.diff(spliced, prepend=-1) != 0]  # sorted: drop repeats
    word = np.insert(letters, at[spliced] + 1, -1 - spliced)
    size = np.bincount(np.concatenate((lid, lid[at[spliced]])), minlength=len(sizes))
    words = np.split(word, np.cumsum(size)[:-1])
    pids = np.split(r_pid, np.searchsorted(r_pid, polygons[1:-1]))
    loops = [GimbalLoop(k, links, tuple(p.tolist()), w)
             for k, (p, w) in enumerate(zip(pids, words))]
    validate_gimbal_loops(loops)
    return loops


_CLAUSES = (  # the messages of the validator's clauses, in order
    "empty loop", "letter does not match a unique owner slot",
    "removed polygons not each visited exactly once",
    "polygon letter preceded by another polygon", "polygon letter not anchored on its boundary",
    "edge word is not a closed path", "hexagon slots and word letters disagree",
    "hexagon disk is not connected", "hexagon union is not a disk",
    "loop longer than its hexagon budget",
)


def validate_gimbal_loops(loops):
    """Independent check of every gimbal-loop clause, on a partition's
    loops at once, at most one per link.

    Raises GimbalLoopError unless, in every loop: each letter is a slot of
    its link or a removed polygon; each removed polygon letter occurs
    exactly once and follows an edge ending on its boundary; dropping the
    polygon letters leaves a closed edge path; that path is the boundary
    of a disk of hexagons glued along the crossed middle edges, traversed
    with the link's orientation.  The message is the first failing clause
    of the first failing loop, as checking them one by one gives.  Loops
    share one slot numbering, so two loops on one link would mix their
    claims: such a list raises as well.

    Linear in the letters: the words are stacked, and a failed letter
    outside its link's slots is read as the link's first slot.  The claims
    run on slot 6 u + i, letter i of the u-th used hexagon.
    """
    if not loops:
        return True
    links, n, none = loops[0].link, len(loops), len(_CLAUSES)
    fails = np.full(n, none)  # each loop's first failing clause
    vclass = np.array([loop.vertex_class for loop in loops])  # each loop's link
    loop_of = np.full(len(links.hexagon_offsets) - 1, -1)  # each link's loop
    loop_of[vclass] = np.arange(n)
    if (loop_of[vclass] != np.arange(n)).any():
        raise GimbalLoopError("two loops on one vertex link")

    def fail(clause, bad):
        np.minimum.at(fails, bad, clause)

    def ends(ids):  # the first and the last index of each run of equal ids
        return np.searchsorted(ids, ids), np.searchsorted(ids, ids, side="right") - 1

    size = np.array([len(loop.word) for loop in loops])
    lid = np.repeat(np.arange(n), size)
    word = np.concatenate([np.asarray(loop.word, dtype=np.intp) for loop in loops])
    first_slot, end_slot = (6 * links.hexagon_offsets[vclass + k][lid] for k in (0, 1))
    fail(0, np.flatnonzero(size == 0))
    outside = (word >= 0) & ((word < first_slot) | (word >= end_slot))
    fail(1, lid[outside])
    word[outside] = first_slot[outside]
    start, end_pid = links.start, links.end_pid

    # polygon letters: multiplicity and anchoring.  Where a loop has as many
    # polygon letters as removed polygons, the sorted (loop, pid) keys pair up
    poly = np.flatnonzero(word < 0)
    r_lid = np.repeat(np.arange(n), [len(loop.removed) for loop in loops])
    r_pid = np.array([pid for loop in loops for pid in loop.removed], dtype=np.intp)
    n_removed = np.bincount(r_lid, minlength=n)
    same = np.bincount(lid[poly], minlength=n) == n_removed
    fail(2, np.flatnonzero(~same))
    p_lid, p_pid = lid[poly], -1 - word[poly]
    stride = 1 + max(p_pid.max(initial=0), r_pid.max(initial=0))
    a = np.sort((p_lid * stride + p_pid)[same[p_lid]], kind="stable")
    b = np.sort((r_lid * stride + r_pid)[same[r_lid]], kind="stable")
    fail(2, a[a != b] // stride)
    first, last = ends(lid)
    prev = word[np.where(poly == first[poly], last[poly], poly - 1)]
    code = np.where(prev < 0, 3, np.where(end_pid[np.maximum(prev, 0)] != p_pid, 4, none))
    loop, at = np.unique(p_lid[code < none], return_index=True)  # each loop's first bad letter
    fail(code[code < none][at], loop)

    # dropping polygons leaves a closed edge path
    e_lid = lid[word >= 0]
    edges = word[word >= 0]
    succ = edges + np.where(edges % 6 == 5, -5, 1)  # the next slot of the same hexagon
    first, last = ends(e_lid)
    t = np.arange(len(edges))
    fail(5, e_lid[start[succ] != start[edges[np.where(t == last, first, t + 1)]]])

    # reconstruct the disks: used hexagons glued along crossed middle edges.
    # Every slot of every used hexagon is either crossed or claimed exactly
    # once by a word letter; a middle edge is crossed when the word has
    # neither of its two used sides
    is_used = np.zeros(len(start) // 6, dtype=bool)
    is_used[edges // 6] = True
    used, u_of = np.flatnonzero(is_used), np.cumsum(is_used) - 1
    u_lid = loop_of[np.searchsorted(links.hexagon_offsets, used, side="right") - 1]
    claims = np.bincount(6 * u_of[edges // 6] + edges % 6, minlength=6 * len(used))
    mid = (6 * np.arange(len(used))[:, None] + [1, 3, 5]).ravel()  # slots 6 u + i
    side = (6 * used[:, None] + [1, 3, 5]).ravel()
    other = links.other_side[side]
    other_mid = 6 * u_of[other // 6] + other % 6
    crossed = (is_used[other // 6] & (side < other)
               & (claims[mid] == 0) & (claims[other_mid] == 0))
    want = np.ones_like(claims)
    want[mid[crossed]] = want[other_mid[crossed]] = 0
    fail(6, u_lid[np.flatnonzero(claims != want) // 6])

    # Euler characteristic of each glued hexagon complex must be a disk's.
    # Each vertex of a hexagon ends exactly one of its middle edges, so a
    # crossed edge glues two pairs of vertices that no other crossing
    # touches: with U hexagons and c crossings, v - e + f is
    # (6 U - 2 c) - (6 U - c) + U = U - c.  Components by hooking and
    # pointer jumping: each hexagon's label is a hexagon of its component at
    # most itself; a round that leaves two glued hexagons with two labels
    # lowers one (a hook of a label's own label, or a jump past it), so the
    # rounds stop, with one label per component
    h1, h2 = mid[crossed] // 6, other_mid[crossed] // 6
    a, b, label = np.concatenate((h1, h2)), np.concatenate((h2, h1)), np.arange(len(used))
    while not np.array_equal(label[a], label[b]):
        np.minimum.at(label, label[a], label[b])
        label = label[label[label]]
    labels = np.flatnonzero(np.bincount(label, minlength=len(used)))  # one per component
    fail(7, np.flatnonzero(np.bincount(u_lid[labels], minlength=n) != 1))
    n_used = np.bincount(u_lid, minlength=n)
    fail(8, np.flatnonzero(n_used - np.bincount(u_lid[h1], minlength=n) != 1))
    fail(9, np.flatnonzero(size > 6 * n_used + n_removed))
    if (fails < none).any():
        raise GimbalLoopError(_CLAUSES[fails[fails < none][0]])
    return True


# ---------------------------------------------------------------------------
# gimbal matrix derivatives, lock check
# ---------------------------------------------------------------------------


def rotation_balls(boxes):
    """The z-rotation by each angle of the 1-D 53-bit array `boxes` and its
    derivative, ((c, -s, 0), (s, c, 0), (0, 0, 1)) and
    ((-s, -c, 0), (c, -s, 0), (0, 0, 0)), as two ball stacks with one ball
    per box, in order.  The kernel takes one cos and one sin of the array,
    and the balls come from endpoint tables (`_balls_of_bounds`), filled
    from `IntervalArray`s, whose negation makes -0.0 0.0 as `Interval`'s
    does."""
    k, c, s = len(boxes), FLOAT_KERNEL.cos(boxes), FLOAT_KERNEL.sin(boxes)
    lo, hi = np.zeros((2, 3, 3, 2, k))  # rotations, then derivatives
    entries = ((0, 0, 0, c), (0, 0, 1, -s), (0, 1, 0, s), (0, 1, 1, c),
               (1, 0, 0, -s), (1, 0, 1, -c), (1, 1, 0, c), (1, 1, 1, -s))
    for which, i, j, x in entries:
        lo[i, j, which], hi[i, j, which] = FLOAT_KERNEL.bounds(x)
    lo[2, 2, 0] = hi[2, 2, 0] = 1.0
    balls = _balls_of_bounds(lo.reshape(3, 3, -1), hi.reshape(3, 3, -1))
    return tuple(tuple(np.ascontiguousarray(x[..., part]) for x in balls)
                 for part in (slice(k), slice(k, None)))


def gimbal_matrix_derivatives(loops, labels, rotations):
    """d(gimbal matrix)/d(T_var) for every variable occurring in each loop:
    the loop and the variable of each derivative, two integer arrays in
    (loop, variable) order, and the derivatives' 53-bit entrywise
    enclosures, a (3, 3, K) `IntervalArray`.

    `loops` are one partition's, over one `VertexLinks` and one array of
    polygon variables (`build_loops_for_partition`).  `rotations` holds the
    ball stacks of the rotation by each variable's angle and of its
    derivative (`rotation_balls`); a polygon letter's variable is read off
    the loops' `variable`, and an edge letter's ball is the ball of row
    `link.label[slot]` of the label table `labels.label_bounds()`; only the
    rows the loops read are balled.  The derivative replaces one rotation
    letter i at a time by the rotation derivative R' and sums over
    occurrences:
    P R' S, with S = M(w[i-1]) ... M(w[0]) and P = M(w[n-1]) ... M(w[i+1]).
    A loop's forward segment holds its letters before its last polygon
    letter, and its backward segment the transposes of its letters after its
    first polygon letter, last letter first.  Transposing is exact,
    fl(a b)^T = fl(b^T a^T) with the same error bound, so left-multiplying
    products serve both.  Each segment is cut into blocks at its first ball
    and at every polygon letter; `_reduce` multiplies out every block, and
    one segmented scan (`_scan`) of the block products gives every S and
    every P^T, in linear work but for the scan's log factor over blocks.
    The plan is made from all words at once; the terms take two stacked
    products, and each (loop, variable)'s are summed in word order.
    """
    lo, hi = labels.label_bounds()
    rotation, derivative = rotations
    n_var = len(rotation[1])
    size = np.array([len(loop.word) for loop in loops])
    word = np.concatenate([np.asarray(loop.word, dtype=np.intp) for loop in loops])
    lid = np.repeat(np.arange(len(loops)), size)
    pos = np.arange(len(word)) - np.repeat(np.cumsum(size) - size, size)  # within its word
    poly = np.flatnonzero(word < 0)
    if not len(poly):
        none = np.zeros(0, dtype=np.intp)
        return none, none, FLOAT_KERNEL.points(np.zeros((3, 3, 0)))
    # each letter's table row: a label row, or -1 - its polygon's variable
    pl, var = lid[poly], loops[0].variable[-1 - word[poly]]
    ops, edge = np.full_like(word, -1), word >= 0
    ops[edge] = loops[0].link.label[word[edge]]
    ops[poly] = -1 - var
    # the stack: per loop with a polygon letter, the forward segment, its
    # letters before the last polygon letter, then the backward one, its
    # letters after the first, last first; then the identity
    first, last = np.full(len(loops), len(word)), np.full(len(loops), -1)
    np.minimum.at(first, pl, pos[poly])
    np.maximum.at(last, pl, pos[poly])
    fwd, back = np.flatnonzero(pos < last[lid]), np.flatnonzero(pos > first[lid])[::-1]
    seg = np.concatenate((2 * lid[fwd], 2 * lid[back] + 1))
    order = np.argsort(seg, kind="stable")
    letter, seg = np.concatenate((fwd, back))[order], seg[order]
    row_of = np.zeros((2, len(word) + 1), dtype=np.intp)  # a letter's ball per segment
    row_of[seg % 2, letter] = np.arange(len(letter))
    rows = np.append(ops[letter], -1 - n_var)
    flip = np.append(seg % 2 == 1, False)
    start = np.append(np.searchsorted(seg, seg), len(seg))  # each ball's segment's first
    # per polygon letter, the balls of S and of P^T; -1 is the identity
    s_rows = np.where(pos[poly] > 0, row_of[0, poly - 1], -1)
    p_rows = np.where(pos[poly] < size[pl] - 1, row_of[1, poly + 1], -1)
    is_label = rows >= 0  # the label rows read; then a polygon's rotation, -1 - var so far
    read, rows[is_label] = np.unique(rows[is_label], return_inverse=True)
    rows[~is_label] = len(read) - 1 - rows[~is_label]
    read_lo, read_hi = (np.take(x.reshape(len(x), 9).T, read, axis=1).reshape(3, 3, -1)
                        for x in (lo, hi))
    table = tuple(np.concatenate(x, axis=-1)
                  for x in zip(_balls_of_bounds(read_lo, read_hi), rotation, _IDENTITY))
    x = _take(table, rows)
    x[0][..., flip] = x[0].swapaxes(0, 1)[..., flip]
    # a block starts at its segment's first ball and at every polygon letter
    cut = (start == np.arange(len(rows))) | ~is_label
    block = np.cumsum(cut) - 1
    x = _scan(_reduce(x, block), block[start[cut]])
    mid, rad, norm = x
    terms = ball_mul(_take((mid.swapaxes(0, 1), rad, norm), block[p_rows]),
                     ball_mul(_take(derivative, var), _take(x, block[s_rows])))
    # the terms of each (loop, variable), added in word order
    keys, at, group = np.unique(pl * n_var + var, return_index=True, return_inverse=True)
    group, sums = group.ravel(), _take(terms, at)
    for sel in geo._rounds(group)[1:]:
        for a, new in zip(sums, ball_add(_take(sums, group[sel]), _take(terms, sel))):
            a[..., group[sel]] = new
    return keys // n_var, keys % n_var, _entries(sums)


def assemble_gimbal_jacobian(loops, labels, box_of_variable):
    """Interval Jacobian [Dg(K)] as a 53-bit `IntervalArray`: 3 rows per
    vertex, one column per variable; rows carry the (0,1), (0,2), (1,2)
    entries, filled from the derivatives with one scatter.

    The ball evaluation hands back 53-bit interval entries whatever the
    working precision; that is sound, and ample for the inversion margin.
    """
    lo, hi = np.zeros((2, 3 * len(loops), len(box_of_variable)))
    loop, var, m = gimbal_matrix_derivatives(loops, labels, rotation_balls(box_of_variable))
    at = (3 * loop + np.arange(3)[:, None], var)
    lo[at], hi[at] = m.lo[_UPPER], m.hi[_UPPER]
    return FLOAT_KERNEL.from_bounds(lo, hi)


def build_loops_for_partition(tri, e_sim, links):
    """One gimbal loop per vertex link of the `VertexLinks` `links`, built
    and validated together (`build_gimbal_loops`) around the polygons of the
    loose edges e_sim.  The loops share one array of polygon variables: the
    position of each polygon's edge class in e_sim, or -1 for a kept one."""
    var_of_class = np.full(tri.m, -1)
    var_of_class[np.asarray(e_sim, dtype=np.intp)] = np.arange(len(e_sim))
    variable = var_of_class[links.end_class]
    loops = build_gimbal_loops(links, np.flatnonzero(variable >= 0))
    for loop in loops:
        loop.variable = variable
    return loops


@dataclass
class GimbalVerdict:
    avoided: bool
    reason: str
    loops: list
    jacobian: IntervalArray = None


def gimbal_lock_check(tri, labels, e_sim, theta_boxes, links):
    """Step that upgrades approximate edge equations to exact ones.

    e_sim: edge-class indices whose angle sums are only enclosed; the box
    K is their angle-sum enclosures `theta_boxes`, a 1-D 53-bit array in
    the same order.
    Returns verdict `avoided` only if the interval Jacobian of the gimbal
    function over K is provably invertible.
    """
    expected = 3 * tri.o
    if len(e_sim) != expected or len(theta_boxes) != expected:
        return GimbalVerdict(False, f"need exactly {expected} loose edges", [])
    if not FLOAT_KERNEL.contains_two_pi(theta_boxes).all():
        return GimbalVerdict(
            False, "box does not contain the full-turn point", []
        )
    try:
        loops = build_loops_for_partition(tri, e_sim, links=links)
    except GimbalLoopError as exc:
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
# ---------------------------------------------------------------------------

_SIGMA_TOL = 1e-7  # locked: sigma_min <= _SIGMA_TOL * max(sigma_max, 1)


def edge_direction_table(tri, labels, links):
    """The float gimbal Jacobian T at full turns, one column per edge class.

    At full turns every polygon letter of a loop is the identity and the
    rest of the word bounds a disk of hexagons, whose labels close.  So at
    a polygon letter the derivative P R'(2 pi) S, S the product of the
    letters before it and P of those after, is S^T Z S, Z = R'(0): the
    cross product with w = S^T e_z, the third row of the frame S, whose
    (0,1), (0,2), (1,2) entries are (-w_z, w_y, -w_x).  w is the direction
    in which the polygon's edge leaves the vertex, the same at each of its
    boundary vertices since short-edge labels are z-rotations.  None of
    this depends on the partition: columns e_sim of T are that partition's
    float Jacobian up to the angle-sum residuals, and with every polygon in
    the word the closing identity gives T M = 0 for the angle sums'
    Jacobian M (`verify.select_subsystem`).

    `labels` are float `CocycleLabels` and `links` the `VertexLinks`.  On
    link k, frames are transported along hexagon letters,
    S(end) = label S(start), from the first vertex of its first hexagon,
    where its loops begin, over the link's breadth-first tree of hexagons
    (`VertexLinks.entry`), each entered where it shares a middle letter with
    its parent: over all links at once, each hexagon's letter products from
    its entry on, then the entry frames by pointer jumping up the tree.
    Each prism end adds (-w_z, w_y, -w_x), w where its first short edge
    starts, to rows 3k..3k+2 of its edge class's column.
    """
    def mul(a, b):  # off BLAS, left to right: stage I pivots on T's bits, the same anywhere
        return sum(a[..., :, k, None] * b[..., None, k, :] for k in range(3))

    label, _ = labels.label_bounds()
    entry, roots = links.entry, links.hexagon_offsets[:-1]
    slot = 6 * np.arange(len(entry))
    # a hexagon is entered from its parent's letter 6 h + j, from vertex j
    # to j + 1; each link's first hexagon, its root, is its own parent at
    # step 0
    side = links.other_side[slot + entry]
    side[roots] = 6 * roots + 5
    parent, j = np.divmod(side, 6)
    step = (j + 1 - entry[parent]) % 6
    # each prism end's first row, and the hexagon and vertex where its first
    # short edge starts
    row = 3 * np.repeat(np.arange(len(roots)), np.diff(links.polygon_offsets))
    h, at = np.divmod(links.end_slots[links.end_offsets[:-1]], 6)
    # prod[h, i]: the letters of hexagon h from its entry vertex on, i of them
    turn = slot[:, None] + (entry[:, None] + np.arange(6)) % 6
    letters = label[links.label[turn]]
    prod = np.tile(np.eye(3), (len(parent), 6, 1, 1))
    for i in range(5):
        prod[:, i + 1] = mul(letters[:, i], prod[:, i])
    # frame[h]: the frame at h's entry relative to the one at up[h]'s
    frame, up = prod[parent, step], parent
    while (up[up] != up).any():
        frame, up = mul(frame, frame[up]), up[up]
    w = mul(prod[h, (at - entry[h]) % 6], frame[h])[:, 2]
    table = np.zeros((3 * len(roots), tri.m))
    np.add.at(table, (row[:, None] + np.arange(3), links.end_class[:, None]),
              w[:, ::-1] * (-1.0, 1.0, -1.0))
    return table


def probe_partitions(tri, params, budget=20000, seed=0):
    """Scan loose-edge sets for gimbal lock at the float level.

    Each set's float gimbal Jacobian at full turns is a choice of columns
    of one `edge_direction_table`.  Its smallest singular value is
    recorded, and the set is locked when that is at most 1e-7 times
    max(1, largest).  Exhaustive when the number of sets fits the budget,
    a seeded sample otherwise.  `params` are float `EdgeParams`.  Rows:
    (loose-edge tuple, sigma_min, locked flag).
    """
    table = edge_direction_table(tri, CocycleLabels(tri, params), vertex_link_hexagon_complex(tri))
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
