"""Per-simplex hyperbolic geometry from edge parameters, batched over
simplices.

A finite hyperbolic simplex is encoded by its vertex Gram matrix: the
symmetric 4x4 matrix with -1 on the diagonal and v_ij = -cosh(l_ij) off
it.  This module computes the cofactors, the realization conditions, the
dihedral angles, the angle sums around edge classes and the exact
Jacobian d(angle sums)/d(edge parameters).

The kind of number is the kernel of the `EdgeParams`, and every quantity
is one array of that kernel (`hypcert.interval`): a numpy float64 array
for plain floats (`REAL_KERNEL`: the unverified solver and the pivot
search), an `IntervalArray` for 53-bit intervals and an object array of
intervals above 53 bits, so one code path serves all three kinds.  The
Gram matrices and cofactors are (n_tets, 16) arrays, the dihedral
quantities (n_tets, 6) arrays, the angle sums one (m,) array and a
Jacobian block one 2-D array.  The cofactor matrix is symmetric by
construction: the upper cofactors c_ij, i <= j, are expanded from one
shared table of 2x2 minors and each c_ji is a copy of c_ij.  Each
formula -- a 2x2 minor, a cofactor, a realization condition, a dihedral
cosine, a 2x2 determinant of a cofactor derivative -- is evaluated once
for all of its instances and all simplices, its operands gathered with
index tables, in the operation order of the per-simplex formula; every
result is bit for bit the one a loop over simplices and scalars gives
(`tests/geometry_oracle.py`).  Arccos endpoints are `math.acos` per
element, never `np.arccos`, which may differ by an ulp.  The formulas
avoid automatic differentiation and stay well defined at right dihedral
angles.

A kernel call costs about the same on one entry as on hundreds, so
independent products and quotients share one call over gathered or
joined (`kernel.concat`) operand columns: the minors' products are one
product, the expansions' another, and every product of the realization
conditions and dihedral cosines one more, over the columns of [G | C].
The Jacobian takes every 2x2 determinant of a cofactor derivative from
one table of the 21 distinct 2x2 minors of each symmetric Gram matrix,
whose products and the doubled cofactors are one product, and its reciprocal gap roots and
cofactor ratios are one quotient; it forms the derivative of every
dihedral angle of every simplex in every parameter of the simplex, and
a block gathers its entries from them.  A product two formulas share,
c_ii c_jj of the cosines and the angle gaps, is formed once per
`simplex_data` and kept on `SimplexData`.  What depends only on the
gluing -- the Gram gather index, the angle sums' incidence order
and rounds, and per Jacobian block its (simplex, local row, local
column) triples and the rounds that sum them -- is a `_Plan` built on
first use and kept on the `Triangulation`.
"""

from __future__ import annotations

import math

import numpy as np

from .interval import REAL_KERNEL, DomainError
from .triangulation import LOCAL_EDGE_INDEX, LOCAL_EDGES, PERM_EDGE

__all__ = [
    "RealizationError",
    "EdgeParams",
    "SimplexData",
    "simplex_data",
    "angle_sums",
    "jacobian",
    "opposite_edge",
]

_OPP = {
    (0, 1): (2, 3),
    (0, 2): (1, 3),
    (0, 3): (1, 2),
    (1, 2): (0, 3),
    (1, 3): (0, 2),
    (2, 3): (0, 1),
}


def opposite_edge(a, b):
    """The two face indices whose intersection is the edge {a, b}."""
    return _OPP[(min(a, b), max(a, b))]


class RealizationError(ValueError):
    """A Gram matrix failed (or could not be proven to satisfy) the
    conditions for being realized by a finite non-flat simplex."""


class EdgeParams:
    """Edge parameters nu_e = -cosh(l_e) in canonical edge-class order, as
    one 1-D array of `kernel`; plain floats (the default kernel) may come
    as any float sequence."""

    __slots__ = ("values", "kernel")

    def __init__(self, values, kernel=REAL_KERNEL, check=True):
        self.kernel = kernel
        self.values = REAL_KERNEL.points(values) if kernel is REAL_KERNEL else values
        if check:
            lo, hi = kernel.bounds(self.values)
            bad = ~(hi < -1.0)
            if bad.any():
                i = int(np.argmax(bad))
                v = float(hi[i]) if kernel is REAL_KERNEL else [float(lo[i]), float(hi[i])]
                raise RealizationError(f"edge parameter {i} not proven < -1: {v!r}")

    @classmethod
    def from_lengths(cls, lengths):
        """Lengths l_e > 0 to float parameters."""
        return cls([-math.cosh(float(l)) for l in lengths])


# ---------------------------------------------------------------------------
# index tables
# ---------------------------------------------------------------------------
#
# A simplex's Gram matrix and cofactors are rows of 16 entries, (i, j) at
# column 4 i + j, so all simplices form an (n_tets, 16) array.  Dihedral
# quantities are (n_tets, 6) arrays, one column per local edge (a, b) in
# LOCAL_EDGES order, about the faces (i, j) = opposite_edge(a, b).


def _ix(i, j):
    return 4 * i + j


_FACES = np.array([opposite_edge(a, b) for (a, b) in LOCAL_EDGES])
_F_II = 5 * _FACES[:, 0]
_F_JJ = 5 * _FACES[:, 1]
_F_IJ = 4 * _FACES[:, 0] + _FACES[:, 1]

# the pairs i < j of the realization conditions are LOCAL_EDGES too
_P_II = np.array([_ix(i, i) for (i, j) in LOCAL_EDGES])
_P_JJ = np.array([_ix(j, j) for (i, j) in LOCAL_EDGES])
_P_IJ = np.array([_ix(i, j) for (i, j) in LOCAL_EDGES])
_P_JI = np.array([_ix(j, i) for (i, j) in LOCAL_EDGES])
_DIAG = np.array([_ix(i, i) for i in range(4)])


def _cofactor_tables():
    """The index tables of `_cofactors`.  The cofactor c_ij, i <= j,
    expands along the first row a of its 3x3 minor (rows a, b, c without
    i, columns p, q, r without j) as ap * m_qr - aq * m_pr + ar * m_pq,
    where m_st = g[b][s] g[c][t] - g[b][t] g[c][s] is a 2x2 minor of rows
    b, c.  The ten expansions read only 14 distinct minors.

    Returns the Gram columns of the minors' two products, left and right
    factors, (28,): g[b][s] g[c][t] of every distinct minor, then g[b][t]
    g[c][s]; the Gram columns and minors of the expansions' three
    products, (30,): ap and m_qr of every expansion, then aq and m_pr,
    then ar and m_pq; the expansions negated, those with i + j odd; and
    for every entry (i, j) of the cofactor matrix the expansion of
    (min(i, j), max(i, j)), (16,)."""
    minors = {}  # (b, c, s, t): column of m_st in the minor table
    upper = {}  # (i, j), i <= j: column of c_ij among the expansions
    a_cols, m_cols = [[], [], []], [[], [], []]
    for i in range(4):
        for j in range(i, 4):
            upper[(i, j)] = len(upper)
            a, b, c = (x for x in range(4) if x != i)
            p, q, r = (y for y in range(4) if y != j)
            for slot, (y, s, t) in enumerate(((p, q, r), (q, p, r), (r, p, q))):
                a_cols[slot].append(_ix(a, y))
                m_cols[slot].append(minors.setdefault((b, c, s, t), len(minors)))
    bs, ct, bt, cs = np.array([[_ix(b, s), _ix(c, t), _ix(b, t), _ix(c, s)]
                               for (b, c, s, t) in minors]).T
    odd = [k for (i, j), k in upper.items() if (i + j) % 2 == 1]
    sym = [upper[(min(i, j), max(i, j))] for i in range(4) for j in range(4)]
    return (np.r_[bs, bt], np.r_[ct, cs], np.concatenate(a_cols),
            np.concatenate(m_cols), np.array(odd), np.array(sym))


_M_LEFT, _M_RIGHT, _C_A, _C_M, _C_ODD, _C_SYM = _cofactor_tables()

# The products of the realization conditions and the dihedral angles, as
# columns of [G | C] (cofactor (i, j) at column 16 + 4 i + j), left and
# right factors: g_ii g_jj and g_ij g_ji of each pair i < j, the terms of
# the coefficient a2; g_0j c_0j, the terms of det g along row 0; and c_ii
# c_jj and c_ij c_ij about the faces (i, j) of each local edge.
_R_LEFT = np.r_[_P_II, _P_IJ, 0:4, 16 + _F_II, 16 + _F_IJ]
_R_RIGHT = np.r_[_P_JJ, _P_JI, 16:20, 16 + _F_JJ, 16 + _F_IJ]
# the differences of those products: a2's terms, then the angle gaps
# c_ii c_jj - c_ij^2
_R_PLUS = np.r_[0:6, 16:22]
_R_MINUS = np.r_[6:12, 22:28]


_REASONS = (
    "char-poly coefficient a2 not proven negative",
    "char-poly coefficient a1 not proven positive",
    "determinant not proven negative",
    *(f"cofactor c_{i}{i} not proven negative" for i in range(4)),
    *(f"c_{i}{j}^2 < c_{i}{i} c_{j}{j} not proven" for (i, j) in LOCAL_EDGES),
)


def _dcof_terms(k, l, m, n):
    """d c_kl / d v_mn for m != n, honoring v_mn = v_nm, as a signed sum of
    2x2 determinants g[r0][c0] g[r1][c1] - g[r0][c1] g[r1][c0] of the minor
    matrix of (k, l): ((r0, c0, r1, c1, negated), ...) and whether the sum
    is negated.  No term: the derivative is identically zero."""
    terms = []
    for (r, c) in ((m, n), (n, m)):
        if r == k or c == l:
            continue
        rows = [x for x in range(4) if x != k and x != r]
        cols = [y for y in range(4) if y != l and y != c]
        rp = r - (1 if r > k else 0)
        cp = c - (1 if c > l else 0)
        terms.append((rows[0], cols[0], rows[1], cols[1], (rp + cp) % 2 == 1))
    return terms, (k + l) % 2 == 1


def _derivative_tables():
    """The index tables of `_derivatives`, over the columns of one simplex.

    Every 2x2 determinant of a cofactor derivative (`_dcof_terms`) is a
    minor g[a][s] g[b][t] - g[a][t] g[b][s] of G, rows a < b and columns
    s < t, its operands in that order, the rows and columns of local
    edges R and C.  G is symmetric entry for entry, so the minor of (C, R)
    has the same first product and the second commuted, which gives the
    same bits: the table holds the 21 minors with R <= C.  The derivatives
    are every dc_kk that does not vanish, in the parameter of each local
    edge c without the end k, then dc_ij, (i, j) the faces of local edge
    a, in the parameter of each local edge c, at 12 + 6 a + c.

    Returns the Gram columns of the minors' products, left and right
    factors, (42,): g[a][s] g[b][t] of every minor, then g[a][t] g[b][s];
    the minor of every derivative's first determinant, then of the second
    determinant of those with two; which of these determinants are
    negated; the derivatives with two determinants; the derivatives
    negated; the positions 6 a + c with a term c_ij/(2 c_ii) dc_ii, and
    with a term c_ij/(2 c_jj) dc_jj; and for those terms, face i first,
    their ratio's column in `_derivatives`' quotient and their dc_kk."""
    pairs = [(R, C) for R in range(6) for C in range(R, 6)]
    minor = {}  # (R, C) and (C, R): column of their minor
    for x, (R, C) in enumerate(pairs):
        minor[(R, C)] = minor[(C, R)] = x
    rows_cols = [(*LOCAL_EDGES[R], *LOCAL_EDGES[C]) for (R, C) in pairs]
    minor_left = ([_ix(a, s) for (a, b, s, t) in rows_cols]
                  + [_ix(a, t) for (a, b, s, t) in rows_cols])
    minor_right = ([_ix(b, t) for (a, b, s, t) in rows_cols]
                   + [_ix(b, s) for (a, b, s, t) in rows_cols])
    derivs = [((k, k), c) for k in range(4) for c, e in enumerate(LOCAL_EDGES) if k not in e]
    diag = {(k, c): x for x, ((k, _), c) in enumerate(derivs)}
    derivs += [(tuple(f), c) for f in _FACES for c in range(6)]
    first, second, two, sum_negated = [], [], [], []
    for (k, l), c in derivs:
        terms, negated = _dcof_terms(k, l, *LOCAL_EDGES[c])
        dets = [(minor[(LOCAL_EDGE_INDEX[(r0, r1)], LOCAL_EDGE_INDEX[(c0, c1)])], neg)
                for (r0, c0, r1, c1, neg) in terms]
        first.append(dets[0])
        second += dets[1:]
        two.append(len(dets) == 2)
        sum_negated.append(negated)
    faces = ([], [])  # per face: (position 6 a + c, ratio column, dc_kk)
    for a, ij in enumerate(_FACES):
        for c in range(6):
            for slot, k in enumerate(ij):
                if (k, c) in diag:
                    faces[slot].append((6 * a + c, 6 + 6 * slot + a, diag[(k, c)]))
    (pos_i, ratio_i, diag_i), (pos_j, ratio_j, diag_j) = (zip(*f) for f in faces)
    minors, negated = zip(*(first + second))
    return (np.array(minor_left), np.array(minor_right), np.array(minors),
            np.array(negated), np.array(two), np.array(sum_negated), np.array(pos_i),
            np.array(pos_j), np.array(ratio_i + ratio_j), np.array(diag_i + diag_j))


(_J_LEFT, _J_RIGHT, _DC_MINOR, _DC_NEGATED, _DC_TWO, _DC_SUM_NEGATED, _T_I, _T_J,
 _T_RATIO, _T_DC) = _derivative_tables()
_N_DIAG = 12  # the dc_kk that do not vanish, four faces times three edges
_T_ROW = np.repeat(np.arange(6), 6)  # the local row a of each position 6 a + c
_J_DEN = np.r_[_F_II, _F_JJ]  # c_ii, then c_jj, per local edge
_J_NUM = np.r_[_F_IJ, _F_IJ]


# ---------------------------------------------------------------------------
# index plans
# ---------------------------------------------------------------------------


def _rounds(target):
    """Split term indices into rounds that add each target's terms in
    index order: round d holds the d-th term of every target with more
    than d terms, so no round has a target twice."""
    order = np.argsort(target, kind="stable")
    starts = np.flatnonzero(np.concatenate(([True], np.diff(target[order]) != 0)))
    sizes = np.diff(np.append(starts, len(target)))
    rank = np.empty(len(target), dtype=np.intp)
    rank[order] = np.arange(len(target)) - np.repeat(starts, sizes)
    return [np.flatnonzero(rank == d) for d in range(rank.max() + 1)]


# a2's six terms, the four c_kk and the four terms of det g along row 0,
# summed by `_summed`: the target of each column, and their rounds
_SUM_TARGET = np.repeat(np.arange(3), (6, 4, 4))
_SUMS = _rounds(_SUM_TARGET)


def _summed(x, target, rounds):
    """x's entries along its last axis summed by target, each target's
    left to right from its first term.  `rounds` is `_rounds(target)`, and
    target is nondecreasing from 0 with no value skipped, so the first
    round lists every target's first term in target order."""
    first, *later = rounds
    acc = x[..., first]
    for sel in later:
        acc[..., target[sel]] = acc[..., target[sel]] + x[..., sel]
    return acc


class _Plan:
    """What `simplex_data`, `angle_sums` and `jacobian` gather and sum by,
    which depends only on the gluing: the Gram gather index, the angle
    sums' incidences and rounds, and one `_Block` per Jacobian block
    asked for.  Built once per triangulation (`_plan`)."""

    def __init__(self, tri):
        self.m = tri.m
        self.edges = tri.edge_table
        # (n_tets, 16) Gram entries as edge classes; the diagonal, which is
        # -1, reads class 0
        self.gram = np.zeros((tri.n_tets, 16), dtype=np.intp)
        for e, (a, b) in enumerate(LOCAL_EDGES):
            self.gram[:, _ix(a, b)] = self.gram[:, _ix(b, a)] = self.edges[:, e]
        # by class index, each class's incidences in walk order
        self.sum_target = np.repeat(np.arange(tri.m), tri.edge_degrees)
        self.reps = tri.edge_states // 24, PERM_EDGE[tri.edge_states % 24]
        self.sum_rounds = _rounds(self.sum_target)
        self.blocks = {}

    def block(self, rows, cols):
        """The `_Block` of rows x cols (None: every class), built on first
        use."""
        key = (None if rows is None else tuple(rows), None if cols is None else tuple(cols))
        if key not in self.blocks:
            self.blocks[key] = _Block(self, rows, cols)
        return self.blocks[key]


def _plan(tri):
    """The triangulation's `_Plan`, kept on it from the first use on."""
    if tri.geometry_plan is None:
        tri.geometry_plan = _Plan(tri)
    return tri.geometry_plan


# ---------------------------------------------------------------------------
# Gram matrices, cofactors and the realization conditions
# ---------------------------------------------------------------------------


def _cofactors(G):
    """The 16 cofactors of every Gram row, symmetric by construction: the
    14 distinct 2x2 minors of the upper-triangle expansions are formed
    once per row, each c_ij, i <= j, is expanded along the first row of
    its minor from them, and c_ji is a copy of c_ij.  The minors' 28
    products are one kernel product, the expansions' 30 another; the
    operands and their order are those of the scalar expansion
    (`_cofactor_tables`), so every upper cofactor is bit for bit the
    scalar one."""
    p = G[:, _M_LEFT] * G[:, _M_RIGHT]
    m = p[:, :14] - p[:, 14:]
    x = G[:, _C_A] * m[:, _C_M]
    upper = x[:, :10] - x[:, 10:20] + x[:, 20:]
    upper[:, _C_ODD] = -upper[:, _C_ODD]
    return upper[:, _C_SYM]


def _realization(kernel, G, C):
    """The realization conditions of every Gram row, and the products the
    dihedral angles share with them.

    Returns (failed, cc, gap): (n_tets, 13) booleans, the conditions for a
    finite non-flat simplex that each Gram matrix is not proven to
    satisfy, in the order of `_REASONS`; and c_ii c_jj and the angle gap
    c_ii c_jj - c_ij^2 about the faces (i, j) of each local edge, (n_tets,
    6) each.  All products are one kernel product over the columns of [G |
    C].  With intervals a condition holds only over the whole enclosure,
    so an enclosure touching a boundary fails conservatively."""
    # characteristic polynomial x^4 + 4x^3 + a2 x^2 + a1 x + a0 (diag is -1,
    # so the trace term is fixed); signs of a2, a1, a0 decide the signature
    w = kernel.concat([G, C])
    p = w[:, _R_LEFT] * w[:, _R_RIGHT]
    d = p[:, _R_PLUS] - p[:, _R_MINUS]
    sums = _summed(kernel.concat([d[:, :6], C[:, _DIAG], p[:, 12:16]]), _SUM_TARGET, _SUMS)
    a2, a1, a0 = sums[:, 0], -sums[:, 1], sums[:, 2]  # a0 = det g along row 0
    gap = d[:, 6:]
    failed = np.column_stack([
        ~(kernel.bounds(a2)[1] < 0.0),
        ~(kernel.bounds(a1)[0] > 0.0),
        ~(kernel.bounds(a0)[1] < 0.0),
        ~(kernel.bounds(C[:, _DIAG])[1] < 0.0),
        # c_ij^2 < c_ii c_jj, pairs (i, j) in LOCAL_EDGES order: the faces
        # of the local edges in reverse order
        ~(kernel.bounds(gap)[0] > 0.0)[:, ::-1],
    ])
    return failed, p[:, 16:22], gap


class SimplexData:
    """Gram matrices and cofactors (kernel arrays of shape (n_tets, 16)),
    dihedral cosines and angle gaps c_ii c_jj - c_ij^2 ((n_tets, 6)) of
    all simplices.  Both (n_tets, 16) arrays are symmetric: the cofactors
    are `_cofactors`, whose lower entries are copies of the upper ones.
    The gaps are those of the realization conditions, which the Jacobian
    reads too.  The dihedral angles `theta` are computed on first use.

    The arrays may come for the distinct Gram rows only, with `rows` the
    distinct row of each simplex: they are gathered to every simplex, and
    the arccos is still taken once per distinct row."""

    def __init__(self, kernel, gram, cof, cos, gap, rows=None):
        self.kernel = kernel
        self._distinct_cos, self._rows = cos, rows
        if rows is not None:
            gram, cof, cos, gap = gram[rows], cof[rows], cos[rows], gap[rows]
        self.gram = gram
        self.cof = cof
        self.cos = cos
        self.gap = gap
        self._theta = None

    @property
    def theta(self):
        """(n_tets, 6) dihedral angles, in LOCAL_EDGES order."""
        if self._theta is None:
            theta = self.kernel.arccos(self._distinct_cos)
            self._theta = theta if self._rows is None else theta[self._rows]
        return self._theta


def _distinct_rows(edges, ids):
    """The distinct Gram rows of the simplices whose local edges carry the
    edge classes `edges` (n_tets, 6), where ids[e] is the first edge class
    whose value equals that of e (`kernel.equal_ids`): (first, rows), the
    first simplex of every distinct row in simplex order and the distinct
    row of every simplex; (None, None) when no two rows are equal."""
    seen = {}
    rep = [seen.setdefault(key, t) for t, key in enumerate(map(tuple, ids[edges].tolist()))]
    if len(seen) == len(rep):
        return None, None
    distinct = np.array(rep) == np.arange(len(rep))
    return np.flatnonzero(distinct), (np.cumsum(distinct) - 1)[rep]


def simplex_data(tri, params):
    """The SimplexData of every simplex, proven realized.

    Raises RealizationError for the first simplex, in simplex order, that
    fails: at the first realization condition not proven, or else at the
    first dihedral cosine whose enclosure leaves [-1, 1], arccos's domain
    (for plain floats that is math.acos's ValueError).

    Each distinct Gram row is evaluated once, at its first simplex: two
    rows are equal when their edge values are exactly equal
    (`kernel.equal_ids`), and then every quantity of the two is the same
    bits.  The distinct rows keep simplex order, so the first failing one
    is that of the first failing simplex, and its cosines are formed up to
    that row, those of the simplices before it.
    """
    kernel = params.kernel
    plan = _plan(tri)
    first, rows = _distinct_rows(plan.edges, kernel.equal_ids(params.values))
    G = params.values[plan.gram if first is None else plan.gram[first]]
    G[:, _DIAG] = kernel.points([-1.0])
    C = _cofactors(G)
    failed, cc, gap = _realization(kernel, G, C)
    first_failed = int(np.argmax(failed.any(axis=1))) if failed.any() else len(G)
    cos = C[:first_failed, _F_IJ] / kernel.sqrt(cc[:first_failed])
    lo, hi = kernel.bounds(cos)
    outside = (lo < -1.0) | (hi > 1.0)
    if outside.any():
        t, e = np.unravel_index(np.argmax(outside), outside.shape)
        i, j = _FACES[e]
        try:
            kernel.arccos(cos[t:t + 1, e])  # raises the kind's own error
        except DomainError as exc:
            raise RealizationError(f"dihedral angle ({i},{j}): {exc}") from exc
    if first_failed < len(G):
        reason = _REASONS[int(np.argmax(failed[first_failed]))]
        tet = first_failed if first is None else int(first[first_failed])
        raise RealizationError(f"tet {tet}: {reason}")
    return SimplexData(kernel, G, C, cos, gap, rows)


# ---------------------------------------------------------------------------
# sums over simplices
# ---------------------------------------------------------------------------


def angle_sums(tri, params, data=None):
    """Theta_e per edge class, in canonical order, as one (m,) kernel array:
    the dihedral angles at the class's incidences, summed in the order of
    the walk around the edge (`Triangulation.edge_states`)."""
    if data is None:
        data = simplex_data(tri, params)
    plan = _plan(tri)
    return _summed(data.theta[plan.reps], plan.sum_target, plan.sum_rounds)


# ---------------------------------------------------------------------------
# Jacobian of the angle sums
# ---------------------------------------------------------------------------
#
# d theta_ij / d v_mn
#   = -1/sqrt(c_ii c_jj - c_ij^2)
#     * (dc_ij - c_ij/(2 c_ii) dc_ii - c_ij/(2 c_jj) dc_jj)
# where each dc_kl is, up to sign, the sum of the cofactors of at most two
# entries of the 3x3 minor matrix G_kl: the surviving occurrences of v_mn
# at positions (m,n) and (n,m) of G.  No division by c_ij occurs, so right
# dihedral angles are harmless.  dc_ij never vanishes identically; dc_kk
# does exactly when k is an end of the edge mn.


class _Block:
    """The index plan of one Jacobian block rows x cols: its (simplex,
    local row, local column) triples, in simplex order, then local edge
    order, as positions in `_derivatives`' array, and the rounds that sum
    every entry over its triples."""

    def __init__(self, plan, rows, cols):
        rows = list(range(plan.m) if rows is None else rows)
        cols = list(range(plan.m) if cols is None else cols)
        self.shape = n_rows, n_cols = len(rows), len(cols)
        row_at = np.full(plan.m, -1, dtype=np.intp)
        row_at[rows] = np.arange(n_rows)
        col_at = np.full(plan.m, -1, dtype=np.intp)
        col_at[cols] = np.arange(n_cols)
        R, K = row_at[plan.edges], col_at[plan.edges]
        live = (R >= 0) & (K >= 0).any(axis=1)[:, None]
        tets, a, c = np.nonzero(live[:, :, None] & (K >= 0)[:, None, :])
        self.at = tets, 6 * a + c
        # every entry summed from zero over its triples, in triple order
        r, k = R[tets, a], K[tets, c]
        self.rounds = ([(r[sel], k[sel], sel) for sel in _rounds(r * n_cols + k)]
                       if len(tets) else [])


def jacobian(tri, params, data=None, rows=None, cols=None):
    """Block M with M[r, c] = d Theta_rows[r] / d nu_cols[c], as a 2-D
    kernel array.

    `rows` (edge equations) and `cols` (edge variables) are lists of
    distinct edge classes; the default, all classes in canonical order,
    gives the full m x m matrix.  Only the entries of the block are
    summed, each over the simplices in simplex order from zero, so a block
    equals the same entries of the full matrix bit for bit.
    Every simplex is still checked whole: a realization failure or a
    degenerate angle gap raises whatever block is asked for.
    """
    if data is None:
        data = simplex_data(tri, params)
    kernel = data.kernel
    degenerate = ~(kernel.bounds(data.gap)[0] > 0.0)
    if degenerate.any():
        t, e = np.unravel_index(np.argmax(degenerate), degenerate.shape)
        i, j = _FACES[e]
        raise RealizationError(f"tet {t}: degenerate angle gap at faces ({i},{j})")
    block = _plan(tri).block(rows, cols)
    M = kernel.points(np.zeros(block.shape))
    if block.rounds:
        terms = _derivatives(kernel, data)[block.at]
        for r, k, sel in block.rounds:
            M[r, k] = M[r, k] + terms[sel]
    return M


def _derivatives(kernel, data):
    """-d theta / d v of every simplex, the dihedral angle along local edge
    a in the parameter of local edge c at column 6 a + c of an (n_tets, 36)
    kernel array, from the formula above with the vanishing dc_kk left
    out."""
    G, C = data.gram, data.cof
    n = G.shape[0]
    # the 21 minors' products, and 2 c_ii, 2 c_jj per local edge, in one
    # product
    p = (kernel.concat([G[:, _J_LEFT], C[:, _J_DEN]])
         * kernel.concat([G[:, _J_RIGHT], kernel.points(np.full((n, 12), 2.0))]))
    minors = p[:, :21] - p[:, 21:42]
    det = minors[:, _DC_MINOR]
    det[:, _DC_NEGATED] = -det[:, _DC_NEGATED]
    dc = det[:, :len(_DC_TWO)]
    dc[:, _DC_TWO] = dc[:, _DC_TWO] + det[:, len(_DC_TWO):]
    dc[:, _DC_SUM_NEGATED] = -dc[:, _DC_SUM_NEGATED]
    # 1/sqrt(gap), c_ij/(2 c_ii) and c_ij/(2 c_jj) per local edge, in one
    # quotient
    q = (kernel.concat([kernel.points(np.ones((n, 6))), C[:, _J_NUM]])
         / kernel.concat([kernel.sqrt(data.gap), p[:, 42:]]))
    term = q[:, _T_RATIO] * dc[:, _T_DC]
    acc = dc[:, _N_DIAG:]
    acc[:, _T_I] = acc[:, _T_I] - term[:, :len(_T_I)]
    acc[:, _T_J] = acc[:, _T_J] - term[:, len(_T_I):]
    return -(q[:, _T_ROW] * acc)
