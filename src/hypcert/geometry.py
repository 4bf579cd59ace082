"""Per-simplex hyperbolic geometry from edge parameters, batched over
simplices.

A finite hyperbolic simplex is encoded by its vertex Gram matrix: the
symmetric 4x4 matrix with -1 on the diagonal and v_ij = -cosh(l_ij) off
it.  This module computes the cofactors, the realization conditions, the
dihedral angles, the angle sums around edge classes and the exact
Jacobian d(angle sums)/d(edge parameters).

Every per-simplex quantity is one kernel array over all simplices
(`scalars.kernel_of`): a numpy float64 array for plain floats (the
unverified solver and the pivot search), an `IntervalArray` for 53-bit
intervals and an object array of `MPInterval` above 53 bits, so one code
path serves all three kinds.  Each formula -- a cofactor, a realization
condition, a dihedral cosine, a 2x2 determinant of a cofactor
derivative -- is evaluated once for all of its instances and all
simplices, its operands gathered with index tables, in the operation order
of the per-simplex formula; every result is bit for bit the one a loop
over simplices and scalars gives.  Arccos endpoints are `math.acos` per
element, never `np.arccos`, which may differ by an ulp.  The formulas
avoid automatic differentiation and stay well defined at right dihedral
angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scalars as sc
from .interval import DomainError
from .triangulation import LOCAL_EDGE_INDEX, LOCAL_EDGES

__all__ = [
    "RealizationError",
    "EdgeParams",
    "GramData",
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
    """Edge parameters nu_e = -cosh(l_e) in canonical edge-class order."""

    __slots__ = ("values",)

    def __init__(self, values, check=True):
        self.values = list(values)
        if check:
            for i, v in enumerate(self.values):
                if not sc.surely_lt(v, -1.0):
                    raise RealizationError(
                        f"edge parameter {i} not proven < -1: {v!r}"
                    )

    @classmethod
    def from_lengths(cls, lengths, kernel=None):
        """Lengths l_e > 0 to parameters; interval-valued if a kernel is given."""
        if kernel is None:
            return cls([-sc.cosh(float(l)) for l in lengths])
        return cls([-(kernel.point(float(l)).cosh()) for l in lengths])

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass
class GramData:
    """One simplex's Gram matrix, cofactors (4x4 lists) and dihedral angle
    along each local edge (a, b), a < b, as scalars."""

    tet: int
    gram: list
    cof: list
    theta_at_edge: dict


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


def _minor_table():
    """For the 3x3 minor of every entry (i, j): the columns of its nine
    Gram entries g[x][y], x in rows (a, b, c) without i, y in cols
    (p, q, r) without j, keyed by the letters xy."""
    table = {}
    for i in range(4):
        for j in range(4):
            rows = dict(zip("abc", [x for x in range(4) if x != i]))
            cols = dict(zip("pqr", [y for y in range(4) if y != j]))
            for x, rx in rows.items():
                for y, cy in cols.items():
                    table.setdefault(x + y, []).append(_ix(rx, cy))
    return {key: np.array(v) for key, v in table.items()}


_MINOR = _minor_table()
_ODD = np.array([k for k in range(16) if (k // 4 + k % 4) % 2 == 1])

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


def _dcof_table(pairs):
    """The derivative of each cofactor c_kl, (k, l) in pairs, in each local
    edge parameter, as arrays indexed [pair, local edge]: the number of
    determinants; per determinant slot its Gram columns (r0c0, r1c1, r0c1,
    r1c0) and whether it is negated (a missing second determinant repeats
    the first); and whether the sum is negated."""
    count = np.zeros((len(pairs), 6), dtype=np.int8)
    where = np.zeros((len(pairs), 6, 2, 4), dtype=np.int8)
    negated = np.zeros((len(pairs), 6, 2), dtype=bool)
    sum_negated = np.zeros((len(pairs), 6), dtype=bool)
    for s, (k, l) in enumerate(pairs):
        for c, (m, n) in enumerate(LOCAL_EDGES):
            terms, sum_negated[s, c] = _dcof_terms(k, l, m, n)
            count[s, c] = len(terms)
            for slot, (r0, c0, r1, c1, neg) in enumerate((terms + terms)[:2]):
                where[s, c, slot] = (_ix(r0, c0), _ix(r1, c1), _ix(r0, c1), _ix(r1, c0))
                negated[s, c, slot] = neg
    return count, where, negated, sum_negated


_D_OFF = _dcof_table([tuple(f) for f in _FACES])  # d c_ij, [local row, col]
_D_DIAG = _dcof_table([(k, k) for k in range(4)])  # d c_kk, [k, col]


# ---------------------------------------------------------------------------
# Gram matrices, cofactors and the realization conditions
# ---------------------------------------------------------------------------


def _edge_table(tri):
    """(n_tets, 6) edge class of every local edge."""
    return np.array(
        [[tri.edge_class_index(t, a, b) for (a, b) in LOCAL_EDGES]
         for t in range(tri.n_tets)],
        dtype=np.intp,
    ).reshape(tri.n_tets, 6)


def _gram_index(tri):
    """(n_tets, 16) Gram entries as positions in the edge parameters
    followed by -1: an edge class off the diagonal, m on it."""
    edges = _edge_table(tri)
    index = np.full((tri.n_tets, 16), tri.m, dtype=np.intp)
    for e, (a, b) in enumerate(LOCAL_EDGES):
        index[:, _ix(a, b)] = index[:, _ix(b, a)] = edges[:, e]
    return index


def _cofactors(G):
    """All 16 signed 3x3 minors of every Gram row."""
    g = {key: G[:, cols] for key, cols in _MINOR.items()}
    cof = (
        g["ap"] * (g["bq"] * g["cr"] - g["br"] * g["cq"])
        - g["aq"] * (g["bp"] * g["cr"] - g["br"] * g["cp"])
        + g["ar"] * (g["bp"] * g["cq"] - g["bq"] * g["cp"])
    )
    cof[:, _ODD] = -cof[:, _ODD]
    return cof


def _running_sum(x):
    """The columns of x summed left to right."""
    acc = x[:, 0]
    for k in range(1, x.shape[1]):
        acc = acc + x[:, k]
    return acc


def _unrealized(kernel, G, C):
    """(n_tets, 13) booleans: the conditions for a finite non-flat simplex
    that each Gram matrix is not proven to satisfy, in the order of
    `_REASONS`.  With intervals a condition holds only over the whole
    enclosure, so an enclosure touching a boundary fails conservatively."""
    # characteristic polynomial x^4 + 4x^3 + a2 x^2 + a1 x + a0 (diag is -1,
    # so the trace term is fixed); signs of a2, a1, a0 decide the signature
    a2 = _running_sum(G[:, _P_II] * G[:, _P_JJ] - G[:, _P_IJ] * G[:, _P_JI])
    a1 = -_running_sum(C[:, _DIAG])
    a0 = _running_sum(G[:, 0:4] * C[:, 0:4])  # det g along row 0
    gap = C[:, _P_IJ] * C[:, _P_IJ] - C[:, _P_II] * C[:, _P_JJ]
    return np.column_stack([
        ~(kernel.bounds(a2)[1] < 0.0),
        ~(kernel.bounds(a1)[0] > 0.0),
        ~(kernel.bounds(a0)[1] < 0.0),
        ~(kernel.bounds(C[:, _DIAG])[1] < 0.0),
        ~(kernel.bounds(gap)[1] < 0.0),
    ])


class SimplexData:
    """Gram matrices and cofactors (kernel arrays of shape (n_tets, 16))
    and dihedral cosines ((n_tets, 6)) of all simplices.  The dihedral
    angles `theta` are computed on first use; indexing gives one simplex's
    `GramData` of scalars, whose Gram entries are the edge parameters
    themselves."""

    def __init__(self, kernel, gram, entries, index, cof, cos):
        self.kernel = kernel
        self.gram = gram  # entries[index]
        self.cof = cof
        self.cos = cos
        self._entries = entries
        self._index = index
        self._theta = None
        self._simplices = None

    @property
    def theta(self):
        """(n_tets, 6) dihedral angles, in LOCAL_EDGES order."""
        if self._theta is None:
            self._theta = self.kernel.arccos(self.cos)
        return self._theta

    def __getitem__(self, tet):
        if self._simplices is None:
            entries = self._entries
            self._simplices = [
                GramData(t, [[entries[k] for k in g[4 * i:4 * i + 4]] for i in range(4)],
                         [c[4 * i:4 * i + 4] for i in range(4)],
                         dict(zip(LOCAL_EDGES, th)))
                for t, (g, c, th) in enumerate(zip(
                    self._index.tolist(), self.cof.tolist(), self.theta.tolist()
                ))
            ]
        return self._simplices[tet]


def simplex_data(tri, params):
    """The SimplexData of every simplex, proven realized.

    Raises RealizationError for the first simplex, in simplex order, that
    fails: at the first realization condition not proven, or else at the
    first dihedral cosine whose enclosure leaves [-1, 1], arccos's domain
    (for plain floats that is math.acos's ValueError).
    """
    kernel = sc.kernel_of(params[0])
    entries = list(params) + [kernel.point(-1.0)]
    index = _gram_index(tri)
    G = kernel.array(entries)[index]
    C = _cofactors(G)
    failed = _unrealized(kernel, G, C)
    first_failed = int(np.argmax(failed.any(axis=1))) if failed.any() else tri.n_tets
    head = C[:first_failed]
    cos = head[:, _F_IJ] / kernel.sqrt(head[:, _F_II] * head[:, _F_JJ])
    lo, hi = kernel.bounds(cos)
    outside = (lo < -1.0) | (hi > 1.0)
    if outside.any():
        t, e = np.unravel_index(np.argmax(outside), outside.shape)
        i, j = _FACES[e]
        try:
            kernel.arccos(cos[t:t + 1, e])  # raises the kind's own error
        except DomainError as exc:
            raise RealizationError(f"dihedral angle ({i},{j}): {exc}") from exc
    if first_failed < tri.n_tets:
        reason = _REASONS[int(np.argmax(failed[first_failed]))]
        raise RealizationError(f"tet {first_failed}: {reason}")
    return SimplexData(kernel, G, entries, index, C, cos)


# ---------------------------------------------------------------------------
# sums over simplices
# ---------------------------------------------------------------------------


def _distinct(keys, size):
    """The distinct keys, integers below size, in increasing order, and the
    position of each key among them."""
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[keys]


def _rounds(target):
    """Split term indices into rounds that add each target's terms in
    index order: round d holds the d-th term of every target with more
    than d terms, so no round has a target twice."""
    order = np.argsort(target, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(target[order]) != 0])
    sizes = np.diff(np.r_[starts, len(target)])
    rank = np.empty(len(target), dtype=np.intp)
    rank[order] = np.arange(len(target)) - np.repeat(starts, sizes)
    return [np.flatnonzero(rank == d) for d in range(rank.max() + 1)]


def angle_sums(tri, params, data=None):
    """Theta_e per edge class, in canonical order: the dihedral angles at
    the class's representatives, summed in representative order."""
    if data is None:
        data = simplex_data(tri, params)
    # by class index; the stable sort keeps each class's representative order
    reps = sorted(((ec.index, t, LOCAL_EDGE_INDEX[e]) for ec in tri.edge_classes
                   for (t, e, _) in ec.representatives), key=lambda r: r[0])
    cls, tets, edges = (np.array(x, dtype=np.intp) for x in zip(*reps))
    theta = data.theta[tets, edges]
    first, *later = _rounds(cls)
    sums = theta[first]
    for sel in later:
        sums[cls[sel]] = sums[cls[sel]] + theta[sel]
    return sums.tolist()


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


def _dcofs(G, tets, table, rows, cols):
    """d c / d v of each instance: simplex tets[x], the cofactor of `table`
    row rows[x] (a `_dcof_table`), local edge cols[x]; each instance has at
    least one determinant."""
    count, where, negated, sum_negated = (x[rows, cols] for x in table)
    two = count == 2
    t = np.concatenate([tets, tets[two]])
    w = np.concatenate([where[:, 0], where[two, 1]])
    det2 = G[t, w[:, 0]] * G[t, w[:, 1]] - G[t, w[:, 2]] * G[t, w[:, 3]]
    neg = np.concatenate([negated[:, 0], negated[two, 1]])
    det2[neg] = -det2[neg]
    acc = det2[:len(tets)]
    acc[two] = acc[two] + det2[len(tets):]
    acc[sum_negated] = -acc[sum_negated]
    return acc


def jacobian(tri, params, data=None, rows=None, cols=None):
    """Block M with M[r][c] = d Theta_rows[r] / d nu_cols[c].

    `rows` (edge equations) and `cols` (edge variables) are lists of
    distinct edge classes; the default, all classes in canonical order,
    gives the full m x m matrix.  Only the entries of the block are
    computed, each summed over the simplices in simplex order from zero,
    so a block equals the same entries of the full matrix bit for bit.
    Every simplex is still checked whole: a realization failure or a
    degenerate angle gap raises whatever block is asked for.
    """
    if data is None:
        data = simplex_data(tri, params)
    kernel, G, C = data.kernel, data.gram, data.cof
    gap = C[:, _F_II] * C[:, _F_JJ] - C[:, _F_IJ] * C[:, _F_IJ]
    degenerate = ~(kernel.bounds(gap)[0] > 0.0)
    if degenerate.any():
        t, e = np.unravel_index(np.argmax(degenerate), degenerate.shape)
        i, j = _FACES[e]
        raise RealizationError(f"tet {t}: degenerate angle gap at faces ({i},{j})")
    rows = list(range(tri.m) if rows is None else rows)
    cols = list(range(tri.m) if cols is None else cols)
    n_rows, n_cols = len(rows), len(cols)
    edges = _edge_table(tri)
    row_at = np.full(tri.m, -1, dtype=np.intp)
    row_at[rows] = np.arange(n_rows)
    col_at = np.full(tri.m, -1, dtype=np.intp)
    col_at[cols] = np.arange(n_cols)
    R, K = row_at[edges], col_at[edges]
    # the (simplex, local row, local column) triples of the block, in
    # simplex order, then local edge order
    live = (R >= 0) & (K >= 0).any(axis=1)[:, None]
    tets, a, c = np.nonzero(live[:, :, None] & (K >= 0)[:, None, :])
    zero = kernel.point(0.0)
    flat = [zero] * (n_rows * n_cols)
    if len(tets):
        terms = _jacobian_terms(kernel, G, C, gap, tets, a, c)
        # the entries some triple reaches, each summed from zero
        entries, slot = _distinct(R[tets, a] * n_cols + K[tets, c], n_rows * n_cols)
        M = kernel.array([zero])[np.zeros(len(entries), dtype=np.intp)]
        for sel in _rounds(slot):
            M[slot[sel]] = M[slot[sel]] + terms[sel]
        for e, value in zip(entries.tolist(), M.tolist()):
            flat[e] = value
    return [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]


def _jacobian_terms(kernel, G, C, gap, tets, a, c):
    """-d theta / d v for each triple (tets[x], local row a[x], local
    column c[x]): the dihedral angle along local edge a in the parameter of
    local edge c."""
    # per (simplex, local row): 1/sqrt(gap) and c_ij/(2 c_ii), c_ij/(2 c_jj)
    rows, row_of = _distinct(tets * 6 + a, C.shape[0] * 6)
    rt, ra = rows // 6, rows % 6
    inv_sqrt_gap = 1.0 / kernel.sqrt(gap[rt, ra])
    rt2 = np.concatenate([rt, rt])
    ratio = C[rt2, np.concatenate([_F_IJ[ra], _F_IJ[ra]])] / (
        C[rt2, np.concatenate([_F_II[ra], _F_JJ[ra]])] * 2.0
    )
    # dc_kk per (simplex, face k, local column), once for the rows sharing
    # face k; it vanishes where k is an end of the column's edge
    faces = _FACES[a]
    key = (tets[:, None] * 4 + faces) * 6 + c[:, None]
    needed = _D_DIAG[0][faces, c[:, None]] > 0
    diag_keys, diag_of = _distinct(key[needed], C.shape[0] * 24)
    diag = _dcofs(G, diag_keys // 24, _D_DIAG, diag_keys // 6 % 4, diag_keys % 6)
    diag_at = np.zeros(key.shape, dtype=np.intp)
    diag_at[needed] = diag_of
    acc = _dcofs(G, tets, _D_OFF, a, c)
    for s in (0, 1):  # face i, then face j
        n = needed[:, s]
        term = ratio[s * len(rows) + row_of[n]] * diag[diag_at[n, s]]
        acc[n] = acc[n] - term
    return -(inv_sqrt_gap[row_of] * acc)
