"""Per-simplex hyperbolic geometry from edge parameters.

A finite hyperbolic simplex is encoded by its vertex Gram matrix: the
symmetric 4x4 matrix with -1 on the diagonal and v_ij = -cosh(l_ij) off
it.  This module computes cofactors, dihedral and vertex angles, the
realization conditions, angle sums around edge classes and the exact
Jacobian d(angle sums)/d(edge parameters).

Everything is generic over the scalar type: plain floats drive the
unverified solver and the pivot search, intervals drive certification.
Constants and non-operator functions go through `scalars`.
The formulas avoid automatic differentiation and stay well defined at
right dihedral angles.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars as sc
from .interval import DomainError
from .triangulation import LOCAL_EDGES

__all__ = [
    "RealizationError",
    "EdgeParams",
    "GramData",
    "gram_matrix",
    "cofactors",
    "dihedral_angle",
    "vertex_angle",
    "cos_dihedral",
    "sin_dihedral",
    "cos_vertex_angle",
    "sin_vertex_angle",
    "realization_check",
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

    def midpoints(self):
        return [sc.midpoint(v) for v in self.values]


@dataclass
class GramData:
    tet: int
    gram: list  # 4x4
    cof: list  # 4x4 cofactors
    theta_at_edge: dict  # (a,b) a<b -> dihedral angle along that edge


def gram_matrix(tri, params, tet):
    neg_one = sc.point_like(params[0], -1.0)
    g = [[neg_one if i == j else None for j in range(4)] for i in range(4)]
    for (a, b) in LOCAL_EDGES:
        v = params[tri.edge_class_index(tet, a, b)]
        g[a][b] = v
        g[b][a] = v
    return g


def _minor3(g, i, j):
    rows = [r for r in range(4) if r != i]
    cols = [c for c in range(4) if c != j]
    a, b, c = rows
    p, q, r = cols
    return (
        g[a][p] * (g[b][q] * g[c][r] - g[b][r] * g[c][q])
        - g[a][q] * (g[b][p] * g[c][r] - g[b][r] * g[c][p])
        + g[a][r] * (g[b][p] * g[c][q] - g[b][q] * g[c][p])
    )


def cofactors(g):
    """All 16 signed 3x3 minors; symmetric for symmetric input."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            m = _minor3(g, i, j)
            out[i][j] = m if (i + j) % 2 == 0 else -m
    return out


def _det4(g, cof):
    """det g by Laplace expansion along row 0, from the cofactors of g."""
    acc = g[0][0] * cof[0][0]
    for j in range(1, 4):
        acc = acc + g[0][j] * cof[0][j]
    return acc


def realization_check(g, cof=None):
    """Conditions for g to be the Gram matrix of a finite non-flat simplex.

    Returns (ok, reason).  With interval entries, ok is True only when
    every condition holds over the entire enclosure; any enclosure that
    touches a condition boundary fails conservatively.
    """
    if cof is None:
        cof = cofactors(g)
    # characteristic polynomial x^4 + 4x^3 + a2 x^2 + a1 x + a0 (diag is -1,
    # so the trace term is fixed); signs of a2, a1, a0 decide the signature
    a2 = None
    for i in range(4):
        for j in range(i + 1, 4):
            term = g[i][i] * g[j][j] - g[i][j] * g[j][i]
            a2 = term if a2 is None else a2 + term
    e3 = cof[0][0] + cof[1][1] + cof[2][2] + cof[3][3]
    a1 = -e3
    a0 = _det4(g, cof)
    if not sc.surely_lt(a2, 0.0):
        return False, "char-poly coefficient a2 not proven negative"
    if not sc.surely_gt(a1, 0.0):
        return False, "char-poly coefficient a1 not proven positive"
    if not sc.surely_lt(a0, 0.0):
        return False, "determinant not proven negative"
    for i in range(4):
        if not sc.surely_lt(cof[i][i], 0.0):
            return False, f"cofactor c_{i}{i} not proven negative"
    for i in range(4):
        for j in range(i + 1, 4):
            gap = cof[i][j] * cof[i][j] - cof[i][i] * cof[j][j]
            if not sc.surely_lt(gap, 0.0):
                return False, f"c_{i}{j}^2 < c_{i}{i} c_{j}{j} not proven"
    return True, None


def cos_dihedral(cof, i, j):
    return cof[i][j] / sc.sqrt(cof[i][i] * cof[j][j])


def sin_dihedral(cof, i, j):
    c = cos_dihedral(cof, i, j)
    return sc.sqrt_nonneg(-(c * c) + 1.0)


def dihedral_angle(g, cof, i, j):
    """Angle between faces i and j, in (0, pi) for a realized simplex."""
    try:
        return sc.arccos(cos_dihedral(cof, i, j))
    except DomainError as exc:
        raise RealizationError(f"dihedral angle ({i},{j}): {exc}") from exc


def cos_vertex_angle(g, i, j, k):
    num = g[i][j] * g[i][k] + g[j][k]
    den = sc.sqrt(g[i][j] * g[i][j] - 1.0) * sc.sqrt(g[i][k] * g[i][k] - 1.0)
    return num / den


def sin_vertex_angle(g, i, j, k):
    c = cos_vertex_angle(g, i, j, k)
    return sc.sqrt_nonneg(-(c * c) + 1.0)


def vertex_angle(g, i, j, k):
    """Angle at vertex i of the triangle ijk."""
    try:
        return sc.arccos(cos_vertex_angle(g, i, j, k))
    except DomainError as exc:
        raise RealizationError(f"vertex angle ({i},{j}{k}): {exc}") from exc


def simplex_data(tri, params, tet, require_realized=True):
    g = gram_matrix(tri, params, tet)
    cof = cofactors(g)
    if require_realized:
        ok, reason = realization_check(g, cof)
        if not ok:
            raise RealizationError(f"tet {tet}: {reason}")
    theta = {}
    for (a, b) in LOCAL_EDGES:
        i, j = opposite_edge(a, b)
        theta[(a, b)] = dihedral_angle(g, cof, i, j)
    return GramData(tet, g, cof, theta)


def angle_sums(tri, params, data=None):
    """Theta_e per edge class, in canonical order."""
    if data is None:
        data = [simplex_data(tri, params, t) for t in range(tri.n_tets)]
    sums = [None] * tri.m
    for ec in tri.edge_classes:
        acc = None
        for (t, e, _) in ec.representatives:
            th = data[t].theta_at_edge[e]
            acc = th if acc is None else acc + th
        sums[ec.index] = acc
    return sums


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
# dihedral angles are harmless.


def _dcof(g, k, l, m, n):
    """d c_kl / d v_mn for m != n, honoring v_mn = v_nm."""
    acc = None
    for (r, c) in ((m, n), (n, m)):
        if r == k or c == l:
            continue
        rows = [x for x in range(4) if x != k and x != r]
        cols = [y for y in range(4) if y != l and y != c]
        det2 = g[rows[0]][cols[0]] * g[rows[1]][cols[1]] - g[rows[0]][cols[1]] * g[
            rows[1]
        ][cols[0]]
        rp = r - (1 if r > k else 0)
        cp = c - (1 if c > l else 0)
        term = det2 if (rp + cp) % 2 == 0 else -det2
        acc = term if acc is None else acc + term
    if acc is None:
        return None
    return acc if (k + l) % 2 == 0 else -acc


def jacobian(tri, params, data=None, rows=None, cols=None):
    """Block M with M[r][c] = d Theta_rows[r] / d nu_cols[c].

    `rows` (edge equations) and `cols` (edge variables) are lists of
    distinct edge classes; the default, all classes in canonical order,
    gives the full m x m matrix.  Only the entries of the block are
    computed, each summed over the simplices in simplex order, so a block
    equals the same entries of the full matrix bit for bit.  Every
    simplex is still checked whole: a realization failure or a degenerate
    angle gap raises whatever block is asked for.
    """
    if data is None:
        data = [simplex_data(tri, params, t) for t in range(tri.n_tets)]
    zero = sc.point_like(params[0], 0.0)
    rows = range(tri.m) if rows is None else rows
    cols = range(tri.m) if cols is None else cols
    row_at = {e: r for r, e in enumerate(rows)}
    col_at = {e: c for c, e in enumerate(cols)}
    M = [[zero for _ in cols] for _ in rows]
    for tet in range(tri.n_tets):
        g = data[tet].gram
        cof = data[tet].cof
        local_cols = []
        for (mm, nn) in LOCAL_EDGES:
            c = col_at.get(tri.edge_class_index(tet, mm, nn))
            if c is not None:
                local_cols.append((mm, nn, c))
        diag = {}  # (k, m, n) -> dc_kk/dv_mn, shared by the 3 rows of face k
        # derivative of every dihedral angle on a block row wrt every local
        # edge parameter on a block column
        for (a, b) in LOCAL_EDGES:
            i, j = opposite_edge(a, b)
            gap = cof[i][i] * cof[j][j] - cof[i][j] * cof[i][j]
            if not sc.surely_gt(gap, 0.0):
                raise RealizationError(
                    f"tet {tet}: degenerate angle gap at faces ({i},{j})"
                )
            r = row_at.get(tri.edge_class_index(tet, a, b))
            if r is None or not local_cols:
                continue
            inv_sqrt_gap = 1.0 / sc.sqrt(gap)
            ratios = (
                (i, cof[i][j] / (cof[i][i] * 2.0)),
                (j, cof[i][j] / (cof[j][j] * 2.0)),
            )
            out = M[r]
            for (mm, nn, c) in local_cols:
                acc = _dcof(g, i, j, mm, nn)
                for k, ratio in ratios:
                    key = (k, mm, nn)
                    if key not in diag:
                        diag[key] = _dcof(g, k, k, mm, nn)
                    if diag[key] is not None:
                        term = ratio * diag[key]
                        acc = -term if acc is None else acc - term
                if acc is not None:
                    out[c] = out[c] + -(inv_sqrt_gap * acc)
    return M
