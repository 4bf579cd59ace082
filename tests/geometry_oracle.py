"""Per-simplex geometry, one simplex and one scalar at a time.

The reference for `hypcert.geometry`, which evaluates the same formulas
batched over simplices: each function here is the scalar formula, in the
operation order the batched code must repeat bit for bit.  `simplices`
reads a batched `SimplexData` back as one `GramData` of scalars per
simplex.  Tests only.
"""

import functools
import math
from dataclasses import dataclass

from hypcert.geometry import EdgeParams, RealizationError, opposite_edge
from hypcert.interval import (
    FLOAT_KERNEL,
    REAL_KERNEL,
    DomainError,
    Interval,
    MPInterval,
    MPKernel,
)
from hypcert.triangulation import LOCAL_EDGES
from tests import kernel_scalars as ks
from tests.triangulation_oracle import edge_class_index, edge_classes

# the scalar helpers of the formulas below, for floats and intervals alike:
# the pipeline carries the kind of number in a kernel, these read it off
# the value


def is_interval(x):
    return isinstance(x, (Interval, MPInterval))


def kernel_of(sample):
    """The kernel of sample's kind: an interval's, or `REAL_KERNEL`."""
    if isinstance(sample, MPInterval):
        return MPKernel(sample.prec)
    return FLOAT_KERNEL if isinstance(sample, Interval) else REAL_KERNEL


def point_like(sample, x):
    """The constant x as a scalar of the same kind and precision as sample."""
    return ks.point(kernel_of(sample), x)


def cosh(x):
    return x.cosh() if is_interval(x) else math.cosh(x)


def midpoint(x):
    return x.mid() if is_interval(x) else float(x)


def surely_lt(x, c):
    """x < c for every member of x (floats compare directly)."""
    return x.hi_float() < c if is_interval(x) else x < c


def sqrt(x):
    return x.sqrt() if is_interval(x) else math.sqrt(x)


def sqrt_nonneg(x):
    """sqrt of a quantity that is mathematically >= 0; clamps rounding dips
    below zero instead of failing.  Must not be used where negativity would
    indicate a genuine domain violation."""
    return x.sqrt_nonneg() if is_interval(x) else math.sqrt(max(x, 0.0))


def arccos(x):
    return x.arccos() if is_interval(x) else math.acos(x)


def surely_gt(x, c):
    """x > c for every member of x (floats compare directly)."""
    return x.lo_float() > c if is_interval(x) else x > c


def edge_params_from_lengths(lengths, kernel):
    """Edge parameters -cosh(l_e) of `kernel`, each cosh on the point l_e."""
    return EdgeParams(ks.array(kernel, [-cosh(ks.point(kernel, float(l))) for l in lengths]),
                      kernel)


@dataclass
class GramData:
    """One simplex's Gram matrix, cofactors (4x4 lists) and dihedral angle
    along each local edge (a, b), a < b, as scalars."""

    tet: int
    gram: list
    cof: list
    theta_at_edge: dict


@functools.lru_cache(maxsize=8)
def simplices(data):
    """The `GramData` of every simplex of a batched `SimplexData`."""
    return [
        GramData(t, [g[4 * i:4 * i + 4] for i in range(4)],
                 [c[4 * i:4 * i + 4] for i in range(4)],
                 dict(zip(LOCAL_EDGES, th)))
        for t, (g, c, th) in enumerate(zip(
            ks.entries(data.gram), ks.entries(data.cof), ks.entries(data.theta)
        ))
    ]


# the scalar formulas of the stage-V labels (`gimbal.CocycleLabels`)


def cos_dihedral(cof, i, j):
    return cof[i][j] / sqrt(cof[i][i] * cof[j][j])


def sin_dihedral(cof, i, j):
    c = cos_dihedral(cof, i, j)
    return sqrt_nonneg(-(c * c) + 1.0)


def cos_vertex_angle(g, i, j, k):
    num = g[i][j] * g[i][k] + g[j][k]
    den = sqrt(g[i][j] * g[i][j] - 1.0) * sqrt(g[i][k] * g[i][k] - 1.0)
    return num / den


def sin_vertex_angle(g, i, j, k):
    c = cos_vertex_angle(g, i, j, k)
    return sqrt_nonneg(-(c * c) + 1.0)


def gram_matrix(tri, params, tet):
    neg_one = ks.point(params.kernel, -1.0)
    values = ks.entries(params.values)
    g = [[neg_one if i == j else None for j in range(4)] for i in range(4)]
    for (a, b) in LOCAL_EDGES:
        v = values[edge_class_index(tri, tet, a, b)]
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
    """The 16 signed 3x3 minors of a symmetric g, symmetric by
    construction: each c_ij, i <= j, is its own minor, expanded along the
    minor's first row, and c_ji is a copy of it.  The batched code shares
    the 2x2 minors between expansions; the operands and their order are
    these."""
    out = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            m = _minor3(g, i, j)
            out[i][j] = out[j][i] = m if (i + j) % 2 == 0 else -m
    return out


def _det4(g, cof):
    """det g by Laplace expansion along row 0, from the cofactors of g."""
    acc = g[0][0] * cof[0][0]
    for j in range(1, 4):
        acc = acc + g[0][j] * cof[0][j]
    return acc


def realization_check(g, cof=None):
    """Conditions for g to be the Gram matrix of a finite non-flat simplex.

    Returns (ok, reason); with intervals, ok only if every condition holds
    over the whole enclosure.
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
    if not surely_lt(a2, 0.0):
        return False, "char-poly coefficient a2 not proven negative"
    if not surely_gt(a1, 0.0):
        return False, "char-poly coefficient a1 not proven positive"
    if not surely_lt(a0, 0.0):
        return False, "determinant not proven negative"
    for i in range(4):
        if not surely_lt(cof[i][i], 0.0):
            return False, f"cofactor c_{i}{i} not proven negative"
    for i in range(4):
        for j in range(i + 1, 4):
            gap = cof[i][j] * cof[i][j] - cof[i][i] * cof[j][j]
            if not surely_lt(gap, 0.0):
                return False, f"c_{i}{j}^2 < c_{i}{i} c_{j}{j} not proven"
    return True, None


def dihedral_angle(g, cof, i, j):
    """Angle between faces i and j, in (0, pi) for a realized simplex."""
    try:
        return arccos(cos_dihedral(cof, i, j))
    except DomainError as exc:
        raise RealizationError(f"dihedral angle ({i},{j}): {exc}") from exc


def vertex_angle(g, i, j, k):
    """Angle at vertex i of the triangle ijk."""
    try:
        return arccos(cos_vertex_angle(g, i, j, k))
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
    for ec in edge_classes(tri):
        acc = None
        for (t, e, _) in ec.representatives:
            th = data[t].theta_at_edge[e]
            acc = th if acc is None else acc + th
        sums[ec.index] = acc
    return sums


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
    """Block M with M[r][c] = d Theta_rows[r] / d nu_cols[c], as nested
    lists, simplex by simplex, each entry summed over the simplices in
    simplex order."""
    if data is None:
        data = [simplex_data(tri, params, t) for t in range(tri.n_tets)]
    zero = ks.point(params.kernel, 0.0)
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
            c = col_at.get(edge_class_index(tri, tet, mm, nn))
            if c is not None:
                local_cols.append((mm, nn, c))
        diag = {}  # (k, m, n) -> dc_kk/dv_mn, shared by the 3 rows of face k
        for (a, b) in LOCAL_EDGES:
            i, j = opposite_edge(a, b)
            gap = cof[i][i] * cof[j][j] - cof[i][j] * cof[i][j]
            if not surely_gt(gap, 0.0):
                raise RealizationError(
                    f"tet {tet}: degenerate angle gap at faces ({i},{j})"
                )
            r = row_at.get(edge_class_index(tri, tet, a, b))
            if r is None or not local_cols:
                continue
            inv_sqrt_gap = 1.0 / sqrt(gap)
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
