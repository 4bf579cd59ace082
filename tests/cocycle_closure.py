"""Cocycle closure of the SO(3) edge labels, for the test suite.

The certification pipeline relies on the sign rule of
`hypcert.gimbal.CocycleLabels` as stated and never runs this check.  The
tests run it on random simplices and on the bundled fixtures: the label
product around every 2-cell of the doubly truncated complex must enclose
the identity.  Small hexagons are checked in SO(3); big hexagons and
rectangles use 2x2 forms of the labels, where closure means enclosing a
scalar matrix.
"""

import itertools

from hypcert.triangulation import (
    LOCAL_EDGES,
    _swap12,
    _swap23,
    hexagon_cycle,
    perm_parity,
)
from tests.geometry_oracle import cos_vertex_angle, is_interval, simplices, sqrt_nonneg
from tests.gimbal_oracle import beta_label, dihedral_cs, gamma_label
from tests.link_oracle import compose
from tests.matrix_oracle import mat3_identity, mat3_mul
from tests.triangulation_oracle import neighbor
from tests import kernel_scalars as ks

# ---------------------------------------------------------------------------
# 2x2 forms of the labels, cross-validating the rotation forms
# ---------------------------------------------------------------------------


def pgl2_alpha(labels, tet, sigma):
    v = simplices(labels.data)[tet].gram[sigma[0]][sigma[1]]
    x = sqrt_nonneg(v * v - 1.0) - v
    zero, one = (ks.point(labels.kernel, v) for v in (0.0, 1.0))
    return ((zero, x), (one, zero))


def pgl2_beta(labels, tet, sigma):
    g = simplices(labels.data)[tet].gram
    # half angle via cos(e/2) = sqrt((1+cos e)/2), valid on (0, pi)
    ce = cos_vertex_angle(g, sigma[0], sigma[2], sigma[1])
    ch = sqrt_nonneg((ce + 1.0) / 2.0)
    sh = sqrt_nonneg((-ce + 1.0) / 2.0)
    return ((-ch, sh), (sh, ch))


def pgl2_gamma(labels, tet, sigma):
    c, s = dihedral_cs(labels, tet, sigma[0], sigma[1])
    if perm_parity(sigma) == 1:
        s = -s
    # complex entries as (re, im) pairs
    zero, one = (ks.point(labels.kernel, v) for v in (0.0, 1.0))
    return (((c, s), (zero, zero)), ((zero, zero), (one, zero)))


def _c_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _c_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _mat2c_mul(a, b):
    return tuple(
        tuple(
            _c_add(_c_mul(a[i][0], b[0][j]), _c_mul(a[i][1], b[1][j]))
            for j in range(2)
        )
        for i in range(2)
    )


def _as_mat2c(m, zero):
    out = []
    for row in m:
        out_row = []
        for x in row:
            out_row.append(x if isinstance(x, tuple) else (x, zero))
        out.append(tuple(out_row))
    return tuple(out)


def _contains_zero(x):
    return x.contains(0.0) if is_interval(x) else abs(x) < 1e-9


# ---------------------------------------------------------------------------
# 2-cells of the doubly truncated simplex
# ---------------------------------------------------------------------------


def _swap01(s):
    return (s[1], s[0], s[2], s[3])


def big_hexagon_cycle(f):
    xs = sorted(x for x in range(4) if x != f)
    s = (xs[0], xs[1], xs[2], f)
    cyc = []
    for _ in range(3):
        t = _swap01(s)
        cyc.append(("a", s, t))
        u = _swap12(t)
        cyc.append(("b", t, u))
        s = u
    return cyc


def rectangle_cycle(a, b):
    cs = sorted(x for x in range(4) if x not in (a, b))
    s = (a, b, cs[0], cs[1])
    t = _swap01(s)
    u = _swap23(t)
    w = _swap01(u)
    return [("a", s, t), ("g", t, u), ("a", u, w), ("g", w, s)]


def check_cocycle_closure(tri, labels):
    """Verify the label products around every 2-cell of the doubly
    truncated complex.

    Small hexagons are checked in SO(3); big hexagons and rectangles use
    the 2x2 forms, where closure means enclosing a scalar matrix.  Also
    checks that identified middle edges of glued simplices carry equal
    labels.  Returns a list of failure descriptions (empty = closed).
    """
    failures = []
    zero = ks.point(labels.kernel, 0.0)
    ident = mat3_identity(ks.point(labels.kernel, 1.0), zero)
    for tet in range(tri.n_tets):
        # small hexagons in SO(3)
        for a in range(4):
            acc = ident
            for kind, s0, _s1 in hexagon_cycle(a):
                if kind == "g":
                    acc = mat3_mul(gamma_label(labels, tet, s0), acc)
                else:
                    tok = _beta_token_of(tri, tet, s0)
                    acc = mat3_mul(beta_label(labels, tok), acc)
            for i in range(3):
                for j in range(3):
                    want = 1.0 if i == j else 0.0
                    if not _contains_zero(acc[i][j] - want):
                        failures.append(
                            f"tet {tet} corner {a}: small hexagon product "
                            f"entry ({i},{j}) excludes identity"
                        )
        # big hexagons and rectangles in the 2x2 forms
        for f in range(4):
            acc = None
            for kind, s0, _s1 in big_hexagon_cycle(f):
                m = (
                    pgl2_alpha(labels, tet, s0)
                    if kind == "a"
                    else pgl2_beta(labels, tet, s0)
                )
                m = _as_mat2c(m, zero)
                acc = m if acc is None else _mat2c_mul(m, acc)
            failures.extend(
                _scalar_failures(acc, f"tet {tet} face {f}: big hexagon")
            )
        for (a, b) in LOCAL_EDGES:
            acc = None
            for kind, s0, _s1 in rectangle_cycle(a, b):
                if kind == "a":
                    m = _as_mat2c(pgl2_alpha(labels, tet, s0), zero)
                else:
                    m = pgl2_gamma(labels, tet, s0)
                acc = m if acc is None else _mat2c_mul(m, acc)
            failures.extend(
                _scalar_failures(acc, f"tet {tet} edge {a}{b}: rectangle")
            )
        # shared middle edges across face gluings carry equal labels
        for f in range(4):
            j, p = neighbor(tri, tet, f)
            if (j, p[f]) < (tet, f):
                continue
            for s0 in itertools.permutations(range(4)):
                if s0[3] != f:
                    continue
                s1 = _swap12(s0)
                if s1 < s0:
                    continue
                tok_here = _canon_beta(tri, tet, s0, s1)
                tok_there = _canon_beta(tri, j, compose(p, s0), compose(p, s1))
                if tok_here != tok_there:
                    failures.append(
                        f"tet {tet} face {f}: identified middle edges have "
                        f"different canonical tokens"
                    )
    return failures


def _canon_beta(tri, tet, s0, s1):
    side = (tet, min(s0, s1), max(s0, s1))
    f = s0[3]
    j, p = neighbor(tri, tet, f)
    t0, t1 = compose(p, s0), compose(p, s1)
    other = (j, min(t0, t1), max(t0, t1))
    return min(side, other)


def _beta_token_of(tri, tet, s0):
    return _canon_beta(tri, tet, s0, _swap12(s0))


def _scalar_failures(acc, what):
    out = []
    # scalar matrix: zero off-diagonal, equal diagonal (complex entries)
    checks = [
        ("01.re", acc[0][1][0]),
        ("01.im", acc[0][1][1]),
        ("10.re", acc[1][0][0]),
        ("10.im", acc[1][0][1]),
        ("diag.re", acc[0][0][0] - acc[1][1][0]),
        ("diag.im", acc[0][0][1] - acc[1][1][1]),
    ]
    for name, x in checks:
        if not _contains_zero(x):
            out.append(f"{what}: deviation {name} excludes zero")
    return out
