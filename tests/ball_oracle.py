"""Test-only references for stage V's ball arithmetic.

The scalar float balls (`ScalarBall` and the `scalar_*` functions) are
`hypcert.gimbal`'s ball layer one 3x3 matrix at a time, with the same
rounding steps in the same order: the reference that the stacked
functions of `gimbal` (`_balls_of_bounds`, `rotation_balls`, `ball_mul`,
`ball_add`, `_norm_bound`) must match bit for bit, row by row.
`gimbal_matrix` multiplies them along a whole loop.

The rest are the same midpoint-radius balls with every product, sum and
bound formed in outward-rounded `Interval` arithmetic: a midpoint product
is the midpoint of the interval product of point matrices, and its error
is that interval's distance to the midpoint.  Slower, but it relies on
nothing beyond the interval kernel.  `sequential_jacobian` builds stage V's
Jacobian from them with sequential prefix and suffix chains along each
loop, so the tests compare the float ball layer's scan with it.
"""

import collections
import contextlib
import math
from math import inf, nextafter

import numpy as np

from hypcert import gimbal as gb
from hypcert.interval import FloatKernel, Interval, IntervalArray
from tests.gimbal_oracle import label_of, rotation_matrix, rotation_matrix_derivative
from tests.link_slots import letters_of
from tests.matrix_oracle import mat3_mul

# -- scalar float balls ---------------------------------------------------------


class ScalarBall:
    """{ mid + E : ||E||_2 <= rad }, entrywise |E_ij| <= rad as well.

    `mid` is a 3x3 tuple of floats.  The norm bound of the midpoint is
    computed at most once, when a product first needs it."""

    __slots__ = ("mid", "rad", "_norm")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad
        self._norm = None

    def norm_bound(self):
        """Rigorous upper bound for the spectral norm of the midpoint."""
        if self._norm is None:
            self._norm = scalar_norm_bound(self.mid)
        return self._norm


def scalar_product_with_error(a, b):
    """`gimbal._product_with_error` of two 3x3 float matrices: fl(a b),
    each entry x0 + x1 + x2 summed left to right, and its error bounds
    up(G s + 3 eta)."""
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
                gb._GAMMA3_UP * (abs(x0) + abs(x1) + abs(x2)) + gb._UNDERFLOW3, inf
            ))
        mid.append(tuple(mid_row))
        err.append(err_row)
    return tuple(mid), err


def scalar_max_row_sum(rows):
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


def scalar_spec_bound(radii):
    """sqrt(max row sum * max col sum) of a nonnegative 3x3 float matrix."""
    prod = nextafter(scalar_max_row_sum(radii) * scalar_max_row_sum(zip(*radii)), inf)
    return nextafter(math.sqrt(prod), inf)


def scalar_norm_bound(m):
    """sqrt(max row sum of |m^T m|) for a 3x3 float matrix m, with m^T m
    from `scalar_product_with_error` and each row interleaving |m^T m| and
    the error bounds."""
    gram, err = scalar_product_with_error(tuple(zip(*m)), m)
    rows = (
        (abs(g0), e0, abs(g1), e1, abs(g2), e2)
        for (g0, g1, g2), (e0, e1, e2) in zip(gram, err)
    )
    return nextafter(math.sqrt(scalar_max_row_sum(rows)), inf)


def _radius(rad):
    return rad if rad < inf else inf


def scalar_ball_of_bounds(lo, hi):
    """The ball of a 3x3 interval matrix given by its float endpoints,
    entry by entry: midpoint c = 0.5 (lo + hi), radius
    up(max(c - lo, hi - c)), and `scalar_spec_bound` of those."""
    mid = []
    radii = []
    for lo_row, hi_row in zip(lo, hi):
        mid_row = []
        rad_row = []
        for a, b in zip(lo_row, hi_row):
            c = 0.5 * (a + b)
            mid_row.append(c)
            rad_row.append(max(nextafter(c - a, inf), nextafter(b - c, inf)))
        mid.append(tuple(mid_row))
        radii.append(rad_row)
    return ScalarBall(tuple(mid), scalar_spec_bound(radii))


def scalar_ball_from_interval_mat3(m):
    """`scalar_ball_of_bounds` of an entrywise-interval 3x3 matrix, from its
    entries' outward float bounds."""
    return scalar_ball_of_bounds([[x.lo_float() for x in row] for row in m],
                                 [[x.hi_float() for x in row] for row in m])


def scalar_identity():
    return ScalarBall(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 0.0)


def scalar_ball_mul(a, b):
    mid, err = scalar_product_with_error(a.mid, b.mid)
    rad = nextafter(scalar_spec_bound(err) + nextafter(a.norm_bound() * b.rad, inf), inf)
    rad = nextafter(rad + nextafter(a.rad * b.norm_bound(), inf), inf)
    rad = nextafter(rad + nextafter(a.rad * b.rad, inf), inf)
    return ScalarBall(mid, _radius(rad))


def scalar_ball_add(a, b):
    mid = tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a.mid, b.mid)
    )
    radii = [[nextafter(gb._U * abs(s), inf) for s in row] for row in mid]
    rad = nextafter(nextafter(scalar_spec_bound(radii) + a.rad, inf) + b.rad, inf)
    return ScalarBall(mid, _radius(rad))


def scalar_entries(ball):
    """Entrywise 53-bit interval enclosure of a ball (the whole line where
    its radius is infinite)."""
    r = ball.rad
    if r == inf:
        return ((Interval(-inf, inf),) * 3,) * 3
    return tuple(tuple(Interval.point(c) + Interval(-r, r) for c in row) for row in ball.mid)


# A ball stack holds its balls along the last axis: midpoints (3, 3, k),
# C-contiguous, radii (k,) and norm bounds (k,).  `stacked` and `per_ball`
# convert between that layout and k matrices (k, 3, 3).


def stacked(ms):
    """3x3 matrices, anything numpy reads as (k, 3, 3), in the layout of a
    ball stack's midpoints: a C-contiguous (3, 3, k) float array."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(ms, dtype=float).reshape(-1, 3, 3), 0, -1))


def per_ball(x):
    """A (3, 3, k) array or `IntervalArray` of a ball stack as its k 3x3
    matrices, (k, 3, 3)."""
    if isinstance(x, IntervalArray):
        return IntervalArray(per_ball(x.lo), per_ball(x.hi))
    return np.moveaxis(x, -1, 0)


def stack(balls):
    """The scalar balls as a `gimbal` ball stack (mid, rad, norm)."""
    return (stacked([b.mid for b in balls]),
            np.array([b.rad for b in balls]), np.array([b.norm_bound() for b in balls]))


def each_row_alone(fn, *args):
    """fn of stacked arguments (arrays whose last axis runs over the balls,
    or ball stacks as tuples of them), after checking that each ball of its
    result is bit for bit fn of that ball's arguments alone, as stacks of
    one, and that the stacks fn takes and gives are C-contiguous."""
    def rows(x, r):
        if isinstance(x, tuple):
            return tuple(rows(y, r) for y in x)
        return np.ascontiguousarray(x[..., r:r + 1])

    def bits(x):
        return [bits(y) for y in x] if isinstance(x, tuple) else x.tobytes()

    def contiguous(x):
        return all(map(contiguous, x)) if isinstance(x, tuple) else x.flags.c_contiguous

    assert contiguous(args)
    out = fn(*args)
    assert contiguous(out)
    first = args[0]
    while isinstance(first, tuple):
        first = first[0]
    for r in range(first.shape[-1]):
        alone = fn(*(rows(x, r) for x in args))
        assert bits(rows(out, r)) == bits(alone), r
    return out


@contextlib.contextmanager
def trig_calls(monkeypatch):
    """While active, the number of `FloatKernel.cos` and `FloatKernel.sin`
    calls, of `Interval`s made and of scalar `Interval._cos_like` calls,
    under the keys "cos", "sin", "Interval" and "_cos_like"."""
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    with monkeypatch.context() as mp:
        for name in ("cos", "sin"):
            mp.setattr(FloatKernel, name, staticmethod(counted(name, getattr(FloatKernel, name))))
        for name in ("__init__", "_cos_like"):
            key = "Interval" if name == "__init__" else name
            mp.setattr(Interval, name, counted(key, getattr(Interval, name)))
        yield counts


def scalar_balls_of_bounds(lo, hi):
    """`gimbal._balls_of_bounds` one matrix at a time."""
    return stack([scalar_ball_of_bounds(a, b)
                  for a, b in zip(per_ball(lo).tolist(), per_ball(hi).tolist())])


def _rotation_pairs(boxes, enclose):
    """`enclose` of the `Interval` rotation and rotation-derivative
    matrices of each box."""
    one, zero = Interval.point(1.0), Interval.point(0.0)
    out = []
    for w in boxes:
        c, s = w.cos(), w.sin()
        out.append((enclose(rotation_matrix(c, s, one, zero)),
                    enclose(rotation_matrix_derivative(c, s, zero))))
    return out


def scalar_rotation_balls(boxes):
    """The scalar balls of each box's rotation and rotation derivative, as
    pairs; `gimbal.rotation_balls` stacks them."""
    return _rotation_pairs(boxes, scalar_ball_from_interval_mat3)


def gimbal_matrix(loop, labels, box_of_variable):
    """Product of the letter matrices, first-traversed letter rightmost.

    The labels are intervals; `box_of_variable[var]` is the angle box of
    variable var.  The product goes through the scalar float balls
    (entrywise interval products of long near-rotation words diverge); the
    result is an entrywise float-interval enclosure.
    """
    acc = scalar_identity()
    for letter in letters_of(loop):
        if letter["kind"] == "P":
            box = box_of_variable[loop.variable[letter["pid"]]]
            ball = scalar_rotation_balls([box])[0][0]
        else:
            ball = scalar_ball_from_interval_mat3(label_of(labels, letter))
        acc = scalar_ball_mul(ball, acc)
    return scalar_entries(acc)


def gimbal_function(loop, labels, box_of_variable):
    m = gimbal_matrix(loop, labels, box_of_variable)
    return (m[0][1], m[0][2], m[1][2])


# -- balls in Interval arithmetic -----------------------------------------------


class BallMatrix3:
    """{ mid + E : ||E||_2 <= rad }, with the midpoint as point intervals
    and its norm bound computed at most once."""

    __slots__ = ("mid", "rad", "_points", "_norm")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad
        self._points = None
        self._norm = None

    def points(self):
        if self._points is None:
            self._points = tuple(
                tuple(Interval.point(v) for v in row) for row in self.mid
            )
        return self._points

    def norm_bound(self):
        if self._norm is None:
            self._norm = norm_bound(self.points())
        return self._norm


def spec_bound(radii):
    """sqrt(max row sum * max col sum) of a nonnegative 3x3 float matrix."""
    rows = []
    cols = [None, None, None]
    for i in range(3):
        acc = Interval.point(radii[i][0]) + radii[i][1] + radii[i][2]
        rows.append(acc.hi)
        for j in range(3):
            c = Interval.point(radii[i][j])
            cols[j] = c if cols[j] is None else cols[j] + c
    r = max(rows)
    c = max(x.hi for x in cols)
    return (Interval.point(r) * Interval.point(c)).sqrt().hi


def norm_bound(m):
    """sqrt(max row sum of |m^T m|) for a 3x3 matrix of point intervals."""
    gram = mat3_mul(tuple(zip(*m)), m)
    worst = max((r[0].abs() + r[1].abs() + r[2].abs()).hi for r in gram)
    return Interval.point(worst).sqrt().hi


def ball_from_interval_mat3(m):
    mid = []
    radii = []
    for i in range(3):
        mid_row = []
        rad_row = []
        for j in range(3):
            iv = Interval(m[i][j].lo_float(), m[i][j].hi_float())
            c = iv.mid()
            mid_row.append(c)
            rad_row.append((iv - c).abs().hi)
        mid.append(tuple(mid_row))
        radii.append(rad_row)
    return BallMatrix3(tuple(mid), spec_bound(radii))


def ball_identity():
    return BallMatrix3(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), 0.0)


def ball_mul(a, b):
    prod = mat3_mul(a.points(), b.points())
    mid = tuple(tuple(prod[i][j].mid() for j in range(3)) for i in range(3))
    radii = [
        [(prod[i][j] - mid[i][j]).abs().hi for j in range(3)] for i in range(3)
    ]
    rad = (
        Interval.point(spec_bound(radii))
        + Interval.point(a.norm_bound()) * b.rad
        + Interval.point(a.rad) * b.norm_bound()
        + Interval.point(a.rad) * b.rad
    ).hi
    return BallMatrix3(mid, rad)


def ball_add(a, b):
    sums = [
        [Interval.point(a.mid[i][j]) + b.mid[i][j] for j in range(3)]
        for i in range(3)
    ]
    mid = tuple(tuple(s.mid() for s in row) for row in sums)
    radii = [
        [(sums[i][j] - mid[i][j]).abs().hi for j in range(3)] for i in range(3)
    ]
    rad = (Interval.point(spec_bound(radii)) + a.rad + b.rad).hi
    return BallMatrix3(mid, rad)


def sequential_derivatives(loop, labels, rotations):
    """d(gimbal matrix)/d(T_var) for every variable of the loop, as a dict
    of `BallMatrix3`s: at each polygon letter i, P R' S with
    S = M(w[i-1]) ... M(w[0]) and P = M(w[n-1]) ... M(w[i+1]), each chain
    multiplied one letter at a time; terms summed in word order.
    `rotations[var]` holds the balls of variable var's rotation and of its
    derivative."""
    word = letters_of(loop)
    n = len(word)
    mats = [
        rotations[loop.variable[letter["pid"]]][0] if letter["kind"] == "P"
        else ball_from_interval_mat3(label_of(labels, letter))
        for letter in word
    ]
    suffix = [ball_identity()]  # suffix[i] = M(w[i-1]) ... M(w[0])
    for m in mats:
        suffix.append(ball_mul(m, suffix[-1]))
    prefix = [ball_identity()]  # prefix[k] = M(w[n-1]) ... M(w[n-k])
    for m in reversed(mats):
        prefix.append(ball_mul(prefix[-1], m))
    acc = {}
    for i, letter in enumerate(word):
        if letter["kind"] != "P":
            continue
        var = loop.variable[letter["pid"]]
        term = ball_mul(prefix[n - 1 - i], ball_mul(rotations[var][1], suffix[i]))
        acc[var] = term if var not in acc else ball_add(acc[var], term)
    return acc


def sequential_jacobian(loops, labels, boxes):
    """Stage V's Jacobian from `sequential_derivatives` on the `Interval`
    balls: rows of `Interval`s, three per loop, one column per variable."""
    rotations = _rotation_pairs(boxes, ball_from_interval_mat3)
    zero = Interval.point(0.0)
    rows = []
    for loop in loops:
        derivs = sequential_derivatives(loop, labels, rotations)
        for r, c in ((0, 1), (0, 2), (1, 2)):
            row = []
            for v in range(len(boxes)):
                ball = derivs.get(v)
                if ball is None:
                    row.append(zero)
                elif ball.rad == inf:
                    row.append(Interval(-inf, inf))
                else:
                    row.append(Interval.point(ball.mid[r][c]) + Interval(-ball.rad, ball.rad))
            rows.append(row)
    return rows
