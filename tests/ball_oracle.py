"""Test-only reference for stage V's ball arithmetic.

The same midpoint-radius balls as `hypcert.gimbal`, with every product,
sum and bound formed in outward-rounded `Interval` arithmetic: a midpoint
product is the midpoint of the interval product of point matrices, and its
error is that interval's distance to the midpoint.  Slower, but it relies
on nothing beyond the interval kernel, so the tests compare the float ball
layer's enclosures with it.  `oracle_balls(monkeypatch)` swaps these
functions into `gimbal`, where `gimbal_matrix_derivatives` looks them up,
and makes the labels' balls with them.
"""

from hypcert import gimbal as gb
from hypcert.interval import Interval
from tests.matrix_oracle import mat3_mul


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


def oracle_balls(monkeypatch):
    """Make `gimbal` build its balls with this module's functions, the
    labels' balls included: each encloses the label matrix of its letter."""
    for name in ("ball_from_interval_mat3", "ball_identity", "ball_mul", "ball_add"):
        monkeypatch.setattr(gb, name, globals()[name])
    monkeypatch.setattr(
        gb.CocycleLabels, "ball_for_letter",
        lambda labels, letter: ball_from_interval_mat3(labels.for_letter(letter)),
    )
