"""Outward-rounded interval arithmetic.

Every operation returns an interval guaranteed to contain the exact real
result set of its inputs.  Two endpoint backends share one protocol:

* ``Interval`` -- IEEE754 double endpoints (precision 53).  Exact error
  terms (two-sum / Dekker two-product) detect when an endpoint is exact;
  otherwise the endpoint is nudged one ulp outward with ``math.nextafter``.
  Transcendental endpoints are evaluated with libm and widened by two ulps,
  which covers the documented worst-case libm error for the functions used
  here (cos, sin, cosh, acosh, acos are all correctly rounded to <= 2 ulp
  on mainstream libms; sqrt is exactly rounded).
* ``MPInterval`` -- arbitrary-precision endpoints via mpmath's directed
  rounding primitives.  ``+``, ``-``, ``*`` and ``/`` round each endpoint
  once, down or up, with no slack.  With finite endpoints a product or
  quotient takes its endpoint pairs from the sign-case table: one product
  rounded down, one rounded up, and the min of two and the max of two only
  when both factors straddle zero.  Rounding is monotone, so the rounded
  product of the extreme pair is the min (max) of all four rounded
  candidates: the same bits as the general hull, which intervals with an
  infinite endpoint still form.  The elementary functions are evaluated
  10 bits wider and stepped at least one ulp outward.

Both classes also give ``lo_float()`` / ``hi_float()``, float bounds
rounded outward, and ``sqrt_nonneg()``, the sqrt of a quantity that is
mathematically >= 0 (a rounding dip below zero clamped).

The kind of number is carried by a kernel, never read off a value:
``REAL_KERNEL`` for plain floats, ``FLOAT_KERNEL`` for 53-bit intervals and
an ``MPKernel`` above 53 bits (``kernel_for_precision`` gives the interval
kernel of a precision).  Kernels speak arrays only: no code outside this
module builds, reads or converts one interval.  ``kernel.points`` builds
the array of the points of floats; an interval kernel's ``from_bounds``
builds that of the intervals between endpoint arrays (floats, or mpf
values above 53 bits) and ``two_pi()`` the one-entry array around 2 pi.
Arrays have elementwise, broadcasting ``+``, ``-``, ``*`` and ``/``, numpy
indexing and item assignment.  ``kernel.inside`` (strictly), ``intersect``,
``meets``, ``contains`` (a float), ``width``, ``sqrt``, ``sqrt_nonneg``
and ``arccos`` are the scalar methods entrywise, ``contains_two_pi`` the
test against 2 pi; ``kernel.bounds`` gives outward float endpoints,
``kernel.exact_bounds`` the endpoints themselves, ``kernel.float_hull``
the outward 53-bit hull as an ``IntervalArray`` and ``kernel.equal_ids``
the first entry exactly equal to each.  The float kernel's array,
``IntervalArray``, holds numpy endpoint arrays whose elementwise
arithmetic is bit for bit the ``Interval`` dunders and methods; its hull
is the identity, and its ``cos`` and ``sin`` are array code too: libm
per entry, and every critical point k pi (or pi/2 + k pi) of the scalar
loop tried for all entries at once.  Its products and quotients round once per
result entry: the scalar dunder's lower end is min_k down(q_k) over the
rounded candidates q_k, where down(q_k) is q_k or prev(q_k), the next
float below.  A candidate q_k > q_min has down(q_k) >= prev(q_k) >= q_min,
so the minimum is prev(q_min) exactly when some candidate equal to q_min
steps down (its error term is unknown, or says q_k lies above the exact
value), and q_min otherwise; the upper end likewise.  So the array
reduces the candidates first and steps the result, never the stack.
``kernel.add_columns`` sums the columns of a 2-D 53-bit array into a
vector left to right, as the Krawczyk operator does, and
``kernel.sub_products`` subtracts the products of a float matrix with a
vector the same way; the MP kernel forms both on integer arrays, exactly,
and rounds each result endpoint once, which is bit for bit the chain of
``MPInterval`` sums of the terms lifted exactly.  ``IntervalArray`` is the
one interval matrix type, and ``FloatKernel.mat_mul`` its one product:
midpoint-radius on BLAS, with an error bound that holds for any summation
order, blocking, thread count and use of FMA.  Its endpoints enclose the exact product, but they are
not the scalar loop's.  Stage II's and stage V's Jacobians are such
arrays, and ``inverse_residual`` and ``interval_matrix_invertible`` take
one.  The MP kernel's array is a numpy object array of ``MPInterval``; it
has no product, since every matrix product runs on the 53-bit hull.  The
real kernel's array is a numpy float64 array, so ``geometry`` and stage
V's labels run one code path for all three kinds.  Stage V's 3x3 ball
products (``gimbal``) do not use this layer: they run on plain floats with
a-priori rounding-error bounds.

No global floating-point state is touched; rounding is done value-by-value,
so intervals are safe to share across threads.
"""

from __future__ import annotations

import math
from math import inf, isfinite, isnan, nextafter
from operator import attrgetter, methodcaller

import numpy as np
from mpmath import libmp

__all__ = [
    "Interval",
    "MPInterval",
    "IntervalError",
    "DomainError",
    "FloatKernel",
    "MPKernel",
    "RealKernel",
    "FLOAT_KERNEL",
    "REAL_KERNEL",
    "kernel_for_precision",
    "MAX_PRECISION",
    "IntervalArray",
    "inverse_residual",
    "interval_matrix_invertible",
    "PI",
    "TWO_PI",
]

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker splitting constant


class IntervalError(ValueError):
    """Malformed interval (reversed or NaN endpoints, shape mismatch)."""


class DomainError(IntervalError):
    """Operation evaluated outside its real domain (div by 0-straddling
    interval, sqrt of negatives, arccos outside [-1,1], ...)."""


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


_TWO_PROD_TINY = 2.0 ** -960  # below this the Dekker error term may round


def _two_prod(a, b):
    p = a * b
    if not isfinite(p) or abs(p) < _TWO_PROD_TINY:
        # overflowed splitting or (sub)normal underflow: the error term
        # cannot be trusted, report it unknown
        return p, math.nan
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _down(s, err):
    # err is the exact residual (true - rounded); err = NaN means unknown.
    if isnan(err):
        return -inf if s == -inf else nextafter(s, -inf)
    if err >= 0.0:
        return s
    return nextafter(s, -inf)


def _up(s, err):
    if isnan(err):
        return inf if s == inf else nextafter(s, inf)
    if err <= 0.0:
        return s
    return nextafter(s, inf)


def _lib_down(v, ulps=2):
    for _ in range(ulps):
        v = nextafter(v, -inf)
    return v


def _lib_up(v, ulps=2):
    for _ in range(ulps):
        v = nextafter(v, inf)
    return v


class Interval:
    """Closed real interval with double-precision endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = float(lo)
        hi = float(hi)
        if isnan(lo) or isnan(hi):
            raise IntervalError("NaN endpoint")
        if lo > hi:
            raise IntervalError(f"reversed endpoints [{lo!r}, {hi!r}]")
        # normalize -0.0 so serialization is deterministic
        self.lo = lo + 0.0
        self.hi = hi + 0.0

    # -- construction -------------------------------------------------

    @classmethod
    def point(cls, x):
        return cls(x, x)

    @staticmethod
    def _coerce(x):
        if isinstance(x, Interval):
            return x
        if isinstance(x, (int, float)):
            return Interval(x, x)
        return NotImplemented

    # -- queries ------------------------------------------------------

    def mid(self):
        if self.lo == self.hi:
            return self.lo
        m = 0.5 * (self.lo + self.hi)
        if isfinite(m):
            return m
        return 0.5 * self.lo + 0.5 * self.hi

    def width(self):
        s, e = _two_sum(self.hi, -self.lo)
        return _up(s, e)

    def lo_float(self):
        return self.lo

    def hi_float(self):
        return self.hi

    def mag(self):
        return max(abs(self.lo), abs(self.hi))

    def is_finite(self):
        return isfinite(self.lo) and isfinite(self.hi)

    def contains(self, x):
        return self.lo <= x <= self.hi

    def encloses(self, other):
        return self.lo <= other.lo and other.hi <= self.hi

    def strictly_inside(self, other):
        """self contained in the interior of other."""
        return other.lo < self.lo and self.hi < other.hi

    def intersects(self, other):
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other):
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise IntervalError("empty intersection")
        return Interval(lo, hi)

    def __repr__(self):
        return f"[{self.lo!r}, {self.hi!r}]"

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self):
        return hash((self.lo, self.hi))

    # -- arithmetic ---------------------------------------------------

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        slo, elo = _two_sum(self.lo, other.lo)
        shi, ehi = _two_sum(self.hi, other.hi)
        return Interval(_down(slo, elo), _up(shi, ehi))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        lo = inf
        hi = -inf
        for x in (self.lo, self.hi):
            for y in (other.lo, other.hi):
                if x == 0.0 or y == 0.0:
                    p, e = 0.0, 0.0
                else:
                    p, e = _two_prod(x, y)
                d = _down(p, e)
                u = _up(p, e)
                if d < lo:
                    lo = d
                if u > hi:
                    hi = u
        return self._sign_clamped(lo, hi, other)

    __rmul__ = __mul__

    def _sign_clamped(self, lo, hi, other):
        """[lo, hi] with the sign of a product or quotient of self and
        other restored: an endpoint nudged outward past zero after an
        underflow would make a surely positive result not surely positive
        (and break inclusion isotonicity)."""
        a, b = self, other
        if lo < 0.0 and ((a.lo >= 0.0 and b.lo >= 0.0) or (a.hi <= 0.0 and b.hi <= 0.0)):
            lo = 0.0
        elif hi > 0.0 and ((a.lo >= 0.0 and b.hi <= 0.0) or (a.hi <= 0.0 and b.lo >= 0.0)):
            hi = 0.0
        return Interval(lo, hi)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.lo <= 0.0 <= other.hi:
            raise DomainError("division by interval containing zero")
        lo = inf
        hi = -inf
        for x in (self.lo, self.hi):
            for y in (other.lo, other.hi):
                q = x / y
                if not isfinite(q):
                    d, u = _down(q, math.nan), _up(q, math.nan)
                else:
                    p, e = _two_prod(q, y)
                    # compare q*y against x to learn the rounding direction;
                    # an overflowed splitting gives no information
                    if isnan(e) or not isfinite(p):
                        d, u = nextafter(q, -inf), nextafter(q, inf)
                    elif p == x and e == 0.0:
                        d = u = q
                    else:
                        qy_gt_x = p > x or (p == x and e > 0.0)
                        if qy_gt_x == (y > 0.0):
                            d, u = nextafter(q, -inf), q
                        else:
                            d, u = q, nextafter(q, inf)
                if d < lo:
                    lo = d
                if u > hi:
                    hi = u
        return self._sign_clamped(lo, hi, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def abs(self):
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    # -- elementary functions ------------------------------------------

    def sqrt(self):
        if self.lo < 0.0:
            raise DomainError(f"sqrt of interval with negative part {self!r}")

        def point_sqrt(x):
            s = math.sqrt(x)
            p, e = _two_prod(s, s)
            if p == x and e == 0.0:
                return s, s
            # sqrt is exactly rounded: one ulp out on each side is sound
            return nextafter(s, -inf), nextafter(s, inf)

        lo, _ = point_sqrt(self.lo)
        _, hi = point_sqrt(self.hi)
        return Interval(max(lo, 0.0), hi)

    def sqrt_nonneg(self):
        if self.hi < 0.0:
            raise DomainError("sqrt_nonneg of an entirely negative enclosure")
        if self.lo < 0.0:
            return Interval(0.0, self.hi).sqrt()
        return self.sqrt()

    def cosh(self):
        def up_at(x):
            return _lib_up(math.cosh(x)) if x != 0.0 else 1.0

        def down_at(x):
            return _lib_down(math.cosh(x)) if x != 0.0 else 1.0

        if self.lo <= 0.0 <= self.hi:
            lo = 1.0
        else:
            lo = down_at(self.lo if self.lo > 0.0 else self.hi)
        hi = max(up_at(self.lo), up_at(self.hi))
        return Interval(max(lo, 1.0), hi)

    def acosh(self):
        if self.lo < 1.0:
            raise DomainError(f"acosh needs [1, inf) argument, got {self!r}")

        def at(x, up):
            if x == 1.0:
                return 0.0
            v = math.acosh(x)
            return _lib_up(v) if up else _lib_down(v)

        return Interval(max(at(self.lo, False), 0.0), at(self.hi, True))

    def arccos(self):
        if self.lo < -1.0 or self.hi > 1.0:
            raise DomainError(f"arccos needs argument inside [-1,1], got {self!r}")

        def at(x, up):
            if x == 1.0:
                return 0.0
            if x == -1.0:
                return PI.hi if up else PI.lo
            v = math.acos(x)
            return _lib_up(v) if up else _lib_down(v)

        # arccos is decreasing
        return Interval(max(at(self.hi, False), 0.0), min(at(self.lo, True), PI.hi))

    def _cos_like(self, fn):
        if not self.is_finite():
            return Interval(-1.0, 1.0)
        if self.width() >= TWO_PI.hi:
            return Interval(-1.0, 1.0)

        def at(x, up):
            if x == 0.0:
                v = fn(0.0)  # exact: cos(0)=1, sin(0)=0
                return v
            v = fn(x)
            v = _lib_up(v) if up else _lib_down(v)
            if fn is math.sin and abs(x) < 3.0 and (v < 0.0) != (x < 0.0):
                # sin has the sign of x on (-pi, pi): widening a subnormal
                # sin(x) past zero would make sin([5e-324, 1]) reach below
                # sin([0, 1]) = [0, ...] and break inclusion isotonicity
                v = 0.0
            return v

        lo = min(at(self.lo, False), at(self.hi, False))
        hi = max(at(self.lo, True), at(self.hi, True))
        # conservatively include +-1 for every critical point that might
        # lie inside the argument interval
        k0 = math.floor(self.lo / math.pi) - 1
        k1 = math.ceil(self.hi / math.pi) + 1
        for k in range(k0, k1 + 1):
            if (PI * k + (0.0 if fn is math.cos else _PI_HALF_IV)).intersects(self):
                # cos peaks at 2j pi, sin at pi/2 + 2j pi: both at even k
                if k % 2 == 0:
                    hi = 1.0
                else:
                    lo = -1.0
        return Interval(max(lo, -1.0), min(hi, 1.0))

    def cos(self):
        return self._cos_like(math.cos)

    def sin(self):
        return self._cos_like(math.sin)


PI = Interval(math.pi, nextafter(math.pi, inf))
TWO_PI = Interval(2.0 * math.pi, nextafter(2.0 * math.pi, inf))
_PI_HALF_IV = Interval(0.5 * math.pi, nextafter(0.5 * math.pi, inf))


# ---------------------------------------------------------------------------
# arbitrary-precision backend
# ---------------------------------------------------------------------------

_RF = libmp.round_floor
_RC = libmp.round_ceiling


def _sign_class(x):
    """0 if the finite endpoint pair x is >= 0, 1 if <= 0, 2 if it
    straddles zero.  An mpf is (sign, man, exp, bc); zero has sign 0, and
    only inf and NaN have bc < 0."""
    if not x[0][0]:
        return 0
    if x[1][0] or not x[1][1]:
        return 1
    return 2


# Endpoint indices (i, j, k, m) of the extreme exact products: the lower is
# x[i] * y[j], the upper x[k] * y[m].  Indexed by 3 * class(x) + class(y);
# when both straddle zero the lower is x[0] y[1] or x[1] y[0], the upper
# x[0] y[0] or x[1] y[1].
_MUL_PAIRS = (
    (0, 0, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1),
    (0, 1, 1, 0), (1, 1, 0, 0), (0, 1, 0, 0),
    (0, 1, 1, 1), (1, 0, 0, 0),
)
# The same for x[i] / y[j]; indexed by 2 * class(x) + (1 if y < 0 else 0).
_DIV_PAIRS = (
    (0, 1, 1, 0), (1, 1, 0, 0),
    (0, 0, 1, 1), (1, 0, 0, 1),
    (0, 0, 1, 0), (1, 1, 0, 1),
)


def _hull4(op, x, y, prec):
    """Outward hull of op over the four endpoint pairs; the general case,
    for endpoints that may be infinite."""
    lo = hi = None
    for u in x:
        for v in y:
            d = op(u, v, prec, _RF)
            e = op(u, v, prec, _RC)
            if lo is None or libmp.mpf_lt(d, lo):
                lo = d
            if hi is None or libmp.mpf_gt(e, hi):
                hi = e
    return lo, hi


_NEW = object.__new__


def _ordered(lo, hi, prec):
    """An MPInterval whose endpoints directed rounding has already ordered."""
    r = _NEW(MPInterval)
    r.lo, r.hi, r.prec = lo, hi, prec
    return r


def _mp_step(x, prec, up):
    """Move x outward by at least one ulp at the working precision."""
    sign, man, exp, bc = x
    if man == 0:
        u = libmp.mpf_shift(libmp.fone, -2 * prec)
    else:
        u = libmp.mpf_shift(libmp.fone, exp + bc - prec - 1)
    if up:
        return libmp.mpf_add(x, u, prec, _RC)
    return libmp.mpf_sub(x, u, prec, _RF)


class MPInterval:
    """Interval with mpmath endpoints at a configurable precision."""

    __slots__ = ("lo", "hi", "prec")

    def __init__(self, lo, hi, prec):
        self.lo = lo
        self.hi = hi
        self.prec = prec
        if libmp.mpf_gt(lo, hi):
            raise IntervalError("reversed endpoints")

    @classmethod
    def from_floats(cls, lo, hi, prec):
        if isnan(lo) or isnan(hi):
            raise IntervalError("NaN endpoint")
        return cls(libmp.from_float(lo), libmp.from_float(hi), prec)

    @classmethod
    def point(cls, x, prec):
        return cls.from_floats(float(x), float(x), prec)

    def _coerce(self, x):
        if isinstance(x, MPInterval):
            return x
        if isinstance(x, (int, float)):
            return MPInterval.point(x, self.prec)
        return NotImplemented

    def lo_float(self):
        # to_float rounds to 53 bits in the given direction, then calls
        # math.ldexp, exact for a normal float: a nonzero mpf (sign, man, exp,
        # bc) lies in [2^(e-1), 2^e), e = exp + bc, and rounds into
        # [2^(e-1), 2^e], normal for -1021 <= e <= 1023 (a special value, man
        # 0, converts exactly).  Near underflow ldexp may round a (sub)normal
        # the wrong way, and beyond the float range to_float gives inf: check
        x = self.lo
        f = libmp.to_float(x, rnd=_RF)
        if -1021 <= x[2] + x[3] <= 1023:
            return f
        if libmp.mpf_gt(libmp.from_float(f), x):
            f = nextafter(f, -inf)
        return f

    def hi_float(self):
        x = self.hi
        f = libmp.to_float(x, rnd=_RC)
        if -1021 <= x[2] + x[3] <= 1023:
            return f
        if libmp.mpf_lt(libmp.from_float(f), x):
            f = nextafter(f, inf)
        return f

    def mid(self):
        m = libmp.mpf_shift(libmp.mpf_add(self.lo, self.hi, self.prec + 8, "n"), -1)
        return libmp.to_float(m, rnd="n")

    def width(self):
        return libmp.to_float(libmp.mpf_sub(self.hi, self.lo, 53, _RC), rnd=_RC)

    def contains(self, x):
        x = libmp.from_float(float(x))
        return not libmp.mpf_gt(self.lo, x) and not libmp.mpf_gt(x, self.hi)

    def encloses(self, other):
        return not libmp.mpf_gt(self.lo, other.lo) and not libmp.mpf_gt(
            other.hi, self.hi
        )

    def strictly_inside(self, other):
        return libmp.mpf_lt(other.lo, self.lo) and libmp.mpf_lt(self.hi, other.hi)

    def intersects(self, other):
        return not libmp.mpf_gt(self.lo, other.hi) and not libmp.mpf_gt(
            other.lo, self.hi
        )

    def intersect(self, other):
        lo = self.lo if libmp.mpf_gt(self.lo, other.lo) else other.lo
        hi = self.hi if libmp.mpf_lt(self.hi, other.hi) else other.hi
        return MPInterval(lo, hi, self.prec)

    def __repr__(self):
        return f"[{self.lo_float()!r}, {self.hi_float()!r}]~{self.prec}b"

    def __neg__(self):
        return _ordered(libmp.mpf_neg(self.hi), libmp.mpf_neg(self.lo), self.prec)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = self.prec
        return _ordered(
            libmp.mpf_add(self.lo, other.lo, prec, _RF),
            libmp.mpf_add(self.hi, other.hi, prec, _RC),
            prec,
        )

    __radd__ = __add__

    def __sub__(self, other):
        # [lo - other.hi, hi - other.lo]: a + (-b) bit for bit, as negation is exact
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prec = self.prec
        return _ordered(
            libmp.mpf_sub(self.lo, other.hi, prec, _RF),
            libmp.mpf_sub(self.hi, other.lo, prec, _RC),
            prec,
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y, prec = (self.lo, self.hi), (other.lo, other.hi), self.prec
        if (x[0][3] | x[1][3] | y[0][3] | y[1][3]) < 0:  # some bc < 0: inf or NaN
            return MPInterval(*_hull4(libmp.mpf_mul, x, y, prec), prec)
        case = 3 * _sign_class(x) + _sign_class(y)
        if case == 8:  # both straddle zero
            a = libmp.mpf_mul(x[0], y[1], prec, _RF)
            b = libmp.mpf_mul(x[1], y[0], prec, _RF)
            c = libmp.mpf_mul(x[0], y[0], prec, _RC)
            d = libmp.mpf_mul(x[1], y[1], prec, _RC)
            return _ordered(a if libmp.mpf_lt(a, b) else b,
                            c if libmp.mpf_gt(c, d) else d, prec)
        i, j, k, m = _MUL_PAIRS[case]
        return _ordered(libmp.mpf_mul(x[i], y[j], prec, _RF),
                        libmp.mpf_mul(x[k], y[m], prec, _RC), prec)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        z = libmp.fzero
        if not libmp.mpf_gt(other.lo, z) and not libmp.mpf_gt(z, other.hi):
            raise DomainError("division by interval containing zero")
        x, y, prec = (self.lo, self.hi), (other.lo, other.hi), self.prec
        if (x[0][3] | x[1][3] | y[0][3] | y[1][3]) < 0:  # some bc < 0: inf or NaN
            return MPInterval(*_hull4(libmp.mpf_div, x, y, prec), prec)
        # y lies on one side of zero: its sign is the sign bit of y.lo
        i, j, k, m = _DIV_PAIRS[2 * _sign_class(x) + y[0][0]]
        return _ordered(libmp.mpf_div(x[i], y[j], prec, _RF),
                        libmp.mpf_div(x[k], y[m], prec, _RC), prec)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def abs(self):
        z = libmp.fzero
        if not libmp.mpf_lt(self.lo, z):
            return self
        if not libmp.mpf_gt(self.hi, z):
            return -self
        neg_lo = libmp.mpf_neg(self.lo)
        hi = neg_lo if libmp.mpf_gt(neg_lo, self.hi) else self.hi
        return MPInterval(z, hi, self.prec)

    def _fn_at(self, fn, x, up):
        v = fn(x, self.prec + 10, _RC if up else _RF)
        return _mp_step(v, self.prec, up)

    def sqrt(self):
        if libmp.mpf_lt(self.lo, libmp.fzero):
            raise DomainError("sqrt of interval with negative part")
        lo = self._fn_at(libmp.mpf_sqrt, self.lo, False)
        hi = self._fn_at(libmp.mpf_sqrt, self.hi, True)
        if libmp.mpf_lt(lo, libmp.fzero):
            lo = libmp.fzero
        return MPInterval(lo, hi, self.prec)

    def sqrt_nonneg(self):
        if libmp.mpf_lt(self.hi, libmp.fzero):
            raise DomainError("sqrt_nonneg of an entirely negative enclosure")
        if libmp.mpf_lt(self.lo, libmp.fzero):
            return MPInterval(libmp.fzero, self.hi, self.prec).sqrt()
        return self.sqrt()

    def cosh(self):
        z = libmp.fzero
        hi_cands = [
            self._fn_at(libmp.mpf_cosh, self.lo, True),
            self._fn_at(libmp.mpf_cosh, self.hi, True),
        ]
        hi = hi_cands[0] if libmp.mpf_gt(hi_cands[0], hi_cands[1]) else hi_cands[1]
        if not libmp.mpf_gt(self.lo, z) and not libmp.mpf_gt(z, self.hi):
            lo = libmp.fone
        else:
            arg = self.lo if libmp.mpf_gt(self.lo, z) else self.hi
            lo = self._fn_at(libmp.mpf_cosh, arg, False)
            if libmp.mpf_lt(lo, libmp.fone):
                lo = libmp.fone
        return MPInterval(lo, hi, self.prec)

    def acosh(self):
        if libmp.mpf_lt(self.lo, libmp.fone):
            raise DomainError("acosh needs [1, inf) argument")
        lo = (
            libmp.fzero
            if self.lo == libmp.fone
            else self._fn_at(libmp.mpf_acosh, self.lo, False)
        )
        hi = (
            libmp.fzero
            if self.hi == libmp.fone
            else self._fn_at(libmp.mpf_acosh, self.hi, True)
        )
        if libmp.mpf_lt(lo, libmp.fzero):
            lo = libmp.fzero
        return MPInterval(lo, hi, self.prec)

    def arccos(self):
        one = libmp.fone
        none_ = libmp.mpf_neg(one)
        if libmp.mpf_lt(self.lo, none_) or libmp.mpf_gt(self.hi, one):
            raise DomainError("arccos needs argument inside [-1,1]")

        def at(x, up):
            if x == one:
                return libmp.fzero
            if x == none_:
                return libmp.mpf_pi(self.prec, _RC if up else _RF)
            return self._fn_at(libmp.mpf_acos, x, up)

        lo = at(self.hi, False)
        hi = at(self.lo, True)
        if libmp.mpf_lt(lo, libmp.fzero):
            lo = libmp.fzero
        return MPInterval(lo, hi, self.prec)

    def _trig(self, fn, crit_is_cos):
        pi_lo = libmp.mpf_pi(self.prec + 10, _RF)
        lo_f, hi_f = self.lo_float(), self.hi_float()
        if not (isfinite(lo_f) and isfinite(hi_f)) or hi_f - lo_f >= 6.29:
            return MPInterval(libmp.mpf_neg(libmp.fone), libmp.fone, self.prec)
        cands_lo = [self._fn_at(fn, self.lo, False), self._fn_at(fn, self.hi, False)]
        cands_hi = [self._fn_at(fn, self.lo, True), self._fn_at(fn, self.hi, True)]
        lo = cands_lo[0] if libmp.mpf_lt(cands_lo[0], cands_lo[1]) else cands_lo[1]
        hi = cands_hi[0] if libmp.mpf_gt(cands_hi[0], cands_hi[1]) else cands_hi[1]
        pi_f = math.pi
        k0 = math.floor(lo_f / pi_f) - 1
        k1 = math.ceil(hi_f / pi_f) + 1
        for k in range(k0, k1 + 1):
            # critical point: k*pi for cos, pi/2 + k*pi for sin
            shift = 2 * k if crit_is_cos else 2 * k + 1
            c_lo = libmp.mpf_shift(libmp.mpf_mul_int(pi_lo, shift, self.prec + 10, _RF), -1)
            c_hi = _mp_step(c_lo, self.prec, True)
            c_lo = _mp_step(c_lo, self.prec, False)
            if not libmp.mpf_gt(c_lo, self.hi) and not libmp.mpf_gt(self.lo, c_hi):
                if k % 2 == 0:
                    hi = libmp.fone
                else:
                    lo = libmp.mpf_neg(libmp.fone)
        one = libmp.fone
        mone = libmp.mpf_neg(one)
        if libmp.mpf_lt(lo, mone):
            lo = mone
        if libmp.mpf_gt(hi, one):
            hi = one
        return MPInterval(lo, hi, self.prec)

    def cos(self):
        return self._trig(libmp.mpf_cos, True)

    def sin(self):
        return self._trig(libmp.mpf_sin, False)


# ---------------------------------------------------------------------------
# arrays of float intervals
# ---------------------------------------------------------------------------


def _down_array(s, err):
    # _down entrywise on a fresh sum s, stepped in place where err >= 0 is
    # false, as it is for a NaN (unknown) err; nextafter(-inf, -inf) is -inf,
    # as _down returns.  A sum of 0-d operands is a numpy scalar: made an array
    s = np.asarray(s)
    return np.nextafter(s, -inf, out=s, where=~(err >= 0.0))


def _up_array(s, err):
    s = np.asarray(s)
    return np.nextafter(s, inf, out=s, where=~(err <= 0.0))


def _two_prod_array(a, b):
    """_two_prod entrywise, the same operations in the same order: the
    product p, its error term and where that term is known.  Where it is
    not (p not finite or below _TWO_PROD_TINY) the term is meaningless."""
    p = a * b
    # the split of a: ah = t - (t - a), t = _SPLITTER * a, with t dropped
    # as soon as it is used, for memory
    ah = _SPLITTER * a
    ah = ah - (ah - a)
    al = a - ah
    bh = _SPLITTER * b
    bh = bh - (bh - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    ap = np.abs(p)
    return p, err, (ap >= _TWO_PROD_TINY) & (ap < inf)


def _outward_extremes(p, keep_lo, keep_hi):
    """min_k down(p_k) and max_k up(p_k) over the first two axes of the
    rounded candidates p, where down (up) steps p_k one ulp toward -inf
    (+inf) unless keep_lo (keep_hi) holds: each result entry is stepped at
    most once.  A candidate p_k > p_min has down(p_k) >= prev(p_k) >= p_min,
    so the minimum is prev(p_min) where some candidate equal to p_min steps
    and p_min elsewhere; the maximum likewise.  NaN candidates are skipped;
    an entry of NaNs only is NaN."""
    lo = np.fmin.reduce(p, axis=(0, 1))
    hi = np.fmax.reduce(p, axis=(0, 1))
    step_lo = ((p == lo) & ~keep_lo).any(axis=(0, 1))
    step_hi = ((p == hi) & ~keep_hi).any(axis=(0, 1))
    return (np.where(step_lo, np.nextafter(lo, -inf), lo),
            np.where(step_hi, np.nextafter(hi, inf), hi))


def _checked(lo, hi):
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise IntervalError("NaN endpoint")
    return IntervalArray(lo, hi)


def _first(mask, lo, hi):
    """The first entry in C order where mask holds, printed as ``Interval``
    prints it."""
    i = np.unravel_index(np.argmax(mask), mask.shape)
    return f"[{float(lo[i])!r}, {float(hi[i])!r}]"


def _ordered_bounds(lo, hi):
    """IntervalArray(lo, hi), raising as ``Interval(lo, hi)`` does on a NaN
    or reversed entry."""
    reversed_ = lo > hi
    if reversed_.any():
        raise IntervalError(f"reversed endpoints {_first(reversed_, lo, hi)}")
    return _checked(lo, hi)


class IntervalArray:
    """An array of float intervals held as two numpy endpoint arrays.

    ``+``, ``-``, ``*`` and ``/`` broadcast like numpy (a plain number as
    the right operand, or either operand of ``/``, is a point), and every
    entry of the result is bit for bit the ``Interval`` that the scalar
    dunder would give: exact zero products, Dekker products and two-sums
    nudged one ulp outward when inexact or unknown, the quotient's rounding
    direction read off ``q * y`` against ``x``, the sign clamp, and -0.0
    made 0.0.  ``*`` and ``/`` take the least and the greatest of their
    candidate products (quotients) first and step each result endpoint at
    most once, where some candidate equal to it needs the step; the module
    docstring proves that this is the scalar minimum (maximum) over every
    candidate rounded.  ``sqrt``, ``sqrt_nonneg``, ``arccos``, ``cos`` and
    ``sin`` repeat the ``Interval`` methods the same way, with libm per
    element.  A
    NaN endpoint raises IntervalError; a domain violation raises the
    DomainError of the first offending entry in C order.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo + 0.0
        self.hi = hi + 0.0

    def copy(self):
        return IntervalArray(self.lo.copy(), self.hi.copy())

    @property
    def shape(self):
        return self.lo.shape

    @property
    def nrows(self):
        return self.lo.shape[0]

    def __len__(self):
        return len(self.lo)

    def __iter__(self):
        """Like a numpy array's: the entries (0-d arrays) or the rows in
        order; a 0-d array is not iterable."""
        return map(IntervalArray, self.lo, self.hi)

    def width(self):
        """``Interval.width`` entrywise: hi - lo rounded up."""
        with np.errstate(all="ignore"):
            return _up_array(*_two_sum(self.hi, -self.lo))

    def __getitem__(self, idx):
        # the endpoints are normalised already, so a gather is kept as it is;
        # a basic-index view is copied, so no result aliases its parent
        out = object.__new__(IntervalArray)
        out.lo, out.hi = self.lo[idx], self.hi[idx]
        if np.may_share_memory(out.lo, self.lo):
            out.lo, out.hi = out.lo.copy(), out.hi.copy()
        return out

    def __setitem__(self, idx, value):
        self.lo[idx] = value.lo
        self.hi[idx] = value.hi

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_array(other)
        return _outward_sum(self.lo, self.hi, other.lo, other.hi)

    def __sub__(self, other):
        # self + (-other), without forming -other
        other = _as_array(other)
        return _outward_sum(self.lo, self.hi, -other.hi, -other.lo)

    def __mul__(self, other):
        other = _as_array(other)
        alo, ahi, blo, bhi = np.broadcast_arrays(self.lo, self.hi, other.lo, other.hi)
        # the endpoint products over two new first axes, the endpoints of
        # self and of other, so that each endpoint is split once; of an array
        # of points (lo == hi throughout) one endpoint gives them all
        xs = (alo,) if np.array_equal(self.lo, self.hi) else (alo, ahi)
        ys = (blo,) if np.array_equal(other.lo, other.hi) else (blo, bhi)
        x, y = np.stack(xs)[:, None], np.stack(ys)[None]
        with np.errstate(all="ignore"):
            p, err, known = _two_prod_array(x, y)
            # the zero rule: a zero factor gives the exact product 0
            zero = (x == 0.0) | (y == 0.0)
            np.copyto(p, 0.0, where=zero)
            lo, hi = _outward_extremes(p, zero | (known & (err >= 0.0)),
                                       zero | (known & (err <= 0.0)))
        return _checked(*_sign_clamped_array(lo, hi, alo, ahi, blo, bhi))

    def __truediv__(self, other):
        other = _as_array(other)
        straddles = (other.lo <= 0.0) & (0.0 <= other.hi)
        if straddles.any():
            raise DomainError("division by interval containing zero")
        alo, ahi, blo, bhi = np.broadcast_arrays(self.lo, self.hi, other.lo, other.hi)
        x, y = np.stack([alo, ahi])[:, None], np.stack([blo, bhi])[None]
        with np.errstate(all="ignore"):
            q = x / y
            p, err, known = _two_prod_array(q, y)
            # q * y against x tells on which side of x / y the rounded q
            # lies; an unknown error term (or a non-finite q) steps both ways
            unknown = ~known | np.isnan(err)
            inexact = ~((p == x) & (err == 0.0))
            above = ((p > x) | ((p == x) & (err > 0.0))) == (y > 0.0)
            lo, hi = _outward_extremes(q, ~(unknown | (inexact & above)),
                                       ~(unknown | (inexact & ~above)))
        # a NaN candidate (inf / inf) is skipped, as the scalar min/max does
        lo = np.where(np.isnan(lo), inf, lo)
        hi = np.where(np.isnan(hi), -inf, hi)
        return _ordered_bounds(*_sign_clamped_array(lo, hi, alo, ahi, blo, bhi))

    def __rtruediv__(self, other):
        return _as_array(other) / self

    def sqrt(self):
        negative = self.lo < 0.0
        if negative.any():
            raise DomainError("sqrt of interval with negative part "
                              + _first(negative, self.lo, self.hi))

        def exact(s, x):
            p, err, known = _two_prod_array(s, s)
            return (p == x) & (err == 0.0) & known

        with np.errstate(all="ignore"):
            s_lo, s_hi = np.sqrt(self.lo), np.sqrt(self.hi)
            # sqrt is exactly rounded: one ulp out is sound unless s*s == x
            lo = np.where(exact(s_lo, self.lo), s_lo, np.nextafter(s_lo, -inf))
            hi = np.where(exact(s_hi, self.hi), s_hi, np.nextafter(s_hi, inf))
        return _checked(np.maximum(lo, 0.0), hi)

    def sqrt_nonneg(self):
        if (self.hi < 0.0).any():
            raise DomainError("sqrt_nonneg of an entirely negative enclosure")
        return IntervalArray(np.maximum(self.lo, 0.0), self.hi).sqrt()

    def arccos(self):
        outside = (self.lo < -1.0) | (self.hi > 1.0)
        if outside.any():
            raise DomainError("arccos needs argument inside [-1,1], got "
                              + _first(outside, self.lo, self.hi))

        def at(x, up):
            v, out = _libm(math.acos, x), inf if up else -inf
            v = np.nextafter(np.nextafter(v, out), out)
            v = np.where(x == -1.0, PI.hi if up else PI.lo, v)
            return np.where(x == 1.0, 0.0, v)

        # arccos is decreasing
        return _checked(
            np.maximum(at(self.hi, False), 0.0), np.minimum(at(self.lo, True), PI.hi)
        )

    @np.errstate(all="ignore")
    def _cos_like(self, fn):
        """``Interval._cos_like`` entrywise.  An entry with an infinite
        endpoint, or 2 pi wide, is [-1, 1], and its endpoints never reach
        libm.  The scalar loop's critical points k pi (cos) or pi/2 + k pi
        (sin), k from floor(lo / pi) - 1 to ceil(hi / pi) + 1, are tried
        for every entry at once, k = f + (d - 1) for d = 0, 1, ... with
        f = floor(lo / pi), an integral float: one rounding of the exact
        integer, as the scalar's float(k), and f's parity and d's give k's
        exactly.  ceil(hi / pi) - f is exact (Sterbenz), and small."""
        whole = ~(np.isfinite(self.lo) & np.isfinite(self.hi)) | (self.width() >= TWO_PI.hi)
        x = np.where(whole, 0.0, np.stack((self.lo, self.hi)))  # the two endpoints
        # fn there, two ulps down and up, with the scalar's zero and sign rules
        v = _libm(fn, x)
        down, up = (np.nextafter(np.nextafter(v, d), d) for d in (-inf, inf))
        if fn is math.sin:  # sin has the sign of x on (-pi, pi)
            small = np.abs(x) < 3.0
            down = np.where(small & ((down < 0.0) != (x < 0.0)), 0.0, down)
            up = np.where(small & ((up < 0.0) != (x < 0.0)), 0.0, up)
        down, up = np.where(x == 0.0, fn(0.0), down), np.where(x == 0.0, fn(0.0), up)
        lo = np.where(down[1] < down[0], down[1], down[0])  # min(a, b) and max(a, b), as Python's
        hi = np.where(up[1] > up[0], up[1], up[0])
        f = np.floor(x[0] / math.pi)[..., None]
        span = np.ceil(x[1] / math.pi)[..., None] - f + 2.0
        d = np.arange(int(span.max(initial=0.0)) + 1)
        k = f + (d - 1.0)
        # each distinct critical point once, then gathered.  PI * k for an
        # integral float k is, as `Interval.__mul__` gives it, [down(PI.lo k),
        # up(PI.hi k)] for k > 0, the mirror for k < 0 and [0, 0] at 0: both
        # the rounded candidates and their outward steps are monotone in the
        # exact product, and a product of size >= pi has the sign of k
        ks, at = np.unique(k, return_inverse=True)
        ends = [_two_prod_array(np.where(ks > 0.0, a, b), ks) for a, b in
                ((PI.lo, PI.hi), (PI.hi, PI.lo))]
        lo_k, hi_k = (np.where(ks == 0.0, 0.0, step(p, np.where(known, err, math.nan)))
                      for step, (p, err, known) in zip((_down_array, _up_array), ends))
        shift = (0.0, 0.0) if fn is math.cos else (_PI_HALF_IV.lo, _PI_HALF_IV.hi)
        crit = _outward_sum(lo_k, hi_k, *shift)
        at = at.reshape(k.shape)
        hit = (d <= span) & (crit.lo[at] <= x[1][..., None]) & (x[0][..., None] <= crit.hi[at])
        # cos peaks at 2j pi, sin at pi/2 + 2j pi: both at even k
        even = (f % 2.0 != 0.0) != (d % 2 == 1)
        hi = np.where((hit & even).any(axis=-1), 1.0, hi)
        lo = np.where((hit & ~even).any(axis=-1), -1.0, lo)
        return IntervalArray(np.where(whole | (-1.0 > lo), -1.0, lo),
                             np.where(whole | (1.0 < hi), 1.0, hi))

    def cos(self):
        return self._cos_like(math.cos)

    def sin(self):
        return self._cos_like(math.sin)


def _libm(fn, x):
    """libm's fn per element of a float array; numpy's own may differ."""
    return np.array([fn(t) for t in x.ravel().tolist()]).reshape(x.shape)


def _as_array(x):
    """x as an IntervalArray; a plain number becomes a point."""
    if isinstance(x, IntervalArray):
        return x
    x = np.array(float(x))
    return IntervalArray(x, x)


def _outward_sum(alo, ahi, blo, bhi):
    """[alo, ahi] + [blo, bhi] entrywise, as ``Interval.__add__``."""
    with np.errstate(all="ignore"):
        lo = _down_array(*_two_sum(alo, blo))
        hi = _up_array(*_two_sum(ahi, bhi))
    return _checked(lo, hi)


def _sign_clamped_array(lo, hi, alo, ahi, blo, bhi):
    """Interval._sign_clamped, entrywise."""
    same = ((alo >= 0.0) & (blo >= 0.0)) | ((ahi <= 0.0) & (bhi <= 0.0))
    opposite = ((alo >= 0.0) & (bhi <= 0.0)) | ((ahi <= 0.0) & (blo >= 0.0))
    clamp_lo = (lo < 0.0) & same
    hi = np.where(~clamp_lo & (hi > 0.0) & opposite, 0.0, hi)
    return np.where(clamp_lo, 0.0, lo), hi


def _mid_rad(lo, hi):
    """``Interval.mid`` of each entry and a radius r, [lo, hi] inside
    [mid - r, mid + r]: 0 for a point, not finite for an infinite endpoint."""
    with np.errstate(all="ignore"):
        mid = 0.5 * (lo + hi)
        mid = np.where(lo == hi, lo, np.where(np.isfinite(mid), mid, 0.5 * lo + 0.5 * hi))
        rad = np.maximum(_up_array(*_two_sum(hi, -mid)), _up_array(*_two_sum(mid, -lo)))
    return mid, rad


# ---------------------------------------------------------------------------
# kernels: the array protocol of the three kinds of number
# ---------------------------------------------------------------------------


def _first_equal(keys):
    """For each of the hashable keys, the index of the first equal one."""
    seen = {}
    return np.array([seen.setdefault(k, i) for i, k in enumerate(keys)], dtype=np.intp)


def _bits(x):
    """The bit patterns of a float array, as a list of ints."""
    return np.ascontiguousarray(x, dtype=float).view(np.int64).tolist()


class FloatKernel:
    """Arrays of 53-bit intervals: ``IntervalArray``."""

    precision = 53

    @staticmethod
    def points(x):
        """The points of a float array."""
        x = np.asarray(x, dtype=float)
        return _checked(x, x)

    @staticmethod
    def from_bounds(lo, hi):
        """The array of the intervals [lo, hi], from float endpoint arrays."""
        return _ordered_bounds(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))

    @staticmethod
    def two_pi():
        return IntervalArray(np.array([TWO_PI.lo]), np.array([TWO_PI.hi]))

    # where a lies in the interior of b, where a and b intersect, where a
    # contains the float x and where a provably contains 2 pi
    inside = staticmethod(lambda a, b: (b.lo < a.lo) & (a.hi < b.hi))
    meets = staticmethod(lambda a, b: (a.lo <= b.hi) & (b.lo <= a.hi))
    contains = staticmethod(lambda a, x: (a.lo <= x) & (x <= a.hi))
    contains_two_pi = staticmethod(lambda a: (a.lo <= TWO_PI.lo) & (TWO_PI.hi <= a.hi))
    width = staticmethod(methodcaller("width"))
    sqrt = staticmethod(methodcaller("sqrt"))
    sqrt_nonneg = staticmethod(methodcaller("sqrt_nonneg"))
    arccos = staticmethod(methodcaller("arccos"))
    cos = staticmethod(methodcaller("cos"))
    sin = staticmethod(methodcaller("sin"))

    @staticmethod
    def intersect(a, b):
        lo, hi = np.maximum(a.lo, b.lo), np.minimum(a.hi, b.hi)
        if (lo > hi).any():
            raise IntervalError("empty intersection")
        return IntervalArray(lo, hi)

    @staticmethod
    def concat(arrays):
        """The arrays joined along their last axis."""
        return IntervalArray(np.concatenate([a.lo for a in arrays], axis=-1),
                             np.concatenate([a.hi for a in arrays], axis=-1))

    @staticmethod
    def mat_mul(a, b):
        """a @ b for 2-D IntervalArrays, midpoint-radius on BLAS (Rump, BIT 39, 1999).

        With (ma, ra), (mb, rb) from `_mid_rad`, entry (i, j) is M -+ e rounded
        outward: M = fl(ma @ mb), e = up(A R + B T + 5 k eta), R = fl(|ma| @ rb)
        + fl(ra @ fl(|mb| + rb)), T = fl(|ma| @ |mb|), A = 1 + 2 (n + 4) u, B =
        2 n u, u = 2^-53, eta = 2^-1074, n the inner dimension and k the number
        of terms with neither factor [0, 0] (k = 0 leaves [0, 0]).  An infinite
        factor weighs n + 1 in k and 0 elsewhere; k > n or overflow: [-inf, inf].

        Proof that e bounds the error (n < 2^50), for any fl(P @ Q) formed by
        binary64 products, sums and FMAs rounded to nearest in gradual
        underflow, in any order, blocking and thread split.  A rounding is fl(z)
        = z (1 + d) + t = z / (1 + d') + t', |d|, |d'| <= u, |t|, |t'| <= eta/2,
        t = t' = 0 unless z is a (fused) product of nonzero factors (sums that
        underflow are exact).  A product meets <= n roundings, its t <= n - 1
        more, (1 + u)^n <= 2, so (Higham, Accuracy and Stability, 3.1) |fl(P @
        Q) - P Q| <= gamma_n |P| |Q| + k eta; P Q <= (1 + u)^n fl(P @ Q) + k eta
        for P, Q >= 0.  With |a b - ma mb| <= |ma| rb + ra (|mb| + rb) and x + y
        <= (1 + u) fl(x + y) for x, y >= 0, the error is <= (1 + u)^(n+2) R +
        gamma_n (1 + u)^n T + 4 k eta.  A and B exceed these factors times (1 +
        u)^2, so for k >= 1 it is <= (1 + u) fl(A R + B T + 5 k eta) <= e.
        """
        n = a.shape[1]
        if n != b.shape[0]:
            raise IntervalError(f"shape mismatch {a.shape} @ {b.shape}")
        parts = []
        for m in (a, b):
            mid, rad = _mid_rad(m.lo, m.hi)
            finite, nonzero = np.isfinite(rad), (m.lo != 0.0) | (m.hi != 0.0)
            parts += [np.where(finite, mid, 0.0), np.where(finite, rad, 0.0),
                      np.where(finite, nonzero, n + 1.0)]
        ma, ra, wa, mb, rb, wb = parts
        with np.errstate(all="ignore"):
            mid, k = ma @ mb, wa @ wb
            e = ((1.0 + (n + 4) * 2.0 ** -52) * (abs(ma) @ rb + ra @ (abs(mb) + rb))
                 + n * 2.0 ** -52 * (abs(ma) @ abs(mb)) + 5.0 * k * 2.0 ** -1074)
            e = np.where(k > 0.0, np.nextafter(e, inf), 0.0)
            lo, hi = _down_array(*_two_sum(mid, -e)), _up_array(*_two_sum(mid, e))
        unbounded = ~np.isfinite(mid) | ~np.isfinite(e) | (k > n)
        return IntervalArray(np.where(unbounded, -inf, lo), np.where(unbounded, inf, hi))

    @staticmethod
    def add_columns(acc, terms):
        """acc + terms[:, 0] + ... + terms[:, n - 1], summed left to right:
        bit for bit that chain of IntervalArray sums.  A NaN endpoint stays
        NaN through later sums, so one check at the end raises as the
        chain would."""
        lo, hi = acc.lo, acc.hi
        with np.errstate(all="ignore"):
            for tlo, thi in zip(terms.lo.T, terms.hi.T):
                lo = _down_array(*_two_sum(lo, tlo))
                hi = _up_array(*_two_sum(hi, thi))
        return _checked(lo, hi)

    def sub_products(self, acc, c, x):
        """acc - c[:, 0] x[0] - ... - c[:, n - 1] x[n - 1] for a float
        matrix c and a 1-D array x, each row summed left to right: the
        column sums of -(c x)."""
        return self.add_columns(acc, -(self.points(c) * x))

    @staticmethod
    def equal_ids(arr):
        """For each entry of a 1-D array, the index of the first entry whose
        endpoints are the same bits."""
        return _first_equal(zip(_bits(arr.lo), _bits(arr.hi)))

    @staticmethod
    def bounds(arr):
        return arr.lo, arr.hi

    exact_bounds = bounds

    @staticmethod
    def float_hull(arr):
        return arr


def _each(name, nin, dtype=None):
    """A kernel method that calls the method `name` of the entries of its
    first object array, with the entries of the others as arguments, its
    result cast to dtype (None: kept as objects).  The results are the
    scalar methods' own: the floating-point flags they leave are not read."""
    fn = np.frompyfunc(lambda x, *args: getattr(x, name)(*args), nin, 1)

    def apply(*arrays):
        with np.errstate(all="ignore"):
            out = fn(*arrays)
        return out if dtype is None else out.astype(dtype)

    return staticmethod(apply)


# [lo, hi] from mpf endpoints as they are, or from float ones exactly
_MP_BOUNDS = np.frompyfunc(lambda lo, hi, prec: MPInterval(lo, hi, prec) if isinstance(lo, tuple)
                           else MPInterval.from_floats(lo, hi, prec), 3, 1)


# Exact integer arithmetic for the MP kernel's column sums.  A finite value
# is man * 2**exp, man an int in a numpy object array and exp an int64; a
# product or an aligned sum is exact, and `_rounded` rounds it once, floor or
# ceiling, to prec bits.  mpmath's directed rounding is correct rounding, so
# each result is the endpoint that the mpf operation gives.

_BIT_LENGTH = np.frompyfunc(int.bit_length, 1, 1)
_MAX_EXP = 1 << 14  # inputs beyond take the chain: alignment shifts stay small


def _float_parts(x):
    """Mantissas and exponents of a finite float array: x = man * 2**exp
    exactly, subnormals included (``np.frexp``'s fraction times 2**53 is an
    integer)."""
    frac, exp = np.frexp(x)
    return (frac * 2.0 ** 53).astype(np.int64).astype(object), exp.astype(np.int64) - 53


def _mp_parts(arr, prec):
    """Mantissas and exponents of the lower and of the upper endpoints of
    a 1-D array of ``MPInterval``; None unless every entry has precision
    prec and finite endpoints of at most prec bits and exponent below
    _MAX_EXP in magnitude, the inputs whose mpf sums are correctly rounded
    and whose exact sums stay small."""
    ends = ([], [], [], [])
    for x in arr.tolist():
        if x.prec != prec:
            return None
        for (sign, man, exp, bc), m, e in ((x.lo, *ends[:2]), (x.hi, *ends[2:])):
            if not 0 <= bc <= prec or not -_MAX_EXP < exp < _MAX_EXP:
                return None
            m.append(-man if sign else man)
            e.append(exp)
    return (np.array(ends[0], dtype=object), np.array(ends[1], dtype=np.int64),
            np.array(ends[2], dtype=object), np.array(ends[3], dtype=np.int64))


def _rounded(man, exp, prec, up):
    """man * 2**exp rounded to prec bits toward +inf (up) or -inf: one
    shift, which floors; the ceiling is the floor of the negation negated."""
    shift = np.maximum(_BIT_LENGTH(man).astype(np.int64) - prec, 0)
    return (-(-man >> shift) if up else man >> shift), exp + shift


def _exact_sum(am, ae, bm, be):
    e = np.minimum(ae, be)
    return (am << (ae - e)) + (bm << (be - e)), e


def _summed_rows(acc, terms, prec):
    """acc + terms[0] + ... + terms[n - 1], left to right, each sum rounded
    outward to prec bits, as an object array of ``MPInterval``: acc is the
    (lo, lo_exp, hi, hi_exp) of `_mp_parts`, terms the same of n rows."""
    lo, lo_exp, hi, hi_exp = acc
    for t_lo, t_lo_exp, t_hi, t_hi_exp in zip(*terms):
        lo, lo_exp = _rounded(*_exact_sum(lo, lo_exp, t_lo, t_lo_exp), prec, False)
        hi, hi_exp = _rounded(*_exact_sum(hi, hi_exp, t_hi, t_hi_exp), prec, True)
    out = np.empty(len(lo), dtype=object)
    out[:] = [_ordered(libmp.from_man_exp(a, b), libmp.from_man_exp(c, d), prec)
              for a, b, c, d in zip(lo.tolist(), lo_exp.tolist(), hi.tolist(), hi_exp.tolist())]
    return out


class MPKernel:
    """Arrays of intervals with prec-bit endpoints: numpy object arrays of
    ``MPInterval``, whose operations are its methods entrywise, except the
    Krawczyk operator's column sums (`sub_products`, `add_columns`), which
    run on integer arrays."""

    def __init__(self, precision):
        if precision < 53:
            raise ValueError("precision must be >= 53 bits")
        self.precision = precision

    def points(self, x):
        """The points of a float array."""
        x = np.asarray(x, dtype=float)
        return self.from_bounds(x, x)

    def from_bounds(self, lo, hi):
        """The array of the intervals [lo, hi], from equal-shaped arrays of
        float or mpf endpoints, exactly."""
        return _MP_BOUNDS(lo, hi, self.precision)

    def two_pi(self):
        p = self.precision
        return np.array([MPInterval(*(libmp.mpf_shift(libmp.mpf_pi(p, rnd), 1)
                                      for rnd in (_RF, _RC)), p)], dtype=object)

    inside = _each("strictly_inside", 2, bool)
    intersect = _each("intersect", 2)
    meets = _each("intersects", 2, bool)
    contains = _each("contains", 2, bool)
    width = _each("width", 1, float)
    sqrt = _each("sqrt", 1)
    sqrt_nonneg = _each("sqrt_nonneg", 1)
    arccos = _each("arccos", 1)
    _encloses = _each("encloses", 2, bool)
    _lo_float, _hi_float = _each("lo_float", 1, float), _each("hi_float", 1, float)
    # the endpoints exactly, as mpf values
    exact_bounds = staticmethod(np.frompyfunc(attrgetter("lo", "hi"), 1, 2))

    def contains_two_pi(self, a):
        """Where a provably contains the real number 2 pi, held to 2 pi at
        8 more bits than the kernel's."""
        return self._encloses(a, MPKernel(self.precision + 8).two_pi()[0])

    @staticmethod
    def concat(arrays):
        return np.concatenate(arrays, axis=-1)

    @staticmethod
    def equal_ids(arr):
        """For each entry of a 1-D array, the index of the first entry with
        equal mpf endpoints: normalized mpf tuples are equal exactly when
        their values are, and no float hull is compared."""
        return _first_equal((x.lo, x.hi) for x in arr.tolist())

    @staticmethod
    def _chain(acc, terms):
        """acc + terms[:, 0] + ... + terms[:, n - 1], one ``MPInterval`` sum
        per entry and column: the reference of the integer sums, and the
        path of inputs they do not take."""
        for j in range(terms.shape[1]):
            acc = acc + terms[:, j]
        return acc

    def add_columns(self, acc, terms):
        """acc + terms[:, 0] + ... + terms[:, n - 1] for a 1-D array acc and
        a 2-D 53-bit array of terms, each row summed left to right: bit for
        bit `_chain` on the terms lifted exactly.  Every sum is formed
        exactly on integers and rounded once per endpoint, for all rows at
        a time; a non-finite endpoint takes the chain."""
        prec = self.precision
        ends = _mp_parts(acc, prec)
        if ends is None or not (np.isfinite(terms.lo).all() and np.isfinite(terms.hi).all()):
            return self._chain(acc, self.from_bounds(terms.lo, terms.hi))
        # column j of the terms is row j of the transposes
        return _summed_rows(ends, (*_float_parts(terms.lo.T), *_float_parts(terms.hi.T)), prec)

    def sub_products(self, acc, c, x):
        """acc - c[:, 0] x[0] - ... - c[:, n - 1] x[n - 1] for a float matrix
        c and 1-D arrays acc and x, each row summed left to right: bit for
        bit `_chain` on -(points(c) * x).  The products are exact on
        integers and rounded once per endpoint: -(c x) is [RD(-c x_hi),
        RU(-c x_lo)] for c >= 0 and [RD(-c x_lo), RU(-c x_hi)] for c < 0, the
        negated ``MPInterval`` product of a point (RU(z) = -RD(-z)).  A
        non-finite entry takes the chain."""
        prec, c = self.precision, np.asarray(c, dtype=float)
        acc_ends, x_ends = _mp_parts(acc, prec), _mp_parts(x, prec)
        if acc_ends is None or x_ends is None or not np.isfinite(c).all():
            return self._chain(acc, -(self.points(c) * x))
        x_lo, x_lo_exp, x_hi, x_hi_exp = (v[:, None] for v in x_ends)
        d, d_exp = _float_parts(-c.T)  # column j of c is row j here
        nonneg = (c >= 0.0).T
        p_lo = _rounded(d * np.where(nonneg, x_hi, x_lo),
                        d_exp + np.where(nonneg, x_hi_exp, x_lo_exp), prec, False)
        p_hi = _rounded(d * np.where(nonneg, x_lo, x_hi),
                        d_exp + np.where(nonneg, x_lo_exp, x_hi_exp), prec, True)
        return _summed_rows(acc_ends, (*p_lo, *p_hi), prec)

    @staticmethod
    def bounds(arr):
        # beyond the float range: +-inf, sound, and the overflow flag unread
        return MPKernel._lo_float(arr), MPKernel._hi_float(arr)

    def float_hull(self, arr):
        return IntervalArray(*self.bounds(arr))


class RealKernel:
    """Plain floats in the kernels' array protocol: numpy float64 arrays,
    whose elementwise IEEE arithmetic is that of Python floats.  Arccos is
    ``math.acos`` per element, as for a float, never ``np.arccos``."""

    @staticmethod
    def points(x):
        return np.array(x, dtype=float)

    @staticmethod
    def concat(arrays):
        return np.concatenate(arrays, axis=-1)

    @staticmethod
    def bounds(arr):
        return arr, arr

    @staticmethod
    def equal_ids(arr):
        """For each entry of a 1-D array, the index of the first entry with
        the same bits."""
        return _first_equal(_bits(arr))

    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def sqrt_nonneg(arr):
        # math.sqrt(max(x, 0.0)) per element; max keeps x unless 0.0 > x
        return np.sqrt(np.where(0.0 > arr, 0.0, arr))

    @staticmethod
    def arccos(arr):
        return np.array([math.acos(x) for x in arr.ravel().tolist()]).reshape(arr.shape)


FLOAT_KERNEL = FloatKernel()
REAL_KERNEL = RealKernel()


MAX_PRECISION = 4096  # bits: the cost of MP arithmetic grows faster than the bits


def kernel_for_precision(precision):
    """The interval kernel of a working precision of 53 to `MAX_PRECISION`
    bits; IntervalError for any other."""
    if not 53 <= precision <= MAX_PRECISION:
        raise IntervalError("precision must be >= 53 bits" if precision < 53
                            else f"precision must be <= {MAX_PRECISION} bits")
    return FLOAT_KERNEL if precision == 53 else MPKernel(precision)


# ---------------------------------------------------------------------------
# small dense interval linear algebra
# ---------------------------------------------------------------------------


def inverse_residual(m):
    """m @ n - Id as a 53-bit array, for a square 53-bit interval array m,
    where n is a float inverse of the midpoint matrix of m; None if m has
    an infinite entry or no finite inverse is found."""
    f = FLOAT_KERNEL
    mid, rad = _mid_rad(*f.bounds(m))
    if not np.isfinite(rad).all():
        return None
    try:
        n = np.linalg.inv(mid)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(n)):
        return None
    return f.mat_mul(m, f.points(n)) - f.points(np.eye(len(n)))


def interval_matrix_invertible(m):
    """Certify that every member matrix of the 53-bit interval array m is
    invertible.

    Finds an approximate double-precision inverse n of the midpoint matrix
    and checks that every entry of m@n - Id has absolute value strictly
    below 1/r^2 (r = number of rows).  Returns False on any numerical
    trouble; never raises, and never answers True for an enclosure that
    contains a singular matrix.
    """
    r, cols = m.shape
    if r != cols:
        raise IntervalError("invertibility test needs a square matrix")
    if r == 0:
        return True
    resid = inverse_residual(m)
    if resid is None:
        return False
    lo, hi = FLOAT_KERNEL.bounds(resid)
    bound = nextafter(1.0 / (r * r), 0.0)  # at most 1/r^2
    return bool((np.maximum(np.abs(lo), np.abs(hi)) < bound).all())  # False for inf
