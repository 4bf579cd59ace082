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

Beyond the arithmetic dunders and the elementary functions, both classes
expose the same protocol, which is all that generic code may rely on:

* ``lo_float()`` / ``hi_float()`` -- float bounds rounded outward;
* ``sqrt_nonneg()`` -- sqrt of a quantity that is mathematically >= 0,
  clamping a rounding dip below zero (DomainError if entirely negative);
* ``kernel`` -- the ``FloatKernel`` / ``MPKernel`` that builds constants
  of the same kind and precision.

``scalars.is_interval`` is the one test that tells an interval from a
plain real number.

The kernel also owns the array layer.  ``kernel.array`` turns (nested)
lists of its intervals, or a float ndarray as points, into an array with
elementwise, broadcasting ``+``, ``-``, ``*`` and ``/``, numpy indexing
and item assignment; ``kernel.sqrt``, ``kernel.sqrt_nonneg`` and
``kernel.arccos`` apply the scalar methods entrywise; ``kernel.bounds``
gives an array's outward float endpoints, ``kernel.float_hull`` its
outward 53-bit hull as an ``IntervalArray`` and ``kernel.lift`` an
``IntervalArray`` as the kernel's array, exactly.  The float kernel's
array, ``IntervalArray``, holds numpy endpoint arrays whose elementwise
arithmetic is bit for bit the ``Interval`` dunders and methods; its hull
and lift are the identity.  It is the one interval matrix type, and
``FloatKernel.mat_mul`` its one product: midpoint-radius on BLAS, with an
error bound that holds for any summation order, blocking, thread count
and use of FMA.  Its endpoints enclose the exact product, but they are
not the scalar loop's.  Stage V's Jacobian is such an array, and
``inverse_residual`` and ``interval_matrix_invertible`` take one.  The MP
kernel's array is a numpy object array of ``MPInterval``; it has no
product, since every matrix product runs on the 53-bit hull.
``scalars.REAL_KERNEL`` gives plain floats the same array protocol, so
``geometry`` and stage V's labels run one code path for all three kinds.
Stage V's 3x3 ball products (``gimbal``) do not use this layer: they run
on plain floats with a-priori rounding-error bounds.

No global floating-point state is touched; rounding is done value-by-value,
so intervals are safe to share across threads.
"""

from __future__ import annotations

import functools
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
    "FLOAT_KERNEL",
    "kernel_for_precision",
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

    @property
    def kernel(self):
        return FLOAT_KERNEL

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
            if _critical_point(k, fn).intersects(self):
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


@functools.lru_cache(maxsize=256)
def _critical_point(k, fn):
    """Enclosure of the k-th extremum of fn (math.cos or math.sin):
    k*pi for cos, pi/2 + k*pi for sin.  Memoized; the same bits as the
    interval formula."""
    return PI * k + (0.0 if fn is math.cos else _PI_HALF_IV)


def contains_two_pi(x):
    """True only if x provably contains the real number 2*pi."""
    if isinstance(x, MPInterval):
        lo = libmp.mpf_shift(libmp.mpf_pi(x.prec + 8, _RF), 1)
        hi = libmp.mpf_shift(libmp.mpf_pi(x.prec + 8, _RC), 1)
        return not libmp.mpf_gt(x.lo, lo) and not libmp.mpf_gt(hi, x.hi)
    return x.lo <= TWO_PI.lo and TWO_PI.hi <= x.hi


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
        if isinstance(x, tuple):
            return cls(x, x, prec)
        return cls.from_floats(float(x), float(x), prec)

    def _coerce(self, x):
        if isinstance(x, MPInterval):
            return x
        if isinstance(x, (int, float)):
            return MPInterval.point(x, self.prec)
        return NotImplemented

    def lo_float(self):
        # to_float may round a (sub)normal underflow the wrong way: check
        f = libmp.to_float(self.lo, rnd=_RF)
        if libmp.mpf_gt(libmp.from_float(f), self.lo):
            f = nextafter(f, -inf)
        return f

    def hi_float(self):
        f = libmp.to_float(self.hi, rnd=_RC)
        if libmp.mpf_lt(libmp.from_float(f), self.hi):
            f = nextafter(f, inf)
        return f

    @property
    def kernel(self):
        return MPKernel(self.prec)

    def mid(self):
        m = libmp.mpf_shift(libmp.mpf_add(self.lo, self.hi, self.prec + 8, "n"), -1)
        return libmp.to_float(m, rnd="n")

    def width(self):
        return libmp.to_float(libmp.mpf_sub(self.hi, self.lo, 53, _RC), rnd=_RC)

    def mag(self):
        return max(abs(self.lo_float()), abs(self.hi_float()))

    def is_finite(self):
        return isfinite(self.lo_float()) and isfinite(self.hi_float())

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
    # _down entrywise; nextafter(-inf, -inf) is -inf, as _down returns
    return np.where(np.isnan(err) | (err < 0.0), np.nextafter(s, -inf), s)


def _up_array(s, err):
    return np.where(np.isnan(err) | (err > 0.0), np.nextafter(s, inf), s)


def _two_prod_array(a, b):
    # _two_prod entrywise: the same operations in the same order
    p = a * b
    ta = _SPLITTER * a
    ah = ta - (ta - a)
    al = a - ah
    tb = _SPLITTER * b
    bh = tb - (tb - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    unknown = ~np.isfinite(p) | (np.abs(p) < _TWO_PROD_TINY)
    return p, np.where(unknown, np.nan, err)


def _checked(lo, hi):
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise IntervalError("NaN endpoint")
    return IntervalArray(lo, hi)


_LO = np.frompyfunc(attrgetter("lo"), 1, 1)
_HI = np.frompyfunc(attrgetter("hi"), 1, 1)
_INTERVALS = np.frompyfunc(Interval, 2, 1)


class IntervalArray:
    """An array of float intervals held as two numpy endpoint arrays.

    ``+``, ``-``, ``*`` and ``/`` broadcast like numpy (a plain number as
    the right operand, or either operand of ``/``, is a point), and every
    entry of the result is bit for bit the ``Interval`` that the scalar
    dunder would give: exact zero products, Dekker products and two-sums
    nudged one ulp outward when inexact or unknown, the quotient's rounding
    direction read off ``q * y`` against ``x``, the sign clamp, and -0.0
    made 0.0.  ``sqrt``, ``sqrt_nonneg`` and ``arccos`` repeat the
    ``Interval`` methods the same way, with ``math.acos`` per element.  A
    NaN endpoint raises IntervalError; a domain violation raises the
    DomainError of the first offending entry in C order.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo + 0.0
        self.hi = hi + 0.0

    @classmethod
    def of(cls, intervals):
        """The array of nested ``Interval``s, or the points of a float ndarray."""
        if isinstance(intervals, np.ndarray) and intervals.dtype == float:
            return cls(intervals, intervals)
        obj = np.array(intervals, dtype=object)
        return cls(_LO(obj).astype(float), _HI(obj).astype(float))

    def tolist(self):
        """Nested lists of ``Interval``s, like ``ndarray.tolist``."""
        return _INTERVALS(self.lo, self.hi).tolist()

    @property
    def shape(self):
        return self.lo.shape

    @property
    def nrows(self):
        return self.lo.shape[0]

    def _entry(self, mask):
        """The first entry where mask holds, as an ``Interval``."""
        i = np.unravel_index(np.argmax(mask), mask.shape)
        return Interval(float(self.lo[i]), float(self.hi[i]))

    def __getitem__(self, idx):
        return IntervalArray(self.lo[idx], self.hi[idx])

    def __setitem__(self, idx, value):
        self.lo[idx] = value.lo
        self.hi[idx] = value.hi

    def __neg__(self):
        return IntervalArray(-self.hi, -self.lo)

    def __add__(self, other):
        other = _as_array(other)
        with np.errstate(all="ignore"):
            lo = _down_array(*_two_sum(self.lo, other.lo))
            hi = _up_array(*_two_sum(self.hi, other.hi))
        return _checked(lo, hi)

    def __sub__(self, other):
        return self + (-_as_array(other))

    def __mul__(self, other):
        other = _as_array(other)
        alo, ahi, blo, bhi = np.broadcast_arrays(self.lo, self.hi, other.lo, other.hi)
        # the endpoint products along a new first axis; of an array of
        # points (lo == hi throughout) one endpoint gives them all
        xs = (alo,) if np.array_equal(self.lo, self.hi) else (alo, ahi)
        ys = (blo,) if np.array_equal(other.lo, other.hi) else (blo, bhi)
        x = np.stack([u for u in xs for _ in ys])
        y = np.stack([v for _ in xs for v in ys])
        zero = (x == 0.0) | (y == 0.0)
        with np.errstate(all="ignore"):
            p, err = _two_prod_array(x, y)
            p = np.where(zero, 0.0, p)
            err = np.where(zero, 0.0, err)
            lo = _down_array(p, err).min(axis=0)
            hi = _up_array(p, err).max(axis=0)
        return _checked(*_sign_clamped_array(lo, hi, alo, ahi, blo, bhi))

    def __truediv__(self, other):
        other = _as_array(other)
        straddles = (other.lo <= 0.0) & (0.0 <= other.hi)
        if straddles.any():
            raise DomainError("division by interval containing zero")
        alo, ahi, blo, bhi = np.broadcast_arrays(self.lo, self.hi, other.lo, other.hi)
        x = np.stack([alo, alo, ahi, ahi])
        y = np.stack([blo, bhi, blo, bhi])
        with np.errstate(all="ignore"):
            q = x / y
            p, err = _two_prod_array(q, y)
            # q * y against x tells on which side of x / y the rounded q
            # lies; an unknown error term (or a non-finite q) steps both ways
            unknown = np.isnan(err) | ~np.isfinite(p)
            inexact = ~((p == x) & (err == 0.0))
            above = ((p > x) | ((p == x) & (err > 0.0))) == (y > 0.0)
            d = np.where(unknown | (inexact & above), np.nextafter(q, -inf), q)
            u = np.where(unknown | (inexact & ~above), np.nextafter(q, inf), q)
        # a NaN candidate (inf / inf) is skipped, as the scalar min/max does
        lo = np.where(np.isnan(d), inf, d).min(axis=0)
        hi = np.where(np.isnan(u), -inf, u).max(axis=0)
        lo, hi = _sign_clamped_array(lo, hi, alo, ahi, blo, bhi)
        reversed_ = lo > hi
        if reversed_.any():
            i = np.unravel_index(np.argmax(reversed_), reversed_.shape)
            raise IntervalError(
                f"reversed endpoints [{float(lo[i])!r}, {float(hi[i])!r}]"
            )
        return _checked(lo, hi)

    def __rtruediv__(self, other):
        return _as_array(other) / self

    def sqrt(self):
        negative = self.lo < 0.0
        if negative.any():
            raise DomainError(
                f"sqrt of interval with negative part {self._entry(negative)!r}"
            )

        def exact(s, x):
            p, err = _two_prod_array(s, s)
            return (p == x) & (err == 0.0)

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
            raise DomainError(
                f"arccos needs argument inside [-1,1], got {self._entry(outside)!r}"
            )

        def at(x, up):
            # libm's acos per element, two ulps out; np.arccos may differ
            v = np.array([math.acos(t) for t in x.ravel().tolist()]).reshape(x.shape)
            out = inf if up else -inf
            v = np.nextafter(np.nextafter(v, out), out)
            v = np.where(x == -1.0, PI.hi if up else PI.lo, v)
            return np.where(x == 1.0, 0.0, v)

        # arccos is decreasing
        return _checked(
            np.maximum(at(self.hi, False), 0.0), np.minimum(at(self.lo, True), PI.hi)
        )


def _as_array(x):
    """x as an IntervalArray; a plain number becomes a point."""
    if isinstance(x, IntervalArray):
        return x
    x = np.array(float(x))
    return IntervalArray(x, x)


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
# kernels: uniform constructors for the two backends
# ---------------------------------------------------------------------------


class FloatKernel:
    """Factory for 53-bit intervals."""

    precision = 53

    @staticmethod
    def point(x):
        return Interval.point(x)

    @staticmethod
    def interval(lo, hi):
        return Interval(lo, hi)

    @staticmethod
    def two_pi():
        return TWO_PI

    @staticmethod
    def array(intervals):
        return IntervalArray.of(intervals)

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
    def bounds(arr):
        return arr.lo, arr.hi

    @staticmethod
    def float_hull(arr):
        return arr

    lift = float_hull

    @staticmethod
    def sqrt(arr):
        return arr.sqrt()

    @staticmethod
    def sqrt_nonneg(arr):
        return arr.sqrt_nonneg()

    @staticmethod
    def arccos(arr):
        return arr.arccos()


_LO_FLOAT = np.frompyfunc(methodcaller("lo_float"), 1, 1)
_HI_FLOAT = np.frompyfunc(methodcaller("hi_float"), 1, 1)
_SQRT = np.frompyfunc(methodcaller("sqrt"), 1, 1)
_SQRT_NONNEG = np.frompyfunc(methodcaller("sqrt_nonneg"), 1, 1)
_ARCCOS = np.frompyfunc(methodcaller("arccos"), 1, 1)


class MPKernel:
    """Factory for intervals with prec-bit endpoints."""

    def __init__(self, precision):
        if precision < 53:
            raise ValueError("precision must be >= 53 bits")
        self.precision = precision

    def point(self, x):
        return MPInterval.point(x, self.precision)

    def interval(self, lo, hi):
        return MPInterval.from_floats(float(lo), float(hi), self.precision)

    def pi(self):
        return MPInterval(
            libmp.mpf_pi(self.precision, _RF),
            libmp.mpf_pi(self.precision, _RC),
            self.precision,
        )

    def two_pi(self):
        p = self.pi()
        return MPInterval(
            libmp.mpf_shift(p.lo, 1), libmp.mpf_shift(p.hi, 1), self.precision
        )

    @staticmethod
    def array(intervals):
        return np.array(intervals, dtype=object)

    @staticmethod
    def bounds(arr):
        with np.errstate(over="ignore"):  # beyond the float range: +-inf, sound
            return _LO_FLOAT(arr).astype(float), _HI_FLOAT(arr).astype(float)

    def float_hull(self, arr):
        return IntervalArray(*self.bounds(arr))

    def lift(self, arr):
        return np.frompyfunc(self.interval, 2, 1)(arr.lo, arr.hi)

    @staticmethod
    def sqrt(arr):
        return _SQRT(arr)

    @staticmethod
    def sqrt_nonneg(arr):
        return _SQRT_NONNEG(arr)

    @staticmethod
    def arccos(arr):
        return _ARCCOS(arr)


FLOAT_KERNEL = FloatKernel()


def kernel_for_precision(precision):
    if precision == 53:
        return FLOAT_KERNEL
    return MPKernel(precision)


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
    return f.mat_mul(m, f.array(n)) - f.array(np.eye(len(n)))


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
