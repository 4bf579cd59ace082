"""`MPInterval` arithmetic the general way: every product or quotient of
an endpoint pair rounded both ways, the hull of the eight, and subtraction
as the sum with the negation.

The reference for the sign-case dunders of `hypcert.interval.MPInterval`,
which must return the same endpoints bit for bit.  Results go through the
checked constructor, so a reversed pair raises.  Tests only.
"""

from mpmath import libmp

from hypcert.interval import DomainError, MPInterval

_RF = libmp.round_floor
_RC = libmp.round_ceiling


def _point(v, prec):
    return v if isinstance(v, MPInterval) else MPInterval.point(v, prec)


def _hull(op, x, y):
    lo = hi = None
    for u in (x.lo, x.hi):
        for v in (y.lo, y.hi):
            d = op(u, v, x.prec, _RF)
            e = op(u, v, x.prec, _RC)
            if lo is None or libmp.mpf_lt(d, lo):
                lo = d
            if hi is None or libmp.mpf_gt(e, hi):
                hi = e
    return MPInterval(lo, hi, x.prec)


def neg(x):
    return MPInterval(libmp.mpf_neg(x.hi), libmp.mpf_neg(x.lo), x.prec)


def add(x, y):
    """x + y at x's precision; y may be an int or float (a point)."""
    y = _point(y, x.prec)
    return MPInterval(
        libmp.mpf_add(x.lo, y.lo, x.prec, _RF),
        libmp.mpf_add(x.hi, y.hi, x.prec, _RC),
        x.prec,
    )


def sub(x, y):
    return add(x, neg(_point(y, x.prec)))


def mul(x, y):
    return _hull(libmp.mpf_mul, x, _point(y, x.prec))


def div(x, y):
    y = _point(y, x.prec)
    z = libmp.fzero
    if not libmp.mpf_gt(y.lo, z) and not libmp.mpf_gt(z, y.hi):
        raise DomainError("division by interval containing zero")
    return _hull(libmp.mpf_div, x, y)
