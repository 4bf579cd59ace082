"""Stage II's inflation-and-refine loop with the operator applied in every
inflation round.

The reference for `hypcert.verify._certify_root`, which skips a round
whose centre term x0 - C f(x0) is not strictly inside the box instead of
applying the operator there: the loop below is the one it replaced, so the
two must return the same enclosure, endpoint for endpoint.  It decides one
scalar at a time, with the scalar methods that the kernels' array
comparisons repeat, and returns a list of scalars.  Tests only.
"""

from hypcert.geometry import RealizationError
from hypcert.verify import KrawczykCentre, krawczyk_step
from tests import kernel_scalars as ks

STEP_ERRORS = (RealizationError, ArithmeticError, ValueError)


def _step(centre, jac_iv, X):
    return ks.entries(krawczyk_step(centre, jac_iv, ks.array(centre.kernel, X)))


def certify_root(f_iv, jac_iv, x0, C, kernel, residual_scale):
    try:
        centre = KrawczykCentre(f_iv, x0, C, kernel)
    except STEP_ERRORS:
        return None
    half = max(1e-14, 10.0 * residual_scale)
    for _ in range(20):
        X = [ks.interval(kernel, v - half, v + half) for v in x0]
        try:
            K = _step(centre, jac_iv, X)
            contained = all(k.strictly_inside(x) for k, x in zip(K, X))
        except STEP_ERRORS:
            contained = False
        if contained:
            enclosure = [k.intersect(x) for k, x in zip(K, X)]
            for _r in range(5):
                if not all(y.contains(v) for y, v in zip(enclosure, x0)):
                    break
                try:
                    K2 = _step(centre, jac_iv, enclosure)
                except STEP_ERRORS:
                    break
                if not all(k2.intersects(y) for k2, y in zip(K2, enclosure)):
                    break
                new = [k2.intersect(y) for k2, y in zip(K2, enclosure)]
                shrunk = any(n.width() < y.width() for n, y in zip(new, enclosure))
                enclosure = new
                if not shrunk:
                    break
            return enclosure
        half *= 4.0
    return None
