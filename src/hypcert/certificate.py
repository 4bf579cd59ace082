"""Certificates: externally checkable records of a verification run.

A certificate stores the combinatorial hash of the input, the edge
partition, outward-rounded decimal enclosures for every edge parameter
and every angle sum, the per-step statuses, and the gimbal loop words.
`recheck` re-parses the decimal intervals (again outward) and re-runs the
realization, angle-sum and gimbal stages from the file alone, so a
verification can be audited without trusting the original process.  A
document that is not a well-formed certificate raises CertificateError.
"""

from __future__ import annotations

import decimal
import hashlib
import json
import sys
from fractions import Fraction
from math import inf, isfinite, nextafter

from mpmath import libmp

from . import verify as vf
from .interval import MPInterval, kernel_for_precision
from .triangulation import serialize, vertex_link_hexagon_complex  # noqa: F401 (for perfbench)

__all__ = [
    "CertificateError",
    "certificate_dict",
    "certificate_json",
    "parse_certificate",
    "recheck",
    "triangulation_hash",
]

FORMAT = "hypcert-certificate/1"


class CertificateError(ValueError):
    pass


def triangulation_hash(tri):
    """Hash of the gluing table only; lengths do not enter."""
    text = serialize(tri, lengths=())
    text = text.rsplit("lengths:", 1)[0]
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- outward decimal endpoints ------------------------------------------------


def _decimal(x, digits, rounding):
    """The Fraction x to `digits` significant digits, in decimal rounding mode
    `rounding`."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        return str(decimal.Decimal(x.numerator) / decimal.Decimal(x.denominator))


def _endpoints(iv, precision):
    if isinstance(iv, MPInterval):
        digits = int(precision * 0.302) + 8
        lo = _decimal(Fraction(*libmp.to_rational(iv.lo)), digits, decimal.ROUND_FLOOR)
        hi = _decimal(Fraction(*libmp.to_rational(iv.hi)), digits, decimal.ROUND_CEILING)
        return [lo, hi]
    # binary doubles have finite exact decimal expansions: print those, so
    # the decimal document encloses the binary interval with no slack and
    # re-parses to exactly the same endpoints
    return [str(decimal.Decimal(iv.lo)), str(decimal.Decimal(iv.hi))]


def _float_down(s):
    f = float(s)
    if Fraction(f) > Fraction(s):
        f = nextafter(f, -inf)
    return f


def _float_up(s):
    f = float(s)
    if Fraction(f) < Fraction(s):
        f = nextafter(f, inf)
    return f


def _parse_interval(pair, kernel):
    """Outward enclosure of a [lo, hi] pair of finite decimal strings."""
    if not (isinstance(pair, list) and len(pair) == 2
            and all(isinstance(x, str) for x in pair)):
        raise ValueError(f"endpoint pair expected, got {pair!r}")
    for s in pair:
        if not decimal.Decimal(s).is_finite():
            raise ValueError(f"endpoint {s!r} is not finite")
        if kernel.precision == 53 and not isfinite(float(s)):
            raise ValueError(f"endpoint {s!r} is beyond the 53-bit float range "
                             f"(magnitude at most {sys.float_info.max!r})")
    lo_s, hi_s = pair
    if kernel.precision == 53:
        return kernel.interval(_float_down(lo_s), _float_up(hi_s))
    lo = libmp.from_str(lo_s, kernel.precision, libmp.round_floor)
    hi = libmp.from_str(hi_s, kernel.precision, libmp.round_ceiling)
    return MPInterval(lo, hi, kernel.precision)


# -- building and parsing -----------------------------------------------------


def certificate_dict(tri, result, method, timings=None):
    """Assemble the document for a finished pipeline run."""
    box = result.box
    part = result.partition
    out = {
        "format": FORMAT,
        "status": "VERIFIED" if result.verified else "FAILED",
        "triangulation_sha256": triangulation_hash(tri),
        "tetrahedra": tri.n_tets,
        "edges": tri.m,
        "vertices": tri.o,
        "precision_bits": box.precision if box else 53,
        "method": method,
        "steps": {str(k): str(v) for k, v in sorted(result.statuses.items(), key=lambda kv: str(kv[0]))},
    }
    if not result.verified:
        out["failed_step"] = result.failed_step
    if part is not None:
        out["partition"] = {
            "loose": part.e_sim,
            "kept": part.e_eq,
            "fixed": part.e_fixed,
            "variable": part.e_var,
        }
    if box is not None and box.nu is not None:
        p = box.precision
        out["nu"] = [_endpoints(x, p) for x in box.nu]
        if box.theta is not None:
            out["theta"] = [_endpoints(x, p) for x in box.theta]
    if result.verified and box.loops:
        out["gimbal_loops"] = [loop.serialize() for loop in box.loops]
    if timings is not None:
        out["timings_seconds"] = timings
    return out


def certificate_json(tri, result, method, timings=None):
    doc = certificate_dict(tri, result, method, timings=timings)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_certificate(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CertificateError(f"not a certificate: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise CertificateError("unknown certificate format")
    return doc


def _parse_box(tri, doc, kernel):
    """The partition and the edge-parameter box of a certificate."""
    try:
        part = vf.Partition(*(
            _edge_list(doc["partition"][key])
            for key in ("loose", "kept", "fixed", "variable")
        ))
        part.check(tri.m, tri.o)
        if len(doc["nu"]) != tri.m:
            raise ValueError(f"nu must list {tri.m} intervals")
        return part, [_parse_interval(pair, kernel) for pair in doc["nu"]]
    except KeyError as exc:
        raise CertificateError(f"certificate has no {exc}") from exc
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise CertificateError(f"malformed certificate: {exc}") from exc


def _edge_list(value):
    if not isinstance(value, list) or any(type(e) is not int for e in value):
        raise ValueError(f"edge list expected, got {value!r}")
    return value


def recheck(tri, doc, precision=None):
    """Re-run the realization, angle-sum and gimbal stages from a parsed
    certificate.  Returns (ok, detail)."""
    if doc.get("status") != "VERIFIED":
        return False, "certificate does not claim verification"
    if doc.get("triangulation_sha256") != triangulation_hash(tri):
        return False, "triangulation hash mismatch"
    if precision is None:
        precision = doc.get("precision_bits", 53)
    if type(precision) is not int or precision < 53:
        raise CertificateError(f"precision must be an integer >= 53, got {precision!r}")
    part, nu = _parse_box(tri, doc, kernel_for_precision(precision))
    box = vf.CertifiedBox(
        nu=nu, theta=None, partition=part, precision=precision
    )
    try:
        vf.check_gimbal_lock(tri, vf.check_realization_and_angles(tri, box))
    except vf.StepFailure as exc:
        return False, f"recheck failed: {exc}"
    return True, "realization, angle sums and gimbal check reverified"
