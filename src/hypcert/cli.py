"""Command line front end.

    hypcert check FILE          combinatorial validation only
    hypcert solve FILE          unverified edge-length solve
    hypcert certify FILE        full verification, emits a certificate
    hypcert probe-gimbal FILE   scan edge partitions for gimbal lock

Exit codes: 0 success/VERIFIED, 1 input or usage error, 2 conservative
failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import certificate as cert
from . import geometry as geo
from . import verify
from .gimbal import probe_partitions
from .interval import MAX_PRECISION, IntervalError, kernel_for_precision
from .triangulation import TriangulationError, parse_file, serialize

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNVERIFIED = 2


def _load(path):
    try:
        return parse_file(path)
    except FileNotFoundError:
        print(f"error: no such file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except OSError as exc:  # a directory, an unreadable file
        print(f"error: cannot read {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except (TriangulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _cannot_write(path, exc):
    print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)


def _check_output(path):
    """Exit with the message a failed write would give, before any work is
    done, if path cannot be opened for writing; leave it as it was."""
    existed = os.path.exists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        _cannot_write(path, exc)
        raise SystemExit(EXIT_INPUT)
    if not existed:
        os.remove(path)


def _write(path, text):
    """Write an output file; False, after an error message, if it fails."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _cannot_write(path, exc)
        return False
    return True


def cmd_check(args):
    tri = _load(args.file)
    print(f"tetrahedra: {tri.n_tets}")
    print(f"edge classes: {tri.m}")
    print(f"vertex classes: {tri.o}")
    sizes = sorted(tri.edge_degrees.tolist())
    print(f"edge valences: {sizes}")
    print(f"lengths section: {'yes' if tri.lengths else 'no'}")
    print(f"hash: {cert.triangulation_hash(tri)}")
    print("OK")
    return EXIT_OK


def cmd_solve(args):
    tri = _load(args.file)
    if args.output:
        _check_output(args.output)
    init = None
    if tri.lengths is not None:
        init = [-math.cosh(float(l)) for l in tri.lengths]
    try:
        values, resid = verify.bootstrap_solve(
            tri, init=init, max_iters=args.max_iters, seed=args.seed
        )
    except verify.SolveFailure as exc:
        print(f"unsolved: {exc}", file=sys.stderr)
        return EXIT_UNVERIFIED
    lengths = [math.acosh(-v) for v in values]
    text = serialize(tri, lengths=lengths)
    if args.output:
        if not _write(args.output, text):
            return EXIT_INPUT
        print(f"residual {resid:.3e}; wrote {args.output}")
    else:
        sys.stdout.write(text)
        print(f"# residual {resid:.3e}", file=sys.stderr)
    return EXIT_OK


def cmd_certify(args):
    try:
        kernel_for_precision(args.precision)
    except IntervalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    tri = _load(args.file)
    if args.output:
        _check_output(args.output)
    t0 = time.perf_counter()
    result = verify.run_pipeline(tri, precision=args.precision, seed=args.seed)
    elapsed = time.perf_counter() - t0
    timings = {"total": round(elapsed, 3)} if args.timings else None
    doc = cert.certificate_json(tri, result, "krawczyk", timings=timings)
    if args.output:
        if not _write(args.output, doc):
            return EXIT_INPUT
    else:
        sys.stdout.write(doc)
    if result.verified:
        print("VERIFIED", file=sys.stderr)
        return EXIT_OK
    print(
        f"NOT VERIFIED (step {result.failed_step}: "
        f"{result.statuses.get(result.failed_step)})",
        file=sys.stderr,
    )
    return EXIT_UNVERIFIED


def cmd_recheck(args):
    tri = _load(args.file)
    try:
        with open(args.certificate, "r", encoding="utf-8") as fh:
            doc = cert.parse_certificate(fh.read())
        ok, detail = cert.recheck(tri, doc)
    except (OSError, UnicodeDecodeError, cert.CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(detail)
    return EXIT_OK if ok else EXIT_UNVERIFIED


def cmd_probe_gimbal(args):
    if args.budget < 1:
        print("error: budget must be at least 1", file=sys.stderr)
        return EXIT_INPUT
    tri = _load(args.file)
    if tri.lengths is None:
        print("error: probe needs a lengths section", file=sys.stderr)
        return EXIT_INPUT
    try:
        params = geo.EdgeParams.from_lengths([float(l) for l in tri.lengths])
        rows = probe_partitions(tri, params, budget=args.budget, seed=args.seed)
    except (geo.RealizationError, TriangulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    locked = sum(1 for r in rows if r[2])
    print(f"# loose-set candidates: {len(rows)}  locked: {locked}  "
          f"avoiding: {len(rows) - locked}")
    print("# loose-edges  sigma_min  locked")
    for part, smin, is_locked in rows:
        tag = "LOCKED" if is_locked else "ok"
        print(f"{','.join(map(str, part))}  {smin:.6e}  {tag}")
    return EXIT_OK


def _count(text):
    """An option's non-negative integer; anything else is a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse, but a usage error exits EXIT_INPUT: argparse's own code, 2,
    is the code of a conservative failure here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def main(argv=None):
    ap = _Parser(
        prog="hypcert",
        description="verified hyperbolic structures on closed triangulations",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a triangulation file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("solve", help="unverified edge-length solve")
    p.add_argument("file")
    p.add_argument("--max-iters", type=_count, default=100)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("certify", help="run the verification pipeline")
    p.add_argument("file")
    p.add_argument("--precision", type=int, default=53,
                   help=f"working precision in bits (53 to {MAX_PRECISION})")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the certificate")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("recheck", help="re-verify a certificate file")
    p.add_argument("file")
    p.add_argument("certificate")
    p.set_defaults(fn=cmd_recheck)

    p = sub.add_parser("probe-gimbal", help="scan partitions for gimbal lock")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_probe_gimbal)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # downstream pager closed early; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
