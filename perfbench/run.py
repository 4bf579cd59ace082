"""hypcert benchmark: certify latency on the fixtures, a 1-4-move scaling
family and 80-bit runs.

Run from the repository root:

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 25 --trace 0

One process and one thread of work in a closed loop: each input is parsed,
certified (`hypcert.run_pipeline`) and serialised
(`hypcert.certificate_json`) only after the previous one has finished.  A
*pass* is every input of the workload once, in the order the seed fixes.
Passes repeat until `--seconds` have gone by.  Outputs are checked after
the timed region.  With `--trace 1` the run alternates plain and traced
passes, adds one operation-counting pass and scalar microbenchmarks, and
reports the per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See NOTES.md.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

import mpmath

import refclock
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEMOS = os.path.join(ROOT, "demos")
NO_BYTECODE = os.path.join(HERE, "results", "no-bytecode")  # never created
SETUP_REPEATS = 7
METHOD = "krawczyk"


def cap_threads():
    """One thread of work: cap BLAS/OpenMP pools at the usable cores.

    Must run before numpy is first imported.
    """
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        n = int(cur) if cur.isdigit() and int(cur) > 0 else cores
        os.environ[var] = str(min(n, cores))


def require_checkout():
    for path in (os.path.join(SRC, "hypcert", "__init__.py"),
                 os.path.join(DEMOS, "build_fixtures.py")):
        if not os.path.isfile(path):
            sys.exit(f"perfbench: {os.path.relpath(path, ROOT)} is missing; "
                     "run from the root of a full checkout")
    sys.path[:0] = [SRC, DEMOS]


def setup_once(workload, seed):
    """Import hypcert afresh, read the fixtures and generate the scaling
    texts.  Returns (hypcert module, inputs).

    No bytecode cache is read or written, so every set-up compiles the
    package from source, whether or not a `__pycache__` exists.
    """
    for name in list(sys.modules):
        if name in ("hypcert", "build_fixtures") or name.startswith("hypcert."):
            del sys.modules[name]
    saved = sys.dont_write_bytecode, sys.pycache_prefix
    sys.dont_write_bytecode, sys.pycache_prefix = True, NO_BYTECODE
    try:
        hypcert = importlib.import_module("hypcert")
        build_fixtures = None
        if workload == "scaling":
            dps = mpmath.mp.dps
            build_fixtures = importlib.import_module("build_fixtures")
            mpmath.mp.dps = dps  # its import sets the global precision
    finally:
        sys.dont_write_bytecode, sys.pycache_prefix = saved
    inputs = workloads.make_inputs(workload, seed, hypcert, build_fixtures)
    if not os.path.abspath(hypcert.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hypcert from {hypcert.__file__}, "
                 f"not from {SRC}")
    return hypcert, inputs


def certify_pass(hypcert, inputs):
    """One pass: parse, run_pipeline and certificate_json for every input."""
    out = []
    for inp in inputs:
        tri = hypcert.parse(inp.text)
        result = hypcert.run_pipeline(tri, precision=inp.precision)
        out.append((result, hypcert.certificate_json(tri, result, METHOD)))
    return out


def timed_pass(clock, hypcert, inputs):
    """(wall seconds, reference seconds, pass output) of one pass."""
    gc.collect()
    out, wall, ref = clock.time(certify_pass, hypcert, inputs)
    return wall, ref, out


def check(hypcert, inputs, outcomes):
    """Count wrong outcomes over all passes.

    Wrong: a verdict or failed step other than expected, a certificate
    whose status disagrees with the verdict, a 53-bit certificate that is
    not byte-identical to the first pass's, or a VERIFIED certificate that
    `hypcert.recheck` rejects.  Returns (failed, certificate digests).
    """
    failed = 0
    first = {}
    audited = {}
    for passes in outcomes:
        for inp, (step, doc) in zip(inputs, passes):
            digest = workloads.sha256(doc)
            status = hypcert.parse_certificate(doc)["status"]
            ok = step == inp.expect_step and status == (
                "VERIFIED" if inp.expect_step == 0 else "FAILED")
            if first.setdefault(inp.name, digest) != digest and inp.precision == 53:
                ok = False
            if ok and step == 0:
                if digest not in audited:
                    tri = hypcert.parse(inp.text)
                    audited[digest] = hypcert.recheck(
                        tri, hypcert.parse_certificate(doc))[0]
                ok = audited[digest]
            failed += not ok
    return failed, first


def outcome(out):
    return [(result.failed_step, doc) for result, doc in out]


def tail(times):
    """Highest percentile of `times` with at least ten samples beyond it.

    With ten samples or fewer no percentile qualifies, and the slowest
    sample stands in.  Returns (value, percentile).
    """
    ordered = sorted(times)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(clock, hypcert, inputs, seconds):
    walls, refs, outcomes = [], [], []
    start = time.perf_counter()
    while not refs or time.perf_counter() - start < seconds:
        wall, ref, out = timed_pass(clock, hypcert, inputs)
        walls.append(wall)
        refs.append(ref)
        outcomes.append(outcome(out))
        del out
    return walls, refs, outcomes


def enclosure_width_max(out):
    widths = [0.0]
    for result, _ in out:
        if result.verified:
            nu = result.box.nu
            widths += [float(nu[e].width()) for e in result.partition.e_var]
    return max(widths)


def run_traced(clock, hypcert, inputs, seconds):
    """Plain and traced passes in turn, then one counting pass.

    Span times are converted to reference seconds with their pass's speed.
    Returns (per-layer metrics, outcomes, tracer, coverage per pass).
    """
    plain, traced, layers, outcomes, coverage = [], [], [], [], []
    tracer = tracing.Tracer(hypcert)
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        _, ref, out = timed_pass(clock, hypcert, inputs)
        plain.append(ref)
        outcomes.append(outcome(out))
        with tracer:
            mark = tracer.mark()
            wall, ref, out = timed_pass(clock, hypcert, inputs)
        traced.append(ref)
        outcomes.append(outcome(out))
        per_pass, cov = tracer.summary(mark)
        for key in per_pass:
            if key.endswith("_s"):
                per_pass[key] *= ref / wall
        per_pass["verify.enclosure_width_max"] = enclosure_width_max(out)
        per_pass["certificate.bytes"] = sum(len(doc.encode()) for _, doc in out)
        layers.append(per_pass)
        coverage.append(cov)
        del out

    with tracing.OpCounter(hypcert) as counter:
        out = certify_pass(hypcert, inputs)
    outcomes.append(outcome(out))
    del out

    metrics = {}
    for key in layers[0]:
        values = [p[key] for p in layers]
        exact = isinstance(values[0], int)
        metrics[key] = (statistics.median_low if exact else statistics.median)(values)
    metrics.update(counter.counts)
    metrics.update(tracing.scalar_op_ns(clock, hypcert))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics, outcomes, tracer, coverage


UNITS = {"_s": "s", "_ns": "ns", "_calls": "count", "_count": "count",
         "_steps": "count", "_dim": "rows", "_max": "nu", ".bytes": "B",
         ".overhead": "ratio"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    cap_threads()
    require_checkout()
    import numpy  # noqa: F401  (imported once, outside the timed set-ups)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    clock = refclock.RefClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        (hypcert, inputs), _, ref = clock.time(setup_once, args.workload, args.seed)
        setups.append(ref)
    for inp in inputs:
        print(f"input {inp.name} precision {inp.precision} sha256 {inp.sha256}")

    if args.trace:
        metrics, outcomes, tracer, coverage = run_traced(
            clock, hypcert, inputs, args.seconds)
        mark = tracer.mark()
        with tracer:
            (failed, digests), wall, ref = clock.time(
                check, hypcert, inputs, outcomes)
        metrics["certificate.recheck_s"] = tracer.recheck_seconds(mark) * ref / wall
        for inp, cov in zip(inputs, zip(*coverage)):
            print(f"stage coverage of run_pipeline {inp.name}: "
                  f"min {min(cov):.4f} over {len(cov)} traced passes")
        os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
        path = os.path.join(HERE, "results",
                            f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"inputs": [i.name for i in inputs],
                       "spans": tracer.dump(), "metrics": metrics}, fh)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        metrics = {k: metric(v, unit_of(k)) for k, v in sorted(metrics.items())}
    else:
        walls, refs, outcomes = run_timed(clock, hypcert, inputs, args.seconds)
        failed, digests = check(hypcert, inputs, outcomes)
        tail_s, pct = tail(refs)
        print("pass wall s: " + " ".join(f"{t:.4f}" for t in walls))
        print("pass ref s:  " + " ".join(f"{t:.4f}" for t in refs))
        print(f"certify_s is the median and certify_tail_s the p{pct:g} "
              f"of {len(refs)} passes")
        metrics = {
            "certify_s": metric(statistics.median(refs), "s"),
            "certify_tail_s": metric(tail_s, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    for name, digest in digests.items():
        print(f"certificate {name} sha256 {digest}")
    attempted = sum(len(p) for p in outcomes)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
