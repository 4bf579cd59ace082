"""Spans and operation counts for the traced benchmark run.

The pipeline looks its layers up as module attributes at call time, so
replacing those attributes from outside sees every stage without touching
the package.  `Tracer` records one span (name, start, end, parent) per
wrapped call and keeps them in memory; `OpCounter` counts the scalar
interval operations in a pass of its own, so that the counting wrappers do
not inflate span self-times.
"""

import functools
import time
import timeit
from collections import Counter

# (module under hypcert, attribute, span name).  A function imported by name
# into several modules is wrapped in each of them.
SPANS = (
    ("", "parse", "triangulation.parse"),
    ("", "run_pipeline", "verify.run_pipeline"),
    ("", "certificate_json", "certificate.json"),
    ("", "recheck", "certificate.recheck"),
    ("verify", "select_submatrix", "verify.select_submatrix"),
    ("verify", "krawczyk_certify", "verify.krawczyk_certify"),
    ("verify", "krawczyk_step", "verify.krawczyk_step"),
    ("verify", "check_realization_and_angles", "verify.check_realization_and_angles"),
    ("verify", "vertex_link_hexagon_complex", "triangulation.links"),
    ("gimbal", "vertex_link_hexagon_complex", "triangulation.links"),
    ("certificate", "vertex_link_hexagon_complex", "triangulation.links"),
    ("geometry", "jacobian", "geometry.jacobian"),
    ("geometry", "angle_sums", "geometry.angle_sums"),
    ("gimbal", "gimbal_lock_check", "gimbal.gimbal_lock_check"),
    ("gimbal", "assemble_gimbal_jacobian", "gimbal.assemble_gimbal_jacobian"),
    ("gimbal", "build_loops_for_partition", "gimbal.build_loops_for_partition"),
    ("gimbal", "interval_matrix_invertible", "interval.invertible"),
)

# Direct children of run_pipeline that make up stages II to V.
STAGES = (
    "verify.krawczyk_certify",
    "verify.check_realization_and_angles",
    "gimbal.gimbal_lock_check",
)

# Called thousands of times per input: counted, not spanned.
CALL_COUNTS = (("gimbal", "ball_mul", "gimbal.ball_mul"),)

# Each arithmetic operation is counted once: `__sub__`/`__rsub__` go through
# `__add__` and `__rtruediv__` through `__truediv__`, so those are not wrapped.
OP_COUNTS = (
    ("Interval", ("__mul__", "__rmul__"), "interval.mul_count"),
    ("Interval", ("__add__", "__radd__"), "interval.add_count"),
    ("Interval", ("__truediv__",), "interval.div_count"),
    ("MPInterval", ("__mul__", "__rmul__"), "interval.mp_mul_count"),
    ("MPInterval", ("__add__", "__radd__"), "interval.mp_add_count"),
)


def _module(hypcert, name):
    return getattr(hypcert, name) if name else hypcert


class _Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)
        return False


class Tracer(_Patches):
    """Spans around the pipeline's layers, kept in memory.

    A span is [name, start, end, parent index, root index, note], where the
    note is the dimension of an invertibility test.  A root span is a
    call made by the benchmark itself (parse, run_pipeline, certificate_json,
    recheck), so work under `recheck` stays apart from work under certify.
    """

    def __init__(self, hypcert):
        super().__init__()
        self.hypcert = hypcert
        self.spans = []
        self.calls = Counter()
        self._stack = []

    def __enter__(self):
        for mod, attr, name in SPANS:
            owner = _module(self.hypcert, mod)
            self.replace(owner, attr, self._span(getattr(owner, attr), name))
        for mod, attr, name in CALL_COUNTS:
            owner = _module(self.hypcert, mod)
            self.replace(owner, attr, self._count(getattr(owner, attr), name))
        return self

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else idx
            note = args[0].nrows if name == "interval.invertible" else None
            span = [name, 0.0, 0.0, parent, root, note]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def _count(self, fn, name):
        spans, stack, calls = self.spans, self._stack, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or spans[stack[0]][0] != "certificate.recheck":
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def mark(self):
        """Where the spans and counts made from now on begin."""
        return len(self.spans), Counter(self.calls)

    def summary(self, mark):
        """Per-layer totals of the certify spans recorded since `mark`, plus
        the share of each `run_pipeline` span that the stage spans cover.

        Stage I is the part of `run_pipeline` before stage II starts (the
        candidate's residual, its float Jacobian and the subsystem
        selection); on an input rejected in stage I it is the whole call.
        """
        first, calls_before = mark
        spans = self.spans
        total, count, self_time = Counter(), Counter(), Counter()
        children = {}
        dim = 0
        for idx in range(first, len(spans)):
            name, start, end, parent, root, note = spans[idx]
            if spans[root][0] == "certificate.recheck":
                continue
            total[name] += end - start
            count[name] += 1
            self_time[name] += end - start
            if parent >= 0:
                self_time[spans[parent][0]] -= end - start
                children.setdefault(parent, []).append(spans[idx])
            if name == "interval.invertible":
                dim = max(dim, note)
        coverage = []
        for idx in range(first, len(spans)):
            name, start, end = spans[idx][:3]
            if name != "verify.run_pipeline":
                continue
            kids = children.get(idx, [])
            stage1 = min(
                [k[1] for k in kids if k[0] == "verify.krawczyk_certify"] + [end]
            ) - start
            total["verify.stage1"] += stage1
            staged = stage1 + sum(k[2] - k[1] for k in kids if k[0] in STAGES)
            coverage.append(staged / (end - start))
        calls = self.calls - calls_before
        metrics = {
            "triangulation.parse_s": total["triangulation.parse"],
            "triangulation.links_s": total["triangulation.links"],
            "geometry.jacobian_s": total["geometry.jacobian"],
            "geometry.jacobian_calls": count["geometry.jacobian"],
            "geometry.angle_sums_s": total["geometry.angle_sums"],
            "geometry.angle_sums_calls": count["geometry.angle_sums"],
            "verify.stage1_s": total["verify.stage1"],
            "verify.stage2_s": total["verify.krawczyk_certify"],
            "verify.stage34_s": total["verify.check_realization_and_angles"],
            "verify.krawczyk_steps": count["verify.krawczyk_step"],
            "verify.krawczyk_self_s": self_time["verify.krawczyk_step"],
            "gimbal.stage5_s": total["gimbal.gimbal_lock_check"],
            "gimbal.jacobian_s": total["gimbal.assemble_gimbal_jacobian"],
            "gimbal.loops_s": total["gimbal.build_loops_for_partition"],
            "gimbal.ball_mul_count": calls["gimbal.ball_mul"],
            "interval.invertible_s": total["interval.invertible"],
            "interval.invertible_dim": dim,
            "certificate.json_s": total["certificate.json"],
        }
        return metrics, coverage

    def recheck_seconds(self, mark):
        return sum(
            s[2] - s[1]
            for s in self.spans[mark[0]:]
            if s[0] == "certificate.recheck"
        )

    def dump(self):
        """The spans as plain records, for writing out at the end."""
        return [
            {"name": n, "start": a, "end": b, "parent": p}
            for n, a, b, p, _, _ in self.spans
        ]


class OpCounter(_Patches):
    """Counts of scalar interval operations, by wrapping the dunder methods."""

    def __init__(self, hypcert):
        super().__init__()
        self.hypcert = hypcert
        self.counts = Counter({key: 0 for _, _, key in OP_COUNTS})

    def __enter__(self):
        for cls_name, attrs, key in OP_COUNTS:
            cls = getattr(self.hypcert.interval, cls_name)
            for attr in attrs:
                self.replace(cls, attr, self._wrap(getattr(cls, attr), key))
        return self

    def _wrap(self, fn, key):
        counts = self.counts

        def wrapper(a, b):
            counts[key] += 1
            return fn(a, b)

        return wrapper


def scalar_op_ns(clock, hypcert, number=50000):
    """Reference nanoseconds of one `Interval` mul and add and one 80-bit
    `MPInterval` mul, on operands whose products and sums are inexact."""
    iv = hypcert.Interval
    mp = hypcert.MPInterval
    env = {
        "a": iv(1.1, 1.3), "b": iv(-0.7, 2.9),
        "ma": mp.from_floats(1.1, 1.3, 80), "mb": mp.from_floats(-0.7, 2.9, 80),
    }

    def ns(stmt, n):
        _, _, ref = clock.time(timeit.timeit, stmt, "pass", time.perf_counter, n, env)
        return ref / n * 1e9

    return {
        "interval.mul_ns": ns("a * b", number),
        "interval.add_ns": ns("a + b", number),
        "interval.mp80_mul_ns": ns("ma * mb", number // 4),
    }
