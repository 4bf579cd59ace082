"""The benchmark's tracer (`perfbench/tracing.py`) wraps `hypcert`
attributes by name from outside the package, so a renamed function would
only show when the benchmark runs.  Here every name it wraps must resolve,
and a traced pipeline run must yield stage V's figures.
"""

import pathlib
import sys

import pytest

import hypcert

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


def test_spanned_and_counted_functions_resolve(tracing):
    for mod, attr, name in tracing.SPANS + tracing.CALL_COUNTS:
        owner = tracing._module(hypcert, mod)
        assert callable(getattr(owner, attr, None)), (mod, attr, name)


def test_counted_interval_methods_resolve(tracing):
    for cls_name, attrs, key in tracing.OP_COUNTS:
        cls = getattr(hypcert.interval, cls_name)
        for attr in attrs:
            assert callable(getattr(cls, attr, None)), (cls_name, attr, key)


def test_traced_run_reports_stage_v(tracing, dodec27a):
    # the tracer reads the invertibility test's dimension off its argument,
    # which a change of the Jacobian's type would break only under --trace
    with tracing.Tracer(hypcert) as tracer:
        mark = tracer.mark()
        res = hypcert.run_pipeline(dodec27a)
        metrics, _ = tracer.summary(mark)
    assert res.verified
    assert metrics["interval.invertible_dim"] == 3 * dodec27a.o
    # `ball_mul` takes stacks: one call per level of the segmented scan,
    # whose longest segment is a loop's letters before its last polygon
    # letter L or after its first F, and two for the terms
    longest = 0
    for loop in res.box.loops:
        poly = [i for i, let in enumerate(loop.word) if let["kind"] == "P"]
        longest = max(longest, poly[-1], len(loop.word) - 1 - poly[0])
    want = (longest - 1).bit_length() + 2
    assert metrics["gimbal.ball_mul_count"] == want == 10
