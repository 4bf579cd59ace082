"""The benchmark's tracer (`perfbench/tracing.py`) wraps `hypcert`
attributes by name from outside the package, so a renamed function would
only show when the benchmark runs.  Here every name it wraps must resolve,
a traced pipeline run must yield stage V's figures, and the traced metric
that `perfbench/run.py` reads off a certified box must read it right.
"""

import pathlib
import sys

import pytest

import hypcert
from hypcert.interval import kernel_for_precision

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing


@pytest.fixture(scope="module")
def run(tracing):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
    finally:
        sys.path.remove(str(PERFBENCH))
    return run


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
    # `ball_mul` takes stacks: one call per level of the reduction, whose
    # longest block runs from a segment's first row or a polygon letter to
    # just before the next polygon letter; one per level of the scan over
    # the block products, whose longest segment has the most blocks; and two
    # for the terms.  A loop's forward segment is its letters before its
    # last polygon letter L, its backward one its letters after its first F,
    # last letter first.
    def block_lengths(cuts, rows):
        cuts = sorted({0, *cuts}) if rows else []
        return [b - a for a, b in zip(cuts, cuts[1:] + [rows])]

    longest_block = longest_segment = 1
    for loop in res.box.loops:
        n = len(loop.word)
        poly = [i for i, w in enumerate(loop.word.tolist()) if w < 0]
        for lengths in (block_lengths(poly[:-1], poly[-1]),
                        block_lengths([n - 1 - p for p in poly[1:]], n - 1 - poly[0])):
            longest_block = max([longest_block, *lengths])
            longest_segment = max(longest_segment, len(lengths))
    want = (longest_block - 1).bit_length() + (longest_segment - 1).bit_length() + 2
    assert metrics["gimbal.ball_mul_count"] == want == 12


@pytest.mark.parametrize("bits", [53, 80])
def test_enclosure_width_max_is_the_widest_kept_edge(run, dodec27a, bits):
    # `verify.enclosure_width_max` reads `result.box.nu[e].width()` for the
    # kept edges e, which a change of the box's type would break only under
    # --trace 1
    result = hypcert.run_pipeline(dodec27a, precision=bits)
    assert result.verified
    kernel = kernel_for_precision(bits)
    want = float(kernel.width(result.box.nu[result.partition.e_var]).max())
    assert run.enclosure_width_max([(result, None)]) == want > 0.0
