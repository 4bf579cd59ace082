"""The benchmark's tracer (`perfbench/tracing.py`) wraps `hypcert`
attributes by name from outside the package, so a renamed function would
only show when the benchmark runs.  Here every name it wraps must resolve.
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
