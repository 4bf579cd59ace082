import math
import pathlib

import pytest

from hypcert import verify
from hypcert.triangulation import parse, parse_file, vertex_link_hexagon_complex

DATA = pathlib.Path(__file__).resolve().parent.parent / "src" / "hypcert" / "data"

HYPERBOLIC_FIXTURES = ("dodec27a.tri", "dodec27b.tri", "dodec30x2.tri")

S3_TEXT = """tets 2
tet 0: 1:1023 1:1023 1:1023 1:1023
tet 1: 0:1023 0:1023 0:1023 0:1023
"""

# a closed oriented gluing whose vertex link is a genus-2 surface
BAD_LINK_TEXT = """tets 2
tet 0: 1:1302 0:1230 0:3012 1:1230
tet 1: 0:3012 0:2031 1:2031 1:1302
"""


# closed and oriented, with edge valences 1, 2 and 9: the degree-1 edge's
# prism end is a one-sided polygon, so its vertex link has no hexagon
# decomposition, and parsing rejects it
DEGREE_ONE_TEXT = """tets 2
tet 0: 0:1023 0:1023 1:2310 1:2310
tet 1: 0:3201 0:3201 1:1230 1:3012
lengths:
1.0 1.0 1.0
"""


def data_path(name):
    return DATA / name


@pytest.fixture(scope="session")
def s3():
    return parse(S3_TEXT)


@pytest.fixture(scope="session")
def dodec27a():
    return parse_file(DATA / "dodec27a.tri")


@pytest.fixture(scope="session")
def dodec27b():
    return parse_file(DATA / "dodec27b.tri")


@pytest.fixture(scope="session")
def dodec30x2():
    return parse_file(DATA / "dodec30x2.tri")


@pytest.fixture(scope="session")
def hyperbolic_triangulations(dodec27a, dodec27b, dodec30x2):
    return {
        "dodec27a": dodec27a,
        "dodec27b": dodec27b,
        "dodec30x2": dodec30x2,
    }


@pytest.fixture(scope="session")
def verified27a(dodec27a):
    result = verify.run_pipeline(dodec27a)
    assert result.verified
    return result


@pytest.fixture(scope="session")
def verified_all(hyperbolic_triangulations):
    out = {}
    for name, tri in hyperbolic_triangulations.items():
        result = verify.run_pipeline(tri)
        assert result.verified, (name, result.statuses)
        out[name] = result
    return out


def links_of(tri):
    """The vertex links of `tri`, one `VertexLinks`."""
    return vertex_link_hexagon_complex(tri)


def stage_one(tri, lengths=None):
    """Stage I as `run_pipeline` runs it on `tri` at `lengths` (its own by
    default): (p0, the float residual at p0, the partition, the float kept
    Jacobian block)."""
    p0 = [-math.cosh(float(l)) for l in (lengths or tri.lengths)]
    params, data, residual = verify._evaluate(tri, p0)
    return (p0, residual, *verify.select_subsystem(tri, params, data, links_of(tri)))
