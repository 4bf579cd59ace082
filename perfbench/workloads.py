"""Benchmark inputs: the bundled fixtures and a 1-4-move scaling family.

Every input is a `.tri` text; the program under test only ever sees that
text.  The seed decides the order of the inputs in a pass and, for the
scaling family, which original tetrahedra receive a 1-4 move.
"""

import hashlib
import random

FIXTURE_NAMES = ("dodec27a.tri", "dodec27b.tri", "dodec30x2.tri", "s3_twotet.tri")
MP80_NAMES = ("dodec27a.tri", "dodec30x2.tri")
SCALING_MOVES = (12, 24)
WORKLOADS = ("fixtures", "scaling", "mp80")


class Input:
    """One certify job: a name, the `.tri` text, the working precision and
    the outcome the check expects (0 = VERIFIED, else the failed step)."""

    def __init__(self, name, text, precision=53, expect_step=0):
        self.name = name
        self.text = text
        self.precision = precision
        self.expect_step = expect_step
        self.sha256 = sha256(text)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _fixture(hypcert, name, precision=53):
    text = hypcert.bundled_fixture(name).read_text()
    expect = 1 if name == "s3_twotet.tri" else 0
    return Input(f"{name[:-4]}@{precision}", text, precision, expect)


def scaling_family(hypcert, build_fixtures, seed):
    """Texts of `dodec27a`'s cone complex after 12 and 24 1-4 moves.

    The seed shuffles the 27 original tetrahedra; the first k of that order
    each get one move.  A tetrahedron made by a move is never subdivided
    again: repeated subdivision drives stage II out of containment.
    """
    bf = build_fixtures
    mp = bf.mp
    with mp.workdps(60):
        tets_mv, gluings, pts = bf.build_cone_complex(0)
        hpts = bf.hyperboloid_points(pts, bf.circumradius())
        order = list(range(len(tets_mv)))
        random.Random(seed).shuffle(order)
        out = []
        done = 0
        for k in SCALING_MOVES:
            for t in order[done:k]:
                tets_mv, gluings, hpts = bf.one_four_move(tets_mv, gluings, hpts, t)
            done = k
            text = bf.triangulation_text(gluings)
            tri = hypcert.parse(text)
            lengths = bf.lengths_for(tri, tets_mv, hpts)
            full = text + "lengths:\n" + " ".join(lengths) + "\n"
            out.append(Input(f"scaling{k}", full))
    return out


def make_inputs(workload, seed, hypcert, build_fixtures):
    """The inputs of one pass of `workload`, in the order the seed fixes."""
    if workload == "fixtures":
        inputs = [_fixture(hypcert, n) for n in FIXTURE_NAMES]
    elif workload == "scaling":
        inputs = scaling_family(hypcert, build_fixtures, seed)
    elif workload == "mp80":
        inputs = [_fixture(hypcert, n, 80) for n in MP80_NAMES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(inputs)
    return inputs
