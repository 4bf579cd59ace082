"""Stage V's batched labels against the scalar label formulas.

`gimbal.CocycleLabels` computes the cosine and sine of every dihedral and
vertex angle as kernel arrays over all simplices, one table of the labels'
float endpoints, and stage V makes the balls of interval labels from that
table.  Every label read from the arrays (`tests/gimbal_oracle.label_of`)
must be bit for bit the matrix the scalar formulas of
`tests/geometry_oracle.py` give one letter at a time
(`tests/gimbal_oracle.label_matrix`), the table must hold that matrix's
outward float endpoints at the letter's slot, and every ball of the table
must be what the scalar reference
`tests/ball_oracle.scalar_ball_from_interval_mat3` makes of it, norm bound
included: for floats, 53-bit intervals and 80-bit intervals, on the
bundled fixtures, a re-subdivided input and random simplices.
"""

import itertools
import math
import random

import numpy as np
import pytest

from hypcert import geometry as geo
from hypcert import gimbal as gb
from hypcert import triangulation as tr
from hypcert.interval import (
    FLOAT_KERNEL,
    REAL_KERNEL,
    DomainError,
    Interval,
    MPInterval,
    MPKernel,
)
from tests.ball_oracle import per_ball, scalar_ball_from_interval_mat3, stacked
from tests.conftest import S3_TEXT
from tests.geometry_oracle import edge_params_from_lengths
from tests.gimbal_oracle import label_matrix, label_of, label_slot_of
from tests.test_gimbal import _scaling_member
from tests import kernel_scalars as ks

KERNELS = {"float": REAL_KERNEL, "53": FLOAT_KERNEL, "80": MPKernel(80)}


def _bits(x):
    if isinstance(x, Interval):
        return x.lo.hex(), x.hi.hex()
    if isinstance(x, MPInterval):
        return x.lo, x.hi, x.prec
    return float(x).hex()


def _matrix_bits(m):
    return [[_bits(x) for x in row] for row in m]


def _letters(n_tets):
    """In every simplex, a short-edge letter from each corner permutation
    and a middle-edge letter from each side a canonical token can name."""
    for tet in range(n_tets):
        for s in itertools.permutations(range(4)):
            yield {"kind": "g", "tet": tet, "s_start": s, "token": (tet, s[0], s[1])}
            if s[1] < s[2]:
                yield {"kind": "b", "token": (tet, s, (s[0], s[2], s[1], s[3]))}


def _check_labels(tri, params):
    labels = gb.CocycleLabels(tri, params)
    interval = labels.kernel is not REAL_KERNEL
    lo, hi = labels.label_bounds()
    assert lo.shape == hi.shape == (24 * tri.n_tets, 3, 3)
    balls = gb._balls_of_bounds(stacked(lo), stacked(hi))
    checked = 0
    for letter in _letters(tri.n_tets):
        want = label_matrix(labels, letter)
        assert _matrix_bits(label_of(labels, letter)) == _matrix_bits(want), letter
        ends = [[(x.lo_float(), x.hi_float()) if interval else (x, x) for x in row]
                for row in want]
        slot = label_slot_of(letter)
        assert _matrix_bits(lo[slot].tolist()) == _matrix_bits(
            [[a for a, _ in row] for row in ends]), letter
        assert _matrix_bits(hi[slot].tolist()) == _matrix_bits(
            [[b for _, b in row] for row in ends]), letter
        if interval:
            mid, rad, norm = (per_ball(x)[slot].tolist() for x in balls)
            ref = scalar_ball_from_interval_mat3(want)
            assert _matrix_bits(mid) == _matrix_bits(ref.mid), letter
            assert rad.hex() == ref.rad.hex(), letter
            assert norm.hex() == ref.norm_bound().hex(), letter
        checked += 1
    return checked


@pytest.fixture(scope="module")
def scaling12():
    return _scaling_member(12)


@pytest.mark.parametrize("kind", list(KERNELS))
@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2", "scaling12"])
def test_batched_labels_are_bitwise_the_scalar_formulas(name, kind, hyperbolic_triangulations,
                                                        scaling12):
    tri = scaling12 if name == "scaling12" else hyperbolic_triangulations[name]
    params = edge_params_from_lengths(tri.lengths, KERNELS[kind])
    assert _check_labels(tri, params) == 36 * tri.n_tets


@pytest.mark.parametrize("name", ["dodec27a", "dodec30x2"])
def test_batched_labels_at_the_certified_box(name, hyperbolic_triangulations, verified_all):
    # the box stage V labels: wide intervals, not points
    tri = hyperbolic_triangulations[name]
    params = geo.EdgeParams(verified_all[name].box.nu, FLOAT_KERNEL)
    assert _check_labels(tri, params) == 36 * tri.n_tets


@pytest.mark.parametrize("kind", list(KERNELS))
def test_batched_labels_on_random_simplices(kind):
    tri = tr.parse(S3_TEXT)
    rng = random.Random(21)
    kernel = KERNELS[kind]
    done = 0
    while done < 8:
        vals = [-1.0 - rng.uniform(0.05, 2.0) for _ in range(tri.m)]
        try:
            _check_labels(tri, geo.EdgeParams(kernel.points(vals), kernel))
        except geo.RealizationError:
            continue
        done += 1


def test_sqrt_nonneg_on_every_kernel():
    xs = [4.0, 2.0, 0.0, -0.0, -1e-300, -3.0, 1e-310, math.inf]
    got = REAL_KERNEL.sqrt_nonneg(np.array(xs))
    assert [x.hex() for x in got.tolist()] == [math.sqrt(max(x, 0.0)).hex() for x in xs]
    ivs = [Interval(-1e-30, 4.0), Interval(2.0, 3.0), Interval(-math.inf, 0.0)]
    got = FLOAT_KERNEL.sqrt_nonneg(ks.array(FLOAT_KERNEL, ivs))
    assert [_bits(x) for x in ks.entries(got)] == [_bits(x.sqrt_nonneg()) for x in ivs]
    mp = MPKernel(80)
    ivs = [ks.interval(mp, -1e-30, 4.0), ks.interval(mp, 2.0, 3.0)]
    got = mp.sqrt_nonneg(ks.array(mp, ivs))
    assert [_bits(x) for x in ks.entries(got)] == [_bits(x.sqrt_nonneg()) for x in ivs]
    for kernel, bad in ((FLOAT_KERNEL, Interval(-2.0, -1.0)), (mp, ks.interval(mp, -2.0, -1.0))):
        with pytest.raises(DomainError, match="entirely negative"):
            kernel.sqrt_nonneg(ks.array(kernel, [ks.point(kernel, 1.0), bad]))
