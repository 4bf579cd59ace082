"""Tour of the outward-rounded interval kernel.

Every arithmetic operation returns an enclosure of the exact result set;
exact cases stay exact, inexact ones widen by at most a couple of ulps.
The scalar `Interval` shows one enclosure at a time; the kernels, which
the pipeline uses, build and compare whole arrays of them.
"""

import math

import numpy as np

from hypcert.interval import (
    PI,
    FloatKernel,
    Interval,
    MPKernel,
    interval_matrix_invertible,
)

print("== basic enclosures ==")
print("[1,2] + [3,4]       =", Interval(1, 2) + Interval(3, 4), "(exact)")
print("[-1,1] * [-1,1]     =", Interval(-1, 1) * Interval(-1, 1), "(exact)")
third = Interval(1, 1) / Interval(3, 3)
print("1/3                 =", third, f"width {third.width():.2e}")
print("cosh([0,0])         =", Interval(0, 0).cosh(), "(exact)")
print("arccos([-1,1])      =", Interval(-1, 1).arccos(), "~ [0, pi]")

print("\n== the enclosure property ==")
x = Interval.point(0.1)
y = (x + x + x) * 10.0 - 3.0
print("(0.1+0.1+0.1)*10-3  =", y, " contains 0:", y.contains(0.0))

print("\n== trig with critical points ==")
c = Interval(3.0, 3.3).cos()
print("cos([3.0, 3.3])     =", c, " (the minimum at pi is included)")

print("\n== configurable precision ==")
k = MPKernel(150)
q = k.points([1.0]) / k.points([3.0])
print(f"1/3 at 150 bits: width {k.width(q)[0]:.2e}")

print("\n== rigorous matrix invertibility ==")
kf = FloatKernel()
eye = kf.points(np.eye(3))
wide = kf.from_bounds(-np.ones((3, 3)), np.ones((3, 3)))
print("identity invertible:", interval_matrix_invertible(eye))
print("[-1,1]^{3x3} invertible:", interval_matrix_invertible(wide),
      "(contains singular members, so the test must refuse)")

print("\n== rotations compose ==")
pi = kf.from_bounds([PI.lo], [PI.hi])
c, s = kf.cos(pi), kf.sin(pi)
R = kf.points(np.eye(3))  # rows and columns 0 and 1 become the rotation
for (i, j), x in {(0, 0): c, (0, 1): -s, (1, 0): s, (1, 1): c}.items():
    R[i, j] = x[0]
RR = kf.mat_mul(R, R)
print("R(pi)^2 encloses identity:", bool(kf.contains(RR, np.eye(3)).all()))
print(f"entry (0,0): [{float(RR.lo[0, 0])!r}, {float(RR.hi[0, 0])!r}]")
