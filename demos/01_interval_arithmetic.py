"""Tour of the outward-rounded interval kernel.

Every arithmetic operation returns an enclosure of the exact result set;
exact cases stay exact, inexact ones widen by at most a couple of ulps.
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
q = k.point(1.0) / k.point(3.0)
print(f"1/3 at 150 bits: width {q.width():.2e}")

print("\n== rigorous matrix invertibility ==")
kf = FloatKernel()
eye = kf.array(np.eye(3))
wide = kf.array([[kf.interval(-1, 1)] * 3 for _ in range(3)])
print("identity invertible:", interval_matrix_invertible(eye))
print("[-1,1]^{3x3} invertible:", interval_matrix_invertible(wide),
      "(contains singular members, so the test must refuse)")

print("\n== rotations compose ==")
z, one = kf.point(0.0), kf.point(1.0)
c, s = PI.cos(), PI.sin()
R = kf.array([[c, -s, z], [s, c, z], [z, z, one]])
RR = kf.mat_mul(R, R).tolist()
print("R(pi)^2 encloses identity:",
      all(RR[i][j].contains(1.0 if i == j else 0.0) for i in range(3) for j in range(3)))
print("entry (0,0):", RR[0][0])
