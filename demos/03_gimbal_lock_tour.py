"""Why the loose-edge partition matters: a tour of gimbal lock.

Three angle-sum equations per vertex are redundant, but which three may
be dropped is constrained: the rotations the dropped edges induce on the
vertex link must have independent derivatives.  On the dodecahedral
fixture most partitions fail that test, which is exactly why the
certifier checks it with intervals instead of assuming it.
"""

import math

import numpy as np

import hypcert
from hypcert import geometry, gimbal, triangulation, verify

tri = hypcert.parse(hypcert.bundled_fixture("dodec27a.tri").read_text())
params = geometry.EdgeParams.from_lengths([float(l) for l in tri.lengths])

print(f"scanning all C({tri.m},3) = {math.comb(tri.m, 3)} loose-edge choices...")
rows = gimbal.probe_partitions(tri, params, budget=math.comb(tri.m, 3) + 1)
locked = [r for r in rows if r[2]]
avoiding = [r for r in rows if not r[2]]
print(f"  locked: {len(locked)}   lock-avoiding: {len(avoiding)}")

svals = sorted(r[1] for r in avoiding)
print(f"  smallest singular value among avoiding partitions: "
      f"{svals[0]:.3f} .. {svals[-1]:.3f}")

print("\nthe partition the pipeline picked:")
result = verify.run_pipeline(tri)
print(f"  loose edges {result.partition.e_sim} -> {result.statuses[5]}")

print("\nper loose edge, the sum of the two directions in which it leaves")
print("the vertex, read off the float gimbal Jacobian at full turns")
print("(the edge-direction table the scan above reads its columns from):")
labels = gimbal.CocycleLabels(tri, list(params.values))
links = [triangulation.vertex_link_hexagon_complex(tri, 0)]
table = gimbal.edge_direction_table(tri, labels, links)
for edge in result.partition.e_sim:
    # the column (g01, g02, g12) of an edge is (-s_z, s_y, -s_x) for its sum s
    g01, g02, g12 = table[:, edge]
    print(f"  edge {edge}: ({-g12:+.3f}, {g02:+.3f}, {-g01:+.3f})")
print("the three sums must be linearly independent, the spatial meaning of")
print("avoiding lock.")

print("\na construction that is always locked: two polygons at antipodal")
print("points of the link rotate about a single common axis")
from hypcert.interval import TWO_PI, FloatKernel

k = FloatKernel()
half_turn = tuple(
    tuple(k.point(v) for v in row)
    for row in ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
)


class AntipodalLabels:
    def ball_for_letter(self, letter):
        return gimbal.ball_from_interval_mat3(half_turn)


word = [
    {"kind": "edge", "token": "back"},
    {"kind": "P", "pid": 1},
    {"kind": "edge", "token": "out"},
    {"kind": "P", "pid": 0},
]
loop = gimbal.GimbalLoop(0, None, (0, 1), word)
loop.variable_of_pid = {0: 0, 1: 1}
derivs = gimbal.gimbal_matrix_derivatives(
    loop, AntipodalLabels(), gimbal.rotation_balls([TWO_PI, TWO_PI])
)
D = np.array([[derivs[v][r][c].mid() for v in (0, 1)]
              for (r, c) in ((0, 1), (0, 2), (1, 2))])
print("  derivative columns:")
print(D.T)
print(f"  smallest singular value: {np.linalg.svd(D, compute_uv=False)[-1]:.1e}"
      "  (the two columns are opposite: locked)")
