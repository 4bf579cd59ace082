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
labels = gimbal.CocycleLabels(tri, params)
table = gimbal.edge_direction_table(tri, labels, triangulation.vertex_link_hexagon_complex(tri))
for edge in result.partition.e_sim:
    # the column (g01, g02, g12) of an edge is (-s_z, s_y, -s_x) for its sum s
    g01, g02, g12 = table[:, edge]
    print(f"  edge {edge}: ({-g12:+.3f}, {g02:+.3f}, {-g01:+.3f})")
print("the three sums must be linearly independent, the spatial meaning of")
print("avoiding lock.")

print("\na construction that is always locked: two polygons at antipodal")
print("points of the link rotate about a single common axis")
import types

from hypcert.interval import FLOAT_KERNEL


class AntipodalLabels:
    """A label table of one row: the half turn about x."""

    def label_bounds(self):
        half_turn = np.diag([1.0, -1.0, -1.0])[None]
        return half_turn, half_turn


# the word "back, P1, out, P0": edge letters are slots of the loop's link,
# which passes their label rows directly (both row 0); a polygon letter is
# -1 - pid, and polygon p's variable is p
link = types.SimpleNamespace(label=np.array([0, 0]))
loop = gimbal.GimbalLoop(0, link, (0, 1), np.array([1, -2, 0, -1]), variable=np.arange(2))
# the loop and the variable of each derivative, and the derivatives'
# entries (3, 3, one per derivative)
_, var, derivs = gimbal.gimbal_matrix_derivatives(
    [loop], AntipodalLabels(), gimbal.rotation_balls(FLOAT_KERNEL.two_pi()[[0, 0]])
)
# the midpoint of each 3x3 derivative's entries (0,1), (0,2) and (1,2)
D = np.array([[0.5 * (derivs.lo[r, c, k] + derivs.hi[r, c, k]) for k in np.argsort(var)]
              for (r, c) in ((0, 1), (0, 2), (1, 2))])
print("  derivative columns:")
print(D.T)
print(f"  smallest singular value: {np.linalg.svd(D, compute_uv=False)[-1]:.1e}"
      "  (the two columns are opposite: locked)")
