"""Walk through the five certification stages on a bundled fixture.

The input is a 27-tetrahedron one-vertex triangulation of the closed
hyperbolic manifold built from a dodecahedron, together with approximate
edge lengths.  The output is a machine-checkable certificate that a true
solution of every edge equation lies inside the printed intervals.
"""

import math

import numpy as np

import hypcert
from hypcert import certificate, geometry, gimbal, verify
from hypcert.interval import FLOAT_KERNEL
from hypcert.triangulation import vertex_link_hexagon_complex

tri = hypcert.parse(hypcert.bundled_fixture("dodec27a.tri").read_text())
print(f"triangulation: {tri.n_tets} tetrahedra, {tri.m} edge classes, "
      f"{tri.o} vertex class(es)")

p0 = [-math.cosh(float(l)) for l in tri.lengths]
params, data, r0 = verify._evaluate(tri, p0)  # float geometry at p0
resid = np.max(np.abs(r0))
print(f"candidate angle-sum residual: {resid:.2e}\n")

print("stage I: loose edges by full pivoting on the gimbal table")
links = vertex_link_hexagon_complex(tri)  # every vertex link, one record
T = gimbal.edge_direction_table(tri, gimbal.CocycleLabels(tri, params, data=data), links)
_, loose = verify.select_submatrix(T, 3 * tri.o)
print(f"  table T: {T.shape[0]} x {T.shape[1]} (3 rows per vertex, one column "
      f"per edge); its pivots chose the loose edges {loose}")
part, jsub = verify.select_subsystem(tri, params, data, links)
print(f"  kept {len(part.e_eq)} of {tri.m} equations over the kept edges' "
      f"parameters; condition of the kept block {np.linalg.cond(jsub):.1e}")

print("stage II: Krawczyk enclosure of the kept equations")
box = verify.krawczyk_certify(tri, p0, part, jsub, r0)
print(f"  enclosure width: {FLOAT_KERNEL.width(box.nu).max():.2e}")

print("stage III+IV: interval realization and loose angle sums")
box = verify.check_realization_and_angles(tri, box)
loose = box.theta[part.e_sim]  # box.nu and box.theta are kernel arrays
print("  every simplex realized over the box")
for e, width, full in zip(part.e_sim, FLOAT_KERNEL.width(loose),
                          FLOAT_KERNEL.contains_two_pi(loose)):
    print(f"  angle sum of loose edge {e}: width {width:.2e}, contains full turn: {full}")

print("stage V: excluding gimbal lock")
# the box's 53-bit intervals, as edge parameters of the float interval kernel
labels = gimbal.CocycleLabels(tri, geometry.EdgeParams(box.nu, FLOAT_KERNEL))
verdict = gimbal.gimbal_lock_check(tri, labels, part.e_sim, loose, links=links)
print(f"  {verdict.reason}")
loop = verdict.loops[0]
# a letter is a slot 6 c + i of hexagon c, or -1 - p for polygon p, both
# numbered across all links of the record
slots = loop.word[loop.word >= 0]
print(f"  gimbal loop: {len(loop.word)} letters over "
      f"{len(np.unique(slots // 6))} hexagons")

print("\nfull pipeline + certificate:")
result = verify.run_pipeline(tri)
doc = certificate.certificate_json(tri, result, "krawczyk")
print(f"  status: {'VERIFIED' if result.verified else 'FAILED'}")
print(f"  certificate: {len(doc)} bytes")
ok, detail = certificate.recheck(tri, certificate.parse_certificate(doc))
print(f"  independent recheck: {detail}")
