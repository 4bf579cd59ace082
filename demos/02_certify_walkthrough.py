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
from hypcert.interval import contains_two_pi
from hypcert.triangulation import vertex_link_hexagon_complex

tri = hypcert.parse(hypcert.bundled_fixture("dodec27a.tri").read_text())
print(f"triangulation: {tri.n_tets} tetrahedra, {tri.m} edge classes, "
      f"{tri.o} vertex class(es)")

p0 = [-math.cosh(float(l)) for l in tri.lengths]
r0 = verify._residual_vec(tri, p0)
resid = np.max(np.abs(r0))
print(f"candidate angle-sum residual: {resid:.2e}\n")

print("stage I: full-rank subsystem by full pivoting")
M = geometry.jacobian(tri, geometry.EdgeParams(list(p0)))
h = tri.m - 3 * tri.o
rows, cols = verify.select_submatrix(M, h)
part = verify.make_partition(tri, rows, cols)
print(f"  kept {h} of {tri.m} equations; loose edges {part.e_sim}, "
      f"frozen parameters {part.e_fixed}")

print("stage II: Krawczyk enclosure of the kept equations")
jsub = np.array(M)[part.e_eq][:, part.e_var]
box = verify.krawczyk_certify(tri, p0, part, jsub, r0)
print(f"  enclosure width: {max(x.width() for x in box.nu):.2e}")

print("stage III+IV: interval realization and loose angle sums")
box = verify.check_realization_and_angles(tri, box)
loose = [box.theta[e] for e in part.e_sim]
print("  every simplex realized over the box")
for e, th in zip(part.e_sim, loose):
    print(f"  angle sum of loose edge {e}: width {th.width():.2e}, "
          f"contains full turn: {contains_two_pi(th)}")

print("stage V: excluding gimbal lock")
labels = gimbal.CocycleLabels(tri, box.nu)
links = [vertex_link_hexagon_complex(tri, k) for k in range(tri.o)]
verdict = gimbal.gimbal_lock_check(tri, labels, part.e_sim, loose, links=links)
print(f"  {verdict.reason}")
loop = verdict.loops[0]
print(f"  gimbal loop: {len(loop.word)} letters over "
      f"{len({l['owner'] for l in loop.word if l['kind'] != 'P'})} hexagons")

print("\nfull pipeline + certificate:")
result = verify.run_pipeline(tri)
doc = certificate.certificate_json(tri, result, "krawczyk")
print(f"  status: {'VERIFIED' if result.verified else 'FAILED'}")
print(f"  certificate: {len(doc)} bytes")
ok, detail = certificate.recheck(tri, certificate.parse_certificate(doc))
print(f"  independent recheck: {detail}")
