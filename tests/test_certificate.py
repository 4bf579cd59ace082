import hashlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from hypcert import certificate as cert
from hypcert import verify
from hypcert.interval import kernel_for_precision
from hypcert.triangulation import parse_file
from tests.conftest import data_path
from tests.test_gimbal import _scaling_member
from tests import kernel_scalars as ks


def test_certificate_round_trip(dodec27a, verified27a):
    text = cert.certificate_json(dodec27a, verified27a, "krawczyk")
    doc = cert.parse_certificate(text)
    assert doc["status"] == "VERIFIED"
    assert doc["tetrahedra"] == 27
    assert doc["vertices"] == 1
    assert len(doc["nu"]) == dodec27a.m
    assert len(doc["theta"]) == dodec27a.m
    assert len(doc["gimbal_loops"]) == dodec27a.o
    ok, detail = cert.recheck(dodec27a, doc)
    assert ok, detail


def test_certificate_serialization_outward(dodec27a, verified27a):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    for pair, iv in zip(doc["nu"], ks.entries(verified27a.box.nu)):
        assert Fraction(pair[0]) <= Fraction(iv.lo)
        assert Fraction(iv.hi) <= Fraction(pair[1])


def test_certificate_reparse_exact_for_floats(dodec27a, verified27a):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    kernel = kernel_for_precision(53)
    back, nu = cert._parse_intervals(doc["nu"], kernel), verified27a.box.nu
    assert back.lo.tolist() == nu.lo.tolist() and back.hi.tolist() == nu.hi.tolist()


def test_float_endpoints_round_outward_at_any_exponent():
    # the comparison with the decimal does not expand its exponent
    assert cert._float_down("-1e-999999999999") == -5e-324
    assert cert._float_up("1e-999999999999") == 5e-324
    assert cert._float_down("1e-999999999999") == 0.0
    assert cert._float_up("-1e-999999999999") == 0.0
    for s in ("0.1", "-1.5430806348152437", "1e-320", "-2.5e300", "0.0"):
        f = float(s)
        down, up = cert._float_down(s), cert._float_up(s)
        assert Fraction(down) <= Fraction(s) <= Fraction(up)
        assert down == up == f if Fraction(f) == Fraction(s) else down < up
        assert f in (down, up)


def test_certificate_deterministic(dodec27a):
    r1 = verify.run_pipeline(dodec27a)
    r2 = verify.run_pipeline(dodec27a)
    t1 = cert.certificate_json(dodec27a, r1, "krawczyk")
    t2 = cert.certificate_json(dodec27a, r2, "krawczyk")
    assert t1 == t2


def test_certificate_hash_binds_triangulation(dodec27a, dodec27b, verified27a):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    ok, detail = cert.recheck(dodec27b, doc)
    assert not ok
    assert "hash" in detail


def test_failed_run_certificate(dodec27a):
    pert = [float(l) + 0.5 for l in dodec27a.lengths]
    res = verify.run_pipeline(dodec27a, lengths=pert)
    doc = cert.certificate_dict(dodec27a, res, "krawczyk")
    assert doc["status"] == "FAILED"
    assert doc["failed_step"] == 2
    assert "nu" not in doc
    ok, _ = cert.recheck(dodec27a, doc)
    assert not ok


def test_mp_certificate_roundtrip(dodec27a):
    res = verify.run_pipeline(dodec27a, precision=80)
    assert res.verified
    text = cert.certificate_json(dodec27a, res, "krawczyk")
    doc = cert.parse_certificate(text)
    assert doc["precision_bits"] == 80
    for pair, iv in zip(doc["nu"], res.box.nu):
        lo_f = Fraction(*__import__("mpmath").libmp.to_rational(iv.lo))
        hi_f = Fraction(*__import__("mpmath").libmp.to_rational(iv.hi))
        assert Fraction(pair[0]) <= lo_f
        assert hi_f <= Fraction(pair[1])
    ok, detail = cert.recheck(dodec27a, doc)
    assert ok, detail


def test_malformed_certificate_rejected():
    with pytest.raises(cert.CertificateError):
        cert.parse_certificate("not json at all")
    with pytest.raises(cert.CertificateError):
        cert.parse_certificate(json.dumps({"format": "something-else"}))


def _mutated(doc, edit):
    bad = json.loads(json.dumps(doc))
    edit(bad)
    return bad


def _set_nu(i, pair):
    def edit(d):
        d["nu"][i] = pair
    return edit


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("partition"),
        lambda d: d.pop("nu"),
        lambda d: d["partition"].pop("kept"),
        lambda d: d.update(partition=[1, 2]),
        lambda d: d["partition"].update(loose=d["partition"]["loose"][1:]),
        lambda d: d["partition"].update(loose=["0"] + d["partition"]["loose"][1:]),
        lambda d: d["partition"].update(kept=d["partition"]["kept"][1:]),
        lambda d: d.update(nu=d["nu"][1:]),
        _set_nu(0, ["abc", "-1.5"]),
        _set_nu(0, ["-1.5", "nan"]),
        _set_nu(0, ["-1.4", "-1.5"]),
        _set_nu(0, ["-1.5"]),
        _set_nu(0, [-1.6, -1.5]),
        _set_nu(0, "-1.5"),
        lambda d: d.update(precision_bits="53"),
        lambda d: d.update(precision_bits=24),
    ],
)
def test_recheck_malformed_raises_certificate_error(dodec27a, verified27a, edit):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    with pytest.raises(cert.CertificateError):
        cert.recheck(dodec27a, _mutated(doc, edit))


def test_recheck_malformed_mp_endpoint(dodec27a, verified27a):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    for pair in (["abc", "-1.5"], ["-1.4", "-1.5"]):
        bad = _mutated(doc, _set_nu(0, pair))
        with pytest.raises(cert.CertificateError):
            cert.recheck(dodec27a, bad, precision=80)


def test_recheck_unrealizable_box_fails_cleanly(dodec27a, verified27a):
    # well-formed, but the parameters are not edge parameters (< -1)
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    ok, detail = cert.recheck(dodec27a, _mutated(doc, _set_nu(0, ["-0.5", "-0.5"])))
    assert not ok and "recheck failed" in detail


def test_parse_certificate_rejects_non_object():
    with pytest.raises(cert.CertificateError):
        cert.parse_certificate("[1, 2]")


# sha256 of `certificate_json` (no timings): the fixtures at 53 bits, the
# two 80-bit inputs of the benchmark, dodec27a at 120 bits, and the
# benchmark's 12-move scaling member at seed 7 (63 tetrahedra).  The
# certificates are byte-reproducible, so any change to these digests is a
# change of what the pipeline proves or of how it rounds, never a
# refactoring that keeps both.  The six verified ones of 53 and 80 bits
# were re-pinned when stage I began to take its loose edges from the gimbal
# table, which changed every partition and so every box; the 120-bit one
# was pinned before stage II's MP column sums moved to integer arrays.
GOLDEN_SHA256 = {
    "dodec27a": "65892f83ba1ac4f38f7e6335c6a74880ede47a05ae73a0e55e38795a7e25f9dd",
    "dodec27b": "1a9ffc04b9a8870f0921808c012d9052d4426f2c85e181ecc9866410e91f8ec5",
    "dodec30x2": "1feee1996843417c6b3aeb89045c2252c57afb51eb015302ca72f4836608a9d7",
    "s3_twotet": "04d8dc640e0214173075e391d705e402d69f92f871591e84b44181bc589d5e28",
    "dodec27a@80": "db0c7ee8fcaa0f253036fac9fa6e02490d6aec03a34370b4a908f6358973e223",
    "dodec30x2@80": "be446ac14f9dea52badd6a6684e42a0eda8a8854566dad78e3f18c40c2202c00",
    "dodec27a@120": "b96bc32e11a6c5c37530249882004061efb6d692031bad3d00d3a254ddd9d932",
    "scaling12-seed7": "ede7f099f8ee72feaf07cef51ac5ffcd0c6021ee4b48a20fc7000cba2f26e6bb",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_golden_certificates(name, hyperbolic_triangulations, verified_all):
    fixture, _, bits = name.partition("@")
    precision = int(bits) if bits else 53
    if name == "scaling12-seed7":
        tri = _scaling_member(12, seed=7)
        result = verify.run_pipeline(tri)
    elif precision == 53 and name in verified_all:
        tri, result = hyperbolic_triangulations[name], verified_all[name]
    else:
        tri = parse_file(data_path(fixture + ".tri"))
        result = verify.run_pipeline(tri, precision=precision)
    text = cert.certificate_json(tri, result, "krawczyk")
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == GOLDEN_SHA256[name], f"{name}: certificate changed"


_CERTIFY_DIGEST = (
    "import hashlib, hypcert\n"
    "for name in ('dodec27a', 'dodec27b', 'dodec30x2'):\n"
    "    tri = hypcert.parse(hypcert.bundled_fixture(name + '.tri').read_text())\n"
    "    text = hypcert.certificate_json(tri, hypcert.run_pipeline(tri), 'krawczyk')\n"
    "    print(hashlib.sha256(text.encode()).hexdigest())\n"
)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge", "Haswell"])
def test_certificate_independent_of_blas_kernel_and_threads(coretype, threads):
    # stage II's C J(X) and stage V's m N run on BLAS, whose kernel (SSE3,
    # AVX, AVX2 with FMA) and thread split change the bits of each product's
    # midpoint and error bound; the certificate must not change.  Stage I
    # pivots on the gimbal table, whose symmetric fixtures have tied entries
    # that rounding decides, so the table must not be formed on BLAS.  The
    # variables are set in the child only: OpenBLAS reads them when it loads.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", _CERTIFY_DIGEST], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [GOLDEN_SHA256[name]
                                   for name in ("dodec27a", "dodec27b", "dodec30x2")]
