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
    for pair, iv in zip(doc["nu"], verified27a.box.nu):
        assert Fraction(pair[0]) <= Fraction(iv.lo)
        assert Fraction(iv.hi) <= Fraction(pair[1])


def test_certificate_reparse_exact_for_floats(dodec27a, verified27a):
    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    kernel = kernel_for_precision(53)
    for pair, iv in zip(doc["nu"], verified27a.box.nu):
        back = cert._parse_interval(pair, kernel)
        assert back.lo == iv.lo and back.hi == iv.hi


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
        lambda d: d["partition"].update(fixed=d["partition"]["variable"][:3]),
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
# two 80-bit inputs of the benchmark, and the benchmark's 12-move scaling
# member at seed 7 (63 tetrahedra).  The certificates are byte-reproducible,
# so any change to these digests is a change of what the pipeline proves or
# of how it rounds, never a refactoring that keeps both.  The last three
# were recorded with the per-simplex geometry still evaluated one simplex
# and one scalar at a time; the two 80-bit digests were re-pinned when stage
# II stopped contracting boxes that no longer contain the operator's centre.
GOLDEN_SHA256 = {
    "dodec27a": "23ad68ef8e580d6cc0bfaf8904d703a9f3d93474753009693bb054cd04188ecd",
    "dodec27b": "be523cbe8f7d45a27fd379e85a4c3149a5c92b305f44caaae8e76a966de69a0a",
    "dodec30x2": "8022794b5e1448f5f8e837000f7f29d1dea8a4d814039453e4166bb25b7e401e",
    "s3_twotet": "04d8dc640e0214173075e391d705e402d69f92f871591e84b44181bc589d5e28",
    "dodec27a@80": "6586b8e2a9878e7a548d8a61be5ae95c71cc580743adac739505342c193564bf",
    "dodec30x2@80": "a79395426a3987520d7c5b2ad8e74471532e806eef8e73ba6560f5029b270601",
    "scaling12-seed7": "f60f35c9aba10e5e595627bdc35a8918fa02c7b33c6ba1191b40ddfc005fd03e",
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
    "tri = hypcert.parse(hypcert.bundled_fixture('dodec30x2.tri').read_text())\n"
    "text = hypcert.certificate_json(tri, hypcert.run_pipeline(tri), 'krawczyk')\n"
    "print(hashlib.sha256(text.encode()).hexdigest())\n"
)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("coretype", ["Prescott", "Sandybridge", "Haswell"])
def test_certificate_independent_of_blas_kernel_and_threads(coretype, threads):
    # stage II's C J(X) and stage V's m N run on BLAS, whose kernel (SSE3,
    # AVX, AVX2 with FMA) and thread split change the bits of each product's
    # midpoint and error bound; the certificate must not change.  The
    # variables are set in the child only: OpenBLAS reads them when it loads.
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-c", _CERTIFY_DIGEST], env=env, cwd=root,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == GOLDEN_SHA256["dodec30x2"]
