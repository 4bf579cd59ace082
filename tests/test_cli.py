import json
import os
import pathlib
import subprocess
import sys

import pytest

from hypcert import cli
from tests.conftest import BAD_LINK_TEXT, DEGREE_ONE_TEXT, S3_TEXT, data_path
from tests.test_triangulation import _disjoint_copies


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_fixture(capsys):
    code, out, _ = run_cli(capsys, "check", str(data_path("dodec27a.tri")))
    assert code == 0
    assert "OK" in out
    assert "tetrahedra: 27" in out


def test_check_malformed_permutation(tmp_path, capsys):
    f = tmp_path / "bad.tri"
    f.write_text("tets 1\ntet 0: 0:1022 0:1023 0:1023 0:1023\n")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "permutation" in err


def test_check_bad_link(tmp_path, capsys):
    f = tmp_path / "badlink.tri"
    f.write_text(BAD_LINK_TEXT)
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "Euler characteristic" in err


def test_check_disconnected_exit_one(tmp_path, capsys, dodec27a):
    # two disjoint copies of dodec27a: each is hyperbolic, but together
    # they are not one closed 3-manifold
    f = tmp_path / "two.tri"
    f.write_text(_disjoint_copies(dodec27a, 2))
    code, out, err = run_cli(capsys, "check", str(f))
    assert code == 1
    assert "OK" not in out
    assert "disconnected: 2 components" in err


def test_check_missing_file(capsys):
    code, _, err = run_cli(capsys, "check", "/nonexistent/foo.tri")
    assert code == 1


def test_solve_fixture(tmp_path, capsys):
    out_file = tmp_path / "solved.tri"
    code, out, err = run_cli(
        capsys, "solve", str(data_path("dodec27a.tri")), "-o", str(out_file)
    )
    assert code == 0
    assert "residual" in out
    text = out_file.read_text()
    assert "lengths:" in text
    resid = float(out.split("residual")[1].split(";")[0])
    assert resid < 1e-9


def test_solve_s3_unsolved(tmp_path, capsys):
    f = tmp_path / "s3.tri"
    f.write_text(S3_TEXT + "lengths:\n" + " ".join(["1.0"] * 6) + "\n")
    code, _, err = run_cli(capsys, "solve", str(f))
    assert code == 2
    assert "unsolved" in err


def test_certify_fixture_verified(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, _, err = run_cli(
        capsys, "certify", str(data_path("dodec27a.tri")), "-o", str(out_file)
    )
    assert code == 0
    assert "VERIFIED" in err
    doc = json.loads(out_file.read_text())
    assert doc["status"] == "VERIFIED"
    assert "timings_seconds" not in doc


def test_certify_perturbed_fails_step_two(tmp_path, capsys, dodec27a):
    from hypcert.triangulation import serialize

    pert = [float(l) + 0.5 for l in dodec27a.lengths]
    f = tmp_path / "pert.tri"
    f.write_text(serialize(dodec27a, lengths=pert))
    code, out, err = run_cli(capsys, "certify", str(f))
    assert code == 2
    assert "step 2" in err
    doc = json.loads(out)
    assert doc["status"] == "FAILED"
    assert doc["failed_step"] == 2


def test_certify_s3_never_exit_zero(tmp_path, capsys):
    f = tmp_path / "s3.tri"
    f.write_text(S3_TEXT)
    code, _, err = run_cli(capsys, "certify", str(f))
    assert code == 2


def test_certify_without_lengths_graceful(tmp_path, capsys, dodec27a):
    # no lengths section: the bootstrap must find a candidate on its own;
    # whether or not it does, the command ends cleanly
    from hypcert.triangulation import serialize

    text = serialize(dodec27a, lengths=())
    f = tmp_path / "bare.tri"
    f.write_text(text.rsplit("lengths:", 1)[0])
    code, out, err = run_cli(capsys, "certify", str(f))
    assert code in (0, 2)
    doc = json.loads(out)
    assert doc["status"] in ("VERIFIED", "FAILED")


@pytest.mark.parametrize("argv, message", [
    pytest.param(("certify", "FILE", "--interval-newton"), "unrecognized arguments",
                 id="interval-newton-flag"),
    pytest.param(("certify", "FILE", "--refine"), "unrecognized arguments",
                 id="refine-flag"),
    pytest.param(("certify", "FILE", "--precision", "abc"), "invalid int value",
                 id="precision-abc"),
    pytest.param(("frobnicate", "FILE"), "invalid choice", id="unknown-command"),
    # numpy's default_rng takes no negative seed, and a negative iteration
    # count would run as none: both are usage errors before any work
    pytest.param(("certify", "FILE", "--seed", "-5"),
                 "argument --seed: must be a non-negative integer, got '-5'", id="certify-seed"),
    pytest.param(("solve", "FILE", "--seed", "-1"),
                 "argument --seed: must be a non-negative integer, got '-1'", id="solve-seed"),
    pytest.param(("solve", "FILE", "--max-iters", "-1"),
                 "argument --max-iters: must be a non-negative integer, got '-1'",
                 id="solve-max-iters"),
    pytest.param(("solve", "FILE", "--max-iters", "abc"),
                 "argument --max-iters: must be a non-negative integer, got 'abc'",
                 id="solve-max-iters-abc"),
])
def test_usage_errors_exit_one(capsys, argv, message):
    # argparse's own exit code, 2, would read as a conservative failure
    fixture = str(data_path("dodec27a.tri"))
    code, out, err = run_cli(capsys, *(fixture if a == "FILE" else a for a in argv))
    assert code == 1
    assert message in err
    assert out == ""


@pytest.mark.parametrize("command", ["certify", "solve"])
def test_negative_seed_without_lengths_exit_one(capsys, command):
    # without lengths the seed reaches the bootstrap solver's default_rng,
    # which raised a ValueError on a negative one
    code, out, err = run_cli(capsys, command, str(data_path("s3_twotet.tri")), "--seed", "-1")
    assert code == 1
    assert "argument --seed: must be a non-negative integer, got '-1'" in err
    assert out == ""


def test_certify_timings_flag(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    code, _, _ = run_cli(
        capsys,
        "certify",
        str(data_path("dodec27a.tri")),
        "--timings",
        "-o",
        str(out_file),
    )
    assert code == 0
    assert "timings_seconds" in json.loads(out_file.read_text())


def test_recheck_command(tmp_path, capsys):
    out_file = tmp_path / "cert.json"
    run_cli(capsys, "certify", str(data_path("dodec27a.tri")), "-o", str(out_file))
    code, out, _ = run_cli(
        capsys, "recheck", str(data_path("dodec27a.tri")), str(out_file)
    )
    assert code == 0
    assert "reverified" in out


def test_probe_gimbal_row_count(capsys):
    code, out, _ = run_cli(
        capsys,
        "probe-gimbal",
        str(data_path("dodec27a.tri")),
        "--budget",
        "40",
        "--seed",
        "1",
    )
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 40
    for line in lines:
        cols = line.split()
        assert len(cols) == 3
        assert float(cols[1]) >= 0.0
        assert cols[2] in ("LOCKED", "ok")


def test_probe_gimbal_needs_lengths(tmp_path, capsys):
    f = tmp_path / "s3.tri"
    f.write_text(S3_TEXT)
    code, _, err = run_cli(capsys, "probe-gimbal", str(f))
    assert code == 1


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.pop("partition"),
        lambda d: d["nu"].__setitem__(0, ["abc", d["nu"][0][1]]),
    ],
    ids=["no-partition", "non-numeric-endpoint"],
)
def test_recheck_malformed_certificate_exit_one(tmp_path, capsys, edit,
                                                dodec27a, verified27a):
    from hypcert import certificate as cert

    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "recheck", str(data_path("dodec27a.tri")), str(bad)
    )
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err + out


@pytest.mark.parametrize("bits", [53, 80])
@pytest.mark.parametrize("pair", [["nan", "nan"], ["nan", "-1.5"], ["-inf", "inf"],
                                  ["-1.6", "Infinity"]])
def test_recheck_non_finite_endpoint_exit_one(tmp_path, capsys, bits, pair,
                                              dodec27a, verified27a):
    # at every precision a NaN or infinite endpoint is a malformed
    # certificate, not a failed proof step
    from hypcert import certificate as cert

    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    doc["precision_bits"] = bits
    doc["nu"][0] = pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "recheck", str(data_path("dodec27a.tri")), str(bad)
    )
    assert code == 1
    assert err.startswith("error: malformed certificate: endpoint ")
    assert "is not finite" in err
    assert out == ""


@pytest.mark.parametrize("pair,big", [(["-1e400", "-1.5"], "-1e400"),
                                      (["-1.6", "2e308"], "2e308")])
def test_recheck_endpoint_beyond_float_range_exit_one(tmp_path, capsys, pair, big,
                                                      dodec27a, verified27a):
    # a finite decimal that no double holds is malformed at 53 bits, with
    # a message naming it; at 80 bits it is an ordinary finite MP endpoint
    import mpmath
    from mpmath import libmp

    from hypcert import certificate as cert
    from hypcert.interval import MPKernel

    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    doc["nu"][0] = pair
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "recheck", str(data_path("dodec27a.tri")), str(bad)
    )
    assert code == 1
    assert err.startswith(f"error: malformed certificate: endpoint {big!r} is beyond "
                          "the 53-bit float range (magnitude at most 1.7976931348623157e+308)")
    assert out == ""

    (x,) = cert._parse_intervals([pair], MPKernel(80))
    assert x.lo == libmp.from_str(pair[0], 80, libmp.round_floor)
    assert x.hi == libmp.from_str(pair[1], 80, libmp.round_ceiling)
    assert mpmath.isfinite(mpmath.mpf(x.lo)) and mpmath.isfinite(mpmath.mpf(x.hi))


def test_certify_krawczyk_flag_removed(capsys):
    code, _, err = run_cli(
        capsys, "certify", str(data_path("dodec27a.tri")), "--krawczyk"
    )
    assert code == 1  # a usage error, not a conservative failure
    assert "unrecognized arguments: --krawczyk" in err


@pytest.mark.parametrize("bits", ["24", "52", "-1"])
def test_certify_precision_below_53_is_an_input_error(capsys, bits):
    code, out, err = run_cli(
        capsys, "certify", str(data_path("s3_twotet.tri")), "--precision", bits
    )
    assert code == 1
    assert err == "error: precision must be >= 53 bits\n"
    assert out == ""


def _with_lengths(tmp_path, tri, value):
    from hypcert.triangulation import serialize

    head = serialize(tri, lengths=()).rsplit("lengths:", 1)[0]
    f = tmp_path / f"lengths-{value}.tri"
    f.write_text(head + "lengths:\n" + " ".join([value] * tri.m) + "\n")
    return f


@pytest.mark.parametrize("command", ["certify", "solve", "probe-gimbal"])
@pytest.mark.parametrize("value", ["1000", "nan", "0", "-0.5"])
def test_lengths_without_finite_cosh_exit_one(tmp_path, capsys, dodec27a,
                                              command, value):
    f = _with_lengths(tmp_path, dodec27a, value)
    code, out, err = run_cli(capsys, command, str(f))
    assert code == 1
    assert err.startswith("error: length 0 is ")
    assert "Traceback" not in err + out


@pytest.mark.parametrize("value", ["1.0x", "one", "1,5"])
def test_lengths_that_are_not_numbers_exit_one(tmp_path, capsys, dodec27a, value):
    f = _with_lengths(tmp_path, dodec27a, value)
    code, out, err = run_cli(capsys, "certify", str(f))
    assert code == 1
    assert err == f"error: length 0 is {value!r}: not a number\n"
    assert out == ""


@pytest.mark.parametrize("target", ["1_0", "+10", "\u0661\u0660"])
def test_gluing_targets_are_ascii_digits(tmp_path, capsys, target):
    # int() reads each of these as tet 10
    text = data_path("dodec27a.tri").read_text()
    i = text.index(" 10:")
    f = tmp_path / "target.tri"
    f.write_text(text[:i + 1] + target + text[i + 3:], encoding="utf-8")
    code, out, err = run_cli(capsys, "certify", str(f))
    assert code == 1
    assert f"bad target tet in '{target}:" in err
    assert "Traceback" not in err + out


def test_negated_lengths_exit_one(tmp_path, capsys, dodec27a):
    # cosh is even: with every length negated the edge parameters are those
    # of the hyperbolic structure, and certify would prove it
    from hypcert.triangulation import serialize

    f = tmp_path / "negated.tri"
    f.write_text(serialize(dodec27a, lengths=[-l for l in dodec27a.lengths]))
    code, out, err = run_cli(capsys, "certify", str(f))
    assert code == 1
    assert err.startswith("error: length 0 is -")
    assert "VERIFIED" not in out
    assert "Traceback" not in err + out


def test_probe_gimbal_unrealizable_lengths_exit_one(tmp_path, capsys, dodec27a):
    # cosh(1e-20) rounds to 1.0, so every edge parameter is -1
    f = _with_lengths(tmp_path, dodec27a, "1e-20")
    code, out, err = run_cli(capsys, "probe-gimbal", str(f))
    assert code == 1
    assert err.startswith("error: edge parameter 0 not proven < -1")
    assert "Traceback" not in err + out


def test_probe_gimbal_unrealized_simplex_exit_one(tmp_path, capsys, dodec27a):
    # every edge parameter is below -1, but an eightfold first length
    # leaves simplex 0 unrealized
    from hypcert.triangulation import serialize

    lengths = [str(l) for l in dodec27a.lengths]
    lengths[0] = repr(8 * float(lengths[0]))
    head = serialize(dodec27a, lengths=()).rsplit("lengths:", 1)[0]
    f = tmp_path / "unrealized.tri"
    f.write_text(head + "lengths:\n" + " ".join(lengths) + "\n")
    code, out, err = run_cli(capsys, "probe-gimbal", str(f))
    assert code == 1
    assert err.startswith("error: tet 0: char-poly coefficient a1 not proven positive")
    assert "Traceback" not in err + out


@pytest.mark.parametrize("command, name", [
    ("certify", "s3_twotet.tri"),
    ("solve", "dodec27a.tri"),
])
def test_unwritable_output_exit_one(tmp_path, capsys, command, name):
    target = tmp_path / "missing-dir" / "out"
    code, _, err = run_cli(capsys, command, str(data_path(name)), "-o", str(target))
    assert code == 1
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err
    assert not target.exists()


@pytest.mark.parametrize("command, name, runner", [
    ("certify", "dodec27a.tri", "run_pipeline"),
    ("solve", "dodec27a.tri", "bootstrap_solve"),
])
def test_unwritable_output_fails_before_the_run(tmp_path, capsys, monkeypatch,
                                                command, name, runner):
    def must_not_run(*args, **kwargs):
        pytest.fail(f"{runner} ran although the output cannot be written")

    monkeypatch.setattr(cli.verify, runner, must_not_run)
    target = tmp_path / "missing-dir" / "out"
    code, out, err = run_cli(capsys, command, str(data_path(name)), "-o", str(target))
    assert code == 1
    assert err.startswith(f"error: cannot write {target}: No such file or directory")
    assert not target.exists()


@pytest.mark.parametrize("existing", [None, "earlier output\n"])
def test_unsolved_leaves_the_output_path_as_it_was(tmp_path, capsys, existing):
    target = tmp_path / "s3-solved.tri"
    if existing is not None:
        target.write_text(existing)
    code, _, err = run_cli(capsys, "solve", str(data_path("s3_twotet.tri")),
                           "--max-iters", "3", "-o", str(target))
    assert code == 2
    assert "unsolved" in err
    if existing is None:
        assert not target.exists()
    else:
        assert target.read_text() == existing


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_probe_gimbal_budget_below_one_exit_one(capsys, budget):
    code, out, err = run_cli(
        capsys, "probe-gimbal", str(data_path("dodec27a.tri")), "--budget", budget
    )
    assert code == 1
    assert err.startswith("error: budget")
    assert "candidates" not in out


def _python_m_hypcert(*argv, timeout=120):
    # `python -m hypcert` from a checkout: the package is on PYTHONPATH only
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, "-m", "hypcert", *argv], cwd=root, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_python_m_hypcert_check():
    proc = _python_m_hypcert("check", str(data_path("dodec27a.tri")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("OK\n")


def test_python_m_hypcert_without_arguments_exits_one():
    proc = _python_m_hypcert()
    assert proc.returncode == 1
    assert "the following arguments are required: command" in proc.stderr


def test_directory_as_triangulation_exit_one(tmp_path):
    # every command that reads a triangulation reports a path it cannot
    # read, here a directory, as an input error
    for args in (["check"], ["solve"], ["certify"], ["probe-gimbal"], ["recheck"]):
        extra = [str(tmp_path / "no.json")] if args == ["recheck"] else []
        proc = _python_m_hypcert(*args, str(tmp_path), *extra)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith(f"error: cannot read {tmp_path}: "), args
        assert "Traceback" not in proc.stderr + proc.stdout


def test_recheck_tiny_endpoint_exits_at_once(tmp_path, dodec27a, verified27a):
    # a lower endpoint of -1e-999999999999 rounds down to -5e-324, above
    # its upper endpoint, and the rounding does not expand the exponent
    from hypcert import certificate as cert

    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    doc["nu"][0][0] = "-1e-999999999999"
    bad = tmp_path / "tiny.json"
    bad.write_text(json.dumps(doc))
    proc = _python_m_hypcert("recheck", str(data_path("dodec27a.tri")), str(bad), timeout=30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: malformed certificate: reversed endpoints")
    assert proc.stdout == ""


def test_recheck_deeply_nested_certificate_exit_one(tmp_path, capsys):
    # json's decoder meets the recursion limit on deep nesting
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "recheck", str(data_path("dodec27a.tri")), str(bad))
    assert code == 1
    assert err.startswith("error: not a certificate: ")
    assert "Traceback" not in err + out
    assert out == ""


def test_recheck_certificate_not_utf8_exit_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "recheck", str(data_path("dodec27a.tri")), str(bad))
    assert code == 1
    assert err.startswith("error: ") and "decode" in err
    assert out == ""


def test_probe_gimbal_degree_one_edge_exit_one(tmp_path):
    # parsing rejects the gluing, so every command that reads it exits 1
    f = tmp_path / "degree_one.tri"
    f.write_text(DEGREE_ONE_TEXT)
    for args in (["check"], ["certify"], ["probe-gimbal"], ["recheck"]):
        extra = [str(tmp_path / "no.json")] if args == ["recheck"] else []
        proc = _python_m_hypcert(*args, str(f), *extra)
        assert proc.returncode == 1, args
        assert proc.stderr.startswith("error: edge class 2 has degree 1"), args
        assert "Traceback" not in proc.stderr + proc.stdout


def test_recheck_precision_above_the_bound_exits_at_once(tmp_path, dodec27a, verified27a):
    # a 53-bit certificate with its precision edited far above the bound:
    # an input error, before any arithmetic at that precision
    from hypcert import certificate as cert
    from hypcert.interval import MAX_PRECISION

    doc = cert.certificate_dict(dodec27a, verified27a, "krawczyk")
    for bits in (MAX_PRECISION + 1, 20_000):
        doc["precision_bits"] = bits
        bad = tmp_path / f"bits-{bits}.json"
        bad.write_text(json.dumps(doc))
        proc = _python_m_hypcert("recheck", str(data_path("dodec27a.tri")), str(bad), timeout=30)
        assert proc.returncode == 1
        assert proc.stderr == (f"error: precision must be <= {MAX_PRECISION} bits, "
                               f"got {bits}\n")
        assert proc.stdout == ""


@pytest.mark.parametrize("bits", ["4097", "20000"])
def test_certify_precision_above_the_bound_is_an_input_error(capsys, bits):
    code, out, err = run_cli(
        capsys, "certify", str(data_path("dodec27a.tri")), "--precision", bits
    )
    assert code == 1
    assert err == "error: precision must be <= 4096 bits\n"
    assert out == ""


def test_certify_given_lengths_step_one_failure_names_its_cause(tmp_path, capsys, dodec27a):
    # a first length of 1e-300 gives nu = -cosh(1e-300) = -1.0: no solver
    # runs, so step 1's status carries the reason itself
    from hypcert.triangulation import serialize

    lengths = [float(x) for x in dodec27a.lengths]
    lengths[0] = 1e-300
    f = tmp_path / "tiny-length.tri"
    f.write_text(serialize(dodec27a, lengths=lengths))
    out_json = tmp_path / "out.json"
    code, _, err = run_cli(capsys, "certify", str(f), "-o", str(out_json))
    assert code == 2
    assert err == ("NOT VERIFIED (step 1: failed: edge parameter 0 not proven < -1: -1.0)\n")
    steps = json.loads(out_json.read_text())["steps"]
    assert steps["1"] == steps["bootstrap"] == "failed: edge parameter 0 not proven < -1: -1.0"


def test_certify_without_lengths_step_one_failure_keeps_its_text(capsys):
    # with no lengths the bootstrap solver ran and failed; stage 1 says so
    code, _, err = run_cli(capsys, "certify", str(data_path("s3_twotet.tri")))
    assert code == 2
    assert err == "NOT VERIFIED (step 1: failed: no usable candidate parameters)\n"
