"""The demos run to completion against the package in this checkout."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import mpmath
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "demo", ["01_interval_arithmetic.py", "02_certify_walkthrough.py", "03_gimbal_lock_tour.py"]
)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


FIXTURES = ("dodec27a.tri", "dodec27b.tri", "dodec30x2.tri", "s3_twotet.tri")


def test_build_fixtures_rebuilds_the_bundled_data(tmp_path, monkeypatch):
    # the builder reads each edge class's incidences off the parsed
    # tables; the files it writes are the bundled ones, byte for byte
    spec = importlib.util.spec_from_file_location(
        "build_fixtures", ROOT / "demos" / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # it prepends src/
    dps = mpmath.mp.dps
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", str(tmp_path))
    module.main()
    assert mpmath.mp.dps == dps  # it works at 60 digits, its importer's precision kept
    data = ROOT / "src" / "hypcert" / "data"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIXTURES)
    for name in FIXTURES:
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes(), name
