"""The demos run to completion against the package in this checkout."""

import os
import pathlib
import subprocess
import sys

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
