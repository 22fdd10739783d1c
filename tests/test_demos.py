"""Each demo script runs to completion from a copy in a scratch
directory, and demo 01 writes the committed model curve byte for byte."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    if demo.name.startswith("01_"):
        committed = ROOT / "demos" / "out" / "model_curve.csv"
        assert (tmp_path / "out" / "model_curve.csv").read_bytes() == committed.read_bytes()
