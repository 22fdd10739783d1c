"""Each demo script and the README quick start run to completion from a
scratch directory, and demo 01 writes the committed model curve byte for
byte."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def run_script(script: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(script)], cwd=script.parent, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(tmp_path, demo):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    run_script(script)
    if demo.name.startswith("01_"):
        committed = ROOT / "demos" / "out" / "model_curve.csv"
        assert (tmp_path / "out" / "model_curve.csv").read_bytes() == committed.read_bytes()


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    assert "center-to-wings ratio" in run_script(script).stdout
