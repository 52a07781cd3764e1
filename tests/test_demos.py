"""Every demo script, and every python block of README.md, runs to
completion against the current API."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args, cwd):
    """Run ``python args`` in ``cwd`` with src/ on PYTHONPATH; assert exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    _run_python([str(script)], tmp_path)


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        _run_python(["-c", block], tmp_path)
