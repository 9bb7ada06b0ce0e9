"""Each demo script runs to completion in a fresh interpreter."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.path.abspath(os.path.join(ROOT, "src")))
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_library_tour_runs():
    """The python block under README's "Library tour" runs as written."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        tour = fh.read().split("## Library tour\n", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["report"].passed
