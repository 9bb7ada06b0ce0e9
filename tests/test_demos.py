"""Each demo script runs to completion in a fresh interpreter, and README's
examples match the code."""

import argparse
import glob
import os
import re
import subprocess
import sys

import pytest

from weakiasi.cli import build_parser

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


def test_readme_cli_synopsis_matches_the_parser():
    """Each command's flags in README's CLI synopsis are its subparser's,
    bar -h and --allow-isolated, which the prose covers. A flag is shown
    outside brackets on every line of its command exactly when required."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        synopsis = fh.read().split("## CLI\n", 1)[1].split("```\n", 2)[1]
    listed, required = {}, {}
    for line in synopsis.splitlines():
        _, command, rest = line.split(None, 2)
        flags = set(re.findall(r"--[a-z0-9-]+", rest))
        bare = flags - set(re.findall(r"\[(--[a-z0-9-]+)", rest))
        listed[command] = listed.get(command, flags) | flags
        required[command] = required.get(command, bare) & bare
    subparsers = next(a.choices for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert listed.keys() == subparsers.keys()
    for command, parser in subparsers.items():
        actions = [a for a in parser._actions
                   if not {"-h", "--allow-isolated"} & set(a.option_strings)]
        assert listed[command] == {s for a in actions for s in a.option_strings}, command
        assert required[command] == {s for a in actions if a.required
                                     for s in a.option_strings}, command
