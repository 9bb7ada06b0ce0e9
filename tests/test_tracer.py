"""The benchmark's tracer sees one product build and one plan per `label --op`,
and one graph load, labeling load and verifier call per `verify`; traced
`sweep` and `sparing` requests run to exit 0 and show their layers' spans.

bench/child.py wraps the product builders and planners at every module
attribute they are looked up by; constructions.PRODUCT_OPS calls them
through module-global names so that each call is seen.
"""

import json
import os
import subprocess
import sys

import pytest

from weakiasi.graph_core import cycle_graph

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OPS = ["cartesian", "direct", "strong", "lex", "corona", "rooted"]


@pytest.mark.parametrize("op", OPS)
def test_label_builds_one_product_and_makes_one_plan(tmp_path, op):
    g1, g2, spans = tmp_path / "c5.json", tmp_path / "c4.json", tmp_path / "spans.json"
    g1.write_text(cycle_graph(5).to_json())
    g2.write_text(cycle_graph(4).to_json())
    args = [sys.executable, "-I", os.path.join(ROOT, "bench", "child.py"),
            os.path.join(ROOT, "src"), str(spans), "label", "--op", op,
            "--g1", str(g1), "--g2", str(g2), "--oracle-bound", "24",
            "--out", str(tmp_path / "out.json")]
    if op == "rooted":
        args += ["--root", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    assert names.count("graph_core.product") == 1
    assert names.count("constructions.plan") == 1


def test_verify_loads_once_and_verifies_once(tmp_path):
    g, spans = cycle_graph(6), tmp_path / "spans.json"
    graph, labels = tmp_path / "c6.json", tmp_path / "labels.json"
    graph.write_text(g.to_json())
    labels.write_text(json.dumps({"labels": {str(v): [v] if v % 2 else [2 ** v, 2 ** v + 1]
                                             for v in range(g.n)}}))
    args = [sys.executable, "-I", os.path.join(ROOT, "bench", "child.py"),
            os.path.join(ROOT, "src"), str(spans), "verify", "--graph", str(graph),
            "--labels", str(labels), "--out", str(tmp_path / "out.json")]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names = [span[0] for span in json.loads(spans.read_text())["spans"]]
    for name in ("set_label.verify", "set_label.labeling_load", "graph_core.load"):
        assert names.count(name) == 1, name


@pytest.mark.parametrize("command", ["sweep", "sparing"])
def test_sweep_and_sparing_run_traced(tmp_path, command):
    spans = tmp_path / "spans.json"
    graph = tmp_path / "c7.json"
    graph.write_text(cycle_graph(7).to_json())
    inputs = {"sweep": ["sweep", "--oracle-bound", "24"],
              "sparing": ["sparing", "--graph", str(graph)]}
    args = [sys.executable, "-I", os.path.join(ROOT, "bench", "child.py"),
            os.path.join(ROOT, "src"), str(spans), *inputs[command],
            "--out", str(tmp_path / "out.json")]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = set(span[0] for span in json.loads(spans.read_text())["spans"])
    assert "sparing.exact" in names
    if command == "sweep":
        assert {"constructions.plan", "constructions.assign", "set_label.verify"} <= names
