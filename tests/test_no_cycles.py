"""No library call leaves a reference cycle: refcounting alone frees what
each one makes, so the collector that cli.main pauses has nothing to find.

Each check runs with the cyclic collector off and restores its state in
finally; gc.collect() must then find nothing the call left. main(argv)
leaves exactly what build_parser() alone leaves: argparse's own cycles.
"""

import gc
import json

import pytest

from weakiasi import cli, constructions
from weakiasi.constructions import assign_concrete_sets
from weakiasi.graph_core import (
    Graph,
    cartesian_product,
    corona,
    cycle_graph,
    disjoint_union,
    path_graph,
)
from weakiasi.set_label import Labeling, verify_weak_iasi
from weakiasi.sparing import sparing_exact

C4, C5 = cycle_graph(4), cycle_graph(5)


def leftover(call):
    """How many objects gc.collect() finds unreachable after call(), run
    with the collector off; the collector's state is restored after."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        call()
        return gc.collect()
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("g", [path_graph(9), cycle_graph(7), corona(C4, path_graph(3))[0],
                               cartesian_product(C5, C4)[0]],
                         ids=["path", "odd-cycle", "corona", "C5xC4"])
def test_sparing_exact(g):
    assert leftover(lambda: sparing_exact(g)) == 0


@pytest.mark.parametrize("op", constructions.PRODUCT_OPS)
def test_builder_and_planner(op):
    spec = constructions.PRODUCT_OPS[op]
    s1, s2 = {0, 2}, {1}
    _, vmap = spec.build(C5, C4, 0)
    assert leftover(lambda: spec.build(C5, C4, 0)) == 0
    assert leftover(lambda: spec.plan(vmap, C5, s1, C4, s2)) == 0


def test_disjoint_union():
    assert leftover(lambda: disjoint_union(C5, C4)) == 0


def test_assign_and_verify():
    g, vmap = cartesian_product(C5, C4)
    plan = constructions.plan_cartesian(vmap, C5, {0, 2}, C4)
    labeling = assign_concrete_sets(g, plan)
    assert leftover(lambda: assign_concrete_sets(g, plan)) == 0
    assert leftover(lambda: verify_weak_iasi(g, labeling)) == 0


@pytest.mark.parametrize("order", [1, -1], ids=["bulk", "per-entry"])
def test_loaders(order):
    g = cycle_graph(6)
    # Keys out of order send a labeling past the bulk pass to the per-entry loop.
    labels = {str(v): [v] if v % 2 else [2 ** v, 2 ** v + 1] for v in range(g.n)[::order]}
    text = json.dumps({"labels": labels})
    assert leftover(lambda: Graph.from_json(g.to_json())) == 0
    assert leftover(lambda: Labeling.from_json(text, g)) == 0


def test_run_sweep():
    assert leftover(lambda: cli.run_sweep(24, 0)) == 0


COMMANDS = {
    "build": lambda f: ["build", "--op", "rooted", "--root", "1",
                        "--g1", f["c5"], "--g2", f["c4"]],
    "label-op": lambda f: ["label", "--op", "corona", "--g1", f["c5"], "--g2", f["c4"]],
    "label-graph": lambda f: ["label", "--graph", f["c5"]],
    "verify": lambda f: ["verify", "--graph", f["c5"], "--labels", f["labels"]],
    "sparing": lambda f: ["sparing", "--graph", f["c5"]],
    "sweep": lambda f: ["sweep"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_main_leaves_only_the_parsers_cycles(tmp_path, capsys, command):
    files = {"c5": tmp_path / "c5.json", "c4": tmp_path / "c4.json",
             "labels": tmp_path / "labels.json"}
    files["c5"].write_text(C5.to_json())
    files["c4"].write_text(C4.to_json())
    labeling = assign_concrete_sets(C5, constructions.LabelPlan(frozenset({0, 2}), "test"))
    files["labels"].write_text(json.dumps(labeling.to_json_dict()))
    argv = COMMANDS[command]({k: str(p) for k, p in files.items()})
    argv += ["--out", str(tmp_path / "out.json")]
    codes = []
    assert leftover(lambda: codes.append(cli.main(argv))) == leftover(cli.build_parser)
    assert codes == [cli.EXIT_OK], capsys.readouterr().err
