"""Self-tests for the benchmark's generator and checker.

    python3 -m pytest bench/test_bench.py -q

The program under test appears here only as a second opinion: the
generator's products and the checker's reports must agree with it on small
cases, so that the benchmark's references mean what the CLI means.
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import check  # noqa: E402
import inputs  # noqa: E402
from weakiasi import graph_core  # noqa: E402
from weakiasi.set_label import Labeling, verify_weak_iasi  # noqa: E402

with open(os.path.join(BENCH, "expected.json")) as fh:
    EXPECTED = json.load(fh)


def _program_graph(graph):
    return graph_core.Graph(graph[0], graph[1], allow_isolated=True)


def _labeled(graph, seed, share=0.5):
    rng = inputs.rng_for(seed, "test")
    return inputs.sidon_labeling(graph, inputs.random_independent(graph, rng, share), rng)


SMALL = [inputs.cycle(5), inputs.path(4), inputs.complete(4),
         inputs.random_connected(7, 0.3, inputs.rng_for(0, "small"))]


@pytest.mark.parametrize("op", ["cartesian", "direct", "strong", "lex", "corona", "rooted"])
def test_products_match_program_numbering(op):
    program = {"cartesian": graph_core.cartesian_product,
               "direct": graph_core.direct_product,
               "strong": graph_core.strong_product,
               "lex": graph_core.lexicographic_product,
               "corona": graph_core.corona}
    for g1 in SMALL:
        for g2 in SMALL:
            ours = inputs.product(op, g1, g2, root=1)
            a, b = _program_graph(g1), _program_graph(g2)
            theirs = (graph_core.rooted_product(a, b, 1) if op == "rooted"
                      else program[op](a, b))[0]
            assert ours == (theirs.n, theirs.sorted_edges())


def test_erdos_turan_is_sidon():
    for count in (1, 2, 10, 97, 300):
        values = inputs.erdos_turan(count)
        sums = [a + b for i, a in enumerate(values) for b in values[i:]]
        assert len(set(values)) == count
        assert len(set(sums)) == len(sums)


@pytest.mark.parametrize("seed", range(5))
def test_checker_accepts_generated_labelings(seed):
    graph = inputs.strong(inputs.cycle(7), inputs.cycle(6))
    labels = _labeled(graph, seed)
    report = check.weak_iasi_report(graph, labels)
    assert report["passed"]
    assert report["violations"] == []


@pytest.mark.parametrize("kind", inputs.CORRUPTIONS)
@pytest.mark.parametrize("seed", range(4))
def test_checker_rejects_each_corruption(kind, seed):
    graph = inputs.cartesian(inputs.cycle(9), inputs.cycle(8))
    labels = inputs.corrupt(graph, _labeled(graph, seed), kind, inputs.rng_for(seed, kind))
    report = check.weak_iasi_report(graph, labels)
    assert not report["passed"]
    assert kind in {k for k, _ in report["violations"]}


@pytest.mark.parametrize("kind", (None,) + inputs.CORRUPTIONS)
def test_checker_report_matches_program_verifier(kind):
    graph = inputs.strong(inputs.cycle(6), inputs.cycle(5))
    labels = _labeled(graph, 3)
    if kind:
        labels = inputs.corrupt(graph, labels, kind, inputs.rng_for(3, kind))
    g = _program_graph(graph)
    program = verify_weak_iasi(g, Labeling(g, dict(enumerate(labels))))
    assert check.weak_iasi_report(graph, labels) == program.to_json_dict()


def test_generator_is_deterministic(tmp_path):
    def files(seed):
        grid = inputs.cartesian(inputs.cycle(10), inputs.cycle(10))
        labels = _labeled(grid, seed)
        broken = inputs.corrupt(grid, labels, "duplicate-edge-label",
                                inputs.rng_for(seed, "corrupt"))
        payloads = [inputs.graph_json(inputs.gnp(40, 0.15, inputs.rng_for(seed, "gnp"))),
                    inputs.labeling_json(labels), inputs.labeling_json(broken)]
        out = []
        for i, payload in enumerate(payloads):
            path = tmp_path / f"{i}.json"
            inputs.write_json(path, payload)
            out.append(path.read_bytes())
        return out

    assert files(7) == files(7)
    assert files(7) != files(8)


def test_oracle_pins_agree_with_closed_forms():
    pins = EXPECTED["oracle-suite"]
    for n in range(28, 33):
        assert pins[f"P{n}"]["value"] == 0  # paths are bipartite
    for n in (27, 29, 31):
        assert pins[f"C{n}"]["value"] == 1  # odd cycles
    assert pins["K4oK4"]["value"] == 27
    graphs = {"C5xC7": inputs.cartesian(inputs.cycle(5), inputs.cycle(7)),
              "C5oC5": inputs.corona(inputs.cycle(5), inputs.cycle(5)),
              "K4oK4": inputs.corona(inputs.complete(4), inputs.complete(4))}
    graphs.update({f"P{n}": inputs.path(n) for n in range(28, 33)})
    graphs.update({f"C{n}": inputs.cycle(n) for n in (27, 29, 31)})
    for name, graph in graphs.items():
        pin = pins[name]
        assert check.witness_problems(graph, pin["value"], pin["witness"]) is None


def test_witness_check_rejects_bad_witnesses():
    c5 = inputs.cycle(5)
    assert check.witness_problems(c5, 1, [0, 2]) is None
    assert check.witness_problems(c5, 1, [0, 1]) == "witness is not independent"
    assert check.witness_problems(c5, 0, [0, 2]) is not None
    assert check.witness_problems(c5, 1, [2, 0]) is not None


def test_brute_force_sparing_known_values():
    assert check.brute_force_sparing(inputs.cycle(5)) == 1
    assert check.brute_force_sparing(inputs.cycle(6)) == 0
    assert check.brute_force_sparing(inputs.complete(5)) == 6  # (n-1)(n-2)/2
    assert check.brute_force_sparing(inputs.path(4)) == 0
