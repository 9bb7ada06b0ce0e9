import hashlib
import json
import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakiasi.cli import (
    EXIT_CAPACITY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    EXIT_VERIFY,
    _dumps,
    export_dot,
    main,
    run_sweep,
)
from weakiasi import constructions
from weakiasi.constructions import (
    LabelPlan,
    assign_concrete_sets,
    optimal_labeling,
    plan_corona,
    plan_lexicographic,
    plan_rooted,
)
from weakiasi.graph_core import (
    Graph,
    GraphError,
    cartesian_product,
    complete_graph,
    corona,
    cycle_graph,
    lexicographic_product,
    path_graph,
    rooted_product,
)
from weakiasi.set_label import (
    IntegerSet,
    LabelError,
    Labeling,
    mono_indexed_stats,
    verify_iasi,
    verify_weak_iasi,
)
from weakiasi.sparing import sparing_formula_corona

OPS = ["cartesian", "direct", "strong", "lex", "corona", "rooted"]


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    for name, g in [("k4", complete_graph(4)), ("c4", cycle_graph(4)),
                    ("c5", cycle_graph(5)), ("p2", path_graph(2)),
                    ("p3", path_graph(3))]:
        p = tmp_path / f"{name}.json"
        p.write_text(g.to_json())
        paths[name] = str(p)
    return paths


def read(path):
    return json.loads(open(path).read())


class TestBuild:
    def test_cartesian_build(self, graphs, tmp_path):
        out = tmp_path / "prod.json"
        code = main(["build", "--op", "cartesian", "--g1", graphs["p2"],
                     "--g2", graphs["p3"], "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["n"] == 6
        assert len(payload["edges"]) == 7
        assert payload["vertex_map"]["order"].startswith("row-major")
        # artifact is re-ingestible
        Graph.from_json_dict(payload)

    def test_rooted_requires_root(self, graphs, tmp_path):
        code = main(["build", "--op", "rooted", "--g1", graphs["p2"],
                     "--g2", graphs["p2"], "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE

    def test_union(self, graphs, tmp_path):
        out = tmp_path / "u.json"
        code = main(["build", "--op", "union", "--g1", graphs["c4"],
                     "--g2", graphs["k4"], "--out", str(out)])
        assert code == EXIT_OK
        assert read(out)["n"] == 8

    def test_parse_error(self, graphs, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nonsense")
        code = main(["build", "--op", "cartesian", "--g1", str(bad),
                     "--g2", graphs["p2"], "--out", str(tmp_path / "x.json")])
        assert code == EXIT_PARSE

    def test_round_trip_normalization_is_stable(self, tmp_path):
        g = Graph(4, [(3, 2), (1, 0), (2, 0)], allow_isolated=True)
        p = tmp_path / "g.json"
        p.write_text(g.to_json())
        again = Graph.from_json(p.read_text(), allow_isolated=True)
        assert again.to_json() == g.to_json()


class TestSparing:
    def test_k4(self, graphs, tmp_path):
        out = tmp_path / "s.json"
        code = main(["sparing", "--graph", graphs["k4"], "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["value"] == 3
        assert payload["method"] == "exact-oracle"
        assert payload["formula_value"] == 3  # recognized as complete

    def test_out_bytes_are_json_dumps_indent_2(self, graphs, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sparing", "--graph", graphs["c5"], "--out", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()

    def test_capacity_exit_code(self, tmp_path):
        g = cycle_graph(12)
        p = tmp_path / "c12.json"
        p.write_text(g.to_json())
        code = main(["sparing", "--graph", str(p), "--oracle-bound", "6",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_CAPACITY

    def test_capacity_error_names_both_ways_to_raise_the_bound(self, tmp_path,
                                                                capsys):
        p = tmp_path / "c12.json"
        p.write_text(cycle_graph(12).to_json())
        code = main(["sparing", "--graph", str(p), "--oracle-bound", "6",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_CAPACITY
        err = capsys.readouterr().err
        assert "12 vertices" in err and "bound is 6" in err
        assert "--oracle-bound" in err and "WEAKIASI_ORACLE_BOUND" in err

    def test_oracle_bound_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEAKIASI_ORACLE_BOUND", "6")
        from weakiasi.sparing import oracle_bound_default
        assert oracle_bound_default() == 6

    def test_negative_oracle_bound_is_usage_error(self, graphs, tmp_path):
        code = main(["sparing", "--graph", graphs["k4"], "--oracle-bound", "-1",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("env", ["abc", "-1"])
    def test_bad_oracle_bound_env_is_parse_error(self, graphs, tmp_path,
                                                 monkeypatch, capsys, env):
        monkeypatch.setenv("WEAKIASI_ORACLE_BOUND", env)
        code = main(["sparing", "--graph", graphs["k4"],
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_PARSE
        assert "WEAKIASI_ORACLE_BOUND" in capsys.readouterr().err


class TestVerify:
    def test_duplicate_vertex_label_exits_4(self, graphs, tmp_path):
        labels = tmp_path / "bad.json"
        labels.write_text(json.dumps(
            {"labels": {"0": [1], "1": [2], "2": [1], "3": [3]}}))
        out = tmp_path / "rep.json"
        code = main(["verify", "--graph", graphs["c4"], "--labels", str(labels),
                     "--out", str(out)])
        assert code == EXIT_VERIFY
        payload = read(out)
        assert not payload["passed"]
        assert any(v[0] == "duplicate-vertex-label" for v in payload["violations"])

    def test_good_labeling_passes(self, graphs, tmp_path):
        g = cycle_graph(4)
        lab = optimal_labeling(g)
        labels = tmp_path / "good.json"
        labels.write_text(lab.to_json())
        code = main(["verify", "--graph", graphs["c4"], "--labels", str(labels),
                     "--out", str(tmp_path / "rep.json")])
        assert code == EXIT_OK


def _failing_case():
    """A labeling with every violation kind. Its duplicate edge groups are
    mono sums 2 and 5 and shifted labels {2,12} and {5,15}, so the report
    interleaves single-element and longer edge labels in sorted order."""
    g = Graph(12, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7),
                   (8, 9), (9, 10), (10, 11), (8, 11)])
    labels = {0: [1], 1: [4], 2: [3], 3: [2], 4: [0, 10], 5: [1, 2], 6: [1],
              7: [1, 11], 8: [0], 9: [2], 10: [0], 11: [5, 15]}
    return g, Labeling(g, {v: IntegerSet(s) for v, s in labels.items()})


def _passing_case():
    g, _ = cartesian_product(cycle_graph(5), cycle_graph(4))
    return g, optimal_labeling(g)


# SHA-256 of the indent-2 report bytes that `verify --out` writes, taken
# before the verifier moved to keyed, collision-only grouping. The CLI
# writes the verify_weak_iasi report; verify_iasi's is hashed in process.
VERIFY_GOLDEN = {
    ("passing", "verify_weak_iasi"): "28cf454195d7010c6383dc33bcc8718a19a366cab7e251e5ac7b6837eacc1b87",
    ("passing", "verify_iasi"): "28cf454195d7010c6383dc33bcc8718a19a366cab7e251e5ac7b6837eacc1b87",
    ("failing", "verify_weak_iasi"): "8a6879f7b45940fbeb8fbf421ebab1da9c75e209b687366e769de15f3670a811",
    ("failing", "verify_iasi"): "eb94b91e65142c3c421077fc9bbfd630c8abe75f6cc7effea4c040c8c5fcb292",
}
VERIFY_CASES = {"passing": (_passing_case, EXIT_OK), "failing": (_failing_case, EXIT_VERIFY)}


class TestVerifyPin:
    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_verify_out_bytes_are_pinned(self, tmp_path, case):
        make, code = VERIFY_CASES[case]
        g, lab = make()
        graph, labels, out = tmp_path / "g.json", tmp_path / "l.json", tmp_path / "r.json"
        graph.write_text(g.to_json())
        labels.write_text(lab.to_json())
        assert main(["verify", "--graph", str(graph), "--labels", str(labels),
                     "--out", str(out)]) == code
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == VERIFY_GOLDEN[case, "verify_weak_iasi"]

    @pytest.mark.parametrize("case", sorted(VERIFY_CASES))
    def test_verify_iasi_report_bytes_are_pinned(self, case):
        g, lab = VERIFY_CASES[case][0]()
        text = json.dumps(verify_iasi(g, lab).to_json_dict(), indent=2) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == VERIFY_GOLDEN[case, "verify_iasi"]

    def test_failing_case_has_every_violation_kind(self):
        g, lab = _failing_case()
        kinds = {kind for kind, _ in verify_weak_iasi(g, lab).violations}
        assert kinds == {"duplicate-vertex-label", "duplicate-edge-label",
                         "weak-condition-failed", "adjacent-non-singletons"}


class TestLabel:
    def test_label_then_verify_round_trip(self, graphs, tmp_path):
        out = tmp_path / "lab.json"
        code = main(["label", "--graph", graphs["k4"], "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["report"]["passed"]
        # the labeling artifact feeds straight back into verify
        labels = tmp_path / "labels.json"
        labels.write_text(json.dumps(payload["labeling"]))
        code = main(["verify", "--graph", graphs["k4"], "--labels", str(labels),
                     "--out", str(tmp_path / "rep.json")])
        assert code == EXIT_OK

    def test_label_product(self, graphs, tmp_path):
        out = tmp_path / "lab.json"
        code = main(["label", "--op", "cartesian", "--g1", graphs["c4"],
                     "--g2", graphs["p2"], "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["plan"]["provenance"] == "cartesian"
        assert payload["report"]["passed"]
        assert payload["report"]["mono_edge_count"] == 0  # bipartite x bipartite

    def test_plan_provenance_names_its_source(self, graphs, tmp_path):
        out, labels = tmp_path / "lab.json", tmp_path / "l.json"
        assert main(["label", "--graph", graphs["p3"], "--out", str(out)]) == EXIT_OK
        assert read(out)["plan"]["provenance"] == "oracle-witness"
        labels.write_text(json.dumps({"labels": {"0": [1], "1": [2, 3], "2": [5]}}))
        assert main(["label", "--graph", graphs["p3"], "--labels", str(labels),
                     "--out", str(out)]) == EXIT_OK
        assert read(out)["plan"] == {"non_singleton": [1], "provenance": "labels"}

    def test_label_usage_error(self, tmp_path):
        assert main(["label", "--out", str(tmp_path / "x.json")]) == EXIT_USAGE


class TestDot:
    def test_mono_edges_highlighted(self):
        g = complete_graph(4)
        lab = Labeling(g, {0: IntegerSet([9, 10]), 1: IntegerSet([1]),
                           2: IntegerSet([2]), 3: IntegerSet([4])})
        text = export_dot(g, lab)
        assert text.count("color=red") == 3
        assert "{9,10}" in text

    def test_plain_graph(self):
        text = export_dot(cycle_graph(3))
        assert "0 -- 1" in text and "color=red" not in text

    def test_zero_highlight_for_alternating_c4(self, tmp_path):
        g = cycle_graph(4)
        lab = optimal_labeling(g)
        path = tmp_path / "c4.dot"
        export_dot(g, lab, path=str(path))
        assert path.read_text().count("color=red") == 0


class TestSweep:
    def test_sweep_passes_its_bound_to_factor_labelings(self, monkeypatch):
        monkeypatch.setenv("WEAKIASI_ORACLE_BOUND", "3")
        assert run_sweep(oracle_bound=24)["all_passed"]

    def test_sweep_verifies_and_assigns_each_product_labeling_once(self, monkeypatch):
        # 600 grid plans and 10 random witnesses are each assigned and
        # verified once. The factor patterns are oracle witnesses, so no
        # factor labeling is assigned or verified.
        calls = Counter()

        def count(name):
            fn = getattr(constructions, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(constructions, name, counted)

        count("verify_weak_iasi")
        count("assign_concrete_sets")
        run_sweep(24, 0)
        assert calls == {"verify_weak_iasi": 610, "assign_concrete_sets": 610}

    def test_corona_r_counts_singleton_vertices(self):
        # r_i is the number of singleton (mono-indexed) vertices: an optimal
        # labeling of K4 has one non-singleton vertex, so r = 3, not 1.
        k4 = complete_graph(4)
        r, _, _ = mono_indexed_stats(k4, optimal_labeling(k4))
        assert r == 3
        assert sparing_formula_corona(4, k4.m, r, r) == 18
        assert sparing_formula_corona(4, k4.m, 1, 1) == 20  # the non-singleton reading
        row, = [row for row in run_sweep(oracle_bound=24)["cases"]
                if (row["g1"], row["g2"], row["op"]) == ("K4", "K4", "corona")]
        assert row["formula"] == 18

    def test_sweep_reports_corona_gap(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main(["sweep", "--oracle-bound", "32", "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["all_passed"]
        cases = {d["case"]: d for d in payload["corona_discrepancies"]}
        assert cases["C4 (.) K2"]["formula"] == 6
        assert cases["C4 (.) K2"]["exact"] == 4
        err = capsys.readouterr().err
        assert "DISCREPANCY C4 (.) K2" in err


class TestUnusedFlags:
    def test_build_rejects_seed(self, graphs, tmp_path):
        code = main(["build", "--op", "cartesian", "--g1", graphs["p2"],
                     "--g2", graphs["p3"], "--out", str(tmp_path / "x.json"),
                     "--seed", "9"])
        assert code == EXIT_USAGE

    def test_sparing_rejects_dot(self, graphs, tmp_path):
        code = main(["sparing", "--graph", graphs["k4"], "--out", str(tmp_path / "s.json"),
                     "--dot", str(tmp_path / "x.dot")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.dot").exists()

    def test_build_rejects_oracle_bound(self, graphs, tmp_path):
        code = main(["build", "--op", "cartesian", "--g1", graphs["p2"],
                     "--g2", graphs["p3"], "--out", str(tmp_path / "x.json"),
                     "--oracle-bound", "5"])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    def test_sweep_rejects_allow_isolated(self, tmp_path):
        code = main(["sweep", "--allow-isolated", "--out", str(tmp_path / "s.json")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize("command, op", [
        *[(command, op) for command in ("build", "label") for op in OPS if op != "rooted"],
        ("build", "union")])
    def test_root_only_on_rooted(self, graphs, tmp_path, capsys, command, op):
        code = main([command, "--op", op, "--g1", graphs["c5"], "--g2", graphs["c4"],
                     "--root", "0", "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "--root" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("extra", [["--root", "0"], ["--labels2", "c4"], ["--g1", "c5"],
                                       ["--op", "cartesian", "--g1", "c5", "--g2", "c4"]],
                             ids=["root", "labels2", "g1", "op"])
    def test_label_graph_takes_no_product_flags(self, graphs, tmp_path, extra):
        code = main(["label", "--graph", graphs["c4"], *[graphs.get(a, a) for a in extra],
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("op", ["cartesian", "direct", "strong", "lex"])
    def test_labels2_needs_an_op_that_reads_both(self, graphs, tmp_path, capsys, op):
        labels = tmp_path / "l.json"
        labels.write_text(optimal_labeling(cycle_graph(4)).to_json())
        code = main(["label", "--op", op, "--g1", graphs["c5"], "--g2", graphs["c4"],
                     "--labels2", str(labels), "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert "--labels2" in capsys.readouterr().err

    def test_label_rejects_missing_graph_with_op(self, graphs, tmp_path):
        code = main(["label", "--graph", str(tmp_path / "missing.json"),
                     "--op", "cartesian", "--g1", graphs["c5"], "--g2", graphs["c4"],
                     "--out", str(tmp_path / "x.json")])
        assert code == EXIT_USAGE
        assert not (tmp_path / "x.json").exists()

    def test_usage_errors_print_no_traceback(self, graphs):
        proc = run_module("label", "--op", "cartesian", "--g1", graphs["c5"],
                          "--g2", graphs["c4"], "--root", "0")
        assert proc.returncode == EXIT_USAGE
        assert "usage error" in proc.stderr and "Traceback" not in proc.stderr
        proc = run_module("build", "--op", "cartesian", "--g1", graphs["c5"],
                          "--g2", graphs["c4"], "--oracle-bound", "5")
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        proc = run_module("verify", "--graph", graphs["c4"])
        assert proc.returncode == EXIT_USAGE
        assert "--labels" in proc.stderr and "Traceback" not in proc.stderr

    def test_sweep_seed_0_output_is_pinned(self, tmp_path):
        pins = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "expected.json")
        with open(pins) as fh:
            want = json.load(fh)["sweep"]["seed0_sha256"]
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--oracle-bound", "24", "--seed", "0",
                     "--out", str(out)]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def run_module(*args):
    """Run `python -m weakiasi` in a fresh interpreter, as a user would."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "weakiasi", *args],
                          capture_output=True, text=True, env=env, timeout=60)


class TestModuleEntryPoint:
    def test_help(self):
        proc = run_module("--help")
        assert proc.returncode == EXIT_OK
        assert "usage: weakiasi" in proc.stdout


class TestColdStart:
    def test_import_pulls_in_no_dataclasses_or_inspect(self):
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import weakiasi.cli; "
                "print(' '.join(sorted(sys.modules)))")
        proc = subprocess.run([sys.executable, "-I", "-c", code, src],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.split())
        assert "weakiasi.cli" in modules
        assert not modules & {"dataclasses", "inspect"}


# The library's readers, by the CLI flag whose file they parse the same way:
# (load, error, message prefix).
FROM_JSON = {
    "--graph": (Graph.from_json, GraphError, "bad graph JSON: "),
    "--labels": (lambda text: Labeling.from_json(text, path_graph(3)), LabelError,
                 "bad labeling JSON: "),
}


class TestStrictInput:
    @pytest.mark.parametrize("graph", [
        {"n": "3", "edges": [[0, 1], [1, 2]]},
        {"n": 3, "edges": [[0, 1], [1, 2.0]]},
        {"n": 3, "edges": [[0, 1], [1, 2, 0]]},
        {"n": 3, "edges": [[0, True], [1, 2]]},
    ], ids=["string-n", "float-endpoint", "three-element-edge", "bool-vertex"])
    def test_malformed_graph_is_parse_error(self, tmp_path, graph):
        p = tmp_path / "g.json"
        p.write_text(json.dumps(graph))
        proc = run_module("sparing", "--graph", str(p))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr

    def test_huge_isolated_vertex_count_is_a_short_parse_error(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text(json.dumps({"n": 10 ** 6, "edges": []}))
        proc = run_module("sparing", "--graph", str(p))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024
        assert "1000000 of 1000000 vertices are isolated" in proc.stderr

    def test_huge_unlabeled_vertex_count_is_a_short_parse_error(self, tmp_path):
        graph, labels = tmp_path / "g.json", tmp_path / "l.json"
        graph.write_text(json.dumps({"n": 10 ** 6, "edges": []}))
        labels.write_text(json.dumps({"labels": {"0": [1]}}))
        proc = run_module("verify", "--graph", str(graph), "--labels", str(labels),
                          "--allow-isolated")
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024
        assert "misses 999999 of 1000000 vertices" in proc.stderr

    @pytest.mark.parametrize("label", [[True], [1, True]], ids=["true", "one-and-true"])
    def test_bool_label_element_is_parse_error(self, graphs, tmp_path, label):
        labels = tmp_path / "l.json"
        labels.write_text(json.dumps(
            {"labels": {"0": label, "1": [2], "2": [4], "3": [8]}}))
        proc = run_module("verify", "--graph", graphs["c4"], "--labels", str(labels))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("inputs", [["--graph", "p3"],
                                        ["--op", "cartesian", "--g1", "p3", "--g2", "p3"]],
                             ids=["graph", "op"])
    def test_label_rejects_labels_that_are_not_a_weak_iasi(self, graphs, tmp_path, inputs):
        labels, out = tmp_path / "l.json", tmp_path / "out.json"
        labels.write_text(json.dumps({"labels": {"0": [5], "1": [5], "2": [5]}}))
        proc = run_module("label", *[graphs.get(a, a) for a in inputs],
                          "--labels", str(labels), "--out", str(out))
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith("input error: ")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("inputs", [["--graph", "path"],
                                        ["--op", "direct", "--g1", "path", "--g2", "p2"]],
                             ids=["graph", "op"])
    def test_labels_that_fail_everywhere_give_a_short_parse_error(self, graphs, tmp_path,
                                                                  inputs):
        # One duplicate-vertex-label group of 5,000 vertices, and every edge
        # label equal.
        n = 5000
        graph, labels = tmp_path / "path.json", tmp_path / "l.json"
        graph.write_text(path_graph(n).to_json())
        labels.write_text(json.dumps({"labels": {str(v): [5] for v in range(n)}}))
        paths = dict(graphs, path=str(graph))
        proc = run_module("label", *[paths.get(a, a) for a in inputs],
                          "--labels", str(labels), "--out", str(tmp_path / "out.json"))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.encode()) < 1024
        assert "2 violations (duplicate-edge-label, duplicate-vertex-label" in proc.stderr

    def test_non_utf8_graph_is_parse_error(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_bytes(b"\xff\xfe" + json.dumps({"n": 2, "edges": [[0, 1]]}).encode())
        proc = run_module("sparing", "--graph", str(p))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("labels", [
        {"0": [1], "00": [2, 3], "1": [4]},
        {"0": [1], "+1": [2, 3]},
    ], ids=["00-shadows-0", "plus-sign"])
    def test_non_canonical_labeling_key_is_parse_error(self, tmp_path, labels):
        k2 = tmp_path / "k2.json"
        k2.write_text(complete_graph(2).to_json())
        p = tmp_path / "l.json"
        p.write_text(json.dumps({"labels": labels}))
        proc = run_module("verify", "--graph", str(k2), "--labels", str(p))
        assert proc.returncode == EXIT_PARSE
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command, flag, text", [
        ("sparing", "--graph", "[" * 100_000),
        ("verify", "--labels", '{"labels": ' + "[" * 50_000 + "}"),
        ("from_json", "--graph", "[" * 100_000),
        ("from_json", "--labels", '{"labels": ' + "[" * 50_000 + "}"),
    ], ids=["graph", "labels", "graph-from-json", "labels-from-json"])
    def test_deeply_nested_json_is_a_one_line_parse_error(self, graphs, tmp_path, command,
                                                          flag, text):
        if command == "from_json":  # the library's reader for that flag's file
            load, error, prefix = FROM_JSON[flag]
            with pytest.raises(error) as info:
                load(text)
            assert str(info.value).startswith(prefix) and "\n" not in str(info.value)
            return
        nested = tmp_path / "nested.json"
        nested.write_text(text)
        inputs = {"--graph": graphs["p3"], flag: str(nested)}
        proc = run_module(command, *[x for pair in inputs.items() for x in pair])
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith("input error: ")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("key, flag", [
        ("0", None), ("x" * 100_000, None),
        ("0", "--labels"), ("x" * 100_000, "--labels"), ("n", "--graph"),
    ], ids=["vertex", "long", "vertex-from-json", "long-from-json", "graph-from-json"])
    def test_duplicate_json_key_is_a_short_parse_error(self, graphs, tmp_path, key, flag):
        # json.loads keeps the last "0", so vertex 0 would pass as {1}.
        text = '{"labels": {"%s": [5, 6], "%s": [1], "1": [2], "2": [3]}}' % (key, key)
        if flag is not None:  # the library's reader for that flag's file
            load, error, prefix = FROM_JSON[flag]
            with pytest.raises(error) as info:
                load(text)
            assert str(info.value) == f"{prefix}duplicate key {key[:40]!r}"
            return
        p = tmp_path / "l.json"
        p.write_text(text)
        proc = run_module("verify", "--graph", graphs["p3"], "--labels", str(p))
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith("input error: ")
        assert f"duplicate key {key[:40]!r}" in proc.stderr
        assert len(proc.stderr.encode()) < 1024


class TestOutputErrors:
    @pytest.mark.parametrize("flag", ["--out", "--dot"])
    def test_unwritable_output_exits_1_with_one_line(self, graphs, tmp_path, flag):
        paths = {"--out": str(tmp_path / "p.json"), "--dot": str(tmp_path / "p.dot")}
        paths[flag] = str(tmp_path / "missing" / "x")
        proc = run_module("build", "--op", "cartesian", "--g1", graphs["c5"],
                          "--g2", graphs["c4"], "--out", paths["--out"],
                          "--dot", paths["--dot"])
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("output error: ")
        assert len(proc.stderr.splitlines()) == 1


    @pytest.mark.parametrize("command", ["build", "label", "verify"])
    def test_unwritable_dot_writes_no_out_file(self, graphs, tmp_path, command):
        labels = tmp_path / "l.json"
        labels.write_text(json.dumps({"labels": {"0": [1], "1": [2], "2": [4], "3": [8]}}))
        inputs = {"build": ["--op", "cartesian", "--g1", graphs["p3"], "--g2", graphs["p3"]],
                  "label": ["--op", "cartesian", "--g1", graphs["p3"], "--g2", graphs["p3"]],
                  "verify": ["--graph", graphs["c4"], "--labels", str(labels)]}
        out = tmp_path / "out.json"
        code = main([command, *inputs[command], "--out", str(out),
                     "--dot", str(tmp_path / "missing" / "x.dot")])
        assert code == EXIT_USAGE
        assert not out.exists()


class TestLargeProduct:
    def test_c60_box_c60(self, tmp_path):
        c60 = tmp_path / "c60.json"
        c60.write_text(cycle_graph(60).to_json())
        out = tmp_path / "lab.json"
        code = main(["label", "--op", "cartesian", "--g1", str(c60), "--g2", str(c60),
                     "--oracle-bound", "64", "--out", str(out)])
        assert code == EXIT_OK
        payload = read(out)
        assert payload["report"]["passed"]
        assert len(payload["plan"]["non_singleton"]) == 1800
        assert payload["report"]["mono_edge_count"] == 0
        # Every value is below 2p^2, with p = 3607 the least prime >= 3600.
        assert max(x for s in payload["labeling"]["labels"].values() for x in s) < 2 * 3607 ** 2

    def test_verify_c100_box_c100(self, tmp_path):
        c100 = cycle_graph(100)
        g, _ = cartesian_product(c100, c100)
        plan = LabelPlan(frozenset(v for v in range(g.n) if (v // 100 + v) % 2), "parity")
        lab = assign_concrete_sets(g, plan)
        graph, labels = tmp_path / "g.json", tmp_path / "l.json"
        graph.write_text(g.to_json())
        labels.write_text(lab.to_json())
        out = tmp_path / "rep.json"
        assert main(["verify", "--graph", str(graph), "--labels", str(labels),
                     "--out", str(out)]) == EXIT_OK
        report = read(out)
        assert report["passed"] and report["mono_vertex_count"] == 5000
        # corrupted copy: vertex 1 takes vertex 0's label
        payload = lab.to_json_dict()
        payload["labels"]["1"] = payload["labels"]["0"]
        labels.write_text(json.dumps(payload))
        assert main(["verify", "--graph", str(graph), "--labels", str(labels),
                     "--out", str(out)]) == EXIT_VERIFY
        assert ["duplicate-vertex-label", [0, 1]] in read(out)["violations"]


# SHA-256 of `label --op X` and `build --op X` output for g1 = C5, g2 = C4
# (--root 0 for rooted). The build pins were taken before the op table
# replaced the per-op code; the label pins were re-taken when every vertex
# took its own Erdos-Turan value, which changed only the "labeling" bytes
# (GOLDEN_WITHOUT_LABELING below pins the rest).
GOLDEN = {
    ("label", "cartesian"): "a10799fb27f187c3d9aa578606192a94165cdbf5e659ee268a74da74ceb51e14",
    ("label", "direct"): "ca44bc9c78e9ef592d0df635e892b03ef1cb6576f397d28e3ffc14a095e3535d",
    ("label", "strong"): "61d9dd3f4f9bc07d223bce555c7f90777af9b9a255e9adab9a9dcc85c9373662",
    ("label", "lex"): "bd02e78b16bf9387f2801e59871d541c089a720448d9989578f23e19a8d58d11",
    ("label", "corona"): "28cb73929f1b192f89b5429861b051910375e1626aa2803a42944e6867758f2a",
    ("label", "rooted"): "24b42633e617bdc73fb5b7d1f75499634b99e5e5ca5abc56da529bae640570a0",
    ("build", "cartesian"): "86e36b9256b09cac61669d324e8225ef19e1e0d04dc782529073eed13ca2901c",
    ("build", "direct"): "fda1096d1b0e0d4d87e5f2ec04cc0238d362940de32b8718bbc5496073315d3b",
    ("build", "strong"): "01eb8f8976c99413d37ebc8ae1f737957acce568a08b329a4ba8d40ed35a0668",
    ("build", "lex"): "cd2740aebea170a8aa17c7d9038e13a5bbe42fe235f7056657d51f43102516ae",
    ("build", "corona"): "732f9cba511b533ae1cc67d1e5cda857a06dfc78c81adc20b1651d7746986f5b",
    ("build", "rooted"): "defc5ef73cbf6a95440e1a57455ae83a275079881aa37608158fb8df8e0d035a",
}


# SHA-256 of json.dumps(payload, indent=2) for the same `label --op X`
# outputs with the "labeling" key removed: the graph, plan and report do not
# depend on which integers fill the labels. Taken while singletons and
# non-singletons still drew their values from two separate layouts.
GOLDEN_WITHOUT_LABELING = {
    "cartesian": "e775716385eabe382c72eec5de19c8a9a1ee6f0fd6b7716c3e2825b1fec9a235",
    "direct": "f8962abd6c3c502c353f9c669d6e9d110b6e578e293a82b019fe00ff5c2ccbbb",
    "strong": "923d9346019ce397e69f2019592773c15ee20a30cc14bb6bc91932ee32932675",
    "lex": "c6826bf0577c82d394a8e0d2590d4b5e72595e1099e3ca91ca87e03e879e2683",
    "corona": "0c4bdd44699426495babcafb3afbe745c7ecd5812f0d0d7f40a237140356a434",
    "rooted": "b16d7922f9fe9a2ed13fdc90f9a3cb6b40ce65c3eef679d887d551c6dec586b3",
}


class TestEveryOp:
    @staticmethod
    def run_op(graphs, tmp_path, command, op):
        out = tmp_path / "out.json"
        args = [command, "--op", op, "--g1", graphs["c5"], "--g2", graphs["c4"],
                "--out", str(out)]
        if op == "rooted":
            args += ["--root", "0"]
        assert main(args) == EXIT_OK
        return out.read_bytes()

    @pytest.mark.parametrize("command, op", sorted(GOLDEN))
    def test_output_is_pinned(self, graphs, tmp_path, command, op):
        out = self.run_op(graphs, tmp_path, command, op)
        assert hashlib.sha256(out).hexdigest() == GOLDEN[command, op]

    @pytest.mark.parametrize("op", OPS)
    def test_label_output_without_labeling_is_pinned(self, graphs, tmp_path, op):
        payload = json.loads(self.run_op(graphs, tmp_path, "label", op))
        del payload["labeling"]
        text = json.dumps(payload, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_WITHOUT_LABELING[op]

    @staticmethod
    def labeling_file(tmp_path, name, g, non_singleton):
        lab = assign_concrete_sets(g, LabelPlan(frozenset(non_singleton), "given"))
        path = tmp_path / f"{name}.json"
        path.write_text(lab.to_json())
        return str(path)

    def test_lex_labels_is_the_second_factor(self, graphs, tmp_path):
        c5, c4 = cycle_graph(5), cycle_graph(4)
        # A 1-uniform labeling of C4 differs from the optimal one the
        # planner would make without --labels.
        path = self.labeling_file(tmp_path, "l2", c4, [])
        out = tmp_path / "out.json"
        assert main(["label", "--op", "lex", "--g1", graphs["c5"], "--g2", graphs["c4"],
                     "--labels", path, "--out", str(out)]) == EXIT_OK
        prod, vmap = lexicographic_product(c5, c4)
        assert read(out)["plan"] == plan_lexicographic(prod, vmap, c5, c4, set()).to_json_dict()

    @pytest.mark.parametrize("op, flag, who", [
        ("cartesian", "--labels", "first factor"), ("direct", "--labels", "first factor"),
        ("strong", "--labels", "first factor"), ("lex", "--labels", "second factor"),
        ("corona", "--labels", "first factor"), ("corona", "--labels2", "second factor"),
        ("rooted", "--labels", "first factor"), ("rooted", "--labels2", "second factor"),
    ])
    def test_factor_labeling_that_is_not_a_weak_iasi_names_its_factor(self, graphs, tmp_path,
                                                                      capsys, op, flag, who):
        # Every vertex labeled {5}: each label repeats. The other factor is
        # the oracle's witness.
        n = 5 if who == "first factor" else 4
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"labels": {str(v): [5] for v in range(n)}}))
        out = tmp_path / "out.json"
        args = ["label", "--op", op, "--g1", graphs["c5"], "--g2", graphs["c4"],
                flag, str(bad), "--out", str(out)]
        if op == "rooted":
            args += ["--root", "0"]
        assert main(args) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(
            f"input error: {who} labeling is not a weak IASI: ")
        assert not out.exists()

    def test_every_factor_is_solved_before_a_labeling_is_checked(self, graphs, tmp_path,
                                                                 capsys):
        # The first factor's file is not a weak IASI, but the second factor
        # is over the oracle bound: the capacity error wins, as it always has.
        bad, c30 = tmp_path / "bad.json", tmp_path / "c30.json"
        bad.write_text(json.dumps({"labels": {"0": [5], "1": [5], "2": [5]}}))
        c30.write_text(cycle_graph(30).to_json())
        assert main(["label", "--op", "corona", "--g1", graphs["p3"], "--g2", str(c30),
                     "--labels", str(bad), "--oracle-bound", "24"]) == EXIT_CAPACITY
        assert capsys.readouterr().err.startswith("capacity error: ")

    def test_every_factor_is_parsed_before_a_labeling_is_checked(self, graphs, tmp_path,
                                                                 capsys):
        bad, malformed = tmp_path / "bad.json", tmp_path / "malformed.json"
        bad.write_text(json.dumps({"labels": {str(v): [5] for v in range(5)}}))
        malformed.write_text('{"labels": ')
        assert main(["label", "--op", "corona", "--g1", graphs["c5"], "--g2", graphs["c4"],
                     "--labels", str(bad), "--labels2", str(malformed)]) == EXIT_PARSE
        assert capsys.readouterr().err.startswith(f"input error: cannot parse {malformed}: ")

    @pytest.mark.parametrize("op", ["corona", "rooted"])
    def test_labels_and_labels2_are_g1_and_g2(self, graphs, tmp_path, op):
        c5, c4 = cycle_graph(5), cycle_graph(4)
        s1, s2 = {1, 3}, {0, 2}
        path1 = self.labeling_file(tmp_path, "l1", c5, s1)
        path2 = self.labeling_file(tmp_path, "l2", c4, s2)
        out = tmp_path / "out.json"
        args = ["label", "--op", op, "--g1", graphs["c5"], "--g2", graphs["c4"],
                "--labels", path1, "--labels2", path2, "--out", str(out)]
        if op == "rooted":
            args += ["--root", "0"]
            prod, vmap = rooted_product(c5, c4, 0)
            want = plan_rooted(prod, vmap, c5, s1, c4, s2, 0)
        else:
            prod, vmap = corona(c5, c4)
            want = plan_corona(prod, vmap, c5, s1, c4, s2)
        assert main(args) == EXIT_OK
        payload = read(out)
        assert payload["report"]["passed"]
        assert payload["plan"] == want.to_json_dict()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.text(),
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


class TestJsonWriter:
    @pytest.mark.parametrize("value", [[1, True], [], {}, [[]], [[1], [2, 3]],
                                       ([0, 1], (2, 3)), [[1], [True]], [[], [1]],
                                       {"\u00e9\n\"": [None, False, -7, 10 ** 40]}])
    def test_matches_json_dumps_on_edge_cases(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(json_values)
    def test_matches_json_dumps(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, [0.0], [[1, 2.0]], {1: 2}, {"a": {3}}, b"x"])
    def test_rejects_types_no_payload_holds(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
