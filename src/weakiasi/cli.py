"""Command-line front end.

Subcommands: build, label, verify, sparing, sweep. All file formats are
JSON (see graph_core / set_label serializers); DOT is output-only. JSON
output is byte-for-byte json.dumps(payload, indent=2) plus a newline,
written by _dumps, which is faster than the pure-Python encoder that
json.dumps falls back to under indent.

Exit codes: 0 success, 1 usage error or an output file (--out, --dot)
that cannot be written, 2 parse error, 3 capacity error, 4 verification
failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii

from . import constructions, graph_core, sparing
from .graph_core import Graph, GraphError, parse_json
from .set_label import LabelError, Labeling, verify_weak_iasi
from .sparing import CapacityError, SparingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


def export_dot(g, labeling=None, path=None):
    """Graphviz DOT text for a graph, with set-labels and mono edges marked.

    Mono-indexed edges (both endpoints singleton) are drawn bold red so the
    construction cost is visible at a glance.
    """
    lines = ["graph G {"]
    sets = labeling.sets_for(g) if labeling is not None else None
    for v in range(g.n):
        if sets is not None:
            label = "{" + ",".join(map(str, sets[v])) + "}"
            shape = "ellipse" if sets[v].is_singleton() else "box"
            lines.append(f'  {v} [label="{v}: {label}", shape={shape}];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        style = ""
        if sets is not None and sets[u].is_singleton() and sets[v].is_singleton():
            style = ' [color=red, penwidth=2.0, style=bold]'
        lines.append(f"  {u} -- {v}{style};")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _load_json(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8
        raise GraphError(f"cannot parse {path}: {exc}")
    return parse_json(text, GraphError, f"cannot parse {path}: ")


def _load_graph(path, allow_isolated):
    return Graph.from_json_dict(_load_json(path), allow_isolated=allow_isolated)


def _dumps(value, indent="\n"):
    """Exactly json.dumps(value, indent=2), for the types payloads hold:
    str-keyed dicts, lists, tuples, str, int, bool and None.

    indent is the newline and spaces that precede value's closing bracket.
    A list of ints, or of nonempty int lists, is joined in one step, so the
    edge lists of a large product cost no call per edge.
    """
    if type(value) is str:
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = indent + "  "
    if type(value) is dict:
        if not value:
            return "{}"
        # encode_basestring_ascii raises TypeError on a key that is not a str.
        items = [encode_basestring_ascii(k) + ": " + _dumps(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if type(value) is list or type(value) is tuple:
        if not value:
            return "[]"
        types = set(map(type, value))
        if types == {int}:
            return "[" + inner + ("," + inner).join(map(int.__repr__, value)) + indent + "]"
        if (types <= {list, tuple} and all(value)
                and set(map(type, chain.from_iterable(value))) == {int}):
            # One %d template per row length, filled from all the ints at once.
            inner2 = inner + "  "
            row_text = {k: ("," + inner2).join(["%d"] * k) for k in set(map(len, value))}
            rows = (inner + "]," + inner + "[" + inner2).join(map(row_text.__getitem__,
                                                                   map(len, value)))
            return ("[" + inner + "[" + inner2 + rows % tuple(chain.from_iterable(value))
                    + inner + "]" + indent + "]")
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in value]) + indent + "]"
    raise TypeError(f"cannot write {type(value).__name__} as JSON")


def _write_json(path, payload):
    text = _dumps(payload) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args):
    g1 = _load_graph(args.g1, args.allow_isolated)
    g2 = _load_graph(args.g2, args.allow_isolated)
    if args.op == "union":
        g = graph_core.disjoint_union(g1, g2)
        vmap_payload = {"kind": "union", "shift": g1.n}
    else:
        g, vmap = constructions.PRODUCT_OPS[args.op].build(g1, g2, args.root)
        vmap_payload = vmap.to_json_dict()
    payload = g.to_json_dict()
    payload["vertex_map"] = vmap_payload
    payload["connected"] = g.is_connected()
    if args.dot:
        export_dot(g, path=args.dot)
    _write_json(args.out, payload)
    return EXIT_OK


def _require_weak(g, labeling, who):
    """The pattern (non-singleton set) of a labeling that must be a weak IASI."""
    report = verify_weak_iasi(g, labeling)
    if not report.passed:
        # A large input can fail everywhere, so name kinds and ten vertices at most.
        kinds = ", ".join(sorted({kind for kind, _ in report.violations}))
        vertices = dict.fromkeys(v for _, witness in report.violations for v in witness)
        raise LabelError(f"{who} labeling is not a weak IASI: {len(report.violations)} "
                         f"violations ({kinds}; first vertices: {list(islice(vertices, 10))})")
    return labeling.non_singleton_vertices()


def _factor_patterns(factors, oracle_bound):
    """The pattern of each (graph, path, who) factor: its labeling file's,
    or with no file the oracle's witness, independent by construction.
    Every file is loaded and every witness found before any labeling is
    checked, so a capacity error comes before a bad labeling."""
    loaded = [Labeling.from_json_dict(_load_json(path), g) if path
              else sparing.sparing_exact(g, oracle_bound).witness
              for g, path, _ in factors]
    return [frozenset(_require_weak(g, x, who) if path else x)
            for (g, path, who), x in zip(factors, loaded)]


def cmd_label(args):
    bound = args.oracle_bound
    if args.op is None:
        g = _load_graph(args.graph, args.allow_isolated)
        pattern, = _factor_patterns([(g, args.labels, "--labels")], bound)
        plan = constructions.LabelPlan(pattern, "labels" if args.labels else "oracle-witness")
    else:
        op = constructions.PRODUCT_OPS[args.op]
        g1 = _load_graph(args.g1, args.allow_isolated)
        g2 = _load_graph(args.g2, args.allow_isolated)
        g, vmap = op.build(g1, g2, args.root)
        # --labels is the first factor the planner reads, --labels2 the second.
        factors = [((g1, g2)[i - 1], path, ("first factor", "second factor")[i - 1])
                   for i, path in zip(op.reads, (args.labels, args.labels2))]
        patterns = dict(zip(op.reads, _factor_patterns(factors, bound)))
        plan = op.plan(vmap, g1, patterns.get(1), g2, patterns.get(2))
    labeling, report = constructions.build_labeling(g, plan)
    payload = {
        "graph": g.to_json_dict(),
        "plan": plan.to_json_dict(),
        "labeling": labeling.to_json_dict(),
        "report": report.to_json_dict(),
    }
    if args.dot:
        export_dot(g, labeling, path=args.dot)
    _write_json(args.out, payload)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_verify(args):
    g = _load_graph(args.graph, args.allow_isolated)
    labeling = Labeling.from_json_dict(_load_json(args.labels), g)
    report = verify_weak_iasi(g, labeling)
    if args.dot:
        export_dot(g, labeling, path=args.dot)
    _write_json(args.out, report.to_json_dict())
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_sparing(args):
    g = _load_graph(args.graph, args.allow_isolated)
    result = sparing.sparing_exact(g, args.oracle_bound)
    formula_value = _matching_formula(g)
    _write_json(args.out, result.to_json_dict(formula_value))
    return EXIT_OK


def _matching_formula(g):
    """Closed-form value when the graph is a recognized special family."""
    if g.n >= 1 and g.m == g.n * (g.n - 1) // 2:
        return sparing.sparing_formula_complete(g.n)
    if g.n >= 3 and g.m == g.n and all(len(nbrs) == 2 for nbrs in g.adjacency()):
        if g.is_connected():
            return sparing.sparing_formula_cycle(g.n)
    return None


# ---------------------------------------------------------------------------
# Sweep: the full small-graph suite with the corona discrepancy report.

def sweep_families():
    """The named small-graph family used by the sweeps, in fixed order."""
    return {
        "P2": graph_core.path_graph(2),
        "P3": graph_core.path_graph(3),
        "P4": graph_core.path_graph(4),
        "C3": graph_core.cycle_graph(3),
        "C4": graph_core.cycle_graph(4),
        "C5": graph_core.cycle_graph(5),
        "K2": graph_core.complete_graph(2),
        "K3": graph_core.complete_graph(3),
        "K4": graph_core.complete_graph(4),
        "S3": graph_core.star_graph(3),
    }


def run_sweep(oracle_bound=sparing.DEFAULT_ORACLE_BOUND, seed=0):
    """Planner validity sweep over all ordered family pairs and products,
    plus the corona formula-vs-oracle comparison.

    Returns a dict with per-case rows and a list of corona discrepancies
    (cases where the exact oracle beats the construction-cost formula).
    """
    families = sweep_families()
    # Each factor's pattern is the oracle's witness, an optimal weak IASI's.
    witness = {name: frozenset(sparing.sparing_exact(g, oracle_bound).witness)
               for name, g in families.items()}
    rows = []
    discrepancies = []
    for name1, g1 in families.items():
        s1 = witness[name1]
        for name2, g2 in families.items():
            s2 = witness[name2]
            for op, spec in constructions.PRODUCT_OPS.items():
                product, vmap = spec.build(g1, g2, 0)
                plan = spec.plan(vmap, g1, s1, g2, s2)
                labeling, report = constructions.build_labeling(product, plan)
                row = {
                    "g1": name1, "g2": name2, "op": op,
                    "n": product.n, "m": product.m,
                    "passed": report.passed,
                    "mono_edges": report.mono_edge_count,
                }
                if op == "corona":
                    # r_i counts the singleton (mono-indexed) vertices of factor i.
                    formula = sparing.sparing_formula_corona(g1.n, g2.m, g1.n - len(s1),
                                                             g2.n - len(s2))
                    row["formula"] = formula
                    if product.n <= oracle_bound:
                        exact = sparing.sparing_exact(product, oracle_bound)
                        row["exact"] = exact.value
                        if exact.value != formula:
                            discrepancies.append({
                                "case": f"{name1} (.) {name2}",
                                "formula": formula,
                                "exact": exact.value,
                                "construction": report.mono_edge_count,
                                "direction": ("formula-overcounts"
                                              if exact.value < formula
                                              else "formula-undercounts"),
                            })
                    else:
                        row["exact"] = None
                rows.append(row)
    rng = random.Random(seed)
    random_rows = []
    for _ in range(10):
        g = _random_graph(rng, n=rng.randint(4, 10))
        result = sparing.sparing_exact(g, oracle_bound)
        plan = constructions.LabelPlan(frozenset(result.witness), "oracle-witness")
        labeling, report = constructions.build_labeling(g, plan)
        random_rows.append({
            "n": g.n, "m": g.m, "passed": report.passed,
            "oracle": result.value, "construction": report.mono_edge_count,
            "agree": report.mono_edge_count == result.value,
        })
    return {
        "cases": rows,
        "all_passed": all(r["passed"] for r in rows),
        "corona_discrepancies": discrepancies,
        "random_witness_checks": random_rows,
    }


def _random_graph(rng, n):
    """Random connected graph without isolated vertices."""
    edges = set()
    perm = list(range(n))
    rng.shuffle(perm)
    for a, b in zip(perm, perm[1:]):
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                edges.add((u, v))
    return Graph(n, edges)


def cmd_sweep(args):
    summary = run_sweep(args.oracle_bound, seed=args.seed)
    _write_json(args.out, summary)
    lines = []
    for row in summary["cases"]:
        status = "ok" if row["passed"] else "FAIL"
        extra = ""
        if row["op"] == "corona":
            extra = f" formula={row['formula']} exact={row['exact']}"
        lines.append(f"{row['g1']:>3} {row['op']:<9} {row['g2']:<3} "
                     f"n={row['n']:<3} mono={row['mono_edges']:<3}{extra} [{status}]")
    for d in summary["corona_discrepancies"]:
        rel = ">" if d["direction"] == "formula-overcounts" else "<"
        lines.append(f"DISCREPANCY {d['case']}: corona formula {d['formula']} "
                     f"{rel} exact sparing {d['exact']} "
                     f"(construction cost {d['construction']})")
    sys.stderr.write("\n".join(lines) + "\n")
    return EXIT_OK if summary["all_passed"] else EXIT_VERIFY


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weakiasi",
        description="Graph products, weak integer-additive set-indexers, "
                    "and exact sparing numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=False, dot=False, oracle_bound=True, isolated=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
        p.add_argument("--out", default=None, help="output JSON path (default stdout)")
        if dot:
            p.add_argument("--dot", default=None, help="also write a DOT file here")
        if oracle_bound:
            p.add_argument("--oracle-bound", type=int, default=sparing.DEFAULT_ORACLE_BOUND,
                           help="max vertices for the exact oracle (default: %(default)s)")
        if isolated:
            p.add_argument("--allow-isolated", action="store_true",
                           help="accept graphs with isolated vertices")

    def factors(p, ops, required):
        p.add_argument("--g1", required=required, help="first factor JSON file")
        p.add_argument("--g2", required=required, help="second factor JSON file")
        p.add_argument("--op", required=required, choices=ops, help="product kind")
        p.add_argument("--root", type=int, default=None,
                       help="root vertex of g2 (rooted product only)")

    p_build = sub.add_parser("build", help="construct a graph product")
    p_build.set_defaults(handler=cmd_build)
    common(p_build, dot=True, oracle_bound=False)
    factors(p_build, [*constructions.PRODUCT_OPS, "union"], required=True)

    p_label = sub.add_parser("label", help="plan and assign a weak IASI")
    p_label.set_defaults(handler=cmd_label)
    common(p_label, dot=True)
    p_label.add_argument("--labels", default=None, help="labeling JSON file")
    p_label.add_argument("--graph", default=None, help="graph JSON (no product)")
    factors(p_label, list(constructions.PRODUCT_OPS), required=False)
    p_label.add_argument("--labels2", default=None,
                         help="second factor labeling (ops that read both)")

    p_verify = sub.add_parser("verify", help="verify a labeling")
    p_verify.set_defaults(handler=cmd_verify)
    common(p_verify, graph=True, dot=True, oracle_bound=False)
    p_verify.add_argument("--labels", required=True, help="labeling JSON file")
    p_verify.add_argument("--oracle-bound", type=int, default=sparing.DEFAULT_ORACLE_BOUND,
                          help="accepted and unused: verify runs no oracle")

    p_sparing = sub.add_parser("sparing", help="exact sparing number")
    p_sparing.set_defaults(handler=cmd_sparing)
    common(p_sparing, graph=True)

    p_sweep = sub.add_parser("sweep", help="run the small-graph property suite")
    p_sweep.set_defaults(handler=cmd_sweep)
    common(p_sweep, isolated=False)
    p_sweep.add_argument("--seed", type=int, default=0,
                         help="seed for randomized sweep cases")
    return parser


def _check_args(args):
    """Usage errors argparse cannot express; the --root and --labels2 rules
    come from constructions.PRODUCT_OPS."""
    if getattr(args, "oracle_bound", 0) < 0:
        raise UsageError("--oracle-bound must be a non-negative integer")
    if args.command not in ("build", "label"):
        return
    op = constructions.PRODUCT_OPS.get(args.op)
    if args.command == "label":
        product = (args.op, args.g1, args.g2)
        if (any(product) if args.graph else not all(product)):
            raise UsageError("label needs --graph, or --op with --g1 and --g2, not both")
        if args.labels2 is not None and (op is None or len(op.reads) < 2):
            raise UsageError("--labels2 applies only to ops that read both factor labelings")
    rooted = op is not None and op.rooted
    if rooted and args.root is None:
        raise UsageError("--root is required for the rooted product")
    if args.root is not None and not rooted:
        raise UsageError("--root applies only to the rooted product")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # The loaders' tuples would set off cyclic collections, though a
    # command's data hold no cycle that needs collecting before it ends:
    # only each sparing_exact call leaves one, its closures and memo.
    collecting = gc.isenabled()
    gc.disable()
    try:
        _check_args(args)
        return args.handler(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    except (GraphError, LabelError, SparingError, constructions.PlanError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_PARSE
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY
    except OSError as exc:  # only writes get here: _load_json turns read errors into GraphError
        sys.stderr.write(f"output error: {exc}\n")
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
