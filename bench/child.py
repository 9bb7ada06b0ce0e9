"""Run one weakiasi CLI request in a fresh interpreter, as a user would.

    python3 bench/child.py SRC_DIR SPANS_FILE [CLI ARGS...]

Imports weakiasi from SRC_DIR and calls weakiasi.cli.main(argv), exiting
with its return code. SPANS_FILE "-" runs untraced. Otherwise the layers'
public functions are wrapped at every module attribute a caller looks them
up by, and after the request the spans are written to SPANS_FILE as JSON:
each span is [name, start, end, parent index, counts]. Times come from
time.monotonic(), which all processes on the host share.

With no CLI ARGS it only imports the package and exits: a set-up probe.
"""

import os
import sys
import time


def _spans_hooks(spans):
    """Wrap the traced functions; returns the wrapper for cli.main."""
    from weakiasi import cli, constructions, graph_core, set_label, sparing

    modules = [m for name, m in sys.modules.items()
               if name == "weakiasi" or name.startswith("weakiasi.")]
    stack = []

    def wrap(name, fn, counts=None):
        def traced(*args, **kwargs):
            record = [name, time.monotonic(), None,
                      stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = time.monotonic()
            if counts is not None:
                record[4] = counts(args, result)
            return result
        return traced

    def plan_counts(args, plan):
        return {"kept": len(plan.non_singleton),
                "requested": len(plan.non_singleton) + len(plan.demoted)}

    functions = {
        "graph_core.product": [graph_core.cartesian_product,
                               graph_core.direct_product,
                               graph_core.strong_product,
                               graph_core.lexicographic_product,
                               graph_core.corona, graph_core.rooted_product],
        "graph_core.bipartite": [graph_core.is_bipartite],
        "constructions.plan": [constructions.plan_cartesian,
                               constructions.plan_direct,
                               constructions.plan_strong,
                               constructions.plan_lexicographic,
                               constructions.plan_corona,
                               constructions.plan_rooted],
        "constructions.sidon": [constructions.mian_chowla],
        "constructions.assign": [constructions.assign_concrete_sets],
        "constructions.optimal_labeling": [constructions.optimal_labeling],
        "sparing.exact": [sparing.sparing_exact],
        "set_label.verify": [set_label.verify_weak_iasi],
    }
    counts = {
        "constructions.plan": plan_counts,
        "constructions.sidon": lambda a, r: {"terms": a[0],
                                             "max_value": max(r, default=0)},
        "sparing.exact": lambda a, r: {"n": a[0].n},
        "set_label.verify": lambda a, r: {"edges": a[0].m,
                                          "violations": len(r.violations)},
    }
    for name, fns in functions.items():
        for fn in fns:
            wrapper = wrap(name, fn, counts.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    # Methods are looked up on their class.
    for cls, attr, name in [(graph_core.Graph, "from_json_dict", "graph_core.load"),
                            (set_label.Labeling, "from_json_dict",
                             "set_label.labeling_load")]:
        setattr(cls, attr, classmethod(wrap(name, getattr(cls, attr).__func__)))
    for cls in (set_label.Labeling, set_label.VerificationReport):
        cls.to_json_dict = wrap("set_label.to_json", cls.to_json_dict)
    return wrap("cli.main", cli.main)


def main(argv):
    src, spans_file, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, src)
    import weakiasi.cli

    ready = time.monotonic()
    if not weakiasi.cli.__file__.startswith(src + os.sep):
        sys.exit(f"weakiasi was imported from {weakiasi.cli.__file__}, not {src}")
    if not cli_args:
        return 0
    if spans_file == "-":
        return weakiasi.cli.main(cli_args)
    spans = []
    traced_main = _spans_hooks(spans)
    try:
        return traced_main(cli_args)
    finally:
        import json
        with open(spans_file, "w") as fh:
            json.dump({"ready": ready, "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
