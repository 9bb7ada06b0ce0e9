"""weakiasi benchmark: cold-start CLI requests in a closed loop with one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every request starts a fresh interpreter
(bench/child.py) that imports weakiasi from src/ and calls
weakiasi.cli.main(argv), because a CLI user pays a cold start each time:
nothing cached in one request, such as the Mian-Chowla prefix, reaches the
next. Requests run one after another; the client sends the next one when
the previous has exited. Inputs are JSON files generated from --seed
(bench/inputs.py) into .bench_work/.

A run sets up (input generation and one import that compiles bytecode),
then repeats passes over the workload's fixed request list until --seconds
have gone. After each pass it checks every output against the benchmark's
own references (bench/check.py, bench/expected.json); after each
untraced pass it also times a few bare imports. It prints each metric with its unit, then one JSON
line:
{"correct", "attempted", "failed", "metrics"}. attempted counts the
requests sent, which is also the latency sample count.

--trace 0 reports the end-to-end metrics:
  setup_s      median time for a fresh interpreter to import weakiasi
  wall_s       median time of one pass over the request list
  req_p50_s    median request latency, process start to exit
  peak_rss_mb  largest max-RSS of any request process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of LAYER_METRICS: self times and counts from spans recorded around
the layers' public functions (see child.py), medians over traced passes,
plus trace.overhead_s, the traced minus the untraced median pass time.
The spans of traced pass P are written to .bench_work/traceP.json.

Exit status: 0 when every output was correct, 1 when some was not, 2 when
the program cannot be started at all (no result line is printed then).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import check  # noqa: E402
import inputs  # noqa: E402

ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(BENCH, "child.py")
PROBES_PER_PASS = 3
REQUEST_TIMEOUT_S = 60
ORACLE_BOUND = "64"
SWEEP_ORACLE_BOUND = "24"

with open(os.path.join(BENCH, "expected.json")) as _fh:
    EXPECTED = json.load(_fh)


# Per-layer metrics: (name, unit, the end-to-end metric and workload it
# should move). A metric ending in _s is the self time, and one ending in
# _calls the number, of the spans named by the rest of it; cli.self_s is
# the self time of cli.main.
LAYER_METRICS = [
    ("constructions.sidon_s", "s", "wall_s, req_p50_s on label-products"),
    ("constructions.sidon_terms", "count", "wall_s, req_p50_s on label-products"),
    ("constructions.sidon_max_value", "count", "wall_s, req_p50_s on label-products"),
    ("constructions.assign_s", "s", "wall_s, req_p50_s on label-products"),
    ("sparing.exact_s", "s", "wall_s on oracle-suite; less on sweep"),
    ("sparing.exact_calls", "count", "wall_s on oracle-suite; less on sweep"),
    ("sparing.exact_max_n", "count", "wall_s on oracle-suite; less on sweep"),
    ("set_label.verify_s", "s", "wall_s on verify-large"),
    ("set_label.verify_calls", "count", "wall_s on verify-large"),
    ("set_label.verify_edges", "count", "wall_s on verify-large"),
    ("set_label.violations", "count", "wall_s on verify-large"),
    ("set_label.labeling_load_s", "s", "wall_s on verify-large"),
    ("set_label.to_json_s", "s", "wall_s on verify-large"),
    ("graph_core.load_s", "s", "wall_s on verify-large"),
    ("graph_core.product_s", "s", "wall_s on sweep"),
    ("graph_core.product_calls", "count", "wall_s on sweep"),
    ("graph_core.bipartite_s", "s", "wall_s on sweep"),
    ("constructions.plan_s", "s", "wall_s on sweep"),
    ("constructions.plan_calls", "count", "wall_s on sweep"),
    ("constructions.plan_kept_ratio", "ratio", "wall_s on sweep"),
    ("constructions.optimal_labeling_s", "s", "wall_s on sweep"),
    ("cli.startup_s", "s", "setup_s everywhere; req_p50_s on oracle-suite, verify-large"),
    ("cli.self_s", "s", "wall_s on verify-large, label-products"),
    ("cli.out_bytes", "bytes", "wall_s on verify-large, label-products"),
    ("trace.overhead_s", "s", "none: traced minus untraced wall_s"),
]

# Layer of each span, for the self-time ranking printed with --trace 1.
LAYERS = {
    "graph_core": ["graph_core.load", "graph_core.product", "graph_core.bipartite"],
    "constructions": ["constructions.plan", "constructions.sidon",
                      "constructions.assign", "constructions.optimal_labeling"],
    "sparing": ["sparing.exact"],
    "set_label": ["set_label.verify", "set_label.labeling_load", "set_label.to_json"],
    "cli": ["cli.main"],
}


@dataclass
class Request:
    """One CLI call, the exit code it must return and a check of its output.

    check takes the bytes of the --out file and returns a problem string,
    or None when the output is right.
    """

    args: list
    expect_rc: int
    check: object
    out: str = ""


@dataclass
class Child:
    spawned: float
    latency: float
    rc: int
    rss_kb: int
    stderr: str
    stream_bytes: int


@dataclass
class Outcome:
    latency: float
    rss_kb: int
    out_bytes: int
    problem: str | None
    spans: dict | None
    spawned: float


# ---------------------------------------------------------------------------
# Workloads. Sizes are fixed; the seed only moves which random graph,
# labeling or corruption a request gets, so a pass costs about the same
# whatever the seed.

def _write_graph(name, graph):
    path = os.path.join(WORK, f"{name}.json")
    inputs.write_json(path, inputs.graph_json(graph))
    return path


def label_products(seed):
    """label --op X for all six products on cycle factors, plus a seeded
    random factor pair with a user-supplied factor labeling."""
    factors = {f"C{k}": inputs.cycle(k) for k in (5, 12, 16)}
    paths = {name: _write_graph(name, g) for name, g in factors.items()}
    cases = [("cartesian", "C16", "C16"), ("direct", "C16", "C16"),
             ("strong", "C12", "C12"), ("lex", "C16", "C5"),
             ("corona", "C16", "C5"), ("rooted", "C16", "C5")]
    requests = []
    for op, a, b in cases:
        args = ["label", "--op", op, "--g1", paths[a], "--g2", paths[b]]
        if op == "rooted":
            args += ["--root", "0"]
        expected = inputs.product(op, factors[a], factors[b], root=0)
        mono = EXPECTED["label-products"][f"{op} {a} {b}"]
        requests.append(Request(args, 0, _label_check(expected, mono)))
    # Small, because Sidon time grows about cubically with the singleton
    # count, which here depends on the seed.
    rng = inputs.rng_for(seed, "label-pair")
    g1 = inputs.random_connected(8, 0.25, rng)
    g2 = inputs.random_connected(6, 0.25, rng)
    l1 = inputs.sidon_labeling(g1, inputs.random_independent(g1, rng, 0.7), rng)
    labels = os.path.join(WORK, "pair-labels.json")
    inputs.write_json(labels, inputs.labeling_json(l1))
    args = ["label", "--op", "cartesian", "--g1", _write_graph("pair-g1", g1),
            "--g2", _write_graph("pair-g2", g2), "--labels", labels]
    requests.append(Request(args, 0, _label_check(inputs.cartesian(g1, g2), None)))
    for r in requests:
        r.args += ["--oracle-bound", ORACLE_BOUND]
    return requests


def _label_check(graph, mono_edges):
    def run(raw):
        payload = json.loads(raw)
        if check.graph_from_json(payload["graph"]) != graph:
            return "product graph differs from the reference product"
        labels = check.labels_from_json(payload["labeling"], graph[0])
        report = check.weak_iasi_report(graph, labels)
        if not report["passed"]:
            return f"labeling is not a weak IASI: {report['violations'][:3]}"
        if payload["report"] != report:
            return "verifier report differs from the reference report"
        if mono_edges is not None and report["mono_edge_count"] != mono_edges:
            return f"{report['mono_edge_count']} mono edges, pinned {mono_edges}"
        return None
    return run


def oracle_suite(seed):
    """sparing on paths, odd cycles, small products and seeded G(n, .15)."""
    c5, c7, k4 = inputs.cycle(5), inputs.cycle(7), inputs.complete(4)
    graphs = {f"P{n}": inputs.path(n) for n in range(28, 33)}
    graphs.update({f"C{n}": inputs.cycle(n) for n in (27, 29, 31)})
    graphs["C5xC7"] = inputs.cartesian(c5, c7)
    graphs["C5oC5"] = inputs.corona(c5, c5)
    graphs["K4oK4"] = inputs.corona(k4, k4)
    requests = []
    for name, g in graphs.items():
        args = ["sparing", "--graph", _write_graph(name, g)]
        requests.append(Request(args, 0, _sparing_check(g, EXPECTED["oracle-suite"][name])))
    # Up to 40 vertices: the oracle's time on G(n, .15) swings with the
    # seed, and larger instances would move the median request.
    for n in (32, 36, 40):
        g = inputs.gnp(n, 0.15, inputs.rng_for(seed, f"gnp{n}"))
        args = ["sparing", "--graph", _write_graph(f"G{n}", g), "--allow-isolated"]
        requests.append(Request(args, 0, _sparing_check(g, None)))
    for r in requests:
        r.args += ["--oracle-bound", ORACLE_BOUND]
    return requests


def _sparing_check(graph, pinned):
    def run(raw):
        payload = json.loads(raw)
        value, witness = payload["value"], payload["witness"]
        problem = check.witness_problems(graph, value, witness)
        if problem:
            return problem
        if pinned is not None and [value, witness] != [pinned["value"], pinned["witness"]]:
            return f"value {value} witness {witness}, pinned {pinned}"
        return None
    return run


def sweep(seed):
    """sweep over seed 0 and three seeded sweep seeds."""
    seeds = [0] + inputs.rng_for(seed, "sweep").sample(range(1, 10 ** 6), 3)
    return [Request(["sweep", "--oracle-bound", SWEEP_ORACLE_BOUND, "--seed", str(s)],
                    0, _sweep_check(s)) for s in seeds]


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _sweep_check(sweep_seed):
    pins = EXPECTED["sweep"]
    graphs = check.sweep_random_graphs(sweep_seed)
    values = [check.brute_force_sparing(g) for g in graphs]

    def run(raw):
        if sweep_seed == 0 and _sha256(raw) != pins["seed0_sha256"]:
            return "sweep --seed 0 output differs from the pinned bytes"
        payload = json.loads(raw)
        fixed = json.dumps([payload["cases"], payload["corona_discrepancies"]],
                           sort_keys=True).encode()
        if _sha256(fixed) != pins["cases_sha256"] or not payload["all_passed"]:
            return "sweep cases differ from the pinned cases"
        rows = payload["random_witness_checks"]
        if len(rows) != len(graphs):
            return f"{len(rows)} random rows, expected {len(graphs)}"
        for row, (n, edges), value in zip(rows, graphs, values):
            want = {"n": n, "m": len(edges), "passed": True, "oracle": value,
                    "construction": value, "agree": True}
            if row != want:
                return f"random row {row}, expected {want}"
        return None
    return run


def verify_large(seed):
    """verify on C100xC100 and C60[x]C60: three valid labelings and one
    seeded corruption of each kind."""
    grid = inputs.cartesian(inputs.cycle(100), inputs.cycle(100))
    strong = inputs.strong(inputs.cycle(60), inputs.cycle(60))
    paths = {"grid": _write_graph("C100xC100", grid),
             "strong": _write_graph("C60sC60", strong)}
    cases = [("grid", None), ("grid", "duplicate-vertex-label"),
             ("strong", None), ("strong", "adjacent-non-singletons"),
             ("grid", None), ("grid", "duplicate-edge-label")]
    requests = []
    for i, (which, kind) in enumerate(cases):
        graph = grid if which == "grid" else strong
        rng = inputs.rng_for(seed, f"verify{i}")
        labels = inputs.sidon_labeling(graph, inputs.random_independent(graph, rng, 0.5), rng)
        if kind:
            labels = inputs.corrupt(graph, labels, kind, rng)
        path = os.path.join(WORK, f"verify{i}-labels.json")
        inputs.write_json(path, inputs.labeling_json(labels))
        report = check.weak_iasi_report(graph, labels)
        if report["passed"] == bool(kind) or (
                kind and kind not in {k for k, _ in report["violations"]}):
            raise RuntimeError(f"generated labeling {i} does not have the intended outcome")
        args = ["verify", "--graph", paths[which], "--labels", path,
                "--oracle-bound", ORACLE_BOUND]
        requests.append(Request(args, 4 if kind else 0, _report_check(report)))
    return requests


def _report_check(report):
    def run(raw):
        payload = json.loads(raw)
        if payload != report:
            return "verifier report differs from the reference report"
        return None
    return run


WORKLOADS = {
    "label-products": label_products,
    "oracle-suite": oracle_suite,
    "sweep": sweep,
    "verify-large": verify_large,
}


# ---------------------------------------------------------------------------
# Running requests.

# Every request passes --oracle-bound itself, so the default from the
# environment must not leak in.
ENV = {k: v for k, v in os.environ.items() if k != "WEAKIASI_ORACLE_BOUND"}


def launch(args, tag, spans_file="-"):
    """Start one child and wait for it to exit."""
    stdout = os.path.join(WORK, f"{tag}.stdout")
    stderr = os.path.join(WORK, f"{tag}.stderr")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-I", CHILD, SRC, spans_file, *args],
                                stdout=out, stderr=err, env=ENV, cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stderr, "rb") as fh:
        err_text = fh.read().decode(errors="replace")
    return Child(spawned, latency, proc.returncode, usage.ru_maxrss, err_text,
                 os.path.getsize(stdout) + os.path.getsize(stderr))


def outcome_of(req, child, spans_file):
    """Judge one finished request: exit code, stderr, then its output."""
    problem = None
    err = child.stderr
    if "Traceback (most recent call last)" in err:
        problem = "traceback: " + err.strip().splitlines()[-1]
    elif child.rc == -signal.SIGKILL:
        problem = f"timed out after {REQUEST_TIMEOUT_S} s"
    elif child.rc != req.expect_rc:
        problem = f"exit code {child.rc}, expected {req.expect_rc}: {err.strip()[-200:]}"
    elif not os.path.exists(req.out):
        problem = "no output file"
    else:
        with open(req.out, "rb") as fh:
            raw = fh.read()
        try:
            problem = req.check(raw)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"unreadable output: {exc!r}"
    out_bytes = child.stream_bytes
    if os.path.exists(req.out):
        out_bytes += os.path.getsize(req.out)
    spans = None
    if spans_file != "-" and os.path.exists(spans_file):
        with open(spans_file) as fh:
            spans = json.load(fh)
    return Outcome(child.latency, child.rss_kb, out_bytes, problem, spans, child.spawned)


def run_pass(requests, traced):
    """One closed-loop pass; outputs are checked after the timed part."""
    children, spans_files = [], []
    start = time.monotonic()
    for i, req in enumerate(requests):
        spans_files.append(os.path.join(WORK, f"spans{i}.json") if traced else "-")
        req.out = os.path.join(WORK, f"out{i}.json")
        for stale in (req.out, spans_files[i]):
            if os.path.exists(stale):
                os.remove(stale)
        children.append(launch(req.args + ["--out", req.out], f"req{i}", spans_files[i]))
    wall = time.monotonic() - start
    outcomes = [outcome_of(*x) for x in zip(requests, children, spans_files)]
    for req, outcome in zip(requests, outcomes):
        if outcome.problem:
            sys.stderr.write(f"FAILED {' '.join(req.args[:3])}: {outcome.problem}\n")
    return wall, outcomes


# ---------------------------------------------------------------------------
# Per-layer metrics from spans.

def pass_spans(outcomes, pass_no):
    """The spans of one traced pass as one list.

    Each span is [name, start, end, parent, request, counts]: parent
    indexes this list, request is "<pass>.<request index>". Every request
    also gets a cli.startup span from its spawn to weakiasi being imported.
    """
    spans = []
    for i, outcome in enumerate(outcomes):
        if outcome.spans is None:
            continue
        request, base = f"{pass_no}.{i}", len(spans)
        for name, start, end, parent, counts in outcome.spans["spans"]:
            spans.append([name, start, end, None if parent is None else base + parent,
                          request, counts])
        spans.append(["cli.startup", outcome.spawned, outcome.spans["ready"], None,
                      request, None])
    return spans


def layer_metrics(spans, out_bytes):
    """Per-layer metrics of one traced pass, and self time by layer."""
    self_s, calls = {}, {}
    counts = {"sidon_terms": 0, "sidon_max_value": 0, "exact_max_n": 0,
              "verify_edges": 0, "violations": 0, "kept": 0, "requested": 0}
    inner = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent is not None:
            inner[parent] += end - start
    for (name, start, end, _, _, c), covered in zip(spans, inner):
        self_s[name] = self_s.get(name, 0.0) + end - start - covered
        calls[name] = calls.get(name, 0) + 1
        if name == "constructions.sidon":
            counts["sidon_terms"] += c["terms"]
            counts["sidon_max_value"] = max(counts["sidon_max_value"], c["max_value"])
        elif name == "sparing.exact":
            counts["exact_max_n"] = max(counts["exact_max_n"], c["n"])
        elif name == "set_label.verify":
            counts["verify_edges"] += c["edges"]
            counts["violations"] += c["violations"]
        elif name == "constructions.plan":
            counts["kept"] += c["kept"]
            counts["requested"] += c["requested"]
    metrics = {}
    for name, _, _ in LAYER_METRICS:
        if name.endswith("_calls"):
            metrics[name] = calls.get(name[:-len("_calls")], 0)
        elif name.endswith("_s"):
            metrics[name] = self_s.get(name[:-len("_s")], 0.0)
    metrics.update({
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.out_bytes": out_bytes,
        "constructions.sidon_terms": counts["sidon_terms"],
        "constructions.sidon_max_value": counts["sidon_max_value"],
        "sparing.exact_max_n": counts["exact_max_n"],
        "set_label.verify_edges": counts["verify_edges"],
        "set_label.violations": counts["violations"],
        # 0 when no plan was made: nothing was requested, nothing kept.
        "constructions.plan_kept_ratio": (counts["kept"] / counts["requested"]
                                          if counts["requested"] else 0.0),
    })
    layer_self = {layer: sum(self_s.get(s, 0.0) for s in names)
                  for layer, names in LAYERS.items()}
    return metrics, layer_self


# ---------------------------------------------------------------------------

def environment():
    """Python version, CPU count and the checkout's git commit, if any."""
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        sha = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    sha = fh.read().strip()
    return f"python {sys.version.split()[0]}, nproc {os.cpu_count()}, git {sha}"


def probe():
    """Time one fresh interpreter importing weakiasi; exit 2 if it cannot."""
    child = launch([], "probe")
    if child.rc != 0:
        sys.stderr.write(f"cannot import weakiasi from {SRC}:\n{child.stderr}")
        sys.exit(2)
    return child.latency


def setup(workload, seed):
    """Fresh work directory and inputs; exits 2 when weakiasi cannot be
    imported. The first import also compiles bytecode, as users run with
    it compiled."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    probe()
    return WORKLOADS[workload](seed)


def print_metric(name, value, unit, note=""):
    print(f"{name:34} {value:>14.6g} {unit:6} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    requests = setup(args.workload, args.seed)
    print(f"weakiasi benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; {environment()}")
    walls, traced_walls, latencies, rss_kb, passes = [], [], [], [], []
    setup_times = []
    attempted = failed = 0
    modes = (False, True) if args.trace else (False,)
    deadline = time.monotonic() + args.seconds
    while not walls or time.monotonic() < deadline:
        for traced in modes:
            wall, outcomes = run_pass(requests, traced)
            attempted += len(outcomes)
            failed += sum(1 for o in outcomes if o.problem)
            if traced:
                traced_walls.append(wall)
                spans = pass_spans(outcomes, len(passes))
                with open(os.path.join(WORK, f"trace{len(passes)}.json"), "w") as fh:
                    json.dump(spans, fh)
                passes.append(layer_metrics(spans, sum(o.out_bytes for o in outcomes)))
            else:
                walls.append(wall)
                latencies += [o.latency for o in outcomes]
                rss_kb += [o.rss_kb for o in outcomes]
                # Spread over the run, so that set-up time sees the same
                # host as the passes do.
                setup_times += [probe() for _ in range(PROBES_PER_PASS)]

    print(f"{len(walls)} untraced passes of {len(requests)} requests; "
          f"{attempted} requests sent, {failed} failed "
          f"(failed_ratio {failed / attempted:.6g})")
    metrics = {}
    if args.trace:
        for name, unit, moves in LAYER_METRICS:
            if name == "trace.overhead_s":
                value = statistics.median(traced_walls) - statistics.median(walls)
            else:
                value = statistics.median(p[0][name] for p in passes)
            metrics[name] = {"value": value, "unit": unit}
            print_metric(name, value, unit, f"moves {moves}")
        layer_self = {layer: statistics.median(p[1][layer] for p in passes)
                      for layer in LAYERS}
        ranking = sorted(layer_self.items(), key=lambda kv: -kv[1])
        print("self time by layer, startup excluded: " + ", ".join(
            f"{layer} {value:.4f} s" for layer, value in ranking))
    else:
        values = {
            "setup_s": (statistics.median(setup_times), "s",
                        f"median of {len(setup_times)} import probes"),
            "wall_s": (statistics.median(walls), "s",
                       f"median of {len(walls)} passes"),
            "req_p50_s": (statistics.median(latencies), "s",
                          f"median of {len(latencies)} requests"),
            "peak_rss_mb": (max(rss_kb) / 1024, "MB",
                            f"max over {len(rss_kb)} request processes"),
        }
        for name, (value, unit, note) in values.items():
            metrics[name] = {"value": value, "unit": unit}
            print_metric(name, value, unit, note)
        if len(latencies) >= 20:
            share = 100 * (len(latencies) - 10) / len(latencies)
            print_metric("req_tail_s", sorted(latencies)[-11], "s",
                         f"p{share:.0f}: 10 of {len(latencies)} requests were slower")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
