"""Benchmark of bellbox, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that has ``src/bellbox``; nothing needs installing.
Workloads (see ``workloads.py``): ``pipeline_1e6``, ``classify_mix``,
``loophole_search``.  The workload's passes repeat until ``--seconds`` have
passed (at least one pass).  Every output is checked; a failed check fails
its op and the run exits 1.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:

* ``setup_s``      median of five fresh interpreters doing import, input
                   generation and warm-up, up to the first timed op;
* ``peak_rss_mb``  largest RSS of this process or of any CLI child;
* ``pass_s``       mean wall time of one pass over the workload's ops:
                   the CLI chain (pipeline_1e6), the behavior mix
                   (classify_mix), all critical_efficiency searches
                   (loophole_search); checks are not timed.

The report also gives ``op_p50_ms``, the median latency of the workload's
unit op (a CLI child, a classify call, a critical_efficiency search), and
the workload-specific figures (``pipeline_s``, ``classify_per_s``,
``classify_p50_ms``, ``classify_tail_ms``, ``efficiency_s``,
``ops_failed_ratio``).

``--trace 1`` runs one pass untraced and the same pass traced, with spans
around the calls into each bellbox module, and prints the per-layer
metrics (``PER_LAYER``).  A metric of a module the workload never calls
reads 0.  Both modes print a readable report first; the last stdout line
is one JSON object.  Results and spans are also written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import DETAIL, END, ERROR, NAME, OP, PARENT, START, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5

E2E = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s"}

CLI_COMMANDS = ("quantum", "simulate", "estimate", "audit", "classify", "inequality")
RUNS_CALLS = ("simulate", "write_run_log", "read_run_log", "tally", "estimate", "randomness_audit")
MODEL_CALLS = ("behavior_from_json_dict", "validate_behavior", "nonsignalling_defect", "evaluate_functional")
SIZES = ("2x2", "3x3", "4x4", "5x5")
LAYERS = ("cli", "runs", "model", "quantum", "polytope", "lp", "detection")

PER_LAYER = (
    [("cli.startup_s", "s")]
    + [(f"cli.{c}_s", "s") for c in CLI_COMMANDS]
    + [(f"cli.{c}_rss_mb", "MB") for c in ("simulate", "estimate", "audit")]
    + [(f"runs.{c}_s", "s") for c in RUNS_CALLS]
    + [("runs.log_bytes", "bytes"), ("runs.read_rss_delta_mb", "MB")]
    + [m for c in MODEL_CALLS for m in ((f"model.{c}_ms", "ms"), (f"model.{c}.calls", "count"))]
    + [("quantum.behavior_from_state_ms", "ms"), ("quantum.behavior_from_state.calls", "count")]
    + [(f"polytope.classify_ms.{s}.{q}", "ms") for s in SIZES for q in ("p50", "tail")]
    + [("polytope.classify_cold_ms", "ms"), ("polytope.functional_vertex_bounds_ms", "ms"),
       ("polytope.local_visibility_ms", "ms")]
    + [(f"polytope.verdicts.{v}", "count") for v in ("Local", "WeaklyNonlocal", "Signalling")]
    + [("lp.calls", "count"), ("lp.solve_ms.p50", "ms"), ("lp.solve_ms.tail", "ms"), ("lp.solve_ms.sum", "ms"),
       ("lp.share", "ratio"), ("lp.rows_max", "count"), ("lp.cols_max", "count")]
    + [(f"lp.status.{s}", "count") for s in ("optimal", "infeasible", "unbounded")]
    + [("lp.errors", "count")]
    + [("detection.probes", "count")]
    + [(f"detection.probe_ms.{m}.{q}", "ms") for m in ("strict", "weak") for q in ("p50", "tail")]
    + [("detection.feasible_ratio", "ratio")]
    + [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    + [("ops_failed_ratio", "ratio"), ("trace.overhead_ratio", "ratio")]
)

# ROADMAP item 1 baseline table: row -> (figure, unit).
ROADMAP_BASELINE = {
    "classify 3x3": (0.9, "ms"),
    "classify 5x5": (15.0, "ms"),
    "classify 7x7": (3200.0, "ms"),
    "one strict loophole probe, 3x3": (133.0, "ms"),
    "critical_efficiency strict, 3x3": (530.0, "ms"),
    "simulate 1e6 (library)": (87.0, "ms"),
    "tally 1e6 (library)": (8.0, "ms"),
    "CLI simulate 1e6": (9800.0, "ms"),
    "CLI estimate 1e6": (7400.0, "ms"),
    "CLI audit 1e6": (9100.0, "ms"),
}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "loadavg_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that sets the workload up and exits."""
    from workloads import deadline, spawn

    argv = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    with deadline(60.0):
        code, wall, _, _ = spawn(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"setup probe exited {code}")
    return wall


def repeat_passes(wl, run, seconds: float) -> None:
    start = perf_counter()
    k = 0
    while True:
        t = perf_counter()
        wl.run_pass(run, k)
        k += 1
        last = perf_counter() - t
        if perf_counter() - start >= seconds or run.remaining() < 2 * last + 15:
            return


def layer_metrics(tracer, facts: dict, stall_ops: set) -> dict:
    """Per-layer metrics from the spans of every traced op except known stalls."""
    from workloads import percentile_tail

    every = tracer.spans
    spans = [(s, own) for s, own in zip(every, tracer.self_times()) if s[OP] not in stall_ops]

    def durations(name):
        return [s[END] - s[START] for s, _ in spans if s[NAME] == name]

    def p50_tail(values, prefix, m):
        m[f"{prefix}.p50"] = float(np.median(values)) if values else 0.0
        m[f"{prefix}.tail"] = percentile_tail(values)[0]

    m = {"cli.startup_s": facts.get("cli.startup_s", 0.0)}
    for c in CLI_COMMANDS:
        d = durations("cli." + c)
        m[f"cli.{c}_s"] = float(np.mean(d)) if d else 0.0
    for c in ("simulate", "estimate", "audit"):
        m[f"cli.{c}_rss_mb"] = max([s[DETAIL] for s, _ in spans if s[NAME] == "cli." + c] or [0.0])
    for c in RUNS_CALLS:
        m[f"runs.{c}_s"] = float(sum(durations("runs." + c)))
    m["runs.log_bytes"] = facts.get("runs.log_bytes", 0)
    m["runs.read_rss_delta_mb"] = facts.get("runs.read_rss_delta_mb", 0.0)
    for name in [f"model.{c}" for c in MODEL_CALLS] + ["quantum.behavior_from_state"]:
        d = durations(name)
        m[f"{name}_ms"] = 1e3 * float(sum(d))
        m[f"{name}.calls"] = len(d)

    classify = [(1e3 * (s[END] - s[START]), s[DETAIL]) for s, _ in spans if s[NAME] == "polytope.classify"]
    for size in SIZES:
        p50_tail([t for t, d in classify if d and d[0] == size], f"polytope.classify_ms.{size}", m)
    m["polytope.classify_cold_ms"] = facts.get("polytope.classify_cold_ms", 0.0)
    m["polytope.functional_vertex_bounds_ms"] = 1e3 * float(sum(durations("polytope.functional_vertex_bounds")))
    m["polytope.local_visibility_ms"] = 1e3 * float(sum(durations("polytope.local_visibility")))
    verdicts = Counter(d[1] for _, d in classify if d and d[1])
    for v in ("Local", "WeaklyNonlocal", "Signalling"):
        m[f"polytope.verdicts.{v}"] = verdicts[v]

    lps = [s for s, _ in spans if s[NAME] == "lp.solve_standard_form"]
    solve = [1e3 * (s[END] - s[START]) for s in lps]
    m["lp.calls"] = len(lps)
    p50_tail(solve, "lp.solve_ms", m)
    m["lp.solve_ms.sum"] = float(sum(solve))
    # Share of the time spent in calls from the benchmark into bellbox (or a CLI child) that lp took.
    roots = {i for i, s in enumerate(every) if s[PARENT] < 0}
    direct = sum(s[END] - s[START] for s, _ in spans if s[PARENT] in roots)
    m["lp.share"] = 1e-3 * m["lp.solve_ms.sum"] / direct if direct else 0.0
    m["lp.rows_max"] = max([s[DETAIL][0] for s in lps] or [0])
    m["lp.cols_max"] = max([s[DETAIL][1] for s in lps] or [0])
    status = Counter(s[DETAIL][2] for s in lps)
    for st in ("optimal", "infeasible", "unbounded"):
        m[f"lp.status.{st}"] = status[st]
    m["lp.errors"] = sum(1 for s in lps if s[ERROR])

    probes = [s for s, _ in spans if s[NAME] == "detection.construct_loophole_model"
              and every[s[PARENT]][NAME] == "detection.critical_efficiency"]
    m["detection.probes"] = len(probes)
    for mode in ("strict", "weak"):
        p50_tail([1e3 * (s[END] - s[START]) for s in probes if s[DETAIL][0] == mode], f"detection.probe_ms.{mode}", m)
    m["detection.feasible_ratio"] = sum(1 for s in probes if s[DETAIL][1]) / len(probes) if probes else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = 1e3 * float(sum(own for s, own in spans if s[NAME].startswith(layer + ".")))
    return m


def op_summary(ops: list) -> dict:
    """Per op kind (and search or scenario size): count, failures, median and max ms."""
    groups: dict = {}
    for o in ops:
        key = "/".join(str(x) for x in (o["kind"], o.get("search") or o.get("size")) if x)
        groups.setdefault(key, []).append(o)
    summary = {}
    for key, group in groups.items():
        ms = [1e3 * sum(o["t"].values()) for o in group if o["ok"]]
        summary[key] = {"count": len(group), "failed": sum(1 for o in group if not o["ok"]),
                        "p50_ms": float(np.median(ms)) if ms else None, "max_ms": max(ms, default=None)}
    return summary


def baseline_rows(name: str, ops: list, tracer, facts: dict) -> dict:
    """Our figures for the ROADMAP item 1 rows this workload covers (ms)."""
    rows = {}
    done = [o for o in ops if o["ok"]]
    if name == "pipeline_1e6":
        for c in ("simulate", "estimate", "audit"):
            runs = [o for o in done if o["kind"] == c]
            if runs:
                rows[f"CLI {c} 1e6"] = (1e3 * float(np.median([o["t"]["wall"] for o in runs])),
                                        max(o["rss_mb"] for o in runs))
        if tracer is not None:
            for c, row in (("simulate", "simulate 1e6 (library)"), ("tally", "tally 1e6 (library)")):
                d = [s[END] - s[START] for s in tracer.spans if s[NAME] == "runs." + c]
                if d:
                    rows[row] = (1e3 * d[0], None)
    if name == "classify_mix":
        for size in ("3x3", "5x5"):
            t = [1e3 * o["t"]["classify"] for o in done if o.get("size") == size and "classify" in o["t"]]
            if t:
                rows[f"classify {size}"] = (float(np.median(t)), None)
        if "classify_7x7_ms" in facts:
            rows["classify 7x7"] = (facts["classify_7x7_ms"], None)  # None: no result within its limit
    if name == "loophole_search":
        t = [1e3 * o["t"]["search"] for o in done if o.get("search") == "wigner3/strict"]
        if t:
            rows["critical_efficiency strict, 3x3"] = (float(np.median(t)), None)
        if tracer is not None:
            d = [1e3 * (s[END] - s[START]) for s in tracer.spans
                 if s[NAME] == "detection.construct_loophole_model" and s[DETAIL] and s[DETAIL][::2] == ("strict", "3x3")]
            if d:
                rows["one strict loophole probe, 3x3"] = (float(np.median(d)), None)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("pipeline_1e6", "classify_mix", "loophole_search"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bellbox" / "__init__.py").is_file():
        print(f"error: no bellbox sources at {ROOT / 'src' / 'bellbox'}; run from a bellbox checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload]().setup(args.seed, workdir)
            return 0
        return measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, workloads, workdir: Path) -> int:
    env = environment()
    run = workloads.Run()
    wl = workloads.WORKLOADS[args.workload]()
    facts: dict = {}
    tracer = None
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                    "environment": env}
    if args.trace == 0:
        setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl.setup(args.seed, workdir)
        repeat_passes(wl, run, args.seconds)
        e2e = wl.e2e(run.ops)
        peak = max(workloads.peak_rss_mb(), run.child_rss_mb)
        wl.stall(run)
        wl.verify(run)
        e2e.update(setup_s=float(np.median(setups)), setup_samples_s=setups, peak_rss_mb=peak)
        report["e2e"] = e2e
    else:
        wl.setup(args.seed, workdir)
        wl.run_pass(run, 0)
        untraced = wl.e2e(run.ops)
        wl.verify(run)
        wl.inputs.clear()  # the traced pass makes its inputs again, under tracing
        tracer = Tracer()
        traced_run = workloads.Run()
        traced_run.t0, traced_run.tracer = run.t0, tracer
        tracer.install()
        try:
            wl.run_pass(traced_run, 0)
            traced = wl.e2e(traced_run.ops)
            wl.stall(traced_run)
            facts = wl.trace_extras(traced_run)
        finally:
            tracer.restore()
        traced_run.tracer = None
        wl.verify(traced_run)
        run.ops += traced_run.ops
        run.stalls += traced_run.stalls
        stall_ops = {s[OP] for s in tracer.spans if s[NAME].startswith("stall.")}
        per_layer = layer_metrics(tracer, facts, stall_ops)
        base = untraced["pass_s"]
        per_layer["trace.overhead_ratio"] = (traced["pass_s"] - base) / base if base else 0.0
        report.update(untraced=untraced, traced=traced, per_layer=per_layer)

    all_ops = run.ops + run.stalls
    failed = sum(1 for o in run.ops if not o["ok"])
    failures = run.failures()
    ratio = sum(1 for o in all_ops if not o["ok"]) / len(all_ops) if all_ops else 0.0
    if args.trace:
        report["per_layer"]["ops_failed_ratio"] = ratio
    else:
        report["e2e"]["ops_failed_ratio"] = ratio
    report["stalls"] = [{"op": s["kind"], "ok": s["ok"], "reason": s["reason"], "seconds": s["elapsed"]}
                        for s in run.stalls]
    report["op_summary"] = op_summary(run.ops)
    report["baseline_rows"] = baseline_rows(args.workload, run.ops, tracer, facts)
    report["failures"] = failures
    correct = not failures

    print_report(report)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if tracer is not None:
        with open(out_dir / f"{stem}-spans.jsonl", "w") as handle:
            for record in tracer.to_records():
                handle.write(json.dumps(record, default=str) + "\n")

    if args.trace:
        metrics = {n: {"value": report["per_layer"][n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": report["e2e"][n], "unit": u} for n, u in E2E.items()}
    for message in failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(run.ops), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"# perfbench {report['workload']} seed={report['seed']} seconds={report['seconds']} trace={report['trace']}")
    print(f"# python {env['python']}  numpy {env['numpy']}  nproc {env['nproc']}  blas {env['blas']} "
          f"threads={env['blas_threads']}  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg_start'])}")
    units = dict(PER_LAYER) | E2E | {
        "op_p50_ms": "ms", "pipeline_s": "s", "pipeline_cpu_s": "s", "classify_per_s": "1/s", "classify_p50_ms": "ms",
        "classify_tail_ms": "ms", "classify_tail_percentile": "%", "classify_tail_samples": "count",
        "efficiency_s": "s", "ops_failed_ratio": "ratio", "setup_samples_s": "s",
    }
    sections = [("end to end", report.get("e2e", {})), ("untraced pass", report.get("untraced", {})),
                ("traced pass", report.get("traced", {})), ("per layer", report.get("per_layer", {}))]
    for title, values in sections:
        if values:
            print(f"## {title}")
            for name, value in values.items():
                print(f"{name:<44} {value!s:>24} {units.get(name, '')}")
    for s in report["stalls"]:
        print(f"## known stall {s['op']}: {'completed' if s['ok'] else 'failed'}"
              f" ({s['reason'] or 'ok'}) after {s['seconds']:.3f} s")
    for row, (value, rss) in report["baseline_rows"].items():
        figure, unit = ROADMAP_BASELINE[row]
        if value is None:
            print(f"## baseline row {row:<34} no result within its time limit  (ROADMAP {figure:g} {unit})")
            continue
        extra = f", {rss:.0f} MB RSS" if rss else ""
        print(f"## baseline row {row:<34} {value:12.3f} ms{extra}  (ROADMAP {figure:g} {unit}, x{value / figure:.2f})")


if __name__ == "__main__":
    sys.exit(main())
