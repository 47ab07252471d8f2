"""The three workloads: what each runs, how it is timed and how it is checked.

Every workload is a closed loop with one caller: the next op starts when the
previous one has returned, CLI children run one at a time, and nothing runs
in parallel.  A workload builds the inputs of pass ``k`` from
``SeedSequence([seed, k])``, so one seed always gives the same inputs.

* ``pipeline_1e6`` runs the CLI chain a user runs on a million-run log.
* ``classify_mix`` streams seeded behaviors through ``classify``.
* ``loophole_search`` runs ``critical_efficiency`` on three singlet targets.

Each op runs under a deadline (SIGALRM).  Bland's rule in ``bellbox.lp``
stalls on some LPs (ROADMAP item 2a).  A workload's ``stall`` ops, where it
has them, hit that stall on fixed, named inputs; each runs once per run
under a short deadline, counts in ``ops_failed_ratio``, is reported with its
reason and is not part of ``attempted``/``failed``.  Only those ops may end
in a missed deadline or an ``ArithmeticError``: the same failure in any
timed op fails the run.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import bellbox as bb
import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

STALL_DEADLINE_S = 3.0  # the HiGHS oracle solves each stalled LP in well under a second
RUN_BUDGET_S = 160.0  # every op must end by then, leaving time for checks within 180 s


class Deadline(BaseException):
    """Raised by SIGALRM when an op outlives its time limit."""


@contextmanager
def deadline(seconds: float):
    def fire(signum, frame):
        raise Deadline(f"deadline of {seconds:.3g} s missed")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn(argv: list[str], **popen_kwargs) -> tuple[int, float, float, float]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in MB, CPU seconds).

    A blocking wait4 ends the timing when the child exits (Popen.wait with a
    timeout polls, which rounds times up) and returns its rusage.  The
    caller's deadline interrupts the wait; the child is then killed.
    """
    t = perf_counter()
    proc = subprocess.Popen(argv, **popen_kwargs)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    wall = perf_counter() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Run:
    """Ops, known-stall ops and correctness checks of one benchmark process."""

    def __init__(self):
        self.t0 = perf_counter()
        self.ops: list[dict] = []
        self.stalls: list[dict] = []
        self.child_rss_mb = 0.0
        self.tracer = None
        self._next_op = 0

    def remaining(self) -> float:
        return RUN_BUDGET_S - (perf_counter() - self.t0)

    @contextmanager
    def op(self, kind: str, limit: float, pass_no: int, stall: bool = False):
        """One attempted op; an exception, a missed deadline or a failed check fails it."""
        rec = {"kind": kind, "pass": pass_no, "ok": True, "reason": None, "check_failed": False,
               "known_stall": False, "t": {}}
        self._next_op += 1
        tracer = self.tracer
        start = perf_counter()
        try:
            with deadline(min(limit, max(self.remaining(), 0.05))):
                if tracer is None:
                    yield rec
                else:
                    tracer.op = self._next_op
                    with tracer.span(("stall." if stall else "op.") + kind):
                        yield rec
        except Deadline as exc:
            rec.update(ok=False, reason=f"deadline: {exc}", known_stall=stall)
        except ArithmeticError as exc:
            rec.update(ok=False, reason=f"ArithmeticError: {exc}", known_stall=stall)
        except Exception as exc:
            rec.update(ok=False, reason=f"{type(exc).__name__}: {exc}")
        finally:
            rec["elapsed"] = perf_counter() - start
            if tracer is not None:
                tracer.op = None
        (self.stalls if stall else self.ops).append(rec)

    @contextmanager
    def generating(self):
        """Untimed input generation; traced (as its own root span) in traced runs."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.span("gen.inputs"):
                yield

    @staticmethod
    def check(rec: dict, ok: bool, what: str) -> None:
        """A failed correctness check fails the op it belongs to."""
        if not ok and not rec["check_failed"]:
            rec.update(ok=False, check_failed=True, reason=f"check failed: {what}")

    def failures(self) -> list[str]:
        """Failed ops other than known stalls; any of them makes the run incorrect."""
        bad = [o for o in self.ops + self.stalls if not o["ok"] and not o["known_stall"]]
        return [f"{o['kind']} (pass {o['pass']}): {o['reason']}" for o in bad]


def timed(rec: dict, label: str, fn, *args, **kwargs):
    t = perf_counter()
    result = fn(*args, **kwargs)
    rec["t"][label] = rec["t"].get(label, 0.0) + perf_counter() - t
    return result


def pass_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, k]))


def percentile_tail(values) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it: (value, percentile, n).

    With ten samples or fewer no percentile qualifies; the maximum is given
    as the 100th percentile.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return float(v[-1]), 100.0, n
    return float(v[n - 11]), 100.0 * (n - 10) / n, n


# ---------------------------------------------------------------------------
# verdict checks shared by the CLI and the in-process workloads
# ---------------------------------------------------------------------------


def verdict_problem(kind: str, defect: float, p: np.ndarray, witness, decomposition, tol: float):
    """Why a classify verdict is wrong for table p, or None when it holds.

    ``witness`` is (coefficients, reference_bound); ``decomposition`` is a
    list of (f_a, f_b, weight) with outcome indices.
    """
    true_defect = oracle.nonsignalling_defect(p)
    if abs(defect - true_defect) > 1e-12:
        return f"defect {defect!r} but the table's is {true_defect!r}"
    if kind == "Signalling":
        return None if defect > tol else f"Signalling with defect {defect!r} <= tol"
    if defect > tol:
        return f"{kind} although the defect {defect!r} exceeds tol"
    if kind == "Local":
        table = np.zeros_like(p)
        sa, sb = p.shape[:2]
        for fa, fb, w in decomposition:
            table[np.arange(sa)[:, None], np.arange(sb)[None, :], np.asarray(fa)[:, None], np.asarray(fb)[None, :]] += w
        err = float(np.abs(table - p).max())
        return None if err <= tol + 1e-12 else f"decomposition misses the table by {err:.3g}"
    if kind == "WeaklyNonlocal":
        coeffs, bound = witness
        m, _, _ = oracle.vertex_matrix(*p.shape)
        vertex_min = float((coeffs.ravel() @ m).min())
        value = float((coeffs * p).sum())
        if abs(vertex_min - bound) > 1e-9:
            return f"witness bound {bound!r} but its vertex minimum is {vertex_min!r}"
        return None if value < bound else f"witness value {value!r} does not undercut {bound!r}"
    return f"unknown verdict {kind!r}"


def classification_problem(c, p: np.ndarray, tol: float = 1e-9):
    witness = None if c.witness is None else (c.witness.coefficients, c.witness.reference_bound)
    decomposition = None
    if c.decomposition is not None:
        decomposition = [(s.f_a, s.f_b, w) for s, w in zip(c.decomposition.strategies, c.decomposition.weights)]
    return verdict_problem(c.kind.value, c.defect, p, witness, decomposition, tol)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Inputs of pass k come from ``generate(k)``, made once and kept."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir
        self.inputs: dict = {}
        self.warm_up()
        self.inputs[0] = self.generate(0)

    def pass_inputs(self, run: Run, k: int):
        if k not in self.inputs:
            with run.generating():
                self.inputs[k] = self.generate(k)
        return self.inputs[k]

    def warm_up(self) -> None:
        """Work a user pays once per process, done before the first timed op."""

    def stall(self, run: Run) -> None:
        """The workload's known-stall ops, if it has any."""

    def verify(self, run: Run) -> None:
        """Checks that run after the timed passes."""

    def trace_extras(self, run: Run) -> dict:
        """Traced runs only: measurements behind per-layer metrics that the passes do not give."""
        return {}


def warm_vertex_matrices(scenarios) -> None:
    """Build bellbox's cached strategy matrices through a public call that runs no LP."""
    for scenario in scenarios:
        zero = bb.BellFunctional(scenario, np.zeros(scenario.shape), 0.0, bb.Direction.AT_LEAST)
        bb.functional_vertex_bounds(zero)


class Pipeline(Workload):
    """quantum -> simulate -> estimate -> audit -> classify x2 -> inequality, as CLI children."""

    name = "pipeline_1e6"
    ANGLES = (120.0, 0.0, 60.0)
    RUNS = 1_000_000
    GEOMETRY = (400.0, 1e-6)
    CLI_LIMIT_S = 150.0

    def warm_up(self) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.exact = oracle.singlet_table(self.ANGLES, self.ANGLES)
        with deadline(60.0):
            self.cli(["--help"])  # the first child pays for reading cold module files

    def generate(self, k: int) -> int:
        return int(pass_rng(self.seed, k).integers(2**31))  # the simulate --seed of pass k

    def cli(self, args: list[str]) -> tuple[str, float, float, float]:
        """Run one bellbox CLI child: (stdout, wall seconds, peak RSS in MB, CPU seconds)."""
        out_path, err_path = self.dir / "stdout.txt", self.dir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, wall, rss, cpu = spawn([sys.executable, "-m", "bellbox.cli", *args],
                                         cwd=self.dir, env=self.env, stdout=out, stderr=err)
        if code != 0:
            message = err_path.read_text(errors="replace").strip()[-300:]
            raise RuntimeError(f"bellbox {args[0]} exited {code}: {message}")
        return out_path.read_text(), wall, rss, cpu

    def run_pass(self, run: Run, k: int) -> None:
        sim_seed = self.pass_inputs(run, k)
        angles = ",".join(f"{a:g}" for a in self.ANGLES)
        geometry = ",".join(f"{g:g}" for g in self.GEOMETRY)
        steps = [
            ("quantum", ["--state", "singlet", "--angles-a", angles, "--angles-b", angles, "--out", "singlet.json"]),
            ("simulate", ["--behavior", "singlet.json", "--runs", str(self.RUNS), "--seed", str(sim_seed),
                          "--geometry", geometry, "--out", "runs.jsonl"]),
            ("estimate", ["--runs", "runs.jsonl", "--out", "estimate.json"]),
            ("audit", ["--runs", "runs.jsonl", "--geometry", geometry]),
            ("classify", ["--behavior", "estimate.json"]),
            ("classify", ["--behavior", "singlet.json"]),
            ("inequality", ["--behavior", "singlet.json", "--form", "chained", "--indices", "1,2,0"]),
        ]
        for step, (command, args) in enumerate(steps):
            with run.op(command, self.CLI_LIMIT_S, k) as rec:
                if run.tracer is None:
                    out, wall, rss, cpu = self.cli([command, *args])
                else:
                    with run.tracer.span("cli." + command) as span:
                        out, wall, rss, cpu = self.cli([command, *args])
                        span[tracing.DETAIL] = rss
                rec["t"]["wall"] = wall
                rec["cpu_s"] = cpu
                rec["rss_mb"] = rss
                run.child_rss_mb = max(run.child_rss_mb, rss)
                self.check(rec, step, json.loads(out))
        (self.dir / "runs.jsonl").unlink(missing_ok=True)

    def check(self, rec: dict, step: int, out: dict) -> None:
        check, exact = Run.check, self.exact
        if step == 0:
            p = np.asarray(json.loads((self.dir / "singlet.json").read_text())["p"])
            check(rec, np.abs(p - exact).max() <= 1e-12, "quantum table differs from (1 -/+ cos d)/4")
        elif step == 1:
            check(rec, out["runs"] == self.RUNS, f"simulate wrote {out['runs']} runs")
        elif step == 2:
            est = json.loads((self.dir / "estimate.json").read_text())
            p_hat, sigma = np.asarray(est["p"]), np.asarray(est["stderr"])
            worst = float((np.abs(p_hat - exact) - 5.0 * sigma).max())
            check(rec, worst <= 1e-12, f"an estimate cell lies {worst:.3g} beyond 5 Wald sigma")
            check(rec, int(np.sum(est["totals"])) == self.RUNS, "estimate totals do not add up to the runs")
        elif step == 3:
            totals = np.asarray(json.loads((self.dir / "estimate.json").read_text())["totals"])
            uniform, independence = oracle.chi_square(totals)
            margin = self.GEOMETRY[0] - self.GEOMETRY[1] * 299792458.0
            loc, rnd = out["locality"], out["randomness"]
            check(rec, loc["pass"] is True, "audit fails locality")
            check(rec, abs(loc["margin_meters"] - margin) <= 1e-9 * margin, "locality margin")
            check(rec, abs(rnd["chi_square_uniformity"] - uniform) <= 1e-9 * (1 + uniform), "chi-square uniformity")
            check(rec, abs(rnd["chi_square_independence"] - independence) <= 1e-9 * (1 + independence),
                  "chi-square independence")
        elif step in (4, 5):
            source = "estimate.json" if step == 4 else "singlet.json"
            p = np.asarray(json.loads((self.dir / source).read_text())["p"])
            if step == 5:
                check(rec, out["kind"] == "WeaklyNonlocal", f"exact singlet classified {out['kind']}")
            witness = decomposition = None
            if out["witness"] is not None:
                witness = (np.asarray(out["witness"]["coefficients"]), out["witness"]["reference_bound"])
            if out["decomposition"] is not None:
                index = {"+": 0, "-": 1, "0": 2}
                decomposition = [
                    ([index[s] for s in st["fa"]], [index[s] for s in st["fb"]], w)
                    for st, w in zip(out["decomposition"]["strategies"], out["decomposition"]["weights"])
                ]
            # stdout rounds to 12 significant digits, so the printed defect is compared on its own
            defect = oracle.nonsignalling_defect(p)
            problem = verdict_problem(out["kind"], defect, p, witness, decomposition, 1e-9)
            if problem is None and abs(out["defect"] - defect) > 1e-11:
                problem = f"printed defect {out['defect']!r} but the table's is {defect!r}"
            check(rec, problem is None, f"classify {source}: {problem}")
        elif step == 6:
            value = exact[1, 2, 0, 1] + exact[2, 0, 0, 1] - exact[1, 0, 0, 1]
            check(rec, abs(out["value"] - value) <= 1e-11, f"chained value {out['value']!r} != {value!r}")
            check(rec, out["reference_bound"] == 0.0, "chained reference bound is not 0")

    def e2e(self, ops: list[dict]) -> dict:
        done = [o for o in ops if o["ok"]]
        complete = {o["pass"] for o in ops} - {o["pass"] for o in ops if not o["ok"]}
        chains = [sum(o["t"]["wall"] for o in done if o["pass"] == p) for p in complete]
        walls = [o["t"]["wall"] for o in done]
        chain = float(np.mean(chains)) if chains else 0.0
        # CPU seconds of the same children, to tell time spent computing from time spent waiting.
        cpu = sum(o["cpu_s"] for o in done if o["pass"] in complete) / len(complete) if complete else 0.0
        return {"pass_s": chain, "op_p50_ms": 1e3 * float(np.median(walls)) if walls else 0.0, "pipeline_s": chain,
                "pipeline_cpu_s": cpu}

    def trace_extras(self, run: Run) -> dict:
        with run.op("startup", 60.0, 0) as rec:
            with run.tracer.span("cli.startup"):
                _, rec["t"]["wall"], _, _ = self.cli(["--help"])
        return {"cli.startup_s": rec["t"].get("wall", 0.0), **self.replay(run, 0)}

    def replay(self, run: Run, k: int) -> dict:
        """The same chain through the library, in this process."""
        facts = {}
        with run.op("replay", self.CLI_LIMIT_S, k) as rec:
            sim_seed = self.pass_inputs(run, k)
            plan = bb.MeasurementPlan.from_degrees(self.ANGLES, self.ANGLES)
            exact = bb.behavior_from_state(bb.SINGLET, plan)
            behavior = bb.behavior_from_json_dict(json.loads((self.dir / "singlet.json").read_text()))
            geometry = bb.Geometry(*self.GEOMETRY)
            log = bb.simulate(behavior, self.RUNS, sim_seed, geometry)
            path = self.dir / "replay.jsonl"
            bb.write_run_log(log, path)
            del log
            facts["runs.log_bytes"] = path.stat().st_size
            before = peak_rss_mb()
            log = bb.read_run_log(path)
            facts["runs.read_rss_delta_mb"] = peak_rss_mb() - before
            path.unlink()
            counts = bb.tally(log)
            del log
            estimate, _ = bb.estimate(counts)
            bb.randomness_audit(counts)
            bb.locality_audit(geometry)
            cli_estimate = np.asarray(json.loads((self.dir / "estimate.json").read_text())["p"])
            Run.check(rec, np.array_equal(estimate.p, cli_estimate), "library estimate differs from the CLI's")
            bb.classify(estimate)
            verdict = bb.classify(behavior)
            Run.check(rec, classification_problem(verdict, behavior.p) is None, "replayed classify verdict")
            functional = bb.wigner_chained(1, 2, 0, behavior.scenario)
            bb.functional_vertex_bounds(functional)
            bb.evaluate_functional(functional, exact)
        return facts


class ClassifyMix(Workload):
    """Seeded behaviors through classify, with bounds and visibility on a subset."""

    name = "classify_mix"
    SINGLETS = {2: 200, 3: 200, 4: 100, 5: 20}
    MIXTURES = {2: 20, 3: 20, 4: 20}  # 5x5 locals come from the low-visibility singlets
    SIGNALLING = {2: 10, 3: 10, 4: 10, 5: 10}
    ITEM_LIMIT_S = 60.0
    ORACLE_SAMPLE = 24

    def warm_up(self) -> None:
        warm_vertex_matrices(bb.Scenario(n, n) for n in self.SINGLETS)

    @staticmethod
    def noisy_singlet(rng: np.random.Generator, n: int, visibility: float) -> np.ndarray:
        angles = rng.uniform(0.0, 360.0, size=2 * n)
        plan = bb.MeasurementPlan.from_degrees(angles[:n], angles[n:])
        return visibility * bb.behavior_from_state(bb.SINGLET, plan).p + (1.0 - visibility) / 4.0

    def generate(self, k: int) -> list[dict]:
        rng = pass_rng(self.seed, k)
        items = []
        for n, count in self.SINGLETS.items():
            # Stratified visibilities in [0.6, 1]: every pass has the same local/nonlocal balance.
            vis = 0.6 + 0.4 * (np.arange(count) + rng.random(count)) / count
            for i, v in enumerate(rng.permutation(vis)):
                p = self.noisy_singlet(rng, n, v)
                doc = {"settings_a": n, "settings_b": n, "outcomes_a": ["+", "-"], "outcomes_b": ["+", "-"],
                       "p": p.tolist()}
                items.append({"src": "singlet", "n": n, "p": p, "doc": doc,
                              "bounds": i % 10 == 0, "visibility": i % 20 == 0 and n <= 3})
        for n, count in self.MIXTURES.items():
            for _ in range(count):
                p = np.zeros((n, n, 2, 2))
                for w in rng.dirichlet(np.ones(int(rng.integers(1, 9)))):
                    fa, fb = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
                    p[np.arange(n)[:, None], np.arange(n)[None, :], fa[:, None], fb[None, :]] += w
                items.append({"src": "mixture", "n": n, "p": p, "doc": None, "bounds": False, "visibility": False})
        for n, count in self.SIGNALLING.items():
            for _ in range(count):
                raw = rng.random((n, n, 2, 2)) + 1e-3
                items.append({"src": "signalling", "n": n, "p": raw / raw.sum(axis=(2, 3), keepdims=True),
                              "doc": None, "bounds": False, "visibility": False})
        return [items[i] for i in rng.permutation(len(items))]

    def run_pass(self, run: Run, k: int) -> None:
        for item in self.pass_inputs(run, k):
            with run.op("classify", self.ITEM_LIMIT_S, k) as rec:
                item["rec"] = rec
                self.process(rec, item)
            item["doc"] = None  # kept passes hold only what verify needs

    @staticmethod
    def process(rec: dict, item: dict) -> None:
        n = item["n"]
        scenario = bb.Scenario(n, n)
        rec["size"] = f"{n}x{n}"
        if item["doc"] is not None:
            b = timed(rec, "load", bb.behavior_from_json_dict, item["doc"])
        else:
            b = timed(rec, "load", bb.validate_behavior, scenario, item["p"])
        c = timed(rec, "classify", bb.classify, b)
        rec["verdict"] = c.kind.value
        problem = classification_problem(c, item["p"])
        Run.check(rec, problem is None, f"{item['src']} {n}x{n}: {problem}")
        if c.witness is not None:
            value = timed(rec, "extra", bb.evaluate_functional, c.witness, b)
            Run.check(rec, value < c.witness.reference_bound, "witness does not undercut its bound")
        if item["bounds"]:
            functionals = [(bb.chsh_functional(scenario=scenario), -2.0, 2.0)]
            if n >= 3:
                functionals.append((bb.wigner_chained(1, 2, 0, scenario), -1.0, 1.0))
            for f, lo, hi in functionals:
                vb = timed(rec, "extra", bb.functional_vertex_bounds, f)
                timed(rec, "extra", bb.evaluate_functional, f, b)
                Run.check(rec, (vb.min, vb.max) == (lo, hi), f"vertex bounds {(vb.min, vb.max)} != {(lo, hi)}")
        if item["visibility"]:
            v = timed(rec, "extra", bb.local_visibility, b)
            rec["visibility"] = v
            Run.check(rec, (v >= 1.0 - 1e-9) == (c.kind.value == "Local"), f"visibility {v!r} vs {c.kind.value}")

    def e2e(self, ops: list[dict]) -> dict:
        done = [o for o in ops if o["ok"]]
        passes = [sum(sum(o["t"].values()) for o in done if o["pass"] == p) for p in {o["pass"] for o in done}]
        classify_ms = [1e3 * o["t"]["classify"] for o in done]
        p50 = float(np.median(classify_ms)) if classify_ms else 0.0
        tail, pct, n = percentile_tail(classify_ms)
        return {
            "pass_s": float(np.mean(passes)) if passes else 0.0,
            "op_p50_ms": p50,
            "classify_per_s": len(done) / sum(passes) if passes else 0.0,
            "classify_p50_ms": p50,
            "classify_tail_ms": tail,
            "classify_tail_percentile": pct,
            "classify_tail_samples": n,
        }

    # A 4x4 noisy singlet on which Bland's rule cycles in local_visibility: the
    # pivot limit after about 13 s, where other 4x4 inputs take 300-600 pivots
    # (30 ms).  About one random 4x4 input in 15 does the same, which is why the
    # timed passes ask for visibilities at 2x2 and 3x3 only.
    STALL_4X4 = ((151.2, 90.0, 63.5, 49.8), (90.2, 133.9, 299.2, 211.3), 0.777)

    def stall(self, run: Run) -> None:
        """local_visibility on a 6x6 noisy singlet (no result in 115 s) and on STALL_4X4."""
        rng = pass_rng(self.seed, 2**32 - 1)
        angles_a, angles_b, v4 = self.STALL_4X4
        plan = bb.MeasurementPlan.from_degrees(angles_a, angles_b)
        cases = [(6, self.noisy_singlet(rng, 6, float(rng.uniform(0.6, 1.0)))),
                 (4, v4 * bb.behavior_from_state(bb.SINGLET, plan).p + (1.0 - v4) / 4.0)]
        for n, p in cases:
            with run.op(f"local_visibility_{n}x{n}", STALL_DEADLINE_S, 0, stall=True) as rec:
                v = timed(rec, "stall", bb.local_visibility, bb.validate_behavior(bb.Scenario(n, n), p))
                reference = oracle.local_visibility(p)
                Run.check(rec, abs(v - reference) <= 1e-6, f"{n}x{n} visibility {v!r} but HiGHS {reference!r}")

    def verify(self, run: Run) -> None:
        """A seeded sample of verdicts and visibilities against HiGHS."""
        for k, items in self.inputs.items():
            done = [it for it in items if "rec" in it and it["rec"]["ok"] and it["rec"]["verdict"] != "Signalling"]
            picks = pass_rng(self.seed, 2**31 + k).choice(len(done), size=min(self.ORACLE_SAMPLE, len(done)), replace=False)
            sample = [done[i] for i in picks] + [it for it in done if it["visibility"]][:4]
            for item in sample:
                rec = item["rec"]
                residual = oracle.membership_residual(item["p"])
                if rec["verdict"] == "Local":
                    Run.check(rec, residual <= oracle.RESIDUAL_OUTSIDE, f"Local but HiGHS residual {residual:.3g}")
                else:
                    Run.check(rec, residual >= oracle.RESIDUAL_INSIDE, f"{rec['verdict']} but HiGHS residual {residual:.3g}")
                if "visibility" in rec:
                    v = oracle.local_visibility(item["p"])
                    Run.check(rec, abs(rec["visibility"] - v) <= 1e-6, f"visibility {rec['visibility']!r} vs HiGHS {v!r}")

    ROW_7X7_LIMIT_S = 15.0

    def first_classify_ms(self, sizes: str, timeout: float) -> dict:
        """First classify call per scenario size in a fresh interpreter, vertex-matrix build included."""
        code = (
            "import json, sys, time\n"
            "sys.path[:0] = sys.argv[1:3]\n"
            "import bellbox as bb, workloads\n"
            "rng = workloads.pass_rng(int(sys.argv[3]), 2**32 - 2)\n"
            "out = {}\n"
            "for n in map(int, sys.argv[4].split(',')):\n"
            "    b = bb.validate_behavior(bb.Scenario(n, n), workloads.ClassifyMix.noisy_singlet(rng, n, 0.8))\n"
            "    t = time.perf_counter(); c = bb.classify(b); out[f'{n}x{n}'] = 1e3 * (time.perf_counter() - t)\n"
            "    out[f'{n}x{n} verdict'] = c.kind.value\n"
            "print(json.dumps(out))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(Path(__file__).parent), str(self.seed), sizes],
            capture_output=True, text=True, timeout=timeout, check=True,
        )
        return json.loads(done.stdout)

    def trace_extras(self, run: Run) -> dict:
        """Cold first calls per scenario, and one 7x7 classify (a ROADMAP baseline row).

        Both run in fresh interpreters, outside the traced pass.  The 7x7 row
        has its own time limit; missing it is reported, not counted as a
        failed op.
        """
        facts = {}
        with run.op("classify_cold", 60.0, 0) as rec:
            cold = self.first_classify_ms("2,3,4,5", 50.0)
            verdicts = {cold[f"{n}x{n} verdict"] for n in (2, 3, 4, 5)}
            Run.check(rec, verdicts <= {"Local", "WeaklyNonlocal"}, f"a noisy singlet classified {verdicts}")
            facts = {"polytope.classify_cold_ms": sum(cold[f"{n}x{n}"] for n in (2, 3, 4, 5)),
                     "classify_cold_by_size_ms": cold}
        try:
            facts["classify_7x7_ms"] = self.first_classify_ms("7", self.ROW_7X7_LIMIT_S)["7x7"]
        except subprocess.TimeoutExpired:
            facts["classify_7x7_ms"] = None
        return facts


class LoopholeSearch(Workload):
    """critical_efficiency on CHSH 2x2, the 3x3 chained-Wigner target and a 4x4 singlet."""

    name = "loophole_search"
    TOL_ETA = 1e-3
    SEARCH_LIMIT_S = 120.0
    SEARCHES = (("chsh", "strict"), ("chsh", "weak"), ("wigner3", "strict"), ("wigner3", "weak"), ("singlet4", "weak"))

    def __init__(self):
        self.results = []

    def warm_up(self) -> None:
        warm_vertex_matrices(bb.Scenario(n, n).with_no_click() for n in (2, 3, 4))

    def generate(self, k: int) -> dict:
        # The singlet depends on angle differences only, so one seeded turn of
        # every analyzer keeps each target (and its threshold) while changing
        # the numbers the LPs see.
        turn = float(pass_rng(self.seed, k).uniform(0.0, 360.0))

        def singlet(a, b):
            plan = bb.MeasurementPlan.from_degrees([x + turn for x in a], [x + turn for x in b])
            return bb.behavior_from_state(bb.SINGLET, plan)

        return {
            "chsh": singlet((0.0, 90.0), (45.0, 135.0)),
            "wigner3": bb.relabel_outputs(singlet((120.0, 0.0, 60.0), (120.0, 0.0, 60.0)), "B", (1, 0)),
            "singlet4": singlet((0.0, 45.0, 90.0, 135.0), (22.5, 67.5, 112.5, 157.5)),
        }

    def run_pass(self, run: Run, k: int) -> None:
        targets = self.pass_inputs(run, k)
        for name, mode in self.SEARCHES:
            with run.op("critical_efficiency", self.SEARCH_LIMIT_S, k) as rec:
                rec["search"] = f"{name}/{mode}"
                target = targets[name]
                result = timed(rec, "search", bb.critical_efficiency, target, mode=mode, tol_eta=self.TOL_ETA)
                rec["eta_star"] = result.eta_star
                self.results.append((rec, target, mode, result))
                selected, _ = bb.post_select(bb.model_behavior(result.feasible_model, target.scenario.with_no_click()))
                err = float(np.abs(selected.p - target.p).max())
                Run.check(rec, err <= 1e-6, f"{name}/{mode}: post-selected model misses the target by {err:.3g}")
                if (name, mode) == ("chsh", "strict"):
                    gap = abs(result.eta_star - oracle.CHSH_STRICT_ETA)
                    Run.check(rec, gap <= self.TOL_ETA, f"CHSH strict eta* {result.eta_star!r} is {gap:.3g} off")

    def e2e(self, ops: list[dict]) -> dict:
        done = [o for o in ops if o["ok"]]
        passes = [sum(o["t"]["search"] for o in done if o["pass"] == p) for p in {o["pass"] for o in done}]
        searches = [o["t"]["search"] for o in done]
        total = float(np.mean(passes)) if passes else 0.0
        return {"pass_s": total, "op_p50_ms": 1e3 * float(np.median(searches)) if searches else 0.0,
                "efficiency_s": total}

    def stall(self, run: Run) -> None:
        """Strict loophole model for the 4x4 singlet at eta=0.5: ArithmeticError after 125 s."""
        target = self.inputs[0]["singlet4"]
        with run.op("construct_loophole_model_4x4_strict", STALL_DEADLINE_S, 0, stall=True) as rec:
            model = timed(rec, "stall", bb.construct_loophole_model, target, 0.5, "strict")
            feasible = oracle.loophole_feasible(target.p, 0.5, "strict")
            Run.check(rec, (model is not None) == feasible, f"feasible={model is not None} but HiGHS says {feasible}")

    def verify(self, run: Run) -> None:
        """Every final bracket is narrower than TOL_ETA, holds eta*, and HiGHS agrees at both ends."""
        for rec, target, mode, result in self.results:
            if not rec["ok"]:
                continue
            lo = max(eta for eta, ok in result.bisection_trace if ok)
            hi = min([eta for eta, ok in result.bisection_trace if not ok], default=None)
            if hi is None:
                Run.check(rec, False, "no infeasible probe, but every target is nonlocal")
                continue
            Run.check(rec, 0.0 < hi - lo <= self.TOL_ETA, f"bracket [{lo!r}, {hi!r}] is not within tol_eta")
            Run.check(rec, lo <= result.eta_star <= hi, f"eta* {result.eta_star!r} outside [{lo!r}, {hi!r}]")
            Run.check(rec, oracle.loophole_feasible(target.p, lo, mode), f"HiGHS infeasible at eta={lo!r}")
            Run.check(rec, not oracle.loophole_feasible(target.p, hi, mode), f"HiGHS feasible at eta={hi!r}")
        self.results.clear()


WORKLOADS = {w.name: w for w in (Pipeline, ClassifyMix, LoopholeSearch)}
