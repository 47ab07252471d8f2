"""In-memory spans around calls into bellbox's modules.

A :class:`Tracer` replaces public bellbox functions with wrappers that
record one span per call (name, start, end, parent span, op id, error and a
small detail value) and puts the originals back on :meth:`Tracer.restore`.
Spans stay in a list until the benchmark writes them out at the end.

Because bellbox modules import each other's functions by name, a function
is replaced in every bellbox module that holds the same object, so calls
between modules (``polytope.classify`` -> ``nonsignalling_defect``) are
traced too.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

# Layer name -> (module, functions).  Layer names follow bellbox's modules.
TRACED = {
    "model": (
        "bellbox.model",
        ("behavior_from_json_dict", "validate_behavior", "nonsignalling_defect", "evaluate_functional"),
    ),
    "quantum": ("bellbox.quantum", ("behavior_from_state",)),
    "polytope": ("bellbox.polytope", ("classify", "functional_vertex_bounds", "local_visibility")),
    "lp": ("bellbox.lp", ("solve_standard_form",)),
    "detection": ("bellbox.detection", ("critical_efficiency", "construct_loophole_model")),
    "runs": (
        "bellbox.runs",
        ("simulate", "write_run_log", "read_run_log", "tally", "estimate", "randomness_audit"),
    ),
}

NAME, START, END, PARENT, OP, ERROR, DETAIL = range(7)


def _detail(name: str, args, kwargs, result):
    """Small per-call facts the per-layer metrics need."""
    if name == "lp.solve_standard_form":
        rows, cols = getattr(args[0], "shape", (0, 0))
        return (rows, cols, None if result is None else result.status)
    if name == "polytope.classify":
        shape = args[0].scenario.shape
        kind = None if result is None else result.kind.value
        return (f"{shape[0]}x{shape[1]}", kind)
    if name == "detection.construct_loophole_model":
        mode = args[2] if len(args) > 2 else kwargs.get("mode", "strict")
        shape = args[0].scenario.shape
        return (mode, result is not None, f"{shape[0]}x{shape[1]}")
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "bellbox" or n.startswith("bellbox.")]
        for layer, (module_name, functions) in TRACED.items():
            home = sys.modules[module_name]
            for fname in functions:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapper)
                        self._patched.append((module, fname, original))

    def restore(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
                span[DETAIL] = _detail(name, args, kwargs, result)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (ops, input generation, CLI children)."""
        span = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def to_records(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op": s[OP], "error": s[ERROR], "detail": s[DETAIL]}
            for s in self.spans
        ]
