"""In-memory spans around calls that cross rdpmeter's module boundaries.

The tracer never edits rdpmeter. It rebinds names: a function is
replaced by a timing wrapper in every rdpmeter module that holds it (the
module that defines it and each module that imports it), and a method
is replaced on its class. The wrapper returns what the function returns
and lets its exceptions through, so behaviour is unchanged. `uninstall`
puts every original back.

A span is (name, parent span, start ns, end ns). Spans nest because the
benchmark is one thread, so a span's self time is its duration minus the
durations of its direct children.
"""

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# Functions, by defining module, and the span name each gets.
FUNCTIONS = (
    ("cli", "main"),
    ("harness", "run_session"),
    ("harness", "reconstruct"),
    ("filters", "try_spend"),
    ("odometers", "spend"),
    ("odometers", "running_bound"),
    ("mechanisms", "mechanism_rdp_curve"),
    ("mechanisms", "discrete_rdp_curve"),
    ("mechanisms", "sample"),
    ("core", "curve_to_dp"),
    ("oracle", "script_from_json"),
    ("oracle", "enumerate_views"),
    ("oracle", "renyi_divergence_views"),
    ("oracle", "numeric_renyi_gaussian"),
    ("oracle", "verify_filter_bound"),
    ("oracle", "verify_truncated_odometer"),
)
# Methods, by module and class; constructors are traced through __init__.
METHODS = (
    ("core", "OrderSet", "__init__", "core.OrderSet"),
    ("core", "RdpCurve", "from_json", "core.RdpCurve.from_json"),
    ("odometers", "FilterSchedule", "__init__", "odometers.FilterSchedule"),
    ("harness", "SessionLog", "to_jsonl", "harness.to_jsonl"),
    ("harness", "SessionLog", "from_jsonl", "harness.from_jsonl"),
)
VIEW_LEAVES = "oracle.view_leaves"


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    durations_ns: list = field(default_factory=list)

    def us_p50(self) -> float:
        return statistics.median(self.durations_ns) / 1e3 if self.durations_ns else 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = {}
        self._stack = [-1]
        self._undo = []

    def wrap(self, fn, name, on_result=None):
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self._stack,
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _count_leaves(self, views):
        self.counters[VIEW_LEAVES] = self.counters.get(VIEW_LEAVES, 0) + len(views[0])

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "rdpmeter" or n.startswith("rdpmeter.")]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"rdpmeter.{module_name}"], attr)
            on_result = self._count_leaves if attr == "enumerate_views" else None
            traced = self.wrap(original, f"{module_name}.{attr}", on_result)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, traced)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"rdpmeter.{module_name}"], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                traced = classmethod(self.wrap(raw.__func__, name))
            else:
                traced = self.wrap(raw, name)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.starts)

    def stats(self, begin: int, end: int) -> dict:
        """Per-name calls, self time and durations of spans begin..end-1."""
        child_ns = [0] * (end - begin)
        for i in range(begin, end):
            parent = self.parents[i]
            if parent >= begin:
                child_ns[parent - begin] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(begin, end):
            s = out.setdefault(self.names[i], SpanStats())
            duration = self.ends[i] - self.starts[i]
            s.calls += 1
            s.self_ns += duration - child_ns[i - begin]
            s.durations_ns.append(duration)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,name,start_ns,end_ns\n")
            for i, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                handle.write(f"{i},{parent},{name},{start},{end}\n")
