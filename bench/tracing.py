"""Span recorder for the traced run, and the per-layer metrics built from it.

Installing a Recorder replaces, in each translink submodule's namespace, every
public function that the module imported from another translink module with a
wrapper that records a span: name, start, end and parent span. Calls inside
one module are not traced, so every span is a crossing between two layers.
Spans stay in memory until the metrics are computed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc
from dataclasses import dataclass

MODULES = ("cli", "config_io", "params", "protocols", "delivery",
           "distillation", "mcsim", "planner", "errors")


def _emit_csv_size(_args, _kwargs, text):
    return {"rows": text.count("\n") - 2, "bytes": len(text.encode("utf-8"))}


# What a span keeps of its call, for the count metrics.
_SIZES = {
    "config_io.emit_csv": _emit_csv_size,
    "delivery.delivery_curve": lambda a, k, r: {"points": int(r.t_del_us.size)},
    "delivery.infidelity_breakdown_curve": lambda a, k, r: {"points": int(r[0].size)},
    "mcsim.run_trials": lambda a, k, r: {"trials": r.n_trials},
    "planner.tradeoff_surface": lambda a, k, r: {"points": len(r), "call": (a, k)},
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 at the top
    command: str  # label of the benchmark command that was running
    size: dict | None = None

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.command = ""
        # indices of the open spans; traced calls all run on the main thread
        # (mcsim's worker threads call only mcsim's own functions)
        self._stack: list[int] = []
        self._patched: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        stack = self._stack
        record = Span(name, time.perf_counter_ns(), 0,
                      stack[-1] if stack else -1, self.command)
        stack.append(len(self.spans))
        self.spans.append(record)
        try:
            result = fn(*args, **kwargs)
        finally:
            record.end_ns = time.perf_counter_ns()
            stack.pop()
        sizer = _SIZES.get(name)
        if sizer is not None:
            record.size = sizer(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        for short in MODULES:
            module = importlib.import_module(f"translink.{short}")
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith("translink.")
                        or value.__module__ == module.__name__):
                    continue
                name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value))

    def uninstall(self):
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()


def tradeoff_peak_mb(recorder: Recorder) -> float:
    """tracemalloc peak of the largest traced tradeoff_surface call, replayed.

    The replay runs after the traced pass and after uninstall(), untimed,
    because tracemalloc slows every allocation and would distort the span
    times.
    """
    calls = [s for s in recorder.spans if s.name == "planner.tradeoff_surface"]
    if not calls:
        return 0.0
    args, kwargs = max(calls, key=lambda s: s.size["call"][0][0]).size["call"]
    tradeoff_surface = importlib.import_module("translink.planner").tradeoff_surface
    tracemalloc.start()
    try:
        tradeoff_surface(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "config_io.emit_csv.rows": ("count", "lower"),
    "config_io.emit_csv.bytes": ("B", "lower"),
    "config_io.emit_csv.ns_per_row": ("ns", "lower"),
    "config_io.parse_config.us": ("us", "lower"),
    "config_io.resolved_config.us": ("us", "lower"),
    "config_io.build_manifest.us": ("us", "lower"),
    "config_io.emit_json.us": ("us", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.analyze.s": ("s", "lower"),
    "cli.simulate.s": ("s", "lower"),
    "cli.plan.s": ("s", "lower"),
    "cli.tradeoff.s": ("s", "lower"),
    "cli.distill.s": ("s", "lower"),
    "delivery.delivery_curve.points": ("count", "lower"),
    "delivery.delivery_curve.ns_per_point": ("ns", "lower"),
    "delivery.infidelity_breakdown_curve.ns_per_point": ("ns", "lower"),
    "delivery.optimal_delivery_time.calls": ("count", "lower"),
    "delivery.optimal_delivery_time.us": ("us", "lower"),
    "delivery.min_time_to_fidelity.us": ("us", "lower"),
    "delivery.delivered_fidelity.calls": ("count", "lower"),
    "delivery.delivered_fidelity.us": ("us", "lower"),
    "params.validate.calls": ("count", "lower"),
    "params.validate.us": ("us", "lower"),
    "protocols.analyze_protocol.calls": ("count", "lower"),
    "protocols.analyze_protocol.us": ("us", "lower"),
    "delivery.self_s": ("s", "lower"),
    "planner.tradeoff_surface.b1000.s": ("s", "lower"),
    "planner.tradeoff_surface.b10000.s": ("s", "lower"),
    "planner.tradeoff_surface.self_s": ("s", "lower"),
    "planner.tradeoff_surface.peak_mb": ("MB", "lower"),
    "planner.frontier_points": ("count", "higher"),
    "planner.lattice_surgery_plan.us": ("us", "lower"),
    "mcsim.run_trials.trials": ("count", "higher"),
    **{
        f"mcsim.run_trials.{ex}.j{jobs}.trials_per_s": ("1/s", "higher")
        for ex in ("ex1", "ex2", "ex3") for jobs in (1, 2)
    },
    "mcsim.jobs2_speedup": ("ratio", "higher"),
    "mcsim.keep_trials_ratio": ("ratio", "lower"),
    "distillation.recurrence_ladder.us": ("us", "lower"),
    "distillation.nested_distill.us": ("us", "lower"),
    "distillation.calibrated_distill.calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    """num/den, or 0 when the workload did none of that work."""
    return num / den if den else 0.0


def layer_metrics(recorder: Recorder, peak_mb: float, overhead_s: float) -> dict:
    """Every PER_LAYER metric from the recorded spans.

    A metric of a layer that the workload never reaches reads 0.
    """
    spans = recorder.spans
    covered = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end_ns - s.start_ns
    self_s = [(s.end_ns - s.start_ns - c) * 1e-9 for s, c in zip(spans, covered)]

    def named(name):
        return [s for s in spans if s.name == name]

    def total_s(name):
        return sum(s.seconds for s in named(name))

    def calls(name):
        return len(named(name))

    def mean_us(name):
        return _ratio(total_s(name) * 1e6, calls(name))

    def size(name, key):
        return sum(s.size[key] for s in named(name))

    def self_of(predicate):
        return sum(t for s, t in zip(spans, self_s) if predicate(s.name))

    def command_s(name, label):
        return sum(s.seconds for s in named(name) if s.command == label)

    def trials_per_s(label):
        runs = [s for s in named("mcsim.run_trials") if s.command == label]
        return _ratio(sum(s.size["trials"] for s in runs), sum(s.seconds for s in runs))

    m = {
        "config_io.emit_csv.rows": size("config_io.emit_csv", "rows"),
        "config_io.emit_csv.bytes": size("config_io.emit_csv", "bytes"),
        "config_io.emit_csv.ns_per_row": _ratio(
            total_s("config_io.emit_csv") * 1e9, size("config_io.emit_csv", "rows")),
        "cli.self_s": self_of(lambda n: n.startswith("cli.")),
        "delivery.delivery_curve.points": size("delivery.delivery_curve", "points"),
        "delivery.delivery_curve.ns_per_point": _ratio(
            total_s("delivery.delivery_curve") * 1e9,
            size("delivery.delivery_curve", "points")),
        "delivery.infidelity_breakdown_curve.ns_per_point": _ratio(
            total_s("delivery.infidelity_breakdown_curve") * 1e9,
            size("delivery.infidelity_breakdown_curve", "points")),
        "delivery.self_s": self_of(lambda n: n.startswith("delivery.")),
        "planner.tradeoff_surface.b1000.s":
            command_s("planner.tradeoff_surface", "b1000"),
        "planner.tradeoff_surface.b10000.s":
            command_s("planner.tradeoff_surface", "b10000"),
        "planner.tradeoff_surface.self_s":
            self_of(lambda n: n == "planner.tradeoff_surface"),
        "planner.tradeoff_surface.peak_mb": peak_mb,
        "planner.frontier_points": size("planner.tradeoff_surface", "points"),
        "mcsim.run_trials.trials": size("mcsim.run_trials", "trials"),
        "mcsim.jobs2_speedup": _ratio(
            sum(command_s("mcsim.run_trials", f"{ex}.j1") for ex in ("ex1", "ex2", "ex3")),
            sum(command_s("mcsim.run_trials", f"{ex}.j2") for ex in ("ex1", "ex2", "ex3"))),
        "mcsim.keep_trials_ratio": _ratio(
            _ratio(1.0, trials_per_s("keep")), _ratio(1.0, trials_per_s("ex1.j1"))),
        "trace.overhead_s": overhead_s,
    }
    for sub in ("analyze", "simulate", "plan", "tradeoff", "distill"):
        m[f"cli.{sub}.s"] = total_s(f"cli.{sub}")
    for ex in ("ex1", "ex2", "ex3"):
        for jobs in (1, 2):
            m[f"mcsim.run_trials.{ex}.j{jobs}.trials_per_s"] = trials_per_s(f"{ex}.j{jobs}")
    for name in ("delivery.optimal_delivery_time", "delivery.delivered_fidelity",
                 "params.validate", "protocols.analyze_protocol",
                 "distillation.calibrated_distill"):
        m[f"{name}.calls"] = calls(name)
    for name in ("config_io.parse_config", "config_io.resolved_config",
                 "config_io.build_manifest", "config_io.emit_json",
                 "delivery.optimal_delivery_time", "delivery.min_time_to_fidelity",
                 "delivery.delivered_fidelity", "params.validate",
                 "protocols.analyze_protocol", "planner.lattice_surgery_plan",
                 "distillation.recurrence_ladder", "distillation.nested_distill"):
        m[f"{name}.us"] = mean_us(name)
    return {name: m[name] for name in PER_LAYER}
