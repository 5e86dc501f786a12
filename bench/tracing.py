"""Spans around rcsbench's public functions, recorded from outside the
package.

``installed(tracer)`` rebinds each function in ``TARGETS`` to a recording
wrapper in every rcsbench module that holds it by name (``calibration`` and
``cli`` import several of them with ``from ... import``), and swaps in a
thread pool that runs each task in a copy of the submitting thread's
context, so a span opened in a worker takes as its parent the span open in
the thread that submitted it.  Leaving the block restores every binding.

Spans are kept in memory and written out by the caller when the run ends.
"""
from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import itertools
import math
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

_OPEN_SPAN: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_open_span", default=None)


def _run_attrs(args, kwargs, result) -> dict:
    circuit = args[0]
    gates = circuit.n_single_gates + circuit.n_two_qubit_gates
    return {"amp_ops": gates * (1 << circuit.n_qubits)}


def _bfgs_attrs(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _path_attrs(args, kwargs, result) -> dict:
    return {"path_flops": result[0].total_flops}


def _slice_attrs(args, kwargs, result) -> dict:
    path = args[1]
    return {"slice_overhead": result.total_flops / path.total_flops}


# (module, public function, span name, attributes taken from the call)
TARGETS = (
    ("cli", "cmd_generate", "cli.generate", None),
    ("cli", "cmd_sample", "cli.sample", None),
    ("cli", "cmd_analyze", "cli.analyze", None),
    ("cli", "cmd_report", "cli.report", None),
    ("cli", "cmd_calibrate", "cli.calibrate", None),
    ("cli", "cmd_cost_tnc", "cli.cost_tnc", None),
    ("cli", "cmd_cost_sfa", "cli.cost_sfa", None),
    ("circuit", "load_circuit", "circuit.io", None),
    ("circuit", "save_circuit", "circuit.io", None),
    ("circuit", "with_coupler_params", "circuit.with_coupler_params", None),
    ("simulator", "run", "simulator.run", _run_attrs),
    ("simulator", "sample_ideal", "simulator.sample", None),
    ("simulator", "sample_noisy_speckle", "simulator.sample", None),
    ("simulator", "apply_readout_error", "simulator.readout", None),
    ("simulator", "sample_trajectory", "simulator.trajectory", None),
    ("samples", "load_samples", "samples.io", None),
    ("samples", "save_samples", "samples.io", None),
    ("xeb", "measured_xeb", "xeb.measured", None),
    ("xeb", "ks_test", "xeb.ks", None),
    ("xeb", "bootstrap_xeb", "xeb.bootstrap", None),
    ("calibration", "calibrate_patches", "calibration.calibrate", None),
    ("calibration", "loss", "calibration.loss", None),
    ("calibration", "bfgs_minimize", "calibration.optimizer", _bfgs_attrs),
    ("costmodel", "circuit_to_tn", "costmodel.circuit_to_tn", None),
    ("costmodel", "find_path_greedy_full", "costmodel.path_search", _path_attrs),
    ("costmodel", "slice_network", "costmodel.slice", _slice_attrs),
    ("costmodel", "replay_path", "costmodel.replay", None),
    ("costmodel", "sfa_cut", "costmodel.sfa", None),
    ("costmodel", "sfa_speedup", "costmodel.sfa", None),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(self._ids), name, 0.0, 0.0, _OPEN_SPAN.get(),
                        threading.get_ident())
            token = _OPEN_SPAN.set(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _OPEN_SPAN.reset(token)
                self.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result
        return traced


class _ContextThreadPool(ThreadPoolExecutor):
    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


@contextmanager
def installed(tracer: Tracer):
    modules = [m for name, m in list(sys.modules.items())
               if name == "rcsbench" or name.startswith("rcsbench.")]
    undo = []

    def rebind(original, replacement, name, holders):
        for holder in holders:
            if holder.__dict__.get(name) is original:
                undo.append((holder, name, original))
                setattr(holder, name, replacement)

    for module, name, span_name, attrs in TARGETS:
        original = getattr(importlib.import_module(f"rcsbench.{module}"), name)
        rebind(original, tracer.wrap(span_name, original, attrs), name, modules)
    getattr(concurrent.futures, "ThreadPoolExecutor")  # resolve the lazy attribute
    rebind(ThreadPoolExecutor, _ContextThreadPool, "ThreadPoolExecutor",
           modules + [concurrent.futures])
    try:
        yield tracer
    finally:
        for holder, name, original in reversed(undo):
            setattr(holder, name, original)


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of the intervals its children
    cover, clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return {s.id: s.seconds - _union_seconds(children.get(s.id, [])) for s in spans}


def _log10(value: float) -> float:
    return math.log10(value) if value > 0 else 0.0


def layer_metrics(spans: list[Span], n_passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures per traced pass.  Layers the workload never enters
    read 0."""
    selfs = self_seconds(spans)
    per = 1.0 / max(n_passes, 1)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.seconds for s in named(name)) * per

    def self_total(name):
        return sum(selfs[s.id] for s in named(name)) * per

    def calls(name):
        return len(named(name)) * per

    def last_attr(name, key):
        values = [s.attrs[key] for s in named(name) if key in s.attrs]
        return values[-1] if values else 0.0

    runs = named("simulator.run")
    run_seconds = sum(s.seconds for s in runs)
    out: dict[str, tuple[float, str]] = {}
    for stage in ("generate", "sample", "analyze", "report", "calibrate",
                  "cost_tnc", "cost_sfa"):
        out[f"cli.{stage}_s"] = (total(f"cli.{stage}"), "s")
    out["cli.self_s"] = (sum(selfs[s.id] for s in spans if s.name.startswith("cli."))
                         * per, "s")
    out.update({
        "circuit.io_s": (total("circuit.io"), "s"),
        "circuit.with_coupler_params_calls": (calls("circuit.with_coupler_params"), "count"),
        "circuit.with_coupler_params_s": (total("circuit.with_coupler_params"), "s"),
        "simulator.run_calls": (calls("simulator.run"), "count"),
        "simulator.run_s": (total("simulator.run"), "s"),
        "simulator.run_amp_ops_per_s": (
            sum(s.attrs.get("amp_ops", 0) for s in runs) / run_seconds
            if run_seconds > 0 else 0.0, "amp_ops/s"),
        "simulator.sample_s": (total("simulator.sample"), "s"),
        "simulator.readout_s": (total("simulator.readout"), "s"),
        "simulator.trajectory_s": (total("simulator.trajectory"), "s"),
        "samples.io_s": (total("samples.io"), "s"),
        "xeb.measured_self_s": (self_total("xeb.measured"), "s"),
        "xeb.ks_s": (total("xeb.ks"), "s"),
        "xeb.bootstrap_s": (total("xeb.bootstrap"), "s"),
        "calibration.loss_calls": (calls("calibration.loss"), "count"),
        "calibration.loss_s": (total("calibration.loss"), "s"),
        "calibration.loss_self_s": (self_total("calibration.loss"), "s"),
        "calibration.optimizer_self_s": (self_total("calibration.optimizer"), "s"),
        "calibration.iterations": (
            sum(s.attrs.get("iterations", 0) for s in named("calibration.optimizer"))
            * per, "count"),
        "costmodel.circuit_to_tn_s": (total("costmodel.circuit_to_tn"), "s"),
        "costmodel.path_search_s": (total("costmodel.path_search"), "s"),
        "costmodel.slice_s": (total("costmodel.slice"), "s"),
        "costmodel.replay_calls": (calls("costmodel.replay"), "count"),
        "costmodel.sfa_s": (total("costmodel.sfa"), "s"),
        "costmodel.path_log10_flops": (
            _log10(last_attr("costmodel.path_search", "path_flops")), "log10_flop"),
        "costmodel.slice_overhead_log10": (
            _log10(last_attr("costmodel.slice", "slice_overhead")), "log10"),
    })
    return out
