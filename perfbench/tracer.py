"""Timing and count shims around the public functions of each program layer.

The shims are installed from the benchmark's own code; the program is not
edited. Each call records a span (name, start, end, parent) in flat arrays
kept in memory and written out once, when the worker ends. A layer's self
time is its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: The program's layers, one module each.
LAYERS = ("config", "graph", "triggers", "engine", "metrics", "cli", "linear_et")

#: Private functions traced as well: the CLI's file writer is the output layer.
PRIVATE = (("cli", "_write"),)

SHIM_MARK = "__perfbench_shim__"

#: Per-graph-size rungs of the per-event engine cost.
EVENT_SIZES = (10, 50, 200)


def _simulate_hook(extra, args, trace, duration):
    n = args[0].n
    events = trace.events
    broadcasts = len(events) * n if events and events[0].agent < 0 else len(events)
    extra["engine.events"] += broadcasts
    extra["engine.samples"] += len(trace.times)
    extra[f"engine.time.n{n}"] += duration
    extra[f"engine.broadcasts.n{n}"] += broadcasts


def _write_hook(extra, args, _result, _duration):
    extra["cli.bytes_written"] += len(args[1])


HOOKS = {
    "engine.simulate_triggered": _simulate_hook,
    "engine.simulate_ideal": _simulate_hook,
    "cli._write": _write_hook,
}


def traced_functions():
    """{"layer.name": function} for every function the shims wrap."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"etconsensus.{layer}")
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[f"{layer}.{name}"] = obj
    for layer, name in PRIVATE:
        found[f"{layer}.{name}"] = getattr(importlib.import_module(f"etconsensus.{layer}"), name)
    return found


def patched_names():
    """(module, attribute) pairs of the program that currently hold a shim."""
    return [
        (mod_name, attr)
        for mod_name, module in list(sys.modules.items())
        if mod_name == "etconsensus" or mod_name.startswith("etconsensus.")
        for attr, obj in vars(module).items()
        if getattr(obj, SHIM_MARK, False)
    ]


class Tracer:
    """Spans of every traced call, plus counters the hooks derive from them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.extra = defaultdict(float)
        self._ids: dict[str, int] = {}
        self._installed: list[tuple] = []

    def _label_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _shim(self, fn, label):
        nid = self._label_id(label)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self.stack)
        hook = HOOKS.get(label)
        extra = self.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(extra, args, result, end[idx] - start[idx])
            return result

        setattr(shim, SHIM_MARK, True)
        return shim

    @contextlib.contextmanager
    def region(self, label: str):
        """A span opened by the benchmark itself, such as one operation."""
        idx = len(self.name_id)
        self.name_id.append(self._label_id(label))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.stack.pop()

    def install(self) -> None:
        """Replace each traced function in every program module that holds it."""
        functions = traced_functions()
        shims = {id(fn): self._shim(fn, label) for label, fn in functions.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "etconsensus" and not mod_name.startswith("etconsensus."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in shims:
                    self._installed.append((module, attr, obj))
                    setattr(module, attr, shims[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def mark(self) -> int:
        return len(self.name_id)

    def aggregate(self, begin: int) -> dict:
        """Per-function inclusive time, self time and call count of the spans
        recorded since ``begin``."""
        # Slicing copies, so no numpy view pins the arrays against growth.
        names = np.frombuffer(self.name_id[begin:], dtype=np.int32)
        parents = np.frombuffer(self.parent[begin:], dtype=np.int64) - begin
        duration = np.frombuffer(self.end[begin:]) - np.frombuffer(self.start[begin:])
        child = np.zeros(len(names))
        inside = parents >= 0
        np.add.at(child, parents[inside], duration[inside])
        own = duration - child
        ids = np.arange(len(self.names))
        incl = np.bincount(names, weights=duration, minlength=len(ids))
        self_t = np.bincount(names, weights=own, minlength=len(ids))
        calls = np.bincount(names, minlength=len(ids))
        return {
            self.names[i]: (float(incl[i]), float(self_t[i]), int(calls[i]))
            for i in ids if calls[i]
        }

    def take_extra(self) -> dict:
        extra = dict(self.extra)
        self.extra.clear()
        return extra

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def layer_metrics(funcs: dict, extra: dict) -> dict:
    """Per-layer metrics of one traced pass, from ``Tracer.aggregate``."""

    def incl(*labels):
        return sum(funcs.get(label, (0.0, 0.0, 0))[0] for label in labels)

    def own(*labels):
        return sum(funcs.get(label, (0.0, 0.0, 0))[1] for label in labels)

    def calls(*labels):
        return sum(funcs.get(label, (0.0, 0.0, 0))[2] for label in labels)

    out = {}
    for layer in LAYERS:
        members = [label for label in funcs if label.split(".")[0] == layer]
        out[f"{layer}.self_s"] = own(*members)
        out[f"{layer}.calls"] = calls(*members)
    trigger_evals = [
        label for label in funcs
        if label.startswith("triggers.eval_") or label.endswith("_threshold")
    ]
    out.update({
        "config.load_s": incl("config.load_config", "config.load_linear_et_config"),
        "graph.spectral_s": incl("graph.spectral_info"),
        "graph.spectral_calls": calls("graph.spectral_info"),
        "triggers.evals": calls(*trigger_evals),
        "engine.simulate_s": own("engine.simulate_triggered", "engine.simulate_ideal"),
        "engine.events": int(extra.get("engine.events", 0)),
        "engine.samples": int(extra.get("engine.samples", 0)),
        "engine.trace_csv_s": incl("engine.trace_to_csv"),
        "engine.events_csv_s": incl("engine.events_to_csv"),
        "metrics.compute_s": incl("metrics.compute_run_metrics"),
        "cli.write_s": incl("cli._write"),
        "cli.bytes_written": int(extra.get("cli.bytes_written", 0)),
        "cli.check_bounds_s": incl("cli.check_bounds"),
        "linear_et.design_s": incl("linear_et.design"),
        "linear_et.min_inter_event_time_s": incl("linear_et.min_inter_event_time"),
        "linear_et.next_event_time_s": incl("linear_et.next_event_time"),
        "linear_et.next_event_time_calls": calls("linear_et.next_event_time"),
        "linear_et.simulate_sample_hold_s": incl("linear_et.simulate_sample_hold"),
        "linear_et.expm_calls": calls("linear_et.matrix_exponential"),
        "linear_et.trigger_gap_calls": calls("linear_et.trigger_gap"),
    })
    for n in EVENT_SIZES:
        broadcasts = extra.get(f"engine.broadcasts.n{n}", 0)
        seconds = extra.get(f"engine.time.n{n}", 0.0)
        out[f"engine.us_per_event.n{n}"] = seconds / broadcasts * 1e6 if broadcasts else 0.0
    return out
