"""Spans around calls into gwfield's public functions, kept in memory.

A :class:`Tracer` replaces every public module-level function of the layer
modules with a wrapper that records one span per call: layer, function,
start, end, parent span and op id.  Names that other modules bound with
``from .x import f`` are rebound too, so ``gwfield.cli``'s own
``read_field``/``write_field`` are traced.  Nothing inside ``src/`` changes;
the wrappers live only in the traced process.

A layer's self time is the time its spans cover minus the time covered by
their child spans (calls are sequential in one thread, so children never
overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from pathlib import Path

LAYERS = ("cli", "fieldio", "fields", "spectral", "wavemech", "madelung", "helicity",
          "bosestat", "statequant", "hybridmeas", "cmbrvac", "selfcheck")
# madelung.py is split: the trajectory engine is its own layer.
BOHM_NAMES = {"run_trajectory", "bohm_step"}
BOHM_CLASS = "QuantumPotentialInterpolator"
BOHM_METHODS = ("__init__", "grad_q_at", "masked_at")


def _file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _grid_points(args) -> int:
    for arg in args:
        grid = getattr(arg, "grid", arg)
        n_points = getattr(grid, "n_points", None)
        if n_points is not None:
            count = 1
            for n in n_points:
                count *= n
            return count
    return 0


def _note_for(layer: str, func: str):
    """What a span records beyond its times: bytes, grid points or success."""
    if (layer, func) == ("fieldio", "write_field"):
        return lambda args, result: _file_bytes(*result)
    if (layer, func) == ("fieldio", "read_field"):
        from gwfield.fieldio import sidecar_path
        return lambda args, result: _file_bytes(args[0], sidecar_path(args[0]))
    if (layer, func) == ("madelung.bohm", "run_trajectory"):
        return lambda args, result: int(result.status == "ok")
    if layer == "wavemech":
        return lambda args, result: _grid_points(args)
    return None


class Tracer:
    """Collects spans as lists ``[layer, func, start, end, parent, op, note]``."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, func: str, fn):
        note = _note_for(layer, func)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, func, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.monotonic()
                stack.pop()
            if note is not None:
                span[6] = note(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module in this process."""
        package = importlib.import_module("gwfield")
        modules = [importlib.import_module(f"gwfield.{name}") for name in LAYERS]
        wrapped = {}
        for name, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                layer = "madelung.bohm" if name == "madelung" and attr in BOHM_NAMES else name
                wrapped[obj] = self.wrap(layer, attr, obj)
        interp = getattr(importlib.import_module("gwfield.madelung"), BOHM_CLASS)
        for method in BOHM_METHODS:
            setattr(interp, method,
                    self.wrap("madelung.bohm", f"{BOHM_CLASS}.{method}", getattr(interp, method)))
        for module in [package] + modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], n_ops: int, startups: list[float],
                  overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics from the spans of ``n_ops`` traced ops.

    ``spans`` must be indexed as one list (parent fields point into it).
    Every metric is emitted; a layer that did not run reports 0.
    """
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    func_count: dict[tuple[str, str], int] = {}
    func_time: dict[tuple[str, str], float] = {}
    func_note: dict[tuple[str, str], float] = {}
    layer_note: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer, key = span[0], (span[0], span[1])
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + own
        func_count[key] = func_count.get(key, 0) + 1
        func_time[key] = func_time.get(key, 0.0) + span[3] - span[2]
        if span[6] is not None:
            func_note[key] = func_note.get(key, 0) + span[6]
            layer_note[layer] = layer_note.get(layer, 0) + span[6]

    per_op = max(n_ops, 1)
    mib = float(1 << 20)
    write, read = ("fieldio", "write_field"), ("fieldio", "read_field")
    steps = func_count.get(("madelung.bohm", "bohm_step"), 0)
    trajectories = ("madelung.bohm", "run_trajectory")
    solve = ("bosestat", "maximize_entropy")
    metrics = {
        "cli.startup_s": (statistics.median(startups) if startups else 0.0, "s"),
        "cli.invocations": (func_count.get(("cli", "main"), 0) / per_op, "count"),
        "cli.self_s": (self_s.get("cli", 0.0) / per_op, "s"),
        "fieldio.write_s": (func_time.get(write, 0.0) / per_op, "s"),
        "fieldio.write_MiB_per_s": (_ratio(func_note.get(write, 0) / mib, func_time.get(write, 0.0)), "MiB/s"),
        "fieldio.read_s": (func_time.get(read, 0.0) / per_op, "s"),
        "fieldio.read_MiB_per_s": (_ratio(func_note.get(read, 0) / mib, func_time.get(read, 0.0)), "MiB/s"),
        "madelung.bohm.steps": (steps / per_op, "count"),
        "madelung.bohm.self_s": (self_s.get("madelung.bohm", 0.0) / per_op, "s"),
        "madelung.bohm.s_per_step": (_ratio(self_s.get("madelung.bohm", 0.0), steps), "s"),
        "madelung.bohm.completed_ratio": (_ratio(func_note.get(trajectories, 0), func_count.get(trajectories, 0)), "ratio"),
        "bosestat.solves": (func_count.get(solve, 0) / per_op, "count"),
        "bosestat.self_s": (self_s.get("bosestat", 0.0) / per_op, "s"),
        "bosestat.s_per_solve": (_ratio(func_time.get(solve, 0.0), func_count.get(solve, 0)), "s"),
        "wavemech.Mpoints_per_s": (_ratio(layer_note.get("wavemech", 0) / 1e6, self_s.get("wavemech", 0.0)), "Mpoint/s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    for layer in ("spectral", "wavemech", "madelung", "helicity"):
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / per_op, "count")
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / per_op, "s")
    for layer in ("statequant", "hybridmeas", "cmbrvac", "selfcheck"):
        metrics[f"{layer}.self_s"] = (self_s.get(layer, 0.0) / per_op, "s")
    return metrics
