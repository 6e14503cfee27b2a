"""Spans and counts around calls into each cosmos layer, kept in memory.

Tracer.install rebinds the public functions listed in LAYERS, at every
cosmos module attribute that names them, to wrappers that record a span
(name, start, end, parent span, operation id). Functions in COUNTED get a
call counter only, because a span per call would cost more than the call.
Nothing under src/ changes; uninstall puts the original functions back. A
listed function or module that no longer exists is skipped, and its
metrics read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

LAYERS = {
    "cli": (
        "main", "build_parser", "cmd_cost", "cmd_breakdown", "cmd_curve",
        "cmd_crossover", "cmd_pareto", "cmd_optimize", "cmd_ingest",
    ),
    "catalog": ("load_platform", "load_platforms", "load_catalog", "validate_catalog"),
    "workflow": ("load_workflow_document", "load_workflow", "workflow_latency"),
    "engine": (
        "component_charges", "function_cost", "per_function_costs", "workflow_cost",
        "function_cost_curve", "workflow_cost_curve", "crossover", "driver_shares",
    ),
    "optimizer": (
        "optimize", "min_cost", "min_time", "enumerate_placements", "pareto_front",
        "optimal_line", "load_point_table", "auto_weights",
    ),
    "telemetry": ("scan_usage_log", "parse_usage_log", "summarize_usage", "aggregate_stats", "calibrate"),
}
COUNTED = {"money": ("money_product", "quantize_money")}

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        self.calls: dict[str, int] = {}
        self.points: dict[str, int] = {}  # input sizes seen by pareto_front
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """fn wrapped to record one span per call."""
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, op, start, end, stack = (
            self.name_of, self.parent, self.op, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def _count(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _sized(self, name: str, fn):
        points = self.points
        points[name] = 0

        @functools.wraps(fn)
        def sized(items, *args, **kwargs):
            points[name] += len(items) if hasattr(items, "__len__") else 0
            return fn(items, *args, **kwargs)

        return sized

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cosmos" or n.startswith("cosmos.")]
        for layer, names in {**LAYERS, **COUNTED}.items():
            home = sys.modules.get(f"cosmos.{layer}")
            for name in names:
                fn = getattr(home, name, None)
                if not callable(fn):
                    continue
                full = f"{layer}.{name}"
                if layer in COUNTED:
                    wrapper = self._count(full, fn)
                else:
                    wrapper = self.wrap(full, fn)
                    if name == "pareto_front":
                        wrapper = self._sized(full, wrapper)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def summary(self):
        """Per-name inclusive seconds and calls, and per-layer self seconds."""
        n = len(self.name_of)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = dict(self.calls)
        self_time: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_of[i]]
            inclusive[name] = inclusive.get(name, 0.0) + duration[i]
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + duration[i] - children[i]
        return inclusive, calls, self_time

    def write(self, path: Path) -> None:
        """Spans as TSV, times in microseconds from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.name_of)):
                fh.write(
                    f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.names[self.name_of[i]]}"
                    f"\t{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )
