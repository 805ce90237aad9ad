"""Span tracer for the benchmark's traced run.

The package imports functions by name (``from .coex import
capacity_no_coex``, ``from .sim import run_simulation``), so a wrapper
installed only on the defining module would miss most calls.  The tracer
therefore rebinds every module-level name in the package that refers to a
traced function, and puts the originals back when it is closed.

Only the layer-boundary functions in ``TRACED`` are wrapped.  Leaf helpers
such as ``contention_window`` or ``coupling_step`` run hundreds of times
per fixed-point solve; wrapping them would make the traced run measure
the wrapper instead of the package.

Spans are kept in memory as ``(pass, item, span_id, parent_id, name,
start, end)`` and written out by :meth:`Tracer.write` at the end of a run.

``coex.solve_equilibrium.repeat_share`` counts a solve as a repeat when its
``CoexScenario`` equals that of any earlier traced solve of the run, not
only of the same pass.  The workloads draw disjoint inputs per pass, so
the repeats it finds are those within a pass, which a cache can use.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

#: Traced functions per layer (package module).
TRACED = {
    "params": ("max_mpdus_per_burst",),
    "coex": ("solve_equilibrium", "capacity_no_coex", "coexistence_throughputs"),
    "sharing": ("windowed_capacity", "dtm_capacities", "dfm_capacities", "best_dma"),
    "tables": ("sweep_rows",),
    "sim": ("run_simulation",),
    "cli": ("main",),
}

#: Counters derived from arguments or results, besides calls and self time.
COUNTERS = ("coex.solve_equilibrium.iterations", "coex.solve_equilibrium.repeats",
            "sim.simulated_s", "sim.transmissions", "sim.cts_sent", "sim.beacons",
            "sim.trace_lines", "cli.trace_bytes")


def _observe_solve(tracer, args, kwargs, result):
    tracer.counts["coex.solve_equilibrium.iterations"] += result.iterations
    scenario = args[0] if args else kwargs["scenario"]
    if scenario in tracer.scenarios:
        tracer.counts["coex.solve_equilibrium.repeats"] += 1
    else:
        tracer.scenarios.add(scenario)


def _observe_simulation(tracer, args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    counts = tracer.counts
    counts["sim.simulated_s"] += config.measure_us / 1e6
    counts["sim.transmissions"] += result.counts.transmissions
    counts["sim.cts_sent"] += result.counts.cts_sent
    counts["sim.beacons"] += result.counts.beacons
    counts["sim.trace_lines"] += len(result.trace or ())


def _observe_cli(tracer, args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    if "--trace" in argv:
        tracer.counts["cli.trace_bytes"] += os.path.getsize(argv[argv.index("--trace") + 1])


_OBSERVERS = {
    "coex.solve_equilibrium": _observe_solve,
    "sim.run_simulation": _observe_simulation,
    "cli.main": _observe_cli,
}


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "coexcap" or name.startswith("coexcap."))]


class Tracer:
    """Rebinds the traced functions while open; one instance per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.rebound: list[tuple] = []      # (module, attribute, original) of the last open
        self.is_open = False
        self._stack: list[int] = []
        self.pass_no = 0
        self.item = -1
        self.counts = defaultdict(int)
        self.scenarios: set = set()         # every scenario solved while open, all passes

    # -- installation ---------------------------------------------------------

    def open(self) -> "Tracer":
        if self.is_open:
            raise RuntimeError("tracer is already open")
        self.is_open = True
        self.rebound = []
        wrappers = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"coexcap.{layer}"]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = (original, self._wrap(f"{layer}.{name}", original))
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.rebound.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def close(self) -> None:
        for module, attr, original in reversed(self.rebound):
            setattr(module, attr, original)
        self.is_open = False

    def __enter__(self):
        return self.open()

    def __exit__(self, *exc):
        self.close()

    def _wrap(self, span_name: str, fn):
        observe = _OBSERVERS.get(span_name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (self.pass_no, self.item, span_id, parent,
                                  span_name, start, end)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    # -- per-pass aggregation ---------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_no += 1
        self._first_span = len(self.spans)
        self.counts = defaultdict(int)

    def end_pass(self) -> dict:
        """Calls, self time (ms) and counters of the pass since begin_pass."""
        spans = self.spans[self._first_span:]
        child_time = defaultdict(float)
        for _, _, _, parent, _, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {f"{layer}.{name}.{kind}": 0
                 for layer, names in TRACED.items() for name in names
                 for kind in ("calls", "self_ms")}
        for _, _, span_id, _, name, start, end in spans:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_ms"] += (end - start - child_time[span_id]) * 1e3
        for key in COUNTERS:
            stats[key] = self.counts[key]
        repeats = stats.pop("coex.solve_equilibrium.repeats")
        solves = stats["coex.solve_equilibrium.calls"]
        stats["coex.solve_equilibrium.repeat_share"] = repeats / solves if solves else 0.0
        return stats

    def write(self, path) -> None:
        """Write every span recorded so far as tab-separated text."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("pass\titem\tspan\tparent\tname\tstart_s\tend_s\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")
