"""Run one workload of the coexcap benchmark and print its metrics.

    python3 perfbench/run.py --workload sim-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of the checkout this file lives in.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with ``--trace 1`` they are the
per-layer metrics, from five traced passes that alternate with untraced
ones.

A run makes one untimed warm-up pass, then timed passes until
``--seconds`` have passed.  Every pass draws fresh inputs (see
``workloads.py``), and after its timing every item's output is checked
in full and hashed into the pass's output digest.  Any item that raises,
exits non-zero or fails a check counts as failed.  Set-up probes (fresh
interpreters that import ``coexcap.cli`` and draw the first pass's
inputs) are spread over the run between passes.

Every pass and item time is in reference seconds (see ``calibration.py``):
a calibration loop runs between stretches of about 20 ms of items, and
each stretch is rescaled by the mean of the calibrations just before and
after it.  Set-up times are rescaled by the square root of the
calibration ratio (see ``measure_setup``).  The raw host times are
printed above the JSON line, saved with ``--save`` and reported as
``host.*`` per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import CHUNK_S, REFERENCE_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 11       # set-up probes per run, spread over it; the median is reported
MIN_PASSES = 3        # timed passes (pairs, when tracing) even for short --seconds
TRACED_PASSES = 5     # traced passes per traced run: a fixed set, so counts repeat
PROBE_TIMEOUT_S = 60
SETUP_ELASTICITY = 0.5  # how set-up time follows the calibration; see measure_setup


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """(set-up s, raw host set-up s, import ms) of one fresh interpreter.

    Set-up runs from spawning the interpreter until its inputs are ready.
    It is mostly file reads, unmarshalling and C code, which the host's
    speed swings move about half as much as they move the calibration
    loop (in log terms: slope 0.49-0.54 over 190 probes on the machine
    described in README.md).  So the set-up time is rescaled by the
    square root of the calibration ratio, measured inside the probe.
    """
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    probe = json.loads(done.stdout.splitlines()[-1])
    host = probe["ready_monotonic"] - start - probe["excluded_s"]
    scale = (REFERENCE_S / probe["calibration_s"]) ** SETUP_ELASTICITY
    return host * scale, host, probe["import_ms"]


class Runner:
    """Runs passes over one workload, checks them and counts failed items."""

    def __init__(self, workload):
        self.wl = workload
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []     # one per pass, warm-up pass first
        self.calibrations: list[float] = []

    def _fail(self, index: int, problems) -> None:
        self.failed += 1
        if self.failed <= 10:
            print(f"pass {self.passes - 1} item {index} failed: {'; '.join(problems)}",
                  file=sys.stderr)

    def _call(self, index: int):
        try:
            return True, self.wl.run_item(index)
        except (Exception, SystemExit):   # one failed item must not end the run
            return False, traceback.format_exc(limit=3)

    def run_pass(self, tracer=None) -> tuple[float, float, list[float], list[float]]:
        """(wall in reference s, raw host s, item times in reference s, raw item s).

        Draws the pass's inputs, runs the items in stretches of at least
        CHUNK_S with a calibration after each, with the tracer open if one
        is given, then checks every output.
        """
        self.wl.begin_pass(self.passes)
        self.passes += 1
        gc.collect()
        n = len(self.wl.items)
        outputs, raw_times = [None] * n, [0.0] * n
        times = [0.0] * n
        clock = time.perf_counter
        wall = raw = 0.0
        before = calibrate()
        i = 0
        if tracer is not None:
            tracer.open()
        try:
            while i < n:
                first = i
                chunk_start = clock()
                while True:
                    if tracer is not None:
                        tracer.item = i
                    t0 = clock()
                    outputs[i] = self._call(i)
                    raw_times[i] = clock() - t0
                    i += 1
                    if i == n or clock() - chunk_start >= CHUNK_S:
                        break
                chunk = clock() - chunk_start
                after = calibrate()
                scale = REFERENCE_S / ((before + after) / 2)
                self.calibrations.append(after)
                for k in range(first, i):
                    times[k] = raw_times[k] * scale
                wall += chunk * scale
                raw += chunk
                before = after
        finally:
            if tracer is not None:
                tracer.close()
        self._examine(outputs)      # the checks call the package too: never traced
        return wall, raw, times, raw_times

    def _examine(self, outputs) -> None:
        """Check every output of the pass and hash it into the pass digest."""
        h = hashlib.sha256()
        for i, (ok, output) in enumerate(outputs):
            self.attempted += 1
            record = b""
            if not ok:
                self._fail(i, [output])
            else:
                try:
                    record, problems = self.wl.examine(i, output)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
                if problems:
                    self._fail(i, problems)
            h.update(len(record).to_bytes(8, "little"))
            h.update(record)
        self.digests.append(h.hexdigest())


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def tail_percentile(n: int) -> float:
    """Highest of p50, p90, p99, p99.9, ... that leaves at least 10 of n samples beyond it."""
    best, q = 50.0, 90.0
    while n * (100 - q) / 100 >= 10 - 1e-9:
        best, q = q, 100 - (100 - q) / 10
    return best


def host_figures(setups, raw_walls, raw_item_times) -> dict:
    """Raw host set-up, pass and item times, not rescaled by the calibration."""
    ms = [t * 1e3 for t in raw_item_times]
    return {"host.setup_s": (statistics.median(h for _, h, _ in setups), "s"),
            "host.wall_s": (statistics.median(raw_walls), "s"),
            "host.item_ms_p50": (percentile(ms, 50), "ms"),
            "host.item_ms_p90": (percentile(ms, 90), "ms")}


def end_to_end(items, setups, walls, item_times) -> dict:
    wall = statistics.median(walls)
    ms = [t * 1e3 for t in item_times]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail = tail_percentile(len(ms))
    print(f"item time: {len(ms)} samples, p{tail:g} {percentile(ms, tail):.4f} ms "
          "(reference)")
    return {
        "setup_s": (statistics.median(s for s, _, _ in setups), "s"),
        "wall_s": (wall, "s"),
        "item_ms_p50": (percentile(ms, 50), "ms"),
        "item_ms_p90": (percentile(ms, 90), "ms"),
        "items_per_s": (items / wall, "1/s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_layer(setups, pass_stats, plain_walls, traced_walls, calibrations) -> dict:
    units = {"calls": "count", "self_ms": "ms", "iterations": "count",
             "repeat_share": "share", "simulated_s": "s", "trace_bytes": "B"}
    metrics = {}
    for key in pass_stats[0]:
        unit = units.get(key.rsplit(".", 1)[1], "count")
        # median_low: an observed pass, so counts stay whole numbers
        metrics[key] = (statistics.median_low(p[key] for p in pass_stats), unit)
    metrics["setup.import_ms"] = (statistics.median(i for _, _, i in setups), "ms")
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced_walls) - statistics.median(plain_walls)) * 1e3, "ms")
    metrics["host.calibration_ms"] = (statistics.median(calibrations) * 1e3, "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None,
                        help="also append the result, with its digests, to this JSONL file")
    args = parser.parse_args(argv)

    if not (SRC / "coexcap" / "__init__.py").is_file():
        print(f"error: no coexcap package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    setups = []
    start = time.perf_counter()

    def probe_if_due() -> None:
        # probe k is due k/SETUP_RUNS of the way through the run
        due = start + len(setups) * args.seconds / SETUP_RUNS
        if len(setups) < SETUP_RUNS and time.perf_counter() >= due:
            setups.append(measure_setup(args.workload, args.seed))

    try:
        wl.prepare(workdir)
        runner = Runner(wl)
        runner.run_pass()                 # warm-up: checked, not timed
        plain_walls, raw_walls, traced_walls = [], [], []
        item_times, raw_item_times, pass_stats = [], [], []
        tracer = Tracer() if args.trace else None
        traced_goal = TRACED_PASSES if tracer is not None else 0
        while (len(plain_walls) < MIN_PASSES or len(traced_walls) < traced_goal
               or time.perf_counter() < start + args.seconds):
            probe_if_due()
            wall, raw, times, raw_times = runner.run_pass()
            plain_walls.append(wall)
            raw_walls.append(raw)
            item_times.extend(times)
            raw_item_times.extend(raw_times)
            if len(traced_walls) < traced_goal:
                tracer.begin_pass()
                wall, raw, _, _ = runner.run_pass(tracer)
                traced_walls.append(wall)
                pass_stats.append({k: v * wall / raw if k.endswith(".self_ms") else v
                                   for k, v in tracer.end_pass().items()})
        while len(setups) < SETUP_RUNS:
            setups.append(measure_setup(args.workload, args.seed))
        cals = runner.calibrations
        host = host_figures(setups, raw_walls, raw_item_times)
        print(f"host pass wall: median {host['host.wall_s'][0]:.6g} s raw, "
              f"{statistics.median(plain_walls):.6g} s reference; calibration "
              f"{min(cals) * 1e3:.3f}..{max(cals) * 1e3:.3f} ms over {len(cals)}")
        if tracer is not None:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            metrics = per_layer(setups, pass_stats, plain_walls, traced_walls, cals)
            metrics.update(host)
        else:
            metrics = end_to_end(len(wl.items), setups, plain_walls, item_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {len(plain_walls)} timed passes x "
          f"{len(wl.items)} items, {runner.attempted} attempted, {runner.failed} failed")
    for pass_no, digest in enumerate(runner.digests):
        print(f"output digest pass {pass_no}: sha256:{digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {"correct": runner.failed == 0,
              "attempted": runner.attempted,
              "failed": runner.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "digests": runner.digests, "result": result,
                "host": {name: value for name, (value, _) in host.items()},
                "passes": [[raw, ref] for raw, ref in zip(raw_walls, plain_walls)],
            }) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
