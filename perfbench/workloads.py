"""Seeded workloads of the coexcap benchmark.

Each workload draws a fresh list of items for every pass of a run, runs
one item at a time against the package, and checks and digests what the
package returned.  An item is one simulation, one CLI invocation or one
grid point.

The items of pass p are drawn from ``random.Random(f"{seed}/{p}")``, so the
seed fixes every pass of a run.  No pass repeats an input of an earlier
pass: every simulator seed, payload and scenario that keys an item is
drawn afresh and drawn again if the run has used it before.  A cache
inside the package can therefore gain only from repeats within one pass,
as a real ``coexcap sweep`` has them, never from an earlier pass or from
the checks, which run after the pass they check.  The draws are
stratified so that the work of a pass hardly depends on the seed or the
pass number: they jitter values inside fixed strata and shuffle the
order, while the mix of modes, bandwidths, windows and station counts
stays the same.

The package is reached only through module attributes (``sim.run_simulation``
and so on), looked up at call time, so that the tracer in ``tracer.py``
sees every call once it has rebound those names.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import shutil
from dataclasses import replace
from pathlib import Path

from coexcap import cli, coex, sharing, sim, tables

BANDWIDTHS = (20, 40, 80, 160)
RATIOS = (0.25, 0.5, 0.75)
RESIDUAL_LIMIT = 1e-10
PROB_SUM_TOLERANCE = 1e-9
MAX_DRAWS = 1000


def _jitter(rng: random.Random, level: float, share: float) -> float:
    """A value drawn uniformly within +-share of level, rounded to 1 us."""
    return round(level * rng.uniform(1.0 - share, 1.0 + share))


def _latin_windows(rng: random.Random, levels_us, share: float):
    """One jittered window per (bandwidth, ratio) cell, levels in a Latin pattern.

    Every bandwidth and every ratio meets the same spread of window levels
    in every pass, so the event count of a pass stays nearly constant.
    """
    out = {}
    for i, bw in enumerate(BANDWIDTHS):
        for j, ratio in enumerate(RATIOS):
            level = levels_us[(i + j) % len(levels_us)]
            out[bw, ratio] = _jitter(rng, level, share)
    return out


def _nc_wifi(items_bw_payload) -> dict:
    """Reference Wi-Fi capacity alone on the full channel, per (bandwidth, payload)."""
    return {key: tables.wifi_nc_capacity(*key) for key in set(items_bw_payload)}


def _finite_nonneg(*values) -> bool:
    return all(math.isfinite(v) and v >= 0.0 for v in values)


class Workload:
    """Base class: ``items`` holds the inputs of the current pass."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.used: set = set()
        self.items: list = []

    def inputs(self, pass_no: int) -> list:
        """The items of one pass; a run draws passes 0, 1, 2, ... in order."""
        return self.generate(random.Random(f"{self.seed}/{pass_no}"))

    def fresh(self, tag, draw):
        """``draw()`` until its value under ``tag`` is new to this run.

        Only an 8-byte hash of each value is kept, so that the inputs of
        earlier passes do not add to the run's peak memory.
        """
        for _ in range(MAX_DRAWS):
            value = draw()
            key = hashlib.blake2b(repr((tag, value)).encode(), digest_size=8).digest()
            if key not in self.used:
                self.used.add(key)
                return value
        raise RuntimeError(f"no unused {tag} value left after {MAX_DRAWS} draws")

    def generate(self, rng: random.Random) -> list:
        raise NotImplementedError

    def describe(self) -> list:
        """The current inputs as plain JSON-able values."""
        return [repr(item) for item in self.items]

    def prepare(self, workdir: Path) -> None:
        """Untimed work once before the first pass (files, reference values)."""

    def begin_pass(self, pass_no: int) -> None:
        """Untimed: draw the pass's items and get anything they need ready."""
        self.items = self.inputs(pass_no)

    def run_item(self, index: int):
        raise NotImplementedError

    def examine(self, index: int, output) -> tuple[bytes, list[str]]:
        """(bytes the pass digest covers, problems) of one item's output.

        Runs after the timed pass; no problems means the output is correct.
        """
        raise NotImplementedError


class SimBatch(Workload):
    name = "sim-batch"

    def generate(self, rng):
        def sim_seed():
            return self.fresh("seed", lambda: rng.randrange(2**31))
        items = []
        for bw in BANDWIDTHS:
            for _ in range(3):
                items.append(sim.SimConfig(seed=sim_seed(), mode="dfm",
                                           bandwidth_mhz=bw, payload_bytes=1500))
        windows = _latin_windows(rng, (2500.0, 5000.0, 10000.0, 17000.0), 0.02)
        for (bw, ratio), t_wifi in windows.items():
            items.append(sim.SimConfig(seed=sim_seed(), mode="dtm",
                                       bandwidth_mhz=bw, payload_bytes=1500,
                                       t_wifi_us=t_wifi,
                                       t_laa_us=t_wifi * (1.0 - ratio) / ratio))
        rng.shuffle(items)
        return items

    def prepare(self, workdir):
        self.nc = _nc_wifi((bw, 1500) for bw in BANDWIDTHS)

    def run_item(self, index):
        return sim.run_simulation(self.items[index])

    def examine(self, index, output):
        cfg = self.items[index]
        record = json.dumps(output.to_dict(), sort_keys=True).encode()
        return record, _check_sim_throughput(
            cfg.mode, output.wifi_throughput_mbps, output.laa_airtime_throughput_mbps,
            self.nc[cfg.bandwidth_mhz, cfg.wifi.payload_bytes])


def _check_sim_throughput(mode, wifi_mbps, laa_mbps, nc_mbps) -> list[str]:
    if not _finite_nonneg(wifi_mbps, laa_mbps):
        return [f"non-finite or negative throughput {wifi_mbps}, {laa_mbps}"]
    if not 0.0 < wifi_mbps < nc_mbps:
        return [f"{mode} simulated {wifi_mbps} Mbps not in (0, {nc_mbps}) "
                "of the Wi-Fi capacity alone"]
    return []


class SimTrace(Workload):
    name = "sim-trace"

    MEASURE_US = 2_000_000

    def generate(self, rng):
        configs = []
        for bw in BANDWIDTHS:
            configs.append({"mode": "dfm", "bandwidth_mhz": bw,
                            "laa_preset": "laa-class1"})
        windows = _latin_windows(rng, (1200.0, 2000.0, 2700.0), 0.02)
        for n, ((bw, ratio), t_wifi) in enumerate(windows.items()):
            configs.append({"mode": "dtm", "bandwidth_mhz": bw,
                            "t_wifi_us": t_wifi,
                            "t_laa_us": round(t_wifi * (1.0 - ratio) / ratio),
                            "laa_preset": "laa-class4" if n % 2 else "laa-class1"})
        for body in configs:
            body.update(payload_bytes=1500, measure_us=self.MEASURE_US,
                        seed=self.fresh("seed", lambda: rng.randrange(2**31)))
        rng.shuffle(configs)
        return configs

    def prepare(self, workdir):
        self.workdir = workdir
        self.nc = _nc_wifi((bw, 1500) for bw in BANDWIDTHS)

    def begin_pass(self, pass_no):
        # Each pass writes its configs and fresh output files in one of two
        # directories used in turn; the directory of two passes ago is
        # emptied here, untimed, so the CLI never waits on truncating a
        # file still being written back.
        super().begin_pass(pass_no)
        pass_dir = self.workdir / f"pass{pass_no % 2}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        self.paths, self.argv = [], []
        for i, body in enumerate(self.items):
            cfg, trace, out = (pass_dir / f"item{i:02d}{ext}"
                               for ext in (".ini", ".trace", ".json"))
            cfg.write_text("[simulation]\n" + "".join(
                f"{key} = {value}\n" for key, value in sorted(body.items())),
                encoding="utf-8")
            self.paths.append((trace, out))
            self.argv.append(["simulate", str(cfg), "--trace", str(trace),
                              "--format", "json", "--out", str(out)])

    def run_item(self, index):
        return cli.main(self.argv[index])

    def examine(self, index, output):
        trace, out = self.paths[index]
        out_text = out.read_text(encoding="utf-8") if out.exists() else ""
        trace_sha = _file_sha256(trace) if trace.exists() else ""
        record = f"{output}\0{out_text}\0{trace_sha}".encode()
        if output != 0:
            return record, [f"exit status {output}"]
        row = json.loads(out_text)["rows"][0]
        body = self.items[index]
        problems = _check_sim_throughput(body["mode"], row["wifi_throughput_mbps"],
                                         row["laa_airtime_throughput_mbps"],
                                         self.nc[body["bandwidth_mhz"],
                                                 body["payload_bytes"]])
        if trace.stat().st_size == 0:
            problems.append("empty trace")
        overlap = first_overlap(trace)
        if overlap:
            problems.append(f"Wi-Fi frame overlaps a scheduled burst: {overlap}")
        return record, problems


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _trace_spans(path: Path):
    """(start_ns, end_ns, kind, line) per line of a trace file, read as a stream.

    Trace lines are ``start_us node kind duration_us outcome`` separated by
    tabs; times have 1 ns resolution, so they are compared as integers.
    """
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            start, _node, kind, dur, _outcome = line.rstrip("\n").split("\t")
            t0 = round(float(start) * 1000)
            yield t0, t0 + round(float(dur) * 1000), kind, line


def first_overlap(path: Path) -> str | None:
    """The first Wi-Fi frame and ``laa-burst`` pair whose airtimes overlap, if any.

    Reads the trace twice and keeps only the bursts in memory.
    """
    laa = sorted((t0, t1) for t0, t1, kind, _ in _trace_spans(path)
                 if kind == "laa-burst")
    starts = [t0 for t0, _ in laa]
    for t0, t1, kind, line in _trace_spans(path):
        if kind == "laa-burst":
            continue
        k = bisect.bisect_left(starts, t1)   # bursts starting before this frame ends
        if k and laa[k - 1][1] > t0:
            return f"{line.rstrip()!r} / laa-burst {laa[k - 1]} ns"
    return None


class DesignSweep(Workload):
    name = "design-sweep"

    WINDOWS_US = (5000.0, 10000.0, 20000.0, 40000.0)
    CLASSES = (1, 4)
    PAYLOADS = (1500, 15000)
    PAYLOAD_DRAW = 0.1      # a pass's payload is drawn from [level * (1 - this), level]

    def generate(self, rng):
        payloads = {level: self.fresh(("payload", level), lambda: rng.randint(
                        round(level * (1.0 - self.PAYLOAD_DRAW)), level))
                    for level in self.PAYLOADS}
        items = []
        for bw in BANDWIDTHS:
            for cls in self.CLASSES:
                for payload in payloads.values():
                    for ratio in RATIOS:
                        for window in self.WINDOWS_US:
                            spec = tables.SweepSpec(
                                bandwidths=(bw,), ratios=(ratio,), classes=(cls,),
                                payloads=(payload,), combined_window_us=window)
                            items.append((spec, tables.scenario_for(bw, cls, payload)))
        rng.shuffle(items)
        return items

    def begin_pass(self, pass_no):
        super().begin_pass(pass_no)
        self.nc = {}

    def run_item(self, index):
        spec, scenario = self.items[index]
        _, rows = tables.sweep_rows(spec)
        pick = sharing.best_dma(spec.bandwidths[0], spec.ratios[0], scenario,
                                combined_window_us=spec.combined_window_us)
        return rows, pick

    def examine(self, index, output):
        # Coexistence beating the best sharing approach (acceptance criterion
        # 7 at 40 MHz, 25 %, class 4) is a model property, not a failure.
        spec, scenario = self.items[index]
        rows, pick = output
        record = json.dumps([rows, pick.recommendation, pick.tie, pick.dfm_feasible,
                             pick.dtm.to_dict(),
                             pick.dfm.to_dict() if pick.dfm else None]).encode()
        if scenario not in self.nc:
            self.nc[scenario] = (coex.capacity_no_coex("wifi", scenario),
                                 coex.capacity_no_coex("laa", scenario))
        nc_w, nc_l = self.nc[scenario]
        problems = []
        for row in rows:
            regime, c_w, c_l = row[4], row[5], row[6]
            if not (_finite_nonneg(c_w, c_l)
                    and c_w <= round(nc_w, 2) and c_l <= round(nc_l, 2)):
                problems.append(f"{regime} row {row} outside [0, capacity alone]")
        for report in (pick.dtm, pick.dfm):
            if report is not None and not (_finite_nonneg(report.c_w_mbps, report.c_l_mbps)
                                           and report.c_w_mbps <= nc_w
                                           and report.c_l_mbps <= nc_l):
                problems.append(f"best_dma {report.regime} {report.c_w_mbps}, "
                                f"{report.c_l_mbps} outside [0, capacity alone]")
        return record, problems + _check_equilibrium(scenario)


def _check_equilibrium(scenario) -> list[str]:
    eq = coex.solve_equilibrium(scenario)
    problems = []
    if not eq.residual <= RESIDUAL_LIMIT:
        problems.append(f"fixed-point residual {eq.residual:.3e}")
    total = coex.event_probabilities(eq, scenario).total()
    if not abs(total - 1.0) <= PROB_SUM_TOLERANCE:
        problems.append(f"event probabilities sum to {total!r}")
    return problems


class CoexStations(Workload):
    name = "coex-stations"

    P_FC = (0.25, 0.5, 0.75, 1.0)
    P_FC_DRAW = 0.03        # p_fc is drawn from [level * (1 - this), level]
    PAYLOAD_RANGE = (500, 15000)
    STATIONS = (1, 2, 3, 4)

    def generate(self, rng):
        cells = [(n_w, n_l, bw, cls) for n_w in self.STATIONS for n_l in self.STATIONS
                 for bw in BANDWIDTHS for cls in (1, 4)]
        levels = list(self.P_FC) * (len(cells) // len(self.P_FC))
        rng.shuffle(levels)
        items = []
        for (n_w, n_l, bw, cls), level in zip(cells, levels):
            def draw():
                scenario = tables.scenario_for(bw, cls, rng.randint(*self.PAYLOAD_RANGE),
                                               n_w, n_l)
                return replace(scenario, p_fc=level * rng.uniform(1.0 - self.P_FC_DRAW, 1.0))
            items.append(self.fresh("scenario", draw))
        rng.shuffle(items)
        return items

    def run_item(self, index):
        return coex.coexistence_throughputs(self.items[index])

    def examine(self, index, output):
        scenario = self.items[index]
        th_w, th_l = output
        nc_w = coex.capacity_no_coex("wifi", scenario)
        nc_l = coex.capacity_no_coex("laa", scenario)
        problems = []
        if not (_finite_nonneg(th_w, th_l) and th_w <= nc_w and th_l <= nc_l):
            problems.append(f"throughputs {th_w}, {th_l} outside [0, capacity alone "
                            f"{nc_w}, {nc_l}]")
        return json.dumps(list(output)).encode(), problems + _check_equilibrium(scenario)


WORKLOADS = {cls.name: cls for cls in (SimBatch, SimTrace, DesignSweep, CoexStations)}


def make(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
