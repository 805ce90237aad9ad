"""Seeded discrete-event simulator for a one-AP/one-station downlink BSS.

The AP runs saturated downlink A-MPDU traffic with DCF channel access and
block acknowledgments, fitting each exchange into the current Wi-Fi
window.  In time-split (DTM) mode the windows recur: a CTS-to-self whose
duration field covers the scheduled window silences the BSS, and the
deterministic scheduled-burst airtime inside it is accounted.  In
frequency-split (DFM) mode, or with no scheduled window, one Wi-Fi window
opens at the start of the measurement and never closes.  A beacon falls
due at each multiple of the beacon interval and takes the next access;
dues that fall while one waits or is on the air fold into it.

Unlike the analytical capacity model, transmitted PSDUs are padded to
whole OFDM symbols and beacons are transmitted, so measured throughput
sits slightly below the analytical capacity.  The event clock is integer
nanoseconds; identical configurations (including the seed) produce
identical results and traces.

Event kinds, in tie-break order at equal times:

- ``CTS_DUE``: one SIFS after a Wi-Fi window closes, the CTS-to-self goes
  out and reserves the scheduled window, whose deterministic bursts are
  accounted (and traced) at once; the next Wi-Fi window opens when the
  NAV expires.  A window that never closes has its CTS due at infinity.
- ``BACKOFF_EXPIRY``: DIFS and the backoff have elapsed; the AP sends the
  due beacon, if any, or the largest A-MPDU whose exchange fits in the
  window.
- ``BEACON_END``: the beacon leaves the air and the next access starts.
- ``ACK_END``: the block-ACK ends the data exchange (data frame, SIFS,
  block-ACK: one event) and the next access starts.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from heapq import heappop, heappush
from itertools import count

import numpy as np

from .coex import LAA_EFFICIENCY
from .errors import ConfigError
from .params import (LAA_SLOT_US, NON_HT_PREAMBLE_US, LaaClassProfile,
                     WifiMacProfile, laa_class1, laa_rate, max_mpdus_per_burst,
                     padded_airtime_us, wifi_rate)
from .sharing import DtmSchedule, cts_airtime

DEFAULT_SEED = 12345

_NS = 1000  # ns per us


def _ns(us: float) -> int:
    return round(us * _NS)


# Event kinds, numbered in tie-break order: control traffic before data.
# Events are (time_ns, kind, seq, payload) tuples; seq is unique, so the
# queue orders by time, then kind, then push order.
CTS_DUE, BACKOFF_EXPIRY, BEACON_END, ACK_END = range(4)

# backoff counters drawn per generator call; the draws are used one per
# access in time order, so the block size never changes a counter
_DRAW_BLOCK = 1024


@dataclass(frozen=True)
class SimConfig:
    seed: int = DEFAULT_SEED
    mode: str = "dfm"                      # "dfm" or "dtm"
    bandwidth_mhz: int = 80
    wifi: WifiMacProfile = field(default_factory=WifiMacProfile)
    laa: LaaClassProfile = field(default_factory=laa_class1)
    payload_bytes: int | None = None
    t_wifi_us: float | None = None         # DTM only
    t_laa_us: float | None = None          # DTM only
    warmup_us: float = 100_000.0           # association + ARP, excluded
    measure_us: float = 10_000_000.0
    beacon_interval_us: float = 102_400.0
    beacon_bytes: int = 300
    collect_trace: bool = False

    def __post_init__(self):
        if self.mode not in ("dfm", "dtm"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        # a float or a bool would run on an integer seed's stream under its own name
        try:
            seed = -1 if isinstance(self.seed, bool) else operator.index(self.seed)
        except TypeError:
            seed = -1
        if not 0 <= seed < 2**64:
            raise ConfigError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.beacon_bytes < 0:
            raise ConfigError(f"beacon_bytes must be non-negative, got {self.beacon_bytes}")
        if self.mode == "dtm" and (self.t_wifi_us is None or self.t_laa_us is None):
            raise ConfigError("dtm mode needs t_wifi_us and t_laa_us")
        if self.mode == "dfm" and (self.t_wifi_us is not None or self.t_laa_us is not None):
            raise ConfigError("dfm mode reads no t_wifi_us or t_laa_us")
        # the event loop keeps whole-ns time and steps by the beacon interval
        # and both slots; a SIFS of 1 ns or more puts each CTS after the
        # bursts of the window before it, in time and in the trace
        for name, value, least_ns in (
                ("t_wifi_us", self.t_wifi_us, 0), ("t_laa_us", self.t_laa_us, 0),
                ("warmup_us", self.warmup_us, 0), ("measure_us", self.measure_us, 1),
                ("beacon_interval_us", self.beacon_interval_us, 1),
                ("wifi slot_us", self.wifi.slot_us, 1),
                ("wifi sifs_us", self.wifi.sifs_us, 1),
                ("laa laa_slot_us", self.laa.laa_slot_us, 1)):
            if value is not None and not (math.isfinite(value) and _ns(value) >= least_ns):
                raise ConfigError(f"{name} must be a finite duration of at least "
                                  f"{least_ns} ns, got {value}")
        if self.payload_bytes is not None:
            if self.wifi.payload_bytes not in (WifiMacProfile.payload_bytes,
                                               self.payload_bytes):
                raise ConfigError(
                    f"the payload has more than one source: payload_bytes="
                    f"{self.payload_bytes} and the wifi profile's "
                    f"{self.wifi.payload_bytes}")
            object.__setattr__(self, "wifi",
                               replace(self.wifi, payload_bytes=self.payload_bytes))


@dataclass(frozen=True)
class SimCounts:
    transmissions: int
    cts_sent: int
    beacons: int


@dataclass(frozen=True)
class SimResult:
    wifi_throughput_mbps: float
    laa_airtime_throughput_mbps: float
    counts: SimCounts
    seed: int
    measure_us: float
    nav_total_us: float = 0.0
    wifi_window_us: float = 0.0
    trace: tuple[str, ...] | None = None

    def to_dict(self) -> dict:
        return {"wifi_throughput_mbps": self.wifi_throughput_mbps,
                "laa_airtime_throughput_mbps": self.laa_airtime_throughput_mbps,
                "transmissions": self.counts.transmissions,
                "cts_sent": self.counts.cts_sent,
                "beacons": self.counts.beacons,
                # no exchange outlasts its window; the key stays because
                # the CLI's JSON record and every digest over it carry it
                "window_overruns": 0,
                "nav_total_us": self.nav_total_us,
                "wifi_window_us": self.wifi_window_us,
                "measure_us": self.measure_us,
                "seed": self.seed}


def laa_burst_layout(t_laa_us: float, txop_us: float,
                     laa_slot_us: float = LAA_SLOT_US,
                     until_us: float = math.inf) -> list[tuple[int, int]]:
    """Deterministic packing of scheduled bursts into a window.

    Bursts are whole slots, at most one TXOP long, with one slot misused
    between consecutive bursts.  Returns (offset_ns, duration_ns) pairs,
    leaving out bursts at offsets of ``until_us`` or more.
    """
    window = _ns(t_laa_us)
    txop = _ns(txop_us)
    slot = _ns(laa_slot_us)
    out = []
    pos = 0
    while window - pos >= slot and pos < until_us * _NS:
        burst = min(txop, (window - pos) // slot * slot)
        out.append((pos, burst))
        pos += burst + slot
    return out


class _Simulation:
    """Sequential event loop for one run; see module docstring for the model."""

    def __init__(self, config: SimConfig):
        self.cfg = config
        w = config.wifi
        self.wifi = w
        self.rate = wifi_rate(config.bandwidth_mhz)
        self.laa_rate = laa_rate(config.bandwidth_mhz)
        self.n_full = max_mpdus_per_burst(w, self.rate, w.max_ppdu_us)

        self.difs_ns = _ns(w.difs_us)
        self.sifs_ns = _ns(w.sifs_us)
        self.slot_ns = _ns(w.slot_us)
        self.ba_air_ns = _ns(padded_airtime_us(w.block_ack_bytes * 8, w.basic_rate_mbps))
        self.cts_air_ns = _ns(cts_airtime(w.basic_rate_mbps))
        # beacons go out at the basic rate behind a non-HT preamble
        self.beacon_air_ns = _ns(NON_HT_PREAMBLE_US + padded_airtime_us(
            config.beacon_bytes * 8, w.basic_rate_mbps))
        # indexed by MPDU count; non-decreasing, so a fit can bisect
        self.data_air_ns = [_ns(w.phy_header_us
                                + padded_airtime_us(n * w.subframe_bytes * 8,
                                                    self.rate))
                            for n in range(self.n_full + 1)]
        self.exchange_ns = [d + self.sifs_ns + self.ba_air_ns
                            for d in self.data_air_ns]
        self.mpdu_bits = w.payload_bytes * 8

        # a uint64 key keeps every seed in [0, 2**64) on its own stream
        self.rng = np.random.Generator(np.random.Philox(
            key=np.array([config.seed, 0], dtype=np.uint64)))
        self.draws: list[int] = []        # unused backoff counters, last first

        self.m0 = _ns(config.warmup_us)
        self.m1 = self.m0 + _ns(config.measure_us)
        dtm = config.mode == "dtm"
        # with no scheduled window, Wi-Fi holds one window that never closes
        self.t_wifi_ns = (_ns(config.t_wifi_us) if dtm and config.t_laa_us > 0
                          else math.inf)
        self.t_laa_ns = _ns(config.t_laa_us) if dtm else 0
        # every scheduled window has the same length, hence the same layout
        # and the same CTS count; a scheduled window starts after m0, so a
        # burst at an offset of measure_us or more starts after m1
        self.laa_bursts = laa_burst_layout(self.t_laa_ns / _NS,
                                           config.laa.txop_shared_us,
                                           config.laa.laa_slot_us,
                                           config.measure_us)
        # the schedule refuses windows that both round to 0 ns
        self.cts_per_window = (DtmSchedule(_ns(config.t_wifi_us) / _NS,
                                           self.t_laa_ns / _NS).reservations
                               if dtm else 0)
        self.beacon_interval_ns = _ns(config.beacon_interval_us)
        self.beacon_due = self.beacon_interval_ns

        self.heap: list[tuple] = []
        self._seq = count()
        self.counter: int | None = None
        self.bits = 0
        self.laa_airtime_ns = 0
        self.nav_total_ns = 0
        self.window_ns = 0
        self.tx = self.cts = self.beacons = 0
        self.tracing = config.collect_trace
        self.trace: list[str] = []

    # -- plumbing ----------------------------------------------------------

    # the per-exchange handlers push with heappush directly and test
    # self.tracing before calling _log, which saves a call on each event
    def _push(self, time_ns: int, kind: int):
        heappush(self.heap, (time_ns, kind, next(self._seq), ()))

    def _log(self, t_ns: int, node: str, kind: str, dur_ns: int, outcome: str):
        if self.tracing:
            self.trace.append(f"{t_ns / _NS:.3f}\t{node}\t{kind}\t"
                              f"{dur_ns / _NS:.3f}\t{outcome}")

    # -- handlers ----------------------------------------------------------

    def _start_access(self, t_ns: int):
        if self.counter is None:
            if not self.draws:
                self.draws = self.rng.integers(0, self.wifi.cw_min,
                                               size=_DRAW_BLOCK).tolist()[::-1]
            self.counter = self.draws.pop()
        ready = t_ns + self.difs_ns + self.counter * self.slot_ns
        if ready >= self.window_end:
            usable = max(0, (self.window_end - t_ns - self.difs_ns) // self.slot_ns)
            self.counter -= min(self.counter, usable)
            return
        heappush(self.heap, (ready, BACKOFF_EXPIRY, next(self._seq), ()))

    def _on_backoff_expiry(self, t_ns: int, payload: tuple):
        self.counter = None
        room = self.window_end - t_ns
        if t_ns >= self.beacon_due:
            if self.beacon_air_ns <= room:
                self._push(t_ns + self.beacon_air_ns, BEACON_END)
            else:
                self.counter = 0
            return
        # the largest MPDU count whose exchange fits, or 0
        n = bisect_right(self.exchange_ns, room, 1) - 1
        if n == 0:
            self.counter = 0
            return
        # nothing else is logged while the data frame is on the air, so
        # logging it now keeps the trace order; like every line, it is
        # kept only if the frame ends by the end of the measurement
        if self.tracing and t_ns + self.data_air_ns[n] <= self.m1:
            self._log(t_ns, "ap", "data", self.data_air_ns[n], "ok")
        heappush(self.heap, (t_ns + self.exchange_ns[n], ACK_END,
                             next(self._seq), (n,)))

    def _on_beacon_end(self, t_ns: int, payload: tuple):
        self.beacons += 1
        self.beacon_due = (t_ns // self.beacon_interval_ns + 1) * self.beacon_interval_ns
        self._log(t_ns - self.beacon_air_ns, "ap", "beacon", self.beacon_air_ns, "ok")
        self._start_access(t_ns)

    def _on_ack_end(self, t_ns: int, payload: tuple):
        n = payload[0]
        self.tx += 1
        if self.m0 <= t_ns <= self.m1:
            self.bits += n * self.mpdu_bits
        if self.tracing:
            self._log(t_ns - self.ba_air_ns, "sta", "block-ack", self.ba_air_ns, "ok")
        self._start_access(t_ns)

    def _begin_wifi_window(self, t_ns: int):
        self.window_end = t_ns + self.t_wifi_ns
        lo, hi = max(t_ns, self.m0), min(self.window_end, self.m1)
        self.window_ns += max(0, hi - lo)
        # every exchange and beacon ends by the window end, so the CTS goes
        # out one SIFS after it
        self._push(self.window_end + self.sifs_ns, CTS_DUE)
        self._start_access(t_ns)

    def _on_cts_due(self, t_ns: int, payload: tuple):
        self._log(t_ns, "ap", "cts", self.cts_air_ns, "ok")
        self.cts += self.cts_per_window
        laa_start = t_ns + self.cts_air_ns
        self.nav_total_ns += self.t_laa_ns
        for offset, dur in self.laa_bursts:
            start = laa_start + offset
            # scheduled bursts are deterministic once reserved, so account
            # the measured share now; nothing else is logged before the NAV
            # expires, so logging each burst now keeps the trace order
            lo, hi = max(start, self.m0), min(start + dur, self.m1)
            self.laa_airtime_ns += max(0, hi - lo)
            if self.tracing and start + dur <= self.m1:
                self._log(start, "enb", "laa-burst", dur, "ok")
        # no event falls due under the NAV, so the next window can open now
        self._begin_wifi_window(laa_start + self.t_laa_ns)

    # -- top level ----------------------------------------------------------

    def _warmup_frames(self):
        for t_us, node, kind, dur_us in ((5000, "sta", "assoc-req", 60),
                                         (5100, "ap", "assoc-resp", 60),
                                         (10000, "sta", "arp", 50),
                                         (10100, "ap", "arp", 50)):
            if _ns(t_us) < self.m0:
                self._log(_ns(t_us), node, kind, _ns(dur_us), "ok")

    def run(self) -> SimResult:
        self._warmup_frames()
        self._begin_wifi_window(self.m0)

        # indexed by event kind, in the order of the kind constants
        handlers = (self._on_cts_due, self._on_backoff_expiry,
                    self._on_beacon_end, self._on_ack_end)
        while self.heap:
            t_ns, kind, _, payload = heappop(self.heap)
            if t_ns > self.m1:
                break
            handlers[kind](t_ns, payload)

        measure_us = self.cfg.measure_us
        return SimResult(
            wifi_throughput_mbps=self.bits / measure_us,
            laa_airtime_throughput_mbps=LAA_EFFICIENCY * self.laa_rate
            * (self.laa_airtime_ns / _NS) / measure_us,
            counts=SimCounts(self.tx, self.cts, self.beacons),
            seed=self.cfg.seed,
            measure_us=measure_us,
            nav_total_us=self.nav_total_ns / _NS,
            wifi_window_us=self.window_ns / _NS,
            trace=tuple(self.trace) if self.tracing else None,
        )


def run_simulation(config: SimConfig) -> SimResult:
    """Run one seeded simulation in the config's mode: saturated downlink on
    an exclusively allocated bandwidth (DFM), or alternating Wi-Fi and
    scheduled windows with CTS-to-self handovers (DTM)."""
    return _Simulation(config).run()
