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
sits slightly below the analytical capacity.  The clock is integer
nanoseconds; identical configurations (including the seed) produce
identical results and traces.

A run is one loop over channel accesses.  Each pass starts when the
channel falls idle at ``t`` and takes a backoff counter (a fresh draw, or
the one carried over a handover): the AP is ready at
``t + DIFS + counter * slot``.  Ready before the window closes, it sends
the due beacon, if any, or the largest A-MPDU whose exchange (data frame,
SIFS, block-ACK) fits in the window, and the next pass starts when that
frame ends.  Otherwise it carries the counter less the slots it counted
down, or 0 when nothing fits, and one SIFS after the window closes the
CTS-to-self goes out: the scheduled window's deterministic bursts are
accounted (and traced) at once, and the next Wi-Fi window opens when the
NAV expires.  Every frame ends by the close of its window, so the passes
run in time order.  An exchange's bits count when it ends inside the
measurement ``[m0, m1]``; the run stops at the first instant the loop
reaches after ``m1``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace

from .coex import LAA_EFFICIENCY
from .errors import ConfigError
from .params import (LAA_SLOT_US, NON_HT_PREAMBLE_US, LaaClassProfile,
                     WifiMacProfile, full_burst_mpdus, laa_class1, laa_rate,
                     padded_airtime_us, wifi_rate)
from .sharing import DtmSchedule, cts_airtime

DEFAULT_SEED = 12345

_NS = 1000  # ns per us


def _ns(us: float) -> int:
    return round(us * _NS)


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
        # the access loop keeps whole-ns time and steps by the beacon interval
        # and both slots; a SIFS of 1 ns or more puts each CTS after the
        # bursts of the window before it, in time and in the trace
        for name, value, least_ns in (
                ("t_wifi_us", self.t_wifi_us, 0), ("t_laa_us", self.t_laa_us, 0),
                ("warmup_us", self.warmup_us, 0), ("measure_us", self.measure_us, 1),
                ("beacon_interval_us", self.beacon_interval_us, 1),
                ("wifi slot_us", self.wifi.slot_us, 1),
                ("wifi sifs_us", self.wifi.sifs_us, 1),
                ("laa laa_slot_us", self.laa.laa_slot_us, 1)):
            if value is not None and not (math.isfinite(value * _NS)
                                          and _ns(value) >= least_ns):
                raise ConfigError(f"{name} must be a finite duration of at least "
                                  f"{least_ns} ns, got {value}")
        # the schedule refuses DTM windows that both round to 0 ns
        if self.mode == "dtm":
            DtmSchedule(_ns(self.t_wifi_us) / _NS, _ns(self.t_laa_us) / _NS)
        if self.payload_bytes is not None:
            if self.wifi.payload_bytes not in (WifiMacProfile.payload_bytes,
                                               self.payload_bytes):
                raise ConfigError(
                    f"the payload has more than one source: payload_bytes="
                    f"{self.payload_bytes} and the wifi profile's "
                    f"{self.wifi.payload_bytes}")
            object.__setattr__(self, "wifi",
                               replace(self.wifi, payload_bytes=self.payload_bytes))
        full_burst_mpdus(self.wifi, self.bandwidth_mhz)


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


def run_simulation(config: SimConfig) -> SimResult:
    """Run one seeded simulation in the config's mode: saturated downlink on
    an exclusively allocated bandwidth (DFM), or alternating Wi-Fi and
    scheduled windows with CTS-to-self handovers (DTM)."""
    w = config.wifi
    rate = wifi_rate(config.bandwidth_mhz)
    laa_rate_mbps = laa_rate(config.bandwidth_mhz)
    n_full = full_burst_mpdus(w, config.bandwidth_mhz)

    difs, sifs, slot = _ns(w.difs_us), _ns(w.sifs_us), _ns(w.slot_us)
    ba_air = _ns(padded_airtime_us(w.block_ack_bytes * 8, w.basic_rate_mbps))
    cts_air = _ns(cts_airtime(w.basic_rate_mbps))
    # beacons go out at the basic rate behind a non-HT preamble
    beacon_air = _ns(NON_HT_PREAMBLE_US + padded_airtime_us(
        config.beacon_bytes * 8, w.basic_rate_mbps))
    # indexed by MPDU count; non-decreasing, so a fit can bisect
    data_air = [_ns(w.phy_header_us + padded_airtime_us(n * w.subframe_bytes * 8, rate))
                for n in range(n_full + 1)]
    exchange = [d + sifs + ba_air for d in data_air]
    cw_min, mpdu_bits = w.cw_min, w.payload_bytes * 8

    # imported here, so that the analytical commands never load numpy;
    # a uint64 key keeps every seed in [0, 2**64) on its own stream
    import numpy as np
    rng = np.random.Generator(np.random.Philox(
        key=np.array([config.seed, 0], dtype=np.uint64)))

    m0 = _ns(config.warmup_us)
    m1 = m0 + _ns(config.measure_us)
    dtm = config.mode == "dtm"
    t_laa = _ns(config.t_laa_us) if dtm else 0
    # with no scheduled window, Wi-Fi holds one window that never
    # closes; a window that rounds to 0 ns is no window
    t_wifi = _ns(config.t_wifi_us) if t_laa > 0 else math.inf
    # every scheduled window has the same length, hence the same layout
    # and the same CTS count; a scheduled window starts after m0, so a
    # burst at an offset of measure_us or more starts after m1
    laa_bursts = laa_burst_layout(t_laa / _NS, config.laa.txop_shared_us,
                                  config.laa.laa_slot_us, config.measure_us)
    cts_per_window = (DtmSchedule(_ns(config.t_wifi_us) / _NS, t_laa / _NS).reservations
                      if dtm else 0)
    interval = _ns(config.beacon_interval_us)

    tracing = config.collect_trace
    trace: list[str] = []

    def log(t_ns: int, node: str, kind: str, dur_ns: int):
        trace.append(f"{t_ns / _NS:.3f}\t{node}\t{kind}\t{dur_ns / _NS:.3f}\tok")

    if tracing:
        for t_us, node, kind, dur_us in ((5000, "sta", "assoc-req", 60),
                                         (5100, "ap", "assoc-resp", 60),
                                         (10000, "sta", "arp", 50),
                                         (10100, "ap", "arp", 50)):
            if _ns(t_us) < m0:
                log(_ns(t_us), node, kind, _ns(dur_us))

    draws: list[int] = []             # unused backoff counters, last first
    counter = None                    # carried across a handover, if set
    beacon_due = interval
    bits = tx = beacons = handovers = 0
    laa_airtime = window = 0

    # each pass is one access from t: the AP sends in its window, or
    # carries its counter to the handover one SIFS after the window
    # closes; every frame ends by the close, so the passes run in time
    # order, and the run stops at the first instant after m1
    t = m0
    window_end = t + t_wifi
    window += max(0, min(window_end, m1) - t)
    while True:
        if counter is None:
            if not draws:
                draws = rng.integers(0, cw_min, size=_DRAW_BLOCK).tolist()[::-1]
            counter = draws.pop()
        ready = t + difs + counter * slot
        if ready < window_end:
            if ready > m1:
                break
            counter = None
            room = window_end - ready
            if ready >= beacon_due:
                if beacon_air <= room:
                    t = ready + beacon_air
                    if t > m1:
                        break
                    beacons += 1
                    # dues that fell while it waited or was on the air fold into it
                    beacon_due = (t // interval + 1) * interval
                    if tracing:
                        log(ready, "ap", "beacon", beacon_air)
                    continue
            else:
                # the largest MPDU count whose exchange fits, or 0
                n = bisect_right(exchange, room, 1) - 1
                if n:
                    # like every line, the data line is kept only if
                    # the frame ends by the end of the measurement
                    if tracing and ready + data_air[n] <= m1:
                        log(ready, "ap", "data", data_air[n])
                    t = ready + exchange[n]
                    if t > m1:
                        break
                    # every exchange ends after m0, and this one ends
                    # by m1: it ends in [m0, m1], so its bits count
                    tx += 1
                    bits += n * mpdu_bits
                    if tracing:
                        log(t - ba_air, "sta", "block-ack", ba_air)
                    continue
            counter = 0
        else:
            counter -= min(counter, max(0, (window_end - t - difs) // slot))

        # the handover: the CTS-to-self reserves the scheduled window,
        # whose deterministic bursts are accounted (and logged) at once,
        # and the next Wi-Fi window opens when the NAV expires
        t = window_end + sifs
        if t > m1:
            break
        if tracing:
            log(t, "ap", "cts", cts_air)
        handovers += 1
        laa_start = t + cts_air
        for offset, dur in laa_bursts:
            start = laa_start + offset
            laa_airtime += max(0, min(start + dur, m1) - start)
            if tracing and start + dur <= m1:
                log(start, "enb", "laa-burst", dur)
        t = laa_start + t_laa
        window_end = t + t_wifi
        window += max(0, min(window_end, m1) - t)

    measure_us = config.measure_us
    return SimResult(
        wifi_throughput_mbps=bits / measure_us,
        laa_airtime_throughput_mbps=LAA_EFFICIENCY * laa_rate_mbps
        * (laa_airtime / _NS) / measure_us,
        counts=SimCounts(tx, handovers * cts_per_window, beacons),
        seed=config.seed,
        measure_us=measure_us,
        nav_total_us=handovers * t_laa / _NS,
        wifi_window_us=window / _NS,
        trace=tuple(trace) if tracing else None,
    )
