import hashlib
import json
import math
import tracemalloc
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import make_scenario
from coexcap.coex import LAA_EFFICIENCY, capacity_no_coex
from coexcap.errors import ConfigError, EmptyBurstError, InvalidWindowError
from coexcap.params import WifiMacProfile, laa_class4, laa_rate, wifi_default
from coexcap.sharing import MAX_CTS_RESERVATION_US, cts_airtime, cts_downtime
from coexcap import sim
from coexcap.sim import SimConfig, laa_burst_layout, run_simulation

SHORT = 1_000_000.0   # 1 s measurement keeps unit tests quick


def dfm_config(**kw):
    base = dict(seed=3, mode="dfm", bandwidth_mhz=80, measure_us=SHORT)
    base.update(kw)
    return SimConfig(**base)


def dtm_config(**kw):
    base = dict(seed=3, mode="dtm", bandwidth_mhz=80, t_wifi_us=5000.0,
                t_laa_us=5000.0, measure_us=SHORT)
    base.update(kw)
    return SimConfig(**base)


def test_config_validation():
    for kw in (dict(mode="tdma"),
               dict(mode="dtm"),                        # windows missing
               dict(t_wifi_us=5000.0),                  # dfm reads no window
               dict(t_laa_us=5000.0),
               dict(seed=1.5),                          # would run on seed 1
               dict(seed=True),
               dict(seed="3"),
               dict(seed=-1),
               dict(seed=2**64),
               dict(measure_us=0.0),
               dict(mode="dtm", t_wifi_us=5000.0, t_laa_us=-1.0),
               dict(mode="dtm", t_wifi_us=-1.0, t_laa_us=5000.0),
               dict(mode="dtm", t_wifi_us=5000.0, t_laa_us=float("nan")),
               dict(mode="dtm", t_wifi_us=float("inf"), t_laa_us=5000.0),
               dict(beacon_interval_us=0.0),
               dict(beacon_interval_us=-102_400.0),
               dict(beacon_interval_us=1e-4),           # rounds to 0 ns
               dict(beacon_interval_us=float("inf")),
               dict(warmup_us=float("nan")),
               dict(measure_us=float("inf")),
               dict(measure_us=1e308),                  # infinite in ns
               dict(laa=replace(laa_class4(), laa_slot_us=1e-4)),
               # two payload sources that disagree
               dict(wifi=replace(wifi_default(), payload_bytes=9000),
                    payload_bytes=1500)):
        with pytest.raises(ConfigError):
            SimConfig(**kw)
    # the default profile takes the payload, and a copy keeps it
    config = SimConfig(payload_bytes=3000)
    assert replace(config, seed=4).wifi.payload_bytes == 3000


def test_determinism_bit_identical():
    cfg = dtm_config(collect_trace=True)
    assert run_simulation(cfg) == run_simulation(cfg)
    other = run_simulation(replace(cfg, seed=4))
    assert other != run_simulation(cfg)


def test_dfm_throughput_near_but_below_analytical():
    result = run_simulation(dfm_config(measure_us=10_000_000.0))
    analytical = capacity_no_coex("wifi", make_scenario(80))
    assert result.wifi_throughput_mbps < analytical
    assert result.wifi_throughput_mbps == pytest.approx(analytical, rel=0.025)
    assert result.counts.cts_sent == 0


def test_beacon_free_run_approaches_analytical():
    # without beacon overhead the measurement converges on the analytical
    # capacity (the strict below-analytical ordering holds only with beacons)
    result = run_simulation(dfm_config(measure_us=10_000_000.0,
                                       beacon_interval_us=1e15))
    assert result.counts.beacons == 0
    analytical = capacity_no_coex("wifi", make_scenario(80))
    assert result.wifi_throughput_mbps == pytest.approx(analytical, rel=0.01)


def test_dtm_zero_laa_window_matches_dfm():
    dtm = run_simulation(dtm_config(t_laa_us=0.0))
    dfm = run_simulation(dfm_config())
    assert dtm.counts.cts_sent == 0
    assert dtm.wifi_throughput_mbps == pytest.approx(dfm.wifi_throughput_mbps,
                                                     rel=0.01)


def test_dtm_tiny_wifi_window_starves_wifi():
    result = run_simulation(dtm_config(t_wifi_us=50.0))
    assert result.wifi_throughput_mbps == 0.0
    assert result.laa_airtime_throughput_mbps > 0.0


@pytest.mark.parametrize("mode", ["dfm", "dtm"])
def test_config_refuses_a_payload_no_burst_carries(mode):
    # run, such a config would send nothing and report 0 Mbps
    windows = dict(t_wifi_us=5000.0, t_laa_us=5000.0) if mode == "dtm" else {}
    with pytest.raises(EmptyBurstError, match="no 99999999 B MPDU fits"):
        SimConfig(mode=mode, payload_bytes=99_999_999, measure_us=SHORT, **windows)
    with pytest.raises(EmptyBurstError):
        SimConfig(mode=mode, wifi=replace(wifi_default(), max_ppdu_us=40.0), **windows)


def test_windows_below_one_ns_rejected():
    # both windows round to 0 ns, so no schedule exists to reserve: the
    # config is refused when it is built, not when it runs
    for t_wifi_us, t_laa_us in ((0.0, 4e-4), (0.0, 1e-4), (0.0, 0.0), (1e-4, 0.0)):
        with pytest.raises(InvalidWindowError, match="at least one window"):
            SimConfig(mode="dtm", t_wifi_us=t_wifi_us, t_laa_us=t_laa_us)
    # a 0 ns SIFS would send the CTS in the instant the last burst ends
    with pytest.raises(ConfigError):
        dtm_config(t_wifi_us=0.0, wifi=replace(wifi_default(), sifs_us=4e-4))


def test_dtm_window_airtime_share():
    cfg = dtm_config(measure_us=10_000_000.0)
    result = run_simulation(cfg)
    expected = 5000.0 / (5000.0 + 5000.0 + cts_downtime(6.0))
    assert result.wifi_window_us / result.measure_us == pytest.approx(expected,
                                                                      rel=0.01)


def test_nav_accounting():
    result = run_simulation(dtm_config())
    # every reservation silences exactly one scheduled window
    assert result.nav_total_us == pytest.approx(result.counts.cts_sent * 5000.0,
                                                abs=result.counts.cts_sent * 9.0)


def test_long_reservations_are_chained():
    result = run_simulation(dtm_config(t_wifi_us=5000.0, t_laa_us=40_000.0))
    cycles = result.nav_total_us / 40_000.0
    assert result.counts.cts_sent == pytest.approx(2 * cycles, abs=1e-9)


FAST_TIMING = replace(wifi_default(), sifs_us=0.002, slot_us=0.5)


@pytest.mark.parametrize("kw", [
    dict(beacon_interval_us=1000.0),
    dict(beacon_interval_us=1000.0, wifi=FAST_TIMING),
    dict(t_wifi_us=50.0, wifi=FAST_TIMING),
    dict(t_laa_us=40_000.0, wifi=FAST_TIMING, warmup_us=0.0),
], ids=["default", "fast", "fast-50us", "fast-chained"])
def test_handover_follows_the_window(kw):
    # the CTS goes out one SIFS after its window closes, and no Wi-Fi
    # frame is still on the air then
    cfg = dtm_config(measure_us=300_000.0, collect_trace=True, **kw)
    result = run_simulation(cfg)
    cts_ns = round(cts_airtime(cfg.wifi.basic_rate_mbps) * 1000)
    assert cts_ns == 44_000
    t_wifi, t_laa, sifs = (round(us * 1000) for us in
                           (cfg.t_wifi_us, cfg.t_laa_us, cfg.wifi.sifs_us))
    opens = round(cfg.warmup_us * 1000)
    seen = Counter()
    for line in result.trace:
        t, _, kind, dur, _ = line.split("\t")
        start, end = round(float(t) * 1000), round((float(t) + float(dur)) * 1000)
        if kind == "cts":
            assert start == opens + t_wifi + sifs, line
            opens = start + cts_ns + t_laa
        elif kind in ("data", "block-ack", "beacon"):
            assert opens <= start and end <= opens + t_wifi, line
        seen[kind] += 1
    assert seen["cts"] * math.ceil(cfg.t_laa_us / MAX_CTS_RESERVATION_US) \
        == result.counts.cts_sent
    if t_wifi > 50_000:
        assert all(seen[kind] for kind in ("cts", "data", "block-ack", "beacon"))


@pytest.mark.parametrize("cfg, beacons", [
    (dfm_config(beacon_interval_us=1000.0, measure_us=200_000.0), 85),
    (dtm_config(t_wifi_us=50.0), 0),
    (dtm_config(t_wifi_us=2500.0, t_laa_us=40_000.0, beacon_interval_us=700.0,
                measure_us=300_000.0), 10),
    (dtm_config(beacon_interval_us=1000.0, wifi=FAST_TIMING), 202),
    # 34 us is one DIFS and half a 33-byte beacon: with no backoff, dues
    # fall at the instant an access ends its DIFS or a beacon ends
    (dtm_config(t_wifi_us=2000.0, t_laa_us=1000.0, warmup_us=0.0,
                measure_us=20_000.0, wifi=WifiMacProfile(cw_min=1),
                beacon_bytes=33, beacon_interval_us=34.0), 130),
], ids=["dfm-1ms", "dtm-50us", "dtm-chained-700us", "fast-1ms", "ties"])
def test_beacon_takes_the_first_access_after_it_falls_due(cfg, beacons):
    # a beacon falls due at each multiple of the interval; dues that fall
    # while one waits or is on the air fold into it, so the next beacon is
    # due at the first multiple after the last one ends, and no data frame
    # starts between its due time and its start
    interval = round(cfg.beacon_interval_us * 1000)
    result = run_simulation(replace(cfg, collect_trace=True))
    sent, data = [], []
    for line in result.trace:
        t, _, kind, dur, _ = line.split("\t")
        start = round(float(t) * 1000)
        if kind == "beacon":
            sent.append((start, start + round(float(dur) * 1000)))
        elif kind == "data":
            data.append(start)
    data.sort()
    assert len(sent) == result.counts.beacons == beacons
    last_end = 0
    for start, end in sent:
        due = (last_end // interval + 1) * interval
        assert due <= start, (due, start)
        assert bisect_left(data, due) == bisect_left(data, start), (due, start)
        last_end = end


def test_laa_burst_layout_examples():
    txop = 2000.0
    assert laa_burst_layout(400.0, txop) == []
    two = laa_burst_layout(2 * txop + 500.0, txop)
    assert [d for _, d in two] == [2_000_000, 2_000_000]
    assert two[1][0] == 2_500_000
    partial = laa_burst_layout(1666.667, txop)
    assert [d for _, d in partial] == [1_500_000]


def test_laa_burst_layout_stops_at_the_horizon():
    txop = 2000.0
    whole = laa_burst_layout(2 * txop + 500.0, txop)
    assert laa_burst_layout(2 * txop + 500.0, txop, until_us=2500.0) == whole[:1]
    assert laa_burst_layout(2 * txop + 500.0, txop, until_us=2500.001) == whole


def test_long_scheduled_window_lays_out_only_the_measurement():
    # a 1000 s window measured for 1 ms: only bursts that start inside the
    # measurement are laid out, so memory stays flat in the window length
    cfg = SimConfig(mode="dtm", bandwidth_mhz=80, t_wifi_us=5000.0, t_laa_us=1e9,
                    measure_us=1000.0, warmup_us=0.0)
    tracemalloc.start()
    try:
        result = run_simulation(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, peak
    assert result.laa_airtime_throughput_mbps == 0.0


def test_laa_window_airtime_matches_simulation():
    cfg = dtm_config(measure_us=10_000_000.0)
    result = run_simulation(cfg)
    period = 5000.0 + 5000.0 + cts_downtime(6.0)
    airtime_ns = sum(d for _, d in laa_burst_layout(
        5000.0, cfg.laa.txop_shared_us, cfg.laa.laa_slot_us))
    expected = (LAA_EFFICIENCY * laa_rate(80)
                * (airtime_ns / 1000) / period)
    assert result.laa_airtime_throughput_mbps == pytest.approx(expected, rel=0.01)


def test_laa_airtime_scales_with_class(laa4):
    slow = run_simulation(dtm_config(t_laa_us=15_000.0))
    fast = run_simulation(dtm_config(t_laa_us=15_000.0, laa=laa4))
    # class 4's 10 ms burst bound wastes fewer inter-burst slots
    assert fast.laa_airtime_throughput_mbps > slow.laa_airtime_throughput_mbps


def test_trace_format_and_mutual_exclusion():
    cfg = dtm_config(collect_trace=True)
    result = run_simulation(cfg)
    assert result.trace
    wifi_frames = []
    laa_bursts = []
    for line in result.trace:
        t, node, kind, dur, outcome = line.split("\t")
        start, length = float(t), float(dur)
        assert outcome == "ok"
        if kind in ("data", "block-ack", "cts", "beacon"):
            wifi_frames.append((start, start + length))
        elif kind == "laa-burst":
            laa_bursts.append((start, start + length))
    assert wifi_frames and laa_bursts
    for ws, we in wifi_frames:
        for ls, le in laa_bursts:
            assert we <= ls + 1e-9 or ws >= le - 1e-9, (ws, we, ls, le)


def test_laa_bursts_confined_to_windows():
    cfg = dtm_config(collect_trace=True)
    result = run_simulation(cfg)
    cts_lines = [l for l in result.trace if "\tcts\t" in l]
    windows = []
    for line in cts_lines:
        t, _, _, dur, _ = line.split("\t")
        start = float(t) + float(dur)
        windows.append((start, start + 5000.0))
    for line in result.trace:
        if "\tlaa-burst\t" in line:
            t, _, _, dur, _ = line.split("\t")
            s, e = float(t), float(t) + float(dur)
            assert any(ws - 1e-9 <= s and e <= we + 1e-9 for ws, we in windows)


def test_result_serialization_round_trip():
    result = run_simulation(dfm_config())
    record = result.to_dict()
    assert record["seed"] == 3
    assert record["wifi_throughput_mbps"] == result.wifi_throughput_mbps
    assert record["beacons"] == result.counts.beacons


# sha256 over every golden config's result record and trace; pins results
# and traces to the bit, so a refactor of the access loop cannot drift
GOLDEN_DIGEST = "df641252c62e0463902d2514e60350d6c7100244d7be176583f157848fcbfe63"


def golden_configs():
    config = partial(SimConfig, measure_us=2e6)
    for bw in (20, 40, 80, 160):
        yield config(seed=7, mode="dfm", bandwidth_mhz=bw, collect_trace=True)
        for t_wifi, t_laa in ((1200, 3600), (5000, 5000), (2000, 40000),
                              (50, 5000)):
            yield config(seed=11, mode="dtm", bandwidth_mhz=bw,
                         t_wifi_us=t_wifi, t_laa_us=t_laa, collect_trace=True)
        yield config(seed=5, mode="dtm", bandwidth_mhz=bw, laa=laa_class4(),
                     payload_bytes=15000, t_wifi_us=3000, t_laa_us=9000,
                     collect_trace=True)
        yield config(seed=5, mode="dtm", bandwidth_mhz=bw,
                     t_wifi_us=3000, t_laa_us=0)


def test_golden_digest():
    digest = hashlib.sha256()
    for cfg in golden_configs():
        result = run_simulation(cfg)
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        digest.update("\n".join(result.trace or ()).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def frames(cfg):
    """{kind: [(start, duration)]} in ns over the first 20 ms of a traced
    run of ``cfg``, starts counted from the start of the measurement."""
    result = run_simulation(replace(cfg, measure_us=20_000.0, collect_trace=True))
    m0 = round(cfg.warmup_us * 1000)
    out = {}
    for line in result.trace:
        t, _, kind, dur, _ = line.split("\t")
        out.setdefault(kind, []).append((round(float(t) * 1000) - m0,
                                         round(float(dur) * 1000)))
    return out


# sha256 over short traced runs that the golden configs miss: the extreme
# contention windows, no warm-up, 50 us and empty windows, frequent
# beacons, bursts of at most 3 MPDUs, and measurement ends spread 37.3 us
# apart so that the end falls inside a data frame, inside its SIFS +
# block-ACK and inside a backoff.  The last four runs end exactly at the
# second exchange's backoff expiry, data end, ACK start and ACK end.
EDGE_DIGEST = "b7f1cb0b39c5e2c6feac68173144f9d354dbe8d891311ceb0181e171dadf9e36"


def edge_configs():
    windows = ((None, None), (50, 5000), (5000, 50), (50, 50), (3000, 0))
    for k in range(200):
        t_wifi, t_laa = windows[k % 5]
        yield SimConfig(seed=k, mode="dfm" if t_wifi is None else "dtm",
                        bandwidth_mhz=(20, 40, 80, 160)[k // 50],
                        wifi=WifiMacProfile(cw_min=(16, 1, 2, 1024)[k % 4],
                                            max_mpdus=(64, 3)[k // 4 % 2]),
                        t_wifi_us=t_wifi, t_laa_us=t_laa,
                        warmup_us=(0.0, 100_000.0, 3000.0)[k % 3],
                        beacon_interval_us=(102_400.0, 1000.0)[k % 7 == 0],
                        measure_us=1000.0 + 37.3 * k, collect_trace=True)
    # cw_min 1 draws no backoff, so the second exchange starts at a known
    # time: two DIFS and one exchange in
    lone = SimConfig(wifi=WifiMacProfile(cw_min=1), warmup_us=0.0, collect_trace=True)
    seen = frames(lone)
    (first, data_air), (second, _) = seen["data"][:2]
    ack_start, ba_air = seen["block-ack"][0]
    for offset in (0, data_air, ack_start - first, ack_start + ba_air - first):
        yield replace(lone, measure_us=(second + offset) / 1000)


def test_edge_digest():
    digest = hashlib.sha256()
    for cfg in edge_configs():
        result = run_simulation(cfg)
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        digest.update("\n".join(result.trace).encode())
    assert digest.hexdigest() == EDGE_DIGEST


# sha256 over short traced DTM runs whose measurement ends exactly at, or
# 1 ns either side of, the instants where the access loop changes state: a
# CTS due time (window close + SIFS), a NAV expiry (the next window opens),
# a beacon end and a block-ACK end; plus 0 ns and 1 ns windows, and a
# beacon that never fits a 50 us window, so the AP carries a 0 counter.
LOOP_EDGE_DIGEST = "6c6a5517662e579e9675557b132f1dccb496f63ea99be2b1876a74d482926581"


def loop_edge_configs():
    # cw_min 1 draws no backoff, so the first access is ready one DIFS in
    for warmup_us in (0.0, 3000.0):
        data = SimConfig(mode="dtm", t_wifi_us=5000.0, t_laa_us=3000.0,
                         wifi=WifiMacProfile(cw_min=1), warmup_us=warmup_us,
                         collect_trace=True)
        seen = frames(data)
        difs = seen["data"][0][0]
        cts_due, cts_air = seen["cts"][0]
        nav_end = cts_due + cts_air + round(data.t_laa_us * 1000)
        ack_end = sum(seen["block-ack"][0])
        # a beacon due at the first ready time takes the first access
        beacon = replace(data, beacon_interval_us=difs / 1000)
        beacon_end = sum(frames(beacon)["beacon"][0])
        for cfg, end_ns in ((data, cts_due), (data, nav_end), (data, ack_end),
                            (data, 2 * nav_end), (beacon, beacon_end)):
            for delta in (-1, 0, 1):
                yield replace(cfg, measure_us=(end_ns + delta) / 1000)
    windows = ((0.001, 0.001), (0.001, 5000.0), (5000.0, 0.001), (0.0, 50.0),
               (50.0, 1000.0))
    for k in range(20):
        t_wifi, t_laa = windows[k % 5]
        yield SimConfig(seed=k, mode="dtm", bandwidth_mhz=(20, 80)[k % 2],
                        wifi=WifiMacProfile(cw_min=(16, 1, 2)[k % 3]),
                        t_wifi_us=t_wifi, t_laa_us=t_laa,
                        warmup_us=(0.0, 100_000.0)[k // 10],
                        beacon_interval_us=1000.0, measure_us=3000.0 + 997.0 * k,
                        collect_trace=True)


def test_loop_edge_digest():
    digest = hashlib.sha256()
    for cfg in loop_edge_configs():
        result = run_simulation(cfg)
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        digest.update("\n".join(result.trace).encode())
    assert digest.hexdigest() == LOOP_EDGE_DIGEST


SUB_NS_WINDOW = SimConfig(mode="dtm", t_wifi_us=5000, t_laa_us=0.0004,
                          measure_us=1e5, collect_trace=True)


def test_sub_ns_scheduled_window_is_no_window():
    # a scheduled window that rounds to 0 ns reserves nothing: the AP runs
    # exactly as with no scheduled window and sends no CTS-to-self
    result = run_simulation(SUB_NS_WINDOW)
    assert result == run_simulation(replace(SUB_NS_WINDOW, t_laa_us=0))
    assert result.counts.cts_sent == 0
    assert not any("\tcts\t" in line for line in result.trace)


@pytest.mark.parametrize("configs", [
    edge_configs, loop_edge_configs, lambda: [SUB_NS_WINDOW]],
    ids=["edge", "loop-edge", "sub-ns"])
def test_cts_count_matches_the_trace(configs):
    for cfg in configs():
        result = run_simulation(cfg)
        per_window = (math.ceil(cfg.t_laa_us / MAX_CTS_RESERVATION_US)
                      if cfg.mode == "dtm" else 0)
        lines = sum("\tcts\t" in line for line in result.trace)
        assert result.counts.cts_sent == per_window * lines, cfg


def test_high_seeds_have_their_own_streams():
    # seeds of 2**63 and above must not collide with each other or with 0
    runs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**63, 2**63 + 1, 2**64 - 1):
            result = run_simulation(dfm_config(seed=seed, measure_us=50_000.0,
                                               collect_trace=True))
            runs[seed] = (result.wifi_throughput_mbps, result.trace)
    assert len(set(runs.values())) == 4


@pytest.mark.parametrize("cw", [1, 2, 16, 1024])
def test_block_draws_equal_scalar_draws(cw):
    # the simulator draws backoff counters in blocks; that is exact only
    # while a block equals the same number of scalar draws
    key = np.array([9, 0], dtype=np.uint64)
    block = np.random.Generator(np.random.Philox(key=key))
    scalar = np.random.Generator(np.random.Philox(key=key))
    assert block.integers(0, cw, size=2500).tolist() == [
        int(scalar.integers(0, cw)) for _ in range(2500)]


@pytest.mark.parametrize("size", [1, 3])
def test_draw_block_size_changes_nothing(monkeypatch, size):
    # short bursts in short windows: more accesses than one default block
    cfg = dtm_config(t_wifi_us=1200.0, t_laa_us=3600.0, measure_us=2e6,
                     wifi=WifiMacProfile(max_mpdus=3), collect_trace=True)
    default = run_simulation(cfg)
    assert default.counts.transmissions > sim._DRAW_BLOCK
    monkeypatch.setattr(sim, "_DRAW_BLOCK", size)
    other = run_simulation(cfg)
    assert other.to_dict() == default.to_dict()
    assert other.trace == default.trace
