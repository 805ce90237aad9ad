import hashlib
import json
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import make_scenario
from coexcap.coex import LAA_EFFICIENCY, capacity_no_coex
from coexcap.errors import ConfigError, InvalidWindowError
from coexcap.params import DEFAULT_RATE_TABLE, WifiMacProfile, laa_class4
from coexcap.sharing import cts_downtime
from coexcap import sim
from coexcap.sim import SimConfig, _Simulation, laa_burst_layout, run_simulation

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
               dict(laa=replace(laa_class4(), laa_slot_us=1e-4))):
        with pytest.raises(ConfigError):
            SimConfig(**kw)


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
    assert result.counts.window_overruns == 0


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


def test_windows_below_one_ns_rejected():
    # both windows round to 0 ns, so no schedule exists to reserve
    with pytest.raises(InvalidWindowError):
        run_simulation(dtm_config(t_wifi_us=0.0, t_laa_us=1e-4))


def test_dtm_window_airtime_share():
    cfg = dtm_config(measure_us=10_000_000.0)
    result = run_simulation(cfg)
    expected = 5000.0 / (5000.0 + 5000.0 + cts_downtime(6.0))
    assert result.wifi_window_us / result.measure_us == pytest.approx(expected,
                                                                      rel=0.01)
    assert result.counts.window_overruns == 0


def test_nav_accounting():
    result = run_simulation(dtm_config())
    # every reservation silences exactly one scheduled window
    assert result.nav_total_us == pytest.approx(result.counts.cts_sent * 5000.0,
                                                abs=result.counts.cts_sent * 9.0)


def test_long_reservations_are_chained():
    result = run_simulation(dtm_config(t_wifi_us=5000.0, t_laa_us=40_000.0))
    cycles = result.nav_total_us / 40_000.0
    assert result.counts.cts_sent == pytest.approx(2 * cycles, abs=1e-9)


def test_overrun_hook_counts_and_delays_cts(monkeypatch):
    plain = run_simulation(dtm_config(collect_trace=True))
    on_window_boundary = _Simulation._on_window_boundary
    boundaries = []

    def delayed_first_ack(self, t_ns, payload):
        # fake an uplink overrun: the first window's last exchange ends
        # 100 us after the boundary
        if not boundaries:
            self.busy_until = t_ns + 100_000
        boundaries.append(t_ns)
        on_window_boundary(self, t_ns, payload)

    monkeypatch.setattr(_Simulation, "_on_window_boundary", delayed_first_ack)
    bumped = run_simulation(dtm_config(collect_trace=True))
    assert plain.counts.window_overruns == 0
    assert bumped.counts.window_overruns == 1
    assert bumped.counts.window_overruns <= bumped.counts.cts_sent
    first_cts_plain = next(l for l in plain.trace if "\tcts\t" in l)
    first_cts_bumped = next(l for l in bumped.trace if "\tcts\t" in l)
    t_plain = float(first_cts_plain.split("\t")[0])
    t_bumped = float(first_cts_bumped.split("\t")[0])
    assert t_bumped == pytest.approx(t_plain + 100.0, abs=1e-6)


def test_laa_burst_layout_examples():
    txop = 2000.0
    assert laa_burst_layout(400.0, txop) == []
    two = laa_burst_layout(2 * txop + 500.0, txop)
    assert [d for _, d in two] == [2_000_000, 2_000_000]
    assert two[1][0] == 2_500_000
    partial = laa_burst_layout(1666.667, txop)
    assert [d for _, d in partial] == [1_500_000]


def test_laa_window_airtime_matches_simulation():
    cfg = dtm_config(measure_us=10_000_000.0)
    result = run_simulation(cfg)
    period = 5000.0 + 5000.0 + cts_downtime(6.0)
    airtime_ns = sum(d for _, d in laa_burst_layout(
        5000.0, cfg.laa.txop_shared_us, cfg.laa.laa_slot_us))
    expected = (LAA_EFFICIENCY * DEFAULT_RATE_TABLE.laa_rate(80)
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
# and traces to the bit, so a refactor of the event loop cannot drift
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
    # cw_min 1 draws no backoff, so the second exchange starts at a known time
    lone = SimConfig(wifi=WifiMacProfile(cw_min=1), warmup_us=0.0, collect_trace=True)
    sim = _Simulation(lone)
    second = 2 * sim.difs_ns + sim.exchange_ns[sim.n_full]
    for offset in (0, sim.data_air_ns[sim.n_full],
                   sim.exchange_ns[sim.n_full] - sim.ba_air_ns,
                   sim.exchange_ns[sim.n_full]):
        yield replace(lone, measure_us=(second + offset) / 1000)


def test_edge_digest():
    digest = hashlib.sha256()
    for cfg in edge_configs():
        result = run_simulation(cfg)
        digest.update(json.dumps(result.to_dict(), sort_keys=True).encode())
        digest.update("\n".join(result.trace).encode())
    assert digest.hexdigest() == EDGE_DIGEST


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
