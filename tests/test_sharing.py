import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from coexcap.coex import capacity_no_coex, coexistence_throughputs
from coexcap.errors import (CoexcapError, ConfigError, InfeasiblePartitionError,
                            InvalidWindowError)
from coexcap.sharing import (DfmPartition, DtmSchedule, best_dma, cts_airtime,
                             cts_downtime, dfm_capacities, dfm_partition,
                             dtm_capacities, effective_channel_usage,
                             laa_access_time, pick_best, wifi_access_time,
                             windowed_capacity, windowed_capacity_from)
from coexcap.tables import SweepSpec
from oracles import pack_window


# ---------------------------------------------------------------------------
# downtime and usage
# ---------------------------------------------------------------------------

def test_cts_downtime_exact():
    assert cts_downtime(6.0) == 60.0
    assert cts_airtime(6.0) == 44.0


def test_cts_downtime_rate_scaling():
    # doubling the bits per symbol shrinks only the PSDU symbols (6 -> 3)
    assert cts_downtime(12.0) == 60.0 - (6 - 3) * 4.0


def test_cts_downtime_sifs_share():
    # the SIFS wait contributes a fixed 16 us at any rate
    assert cts_downtime(6.0) - cts_airtime(6.0) == 16.0


def test_effective_usage_examples():
    assert effective_channel_usage(5940.0) == 0.99
    assert effective_channel_usage(60.0) == 0.5
    assert effective_channel_usage(1e12) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidWindowError):
        effective_channel_usage(0.0)


@given(st.floats(min_value=1.0, max_value=1e8))
def test_effective_usage_increasing_and_bounded(window):
    usage = effective_channel_usage(window)
    assert 0.0 < usage < 1.0
    assert usage < effective_channel_usage(window * 1.5)


# ---------------------------------------------------------------------------
# access times
# ---------------------------------------------------------------------------

def test_access_times(wifi, laa1, laa4):
    assert wifi_access_time(wifi) == 101.5
    assert laa_access_time(laa1) == 288.5
    assert laa_access_time(laa4) == 396.5


# ---------------------------------------------------------------------------
# windowed capacity
# ---------------------------------------------------------------------------

def test_windowed_capacity_trivial_cases():
    scen = make_scenario(80)
    assert windowed_capacity("wifi", 0.0, scen) == 0.0
    assert windowed_capacity("wifi", 50.0, scen) == 0.0   # below one access
    assert windowed_capacity("laa", 100.0, scen) == 0.0


@pytest.mark.parametrize("rat", ["w", "l", "WiFi", "LAA", ""])
def test_unknown_rat_rejected(rat):
    scen = make_scenario(80)
    with pytest.raises(ValueError):
        windowed_capacity(rat, 5000.0, scen)
    with pytest.raises(ValueError):
        capacity_no_coex(rat, scen)


def test_windowed_exact_multiple_has_no_tail():
    calls = []

    def capacity(cap):
        calls.append(cap)
        return 100.0

    period = 2101.5
    value = windowed_capacity_from(3 * period, 2000.0, 101.5, capacity)
    assert value == pytest.approx(100.0, rel=1e-12)
    assert calls == [2000.0]


def test_windowed_against_packer_triples():
    # randomized (window, txop, t_cax) triples against the sequential packer
    rng = np.random.default_rng(2024)
    scen = make_scenario(80, laa_class=1)

    def laa_cap(cap):
        return capacity_no_coex("laa", scen, cap)

    for _ in range(50):
        window = rng.uniform(200.0, 30_000.0)
        txop = rng.uniform(300.0, 9_000.0)
        t_cax = rng.uniform(20.0, 500.0)
        lhs = windowed_capacity_from(window, txop, t_cax, laa_cap)
        rhs = pack_window(window, txop, t_cax, laa_cap)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.floats(min_value=150.0, max_value=50_000.0),
       st.floats(min_value=100.0, max_value=10_000.0),
       st.floats(min_value=10.0, max_value=600.0))
def test_windowed_against_packer_smooth_capacity(window, txop, t_cax):
    def smooth(cap):
        return 300.0 * cap / (cap + 750.0)

    lhs = windowed_capacity_from(window, txop, t_cax, smooth)
    rhs = pack_window(window, txop, t_cax, smooth)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# DTM
# ---------------------------------------------------------------------------

def test_dtm_schedule_properties():
    sched = DtmSchedule(5000.0, 5000.0)
    assert sched.sharing_ratio == 0.5
    assert sched.period_us == 10_060.0
    assert sched.reservations == 1
    assert DtmSchedule(5000.0, 40_000.0).reservations == 2
    with pytest.raises(InvalidWindowError):
        DtmSchedule(0.0, 0.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidWindowError):
            DtmSchedule(bad, 5000.0)
        with pytest.raises(InvalidWindowError):
            DtmSchedule(5000.0, bad)


def test_dtm_ratio_identity_exact():
    scen = make_scenario(20)
    sched = DtmSchedule(5000.0, 5000.0)
    report = dtm_capacities(sched, scen)
    c_w_windowed = windowed_capacity("wifi", 5000.0, scen)
    share = 5000.0 / 10_060.0
    assert report.c_w_mbps / c_w_windowed == pytest.approx(share, abs=1e-12)


def test_dtm_reference_points():
    report = dtm_capacities(DtmSchedule(5000.0, 5000.0), make_scenario(20))
    assert report.c_w_mbps == pytest.approx(40.08, rel=0.03)
    report = dtm_capacities(DtmSchedule(5000.0, 5000.0 / 3.0), make_scenario(160))
    assert report.c_w_mbps == pytest.approx(506.24, rel=0.03)


def test_dtm_zero_wifi_window():
    scen = make_scenario(80)
    report = dtm_capacities(DtmSchedule(0.0, 5000.0), scen)
    assert report.c_w_mbps == 0.0
    expected_l = (windowed_capacity("laa", 5000.0, scen) * 5000.0 / 5060.0)
    assert report.c_l_mbps == pytest.approx(expected_l, rel=1e-12)


# ---------------------------------------------------------------------------
# DFM
# ---------------------------------------------------------------------------

def test_dfm_partition_examples():
    part = dfm_partition(80, 0.75)
    assert part.wifi_subchannels == (40, 20)
    assert part.laa_carriers == 1
    assert part.channel_bandwidth_mhz == 80
    part = dfm_partition(160, 0.75)
    assert part.wifi_subchannels == (80, 40)
    assert part.laa_carriers == 2
    part = dfm_partition(40, 0.5)
    assert part.wifi_subchannels == (20,)
    assert part.laa_carriers == 1


def test_dfm_partition_infeasible():
    with pytest.raises(InfeasiblePartitionError):
        dfm_partition(40, 0.25)
    with pytest.raises(InfeasiblePartitionError):
        dfm_partition(20, 0.5)
    with pytest.raises(InfeasiblePartitionError):
        dfm_partition(50, 0.4)      # no whole number of 20 MHz carriers


@given(st.sampled_from([40, 80, 160]), st.integers(min_value=1, max_value=7))
def test_dfm_partition_conserves_bandwidth(bw, twentieths):
    share = 20 * twentieths
    if share >= bw:
        return
    part = dfm_partition(bw, share / bw)
    assert sum(part.wifi_subchannels) + 20 * part.laa_carriers == bw


def test_dfm_capacity_reference_points():
    scen = make_scenario(160, laa_class=1)
    report = dfm_capacities(dfm_partition(160, 0.25), scen)
    assert report.c_w_mbps == pytest.approx(184.31, rel=0.01)
    assert report.c_l_mbps == pytest.approx(369.63, rel=0.01)
    scen4 = make_scenario(80, laa_class=4)
    report4 = dfm_capacities(dfm_partition(80, 0.5), scen4)
    assert report4.c_l_mbps == pytest.approx(135.60, rel=0.01)


def test_dfm_empty_laa_side():
    scen = make_scenario(40, laa_class=1)
    report = dfm_capacities(dfm_partition(40, 1.0), scen)
    assert report.c_l_mbps == 0.0
    assert report.c_w_mbps == pytest.approx(capacity_no_coex("wifi",
                                                             make_scenario(40)))


# ---------------------------------------------------------------------------
# best approach
# ---------------------------------------------------------------------------

def test_best_dma_reference_labels():
    assert best_dma(40, 0.5, make_scenario(40, 1)).recommendation == "dtm"
    assert best_dma(160, 0.5, make_scenario(160, 1)).recommendation == "dfm"
    assert best_dma(80, 0.5, make_scenario(80, 4)).recommendation == "dfm"


@pytest.mark.parametrize("ratio, alpha, message", [
    (0.0, 0.5, "sharing ratio"), (1.5, 0.5, "sharing ratio"),
    (float("nan"), 0.5, "sharing ratio"), (0.25, 7.0, "alpha"),
    (0.25, -0.5, "alpha"), (0.25, float("nan"), "alpha"),
])
def test_best_dma_refuses_ratio_and_alpha(ratio, alpha, message):
    # unrefused, alpha = 7 prices a DTM aggregate of -452.08 Mbps at 80 MHz, 25 %
    with pytest.raises(ConfigError, match=message):
        best_dma(80, ratio, make_scenario(80, 1), alpha=alpha)


def test_sweep_refuses_ratio_by_the_same_rule():
    with pytest.raises(ConfigError, match="sharing ratio must lie in"):
        SweepSpec(ratios=(7,))
    with pytest.raises(ConfigError, match="sharing ratio must lie in"):
        SweepSpec(ratios=(0.0,))
    assert SweepSpec(ratios=(1.0,)).ratios == (1.0,)


def test_best_dma_infeasible_dfm_flagged():
    pick = best_dma(40, 0.25, make_scenario(40, 1))
    assert pick.recommendation == "dtm"
    assert not pick.dfm_feasible
    assert pick.dfm is None


def test_pick_best_scale_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        dtm_u, dfm_u = rng.uniform(1.0, 500.0, size=2)
        scale = rng.uniform(1e-3, 1e3)
        assert pick_best(dtm_u, dfm_u) == pick_best(scale * dtm_u, scale * dfm_u)


def test_pick_best_tie_goes_to_dfm():
    label, tie = pick_best(123.0, 123.0)
    assert label == "dfm" and tie


def test_report_aggregate_convention():
    report = dtm_capacities(DtmSchedule(5000.0, 5000.0), make_scenario(80))
    assert report.aggregated_mbps == pytest.approx(report.c_w_mbps + report.c_l_mbps)
    skewed = dtm_capacities(DtmSchedule(5000.0, 5000.0), make_scenario(80), alpha=0.7)
    assert skewed.aggregated_mbps == pytest.approx(
        0.7 * skewed.c_w_mbps + 0.3 * skewed.c_l_mbps)


def test_long_payload_coexistence_orderings():
    # with 15 kB payloads and a 25% Wi-Fi share, coexistence overtakes both
    # sharing approaches for class 4, and overtakes the frequency split (but
    # not the time split) for class 1 at 80 MHz only
    def aggs(bw, cls):
        scen = make_scenario(bw, cls, payload_bytes=15_000)
        coex = sum(coexistence_throughputs(scen))
        pick = best_dma(bw, 0.25, scen)
        return coex, pick.dtm.aggregated_mbps, pick.dfm.aggregated_mbps

    for bw in (80, 160):
        coex, dtm, dfm = aggs(bw, 4)
        assert coex > dtm and coex > dfm
    coex, dtm, dfm = aggs(80, 1)
    assert dfm < coex < dtm
    coex, dtm, dfm = aggs(160, 1)
    assert coex < dtm and coex < dfm


def test_sharing_beats_coexistence_class1_grid():
    # the headline claim at the typical 1500 B payload; the class-4 grid
    # breaks it at (40 MHz, 25% Wi-Fi), the documented model exception that
    # acceptance criterion 7 pins and checks against the oracles
    for bw in (40, 80, 160):
        coex_agg = sum(coexistence_throughputs(make_scenario(bw, 1)))
        for ratio in (0.25, 0.5, 0.75):
            pick = best_dma(bw, ratio, make_scenario(bw, 1))
            best_agg = max(pick.dtm.aggregated_mbps,
                           pick.dfm.aggregated_mbps if pick.dfm else 0.0)
            assert best_agg >= coex_agg - 1e-9, (bw, ratio)


# ---------------------------------------------------------------------------
# full-precision golden digest
# ---------------------------------------------------------------------------

# sha256 over the repr of every analytical capacity the CLI rounds away:
# both no-coexistence capacities under a range of burst caps and payloads
# (one too large for any MPDU to fit), coupled coexistence up to 3 x 3
# stations with partial and full cross-RAT collisions, LAA-only frequency
# partitions of 1 to 8 carriers, and best_dma on the 1500 B grid.  The CLI
# digest rounds to 2 decimals; this one sees a change in the last bit.
FULL_PRECISION_DIGEST = "2126a152f2f251461f98e4999aed8adeeade2accfd7ea3355762480a45f9bc87"

NC_CAPS_US = (None, 0.0, 1.0, 300.0, 2500.0, 7500.0, 12_000.0)
DIGEST_PAYLOADS = (1500, 15_000, 10**6)


def full_precision_records():
    for bw in (20, 40, 80, 160):
        for cls in (1, 4):
            for payload in DIGEST_PAYLOADS:
                scen = make_scenario(bw, cls, payload)
                for rat in ("wifi", "laa"):
                    for cap in NC_CAPS_US:
                        yield ("nc", bw, cls, payload, rat, cap,
                               capacity_no_coex(rat, scen, cap))
                for n_w in (1, 2, 3):
                    for n_l in (1, 2, 3):
                        for p_fc in (0.5, 1.0):
                            key = ("coex", bw, cls, payload, n_w, n_l, p_fc)
                            scen = make_scenario(bw, cls, payload, n_w, n_l, p_fc)
                            try:
                                yield key + coexistence_throughputs(scen)
                            except CoexcapError as exc:
                                yield key + (type(exc).__name__,)
    for cls in (1, 4):
        scen = make_scenario(80, cls)
        for carriers in range(1, 9):
            report = dfm_capacities(DfmPartition((), carriers), scen)
            yield ("dfm", cls, carriers, report.to_dict())
    for bw in (20, 40, 80, 160):
        for ratio in (0.25, 0.5, 0.75):
            for cls in (1, 4):
                pick = best_dma(bw, ratio, make_scenario(bw, cls))
                yield ("best_dma", bw, ratio, cls, pick.recommendation, pick.tie,
                       pick.dtm.to_dict(), pick.dfm and pick.dfm.to_dict())


def test_full_precision_digest():
    digest = hashlib.sha256()
    for record in full_precision_records():
        digest.update(repr(record).encode())
    assert digest.hexdigest() == FULL_PRECISION_DIGEST
