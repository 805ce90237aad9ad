from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from coexcap.errors import ConfigError, UnsupportedBandwidthError
from coexcap.params import (DEFAULT_RATE_TABLE, PRESETS, WifiMacProfile,
                            ampdu_limit_bytes, contention_window, laa_class1,
                            laa_class4, load_preset, max_mpdus_per_burst,
                            profile_from_text, profile_to_text, wifi_default)
from oracles import scan_max_mpdus


def test_wifi_profile_defaults(wifi):
    assert wifi.difs_us == 34.0
    assert wifi.mpdu_bytes == 1542
    assert wifi.subframe_bytes == 1546


def test_laa_profile_defaults(laa1, laa4):
    assert laa1.defer_total_us == 25.0
    assert laa4.defer_total_us == 79.0
    assert laa1.gamma_us == 250.0
    assert laa1.txop_coex_us == 2000.0
    assert laa4.txop_coex_us == 8000.0
    assert laa4.txop_shared_us == 10_000.0


def test_profile_validation_rejects_inconsistency():
    # DIFS is derived from SIFS, AIFSN and the slot, so it cannot be set
    with pytest.raises(TypeError):
        WifiMacProfile(difs_us=30.0)
    with pytest.raises(ValueError):
        WifiMacProfile(cw_min=17)
    with pytest.raises(ValueError):
        WifiMacProfile(ampdu_exp=8)
    with pytest.raises(ValueError):
        WifiMacProfile(max_mpdus=65)
    with pytest.raises(ValueError):
        WifiMacProfile(cw_max=2048)
    for bad in (0.0, -500.0, float("nan")):
        with pytest.raises(ValueError):
            replace(laa_class1(), laa_slot_us=bad)
    for name in ("slot_us", "max_ppdu_us"):
        with pytest.raises(ValueError):
            replace(wifi_default(), **{name: float("inf")})


def test_peak_phy_rate_table_values():
    assert DEFAULT_RATE_TABLE.wifi_rate(80) == 433.3
    assert DEFAULT_RATE_TABLE.laa_rate(20) == 75.4
    assert DEFAULT_RATE_TABLE.wifi_rate(160) == 866.7


def test_peak_phy_rate_laa_extrapolation():
    # least-squares per-carrier slope over the five table entries
    pts = [(bw // 20, r) for bw, r in DEFAULT_RATE_TABLE.laa_rates.items()]
    slope = sum(n * r for n, r in pts) / sum(n * n for n, _ in pts)
    assert DEFAULT_RATE_TABLE.laa_rate(120) == pytest.approx(6 * slope, rel=1e-12)
    assert DEFAULT_RATE_TABLE.laa_rate(120) == pytest.approx(452.3, abs=0.1)


def test_peak_phy_rate_errors():
    with pytest.raises(UnsupportedBandwidthError):
        DEFAULT_RATE_TABLE.wifi_rate(60)
    with pytest.raises(UnsupportedBandwidthError):
        DEFAULT_RATE_TABLE.laa_rate(30)


def test_rates_increase_with_bandwidth():
    wifi_bw = sorted(DEFAULT_RATE_TABLE.wifi_rates)
    for a, b in zip(wifi_bw, wifi_bw[1:]):
        assert DEFAULT_RATE_TABLE.wifi_rate(a) < DEFAULT_RATE_TABLE.wifi_rate(b)
    for bw in range(20, 200, 20):
        assert DEFAULT_RATE_TABLE.laa_rate(bw) < DEFAULT_RATE_TABLE.laa_rate(bw + 20)


def test_laa_rates_near_linear():
    for bw, rate in DEFAULT_RATE_TABLE.laa_rates.items():
        assert rate == pytest.approx((bw // 20) * 75.4, rel=0.01)


def test_contention_window_examples(wifi, laa1):
    assert contention_window(wifi, 0) == 16
    assert contention_window(wifi, 10) == 1024
    assert contention_window(laa1, 2) == 16


@given(st.integers(min_value=0, max_value=200))
def test_contention_window_monotone_and_clamped(stage):
    wifi = wifi_default()
    assert contention_window(wifi, stage) <= contention_window(wifi, stage + 1) <= 1024
    if contention_window(wifi, stage) == 1024:
        assert contention_window(wifi, stage + 1) == 1024


def test_ampdu_limit_examples():
    assert ampdu_limit_bytes(7, 1542) == 98_944
    assert ampdu_limit_bytes(0, 1542) == 8_191
    # payload capacity of a full burst at 1500 B MPDU payload
    n = ampdu_limit_bytes(7, 1542) // 1546
    assert n * 1500 == 96_000


@given(st.integers(min_value=0, max_value=7), st.integers(min_value=1, max_value=40_000))
def test_ampdu_limit_monotone_and_bounded(exp, mpdu):
    limit = ampdu_limit_bytes(exp, mpdu)
    assert limit <= 2 ** 20 - 1
    if exp < 7:
        assert limit <= ampdu_limit_bytes(exp + 1, mpdu)
    assert limit <= ampdu_limit_bytes(exp, mpdu + 1)


def test_ampdu_limit_rejects_bad_exponent():
    with pytest.raises(ValueError):
        ampdu_limit_bytes(8, 1542)


def test_max_mpdus_examples(wifi):
    assert max_mpdus_per_burst(wifi, 433.3, 5484.0) == 64
    assert max_mpdus_per_burst(wifi, 86.7, 5484.0) < 64
    assert max_mpdus_per_burst(wifi, 200.0, 1.0) == 0


def test_max_mpdus_matches_linear_scan(wifi):
    for rate in (86.7, 200.0, 433.3, 866.7):
        for cap in (50.0, 500.0, 1000.0, 2500.0, 5484.0, 9000.0):
            assert max_mpdus_per_burst(wifi, rate, cap) == scan_max_mpdus(wifi, rate, cap)


@given(st.sampled_from([86.7, 200.0, 433.3, 866.7]),
       st.floats(min_value=100.0, max_value=6000.0))
def test_max_mpdus_monotone(rate, cap):
    wifi = wifi_default()
    n = max_mpdus_per_burst(wifi, rate, cap)
    assert 0 <= n <= 64
    assert n <= max_mpdus_per_burst(wifi, rate * 1.5, cap)
    assert n <= max_mpdus_per_burst(wifi, rate, cap + 500.0)


def test_presets_exist():
    for name in ("table2-wifi", "table3-laa", "table4-class1", "table5-class4"):
        load_preset(name)
    assert load_preset("table4-class1") == laa_class1()
    assert load_preset("table5-class4") == laa_class4()
    with pytest.raises(ConfigError):
        load_preset("table99")


def test_profile_text_round_trip():
    for name in PRESETS:
        profile = load_preset(name)
        assert profile_from_text(profile_to_text(profile)) == profile


def test_profile_text_rejects_unknown_key():
    with pytest.raises(ConfigError):
        profile_from_text("[wifi]\nwarp_factor = 9\n")
