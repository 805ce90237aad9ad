import pytest

from coexcap.coex import CoexScenario, burst_durations
from coexcap.params import laa_class1, laa_class4, wifi_default


@pytest.fixture
def wifi():
    return wifi_default()


@pytest.fixture
def laa1():
    return laa_class1()


@pytest.fixture
def laa4():
    return laa_class4()


@pytest.fixture
def scenario_80(wifi, laa1):
    return CoexScenario(wifi=wifi, laa=laa1, bandwidth_mhz=80)


def make_scenario(bandwidth_mhz=80, laa_class=1, payload_bytes=1500,
                  n_w=1, n_l=1, p_fc=1.0):
    from dataclasses import replace
    laa = laa_class1() if laa_class == 1 else laa_class4()
    wifi = replace(wifi_default(), payload_bytes=payload_bytes)
    return CoexScenario(wifi=wifi, laa=laa, bandwidth_mhz=bandwidth_mhz,
                        n_w=n_w, n_l=n_l, p_fc=p_fc)


def coex_durations(scenario):
    """Event durations at the coexistence burst bounds."""
    return burst_durations(scenario, scenario.mpdus_per_burst(),
                           scenario.laa.txop_coex_us)
