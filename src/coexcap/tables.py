"""Builders for the capacity summary tables and figure-style sweeps.

Each builder returns (column_names, rows) with plain Python values so the
CLI can serialize them to CSV or JSON.  Numeric comparisons against
reference values live in the test suite, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import sharing
from .coex import CoexScenario, capacity_no_coex, coexistence_throughputs
from .errors import ConfigError, InfeasiblePartitionError
from .params import (LAA_RATES_MBPS, WIFI_RATES_MBPS, full_burst_mpdus, laa_class1,
                     laa_class4, wifi_default)
from .sharing import (COMBINED_WINDOW_US, DtmSchedule, best_dma, check_sharing_ratio,
                      dfm_capacities, dfm_partition, dtm_capacities,
                      effective_channel_usage, windowed_capacity)
from .sim import DEFAULT_SEED, SimConfig, run_simulation

WIFI_BANDWIDTHS = tuple(sorted(WIFI_RATES_MBPS))
SHARING_RATIOS = (0.25, 0.50, 0.75)
REGIMES = ("coex", "dtm", "dfm", "nc")

_LAA_PROFILES = {1: laa_class1, 4: laa_class4}
LAA_CLASSES = tuple(_LAA_PROFILES)


def scenario_for(bandwidth_mhz: int, laa_class: int = 1, payload_bytes: int = 1500,
                 n_w: int = 1, n_l: int = 1) -> CoexScenario:
    """The scenario every table, sweep and recommendation prices.

    Each of them prices the full-burst Wi-Fi capacity, so a payload too
    large for one MPDU to fit a Wi-Fi burst raises ``EmptyBurstError``.
    """
    wifi = replace(wifi_default(), payload_bytes=payload_bytes)
    scenario = CoexScenario(wifi=wifi, laa=_LAA_PROFILES[laa_class](),
                            bandwidth_mhz=bandwidth_mhz, n_w=n_w, n_l=n_l)
    full_burst_mpdus(wifi, bandwidth_mhz)
    return scenario


def table1_rows():
    columns = ["bandwidth_mhz", "wifi_rate_mbps", "laa_rate_mbps"]
    return columns, [[bw, WIFI_RATES_MBPS.get(bw, ""), LAA_RATES_MBPS.get(bw, "")]
                     for bw in sorted(WIFI_RATES_MBPS.keys() | LAA_RATES_MBPS.keys())]


def wifi_nc_capacity(bandwidth_mhz: int, payload_bytes: int) -> float:
    return capacity_no_coex("wifi", scenario_for(bandwidth_mhz, 1, payload_bytes))


def table6_rows(payload_bytes: int = 1500):
    columns = ["bandwidth_mhz", "c_w_nc_mbps", "c_w_nc_mbps_per_mhz"]
    rows = []
    for bw in WIFI_BANDWIDTHS:
        cap = wifi_nc_capacity(bw, payload_bytes)
        rows.append([bw, round(cap, 2), round(cap / bw, 2)])
    return columns, rows


def table7_rows():
    return table6_rows(payload_bytes=15_000)


def table8_rows(payload_bytes: int = 1500):
    """Best sharing approach per bandwidth and ratio, both priority classes,
    over a 10 ms combined window.

    Emits one row per (bandwidth, ratio); capacities are reported under the
    recommended approach of the class-1 configuration, mirroring the
    summary-table convention.  Rows where the frequency split is infeasible
    are flagged, with the time split recommended by default.
    """
    columns = ["bandwidth_mhz", "wifi_ratio", "c_w_mbps", "c_l_class1_mbps",
               "c_l_class4_mbps", "best_dma", "dfm_feasible"]
    rows = []
    for bw in WIFI_BANDWIDTHS:
        for ratio in SHARING_RATIOS:
            picks = {cls: best_dma(bw, ratio, scenario_for(bw, cls, payload_bytes))
                     for cls in LAA_CLASSES}
            label = picks[1].recommendation
            reports = {cls: (picks[cls].dtm if label == "dtm" else picks[cls].dfm)
                       for cls in LAA_CLASSES}
            rows.append([bw, ratio,
                         round(reports[1].c_w_mbps, 2),
                         round(reports[1].c_l_mbps, 2),
                         round(reports[4].c_l_mbps, 2),
                         label.upper(),
                         picks[1].dfm_feasible])
    return columns, rows


def table9_rows(seed: int = DEFAULT_SEED, payload_bytes: int = 1500):
    columns = ["bandwidth_mhz", "analytical_mbps", "simulated_mbps"]
    rows = []
    for bw in WIFI_BANDWIDTHS:
        sim = run_simulation(SimConfig(seed=seed, mode="dfm", bandwidth_mhz=bw,
                                       payload_bytes=payload_bytes))
        rows.append([bw, round(wifi_nc_capacity(bw, payload_bytes), 2),
                     round(sim.wifi_throughput_mbps, 2)])
    return columns, rows


#: Table 10's fixed Wi-Fi window; the scheduled window sets the ratio.
TABLE10_T_WIFI_US = 5000.0


def table10_rows(seed: int = DEFAULT_SEED, payload_bytes: int = 1500):
    """Analytical and simulated Wi-Fi capacity under time multiplexing."""
    columns = ["bandwidth_mhz", "wifi_ratio", "analytical_mbps", "simulated_mbps"]
    rows = []
    for bw in WIFI_BANDWIDTHS:
        scenario = scenario_for(bw, 1, payload_bytes)
        for ratio in SHARING_RATIOS:
            t_laa = TABLE10_T_WIFI_US * (1.0 - ratio) / ratio
            report = dtm_capacities(DtmSchedule(TABLE10_T_WIFI_US, t_laa), scenario)
            sim = run_simulation(SimConfig(seed=seed, mode="dtm", bandwidth_mhz=bw,
                                           payload_bytes=payload_bytes,
                                           t_wifi_us=TABLE10_T_WIFI_US, t_laa_us=t_laa))
            rows.append([bw, ratio, round(report.c_w_mbps, 2),
                         round(sim.wifi_throughput_mbps, 2)])
    return columns, rows


#: Builder per table id.
_TABLES = {1: table1_rows, 6: table6_rows, 7: table7_rows, 8: table8_rows,
           9: table9_rows, 10: table10_rows}
TABLE_IDS = tuple(_TABLES)


def build_table(table_id: int, **options):
    """Rows of one table; options are keyword arguments of its builder."""
    if table_id not in _TABLES:
        raise ValueError(f"unsupported table id {table_id} (supported: {TABLE_IDS})")
    return _TABLES[table_id](**options)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for capacity sweeps over the sharing design space."""

    bandwidths: tuple[int, ...] = (80,)
    ratios: tuple[float, ...] = SHARING_RATIOS
    classes: tuple[int, ...] = (1,)
    payloads: tuple[int, ...] = (1500,)
    regimes: tuple[str, ...] = REGIMES
    combined_window_us: float = COMBINED_WINDOW_US
    t_wifi_us: float | None = None     # fixed Wi-Fi window instead of combined split

    def __post_init__(self):
        if not (self.bandwidths and self.ratios and self.classes and self.payloads
                and self.regimes):
            raise ConfigError("sweep axes must be non-empty")
        bad = set(self.regimes) - set(REGIMES)
        if bad:
            raise ConfigError(f"unknown regimes {sorted(bad)}")
        for ratio in self.ratios:
            check_sharing_ratio(ratio)
        if self.t_wifi_us is not None and not 0.0 < self.t_wifi_us < math.inf:
            raise ConfigError(f"t_wifi_us must be finite and positive, got {self.t_wifi_us}")


def sweep_rows(spec: SweepSpec):
    """One row per grid point and regime; infeasible points are flagged."""
    columns = ["bandwidth_mhz", "wifi_ratio", "laa_class", "payload_bytes",
               "regime", "c_w_mbps", "c_l_mbps", "aggregated_mbps", "feasible"]
    rows = []
    for bw in spec.bandwidths:
        for payload in spec.payloads:
            for cls in spec.classes:
                scenario = scenario_for(bw, cls, payload)
                for ratio in spec.ratios:
                    for regime in spec.regimes:
                        point = _sweep_point(scenario, bw, ratio, regime, spec)
                        c_w, c_l = point or (0.0, 0.0)
                        rows.append([bw, ratio, cls, payload, regime, round(c_w, 2),
                                     round(c_l, 2), round(c_w + c_l, 2),
                                     point is not None])
    return columns, rows


def _sweep_point(scenario, bw, ratio, regime, spec):
    """(c_w, c_l) of one regime at one grid point, or None where DFM is infeasible."""
    if regime == "coex":
        return coexistence_throughputs(scenario)
    if regime == "nc":
        return capacity_no_coex("wifi", scenario), capacity_no_coex("laa", scenario)
    if regime == "dtm":
        if spec.t_wifi_us is not None:
            t_w = spec.t_wifi_us
            t_l = t_w * (1.0 - ratio) / ratio
        else:
            t_w = spec.combined_window_us * ratio
            t_l = spec.combined_window_us - t_w
        report = dtm_capacities(DtmSchedule(t_w, t_l), scenario)
    else:
        try:
            report = dfm_capacities(dfm_partition(bw, ratio), scenario)
        except InfeasiblePartitionError:
            return None
    return report.c_w_mbps, report.c_l_mbps


def usage_curve_rows(combined_windows_us):
    """Effective channel usage versus combined window length."""
    columns = ["combined_window_us", "effective_usage"]
    return columns, [[w, round(effective_channel_usage(w), 6)]
                     for w in combined_windows_us]


def window_efficiency_rows(windows_us, bandwidth_mhz: int = 80,
                           payload_bytes: int = 1500):
    """Windowed-to-unconstrained capacity ratio per RAT and window length.

    The denominator is the no-coexistence capacity scaled by the share of
    the period the RAT owns, i.e. the capacity if windows were enlarged to
    finish every pending burst.
    """
    columns = ["window_us", "rat", "laa_class", "efficiency"]
    scenarios = {cls: scenario_for(bandwidth_mhz, cls, payload_bytes)
                 for cls in LAA_CLASSES}
    scen1 = scenarios[1]
    rows = []
    for window in windows_us:
        period = 2 * window + sharing.DEFAULT_DOWNTIME_US
        share = window / period
        windowed_w = windowed_capacity("wifi", window, scen1) * share
        ideal_w = capacity_no_coex("wifi", scen1) * share
        rows.append([window, "wifi", "", round(windowed_w / ideal_w, 6)])
        for cls, scen in scenarios.items():
            windowed_l = windowed_capacity("laa", window, scen) * share
            ideal_l = capacity_no_coex("laa", scen) * share
            rows.append([window, "laa", cls, round(windowed_l / ideal_l, 6)])
    return columns, rows
