"""Window and partition arithmetic for coordinated channel sharing.

Time multiplexing (DTM) silences Wi-Fi with a CTS-to-self while scheduled
bursts use the whole channel; frequency multiplexing (DFM) splits the
channel into standard-width subchannels.  This module prices both: the
CTS downtime, channel access times, windowed capacities, partition capacities,
and the recommendation of the better approach for a configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .coex import CoexScenario, capacity_no_coex
from .errors import InfeasiblePartitionError, InvalidWindowError
from .params import (BASIC_RATE_MBPS, NON_HT_PREAMBLE_US, SIFS_US, LaaClassProfile,
                     WifiMacProfile, padded_airtime_us)

#: One CTS frame reserves at most this long (16-bit duration field, us).
MAX_CTS_RESERVATION_US = 32_767.0


def cts_airtime(basic_rate_mbps: float) -> float:
    """Airtime of the 112-bit CTS frame at the basic rate behind a non-HT
    preamble, padded to whole OFDM symbols (44 us at 6 Mbps)."""
    if basic_rate_mbps <= 0:
        raise ValueError("basic_rate_mbps must be positive")
    return NON_HT_PREAMBLE_US + padded_airtime_us(112, basic_rate_mbps)


def cts_downtime(basic_rate_mbps: float) -> float:
    """Channel downtime of one Wi-Fi-to-scheduled handover: SIFS + CTS
    airtime, exactly 60 us at 6 Mbps."""
    return SIFS_US + cts_airtime(basic_rate_mbps)


DEFAULT_DOWNTIME_US = cts_downtime(BASIC_RATE_MBPS)   # 60 us


def effective_channel_usage(combined_window_us: float) -> float:
    """Fraction of time the channel carries traffic under time multiplexing."""
    if combined_window_us <= 0:
        raise InvalidWindowError("combined window must be positive")
    return combined_window_us / (combined_window_us + DEFAULT_DOWNTIME_US)


# ---------------------------------------------------------------------------
# access times
# ---------------------------------------------------------------------------

def wifi_access_time(profile: WifiMacProfile) -> float:
    """Mean uncontended wait before a Wi-Fi burst: DIFS plus the mean
    backoff countdown (us)."""
    return profile.difs_us + profile.slot_us * (profile.cw_min - 1) / 2.0


def laa_access_time(profile: LaaClassProfile) -> float:
    """Mean uncontended wait before a scheduled burst: defer, mean backoff,
    and the mean wait for the next slot boundary (us)."""
    return (profile.defer_total_us + profile.slot_us * (profile.cw_min - 1) / 2.0
            + profile.gamma_us)


# ---------------------------------------------------------------------------
# windowed (DTM) capacities
# ---------------------------------------------------------------------------

def _wifi_full_burst_ppdu_us(scenario: CoexScenario) -> float:
    """Duration of the largest data PPDU the profile allows at the scenario rate."""
    w = scenario.wifi
    n = scenario.mpdus_per_burst()
    return w.phy_header_us + n * w.subframe_bytes * 8 / scenario.wifi_rate_mbps


def windowed_capacity_from(window_us: float, txop_us: float, t_cax_us: float,
                           capacity_fn) -> float:
    """Core windowed-capacity arithmetic with an injectable burst pricer.

    Whole access-plus-burst periods contribute the full burst capacity;
    the window remainder contributes a burst truncated to the time left
    after one more channel access.  ``capacity_fn(cap_us)`` prices a burst
    bound in Mbps.
    """
    if window_us <= 0:
        return 0.0
    period = txop_us + t_cax_us
    full = math.floor(window_us / period)
    remainder = window_us - full * period
    capacity = full * (period / window_us) * capacity_fn(txop_us)
    tail_cap = max(0.0, remainder - t_cax_us)
    if tail_cap > 0.0:
        capacity += (remainder / window_us) * capacity_fn(tail_cap)
    return capacity


def windowed_capacity(rat: str, window_us: float, scenario: CoexScenario) -> float:
    """Capacity of one RAT whose bursts must fit inside a recurring window."""
    if rat == "wifi":
        txop = _wifi_full_burst_ppdu_us(scenario)
        t_cax = wifi_access_time(scenario.wifi)
    elif rat == "laa":
        txop = scenario.laa.txop_shared_us
        t_cax = laa_access_time(scenario.laa)
    else:
        raise ValueError(f"unknown RAT {rat!r}")
    return windowed_capacity_from(window_us, txop, t_cax,
                                  lambda cap: capacity_no_coex(rat, scenario, cap))


@dataclass(frozen=True)
class DtmSchedule:
    """A pair of alternating transmission windows plus the handover downtime."""

    t_wifi_us: float
    t_laa_us: float

    def __post_init__(self):
        if not (0 <= self.t_wifi_us < math.inf and 0 <= self.t_laa_us < math.inf):
            raise InvalidWindowError("window lengths must be finite and non-negative, "
                                     f"got {self.t_wifi_us} and {self.t_laa_us}")
        if self.t_wifi_us == 0 and self.t_laa_us == 0:
            raise InvalidWindowError("at least one window must be positive")

    @property
    def sharing_ratio(self) -> float:
        return self.t_wifi_us / (self.t_wifi_us + self.t_laa_us)

    @property
    def period_us(self) -> float:
        return self.t_wifi_us + self.t_laa_us + DEFAULT_DOWNTIME_US

    @property
    def reservations(self) -> int:
        """CTS frames needed to hold the scheduled window (chained if > 32.767 ms)."""
        if self.t_laa_us == 0:
            return 0
        return math.ceil(self.t_laa_us / MAX_CTS_RESERVATION_US)


@dataclass(frozen=True)
class CapacityReport:
    """Per-RAT capacities of one configuration under one sharing regime."""

    regime: str                      # dtm | dfm
    c_w_mbps: float
    c_l_mbps: float
    alpha: float = 0.5
    bandwidth_mhz: int | None = None
    wifi_ratio: float | None = None
    laa_class: int | None = None
    payload_bytes: int | None = None

    @property
    def aggregated_mbps(self) -> float:
        # equal priorities report the plain sum; otherwise the weighted utility
        if self.alpha == 0.5:
            return self.c_w_mbps + self.c_l_mbps
        return self.utility

    @property
    def utility(self) -> float:
        return self.alpha * self.c_w_mbps + (1.0 - self.alpha) * self.c_l_mbps

    def to_dict(self) -> dict:
        return {"regime": self.regime, "c_w_mbps": self.c_w_mbps,
                "c_l_mbps": self.c_l_mbps, "aggregated_mbps": self.aggregated_mbps,
                "alpha": self.alpha, "bandwidth_mhz": self.bandwidth_mhz,
                "wifi_ratio": self.wifi_ratio, "laa_class": self.laa_class,
                "payload_bytes": self.payload_bytes, "feasible": True, "note": ""}


def dtm_capacities(schedule: DtmSchedule, scenario: CoexScenario,
                   alpha: float = 0.5) -> CapacityReport:
    """Windowed capacities scaled by each technology's share of the period."""
    period = schedule.period_us
    c_w = (windowed_capacity("wifi", schedule.t_wifi_us, scenario)
           * schedule.t_wifi_us / period) if schedule.t_wifi_us else 0.0
    c_l = (windowed_capacity("laa", schedule.t_laa_us, scenario)
           * schedule.t_laa_us / period) if schedule.t_laa_us else 0.0
    return CapacityReport("dtm", c_w, c_l, alpha,
                          bandwidth_mhz=scenario.bandwidth_mhz,
                          wifi_ratio=schedule.sharing_ratio,
                          laa_class=scenario.laa.laa_class,
                          payload_bytes=scenario.payload_bytes)


# ---------------------------------------------------------------------------
# frequency partitions (DFM)
# ---------------------------------------------------------------------------

STANDARD_WIFI_WIDTHS = (160, 80, 40, 20)


@dataclass(frozen=True)
class DfmPartition:
    """A frequency split: Wi-Fi subchannels plus 20 MHz scheduled carriers."""

    wifi_subchannels: tuple[int, ...]
    laa_carriers: int
    channel_bandwidth_mhz: int = field(default=0)

    def __post_init__(self):
        if any(w not in STANDARD_WIFI_WIDTHS for w in self.wifi_subchannels):
            raise InfeasiblePartitionError("non-standard Wi-Fi subchannel width")
        if self.laa_carriers < 0:
            raise InfeasiblePartitionError("negative carrier count")
        total = sum(self.wifi_subchannels) + 20 * self.laa_carriers
        if self.channel_bandwidth_mhz == 0:
            object.__setattr__(self, "channel_bandwidth_mhz", total)
        elif total != self.channel_bandwidth_mhz:
            raise InfeasiblePartitionError(
                f"partition covers {total} MHz of a {self.channel_bandwidth_mhz} MHz channel")

    @property
    def laa_bandwidth_mhz(self) -> int:
        return 20 * self.laa_carriers


def dfm_partition(channel_bw_mhz: int, wifi_ratio: float) -> DfmPartition:
    """Greedy largest-first split of the Wi-Fi share into standard widths."""
    share = channel_bw_mhz * wifi_ratio
    share_mhz = round(share)
    if abs(share - share_mhz) > 1e-6 or share_mhz % 20:
        raise InfeasiblePartitionError(
            f"{wifi_ratio:.0%} of {channel_bw_mhz} MHz is not a multiple of 20 MHz")
    if share_mhz < 20:
        raise InfeasiblePartitionError("Wi-Fi cannot operate below 20 MHz")
    if share_mhz > channel_bw_mhz:
        raise InfeasiblePartitionError("Wi-Fi share exceeds the channel")
    widths = []
    left = share_mhz
    for width in STANDARD_WIFI_WIDTHS:
        while left >= width:
            widths.append(width)
            left -= width
    return DfmPartition(tuple(widths), (channel_bw_mhz - share_mhz) // 20,
                        channel_bw_mhz)


def dfm_capacities(partition: DfmPartition, scenario: CoexScenario,
                   alpha: float = 0.5) -> CapacityReport:
    """Independent no-coexistence capacities of each side of the split."""
    c_w = 0.0
    for width in partition.wifi_subchannels:
        c_w += capacity_no_coex("wifi", replace(scenario, bandwidth_mhz=width))
    if partition.laa_carriers:
        sub = replace(scenario, bandwidth_mhz=partition.laa_bandwidth_mhz)
        c_l = capacity_no_coex("laa", sub)
    else:
        c_l = 0.0
    wifi_share = sum(partition.wifi_subchannels) / partition.channel_bandwidth_mhz
    return CapacityReport("dfm", c_w, c_l, alpha,
                          bandwidth_mhz=partition.channel_bandwidth_mhz,
                          wifi_ratio=wifi_share,
                          laa_class=scenario.laa.laa_class,
                          payload_bytes=scenario.payload_bytes)


# ---------------------------------------------------------------------------
# best-approach recommendation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BestDmaResult:
    recommendation: str            # "dtm" or "dfm"
    dtm: CapacityReport
    dfm: CapacityReport | None
    tie: bool = False

    @property
    def dfm_feasible(self) -> bool:
        return self.dfm is not None


def pick_best(dtm_utility: float, dfm_utility: float | None) -> tuple[str, bool]:
    """Argmax with a deterministic tie-break to the more predictable split."""
    if dfm_utility is None:
        return "dtm", False
    if math.isclose(dtm_utility, dfm_utility, rel_tol=1e-12, abs_tol=1e-12):
        return "dfm", True
    return ("dtm", False) if dtm_utility > dfm_utility else ("dfm", False)


def best_dma(channel_bw_mhz: int, wifi_ratio: float, scenario: CoexScenario,
             alpha: float = 0.5, combined_window_us: float = 10_000.0) -> BestDmaResult:
    """Recommend the sharing approach that maximizes the weighted capacity."""
    t_wifi = combined_window_us * wifi_ratio
    schedule = DtmSchedule(t_wifi, combined_window_us - t_wifi)
    dtm = dtm_capacities(schedule, scenario, alpha)
    try:
        partition = dfm_partition(channel_bw_mhz, wifi_ratio)
    except InfeasiblePartitionError:
        return BestDmaResult("dtm", dtm, None)
    dfm = dfm_capacities(partition, scenario, alpha)
    label, tie = pick_best(dtm.utility, dfm.utility)
    return BestDmaResult(label, dtm, dfm, tie=tie)
