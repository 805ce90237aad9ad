"""PHY/MAC parameter sets, peak-rate tables, and burst-size arithmetic.

All durations are float microseconds (Mbps and bits/us are numerically the
same unit), all sizes are bytes.  Profiles are immutable after construction
and every function here is pure.
"""

from __future__ import annotations

import math
import typing
from dataclasses import MISSING, dataclass, fields
from functools import cache

from .errors import ConfigError, EmptyBurstError, UnsupportedBandwidthError

AMPDU_HARD_LIMIT_MPDUS = 64      # block ACK window
AMPDU_DELIMITER_BYTES = 4        # MPDU delimiter ahead of each A-MPDU subframe
AMPDU_MAX_EXP = 7
OFDM_SYMBOL_US = 4.0             # symbol duration used for pad alignment
NON_HT_PREAMBLE_US = 20.0        # legacy training fields + L-SIG of basic-rate frames
SIFS_US = 16.0
BASIC_RATE_MBPS = 6.0            # control frames, beacons and block ACKs
LAA_SLOT_US = 500.0              # scheduled-side slot
SERVICE_BITS = 16                # PLCP service field
TAIL_BITS = 6


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _check_ranges(profile, positive):
    """Every field finite and non-negative, the ``positive`` ones above zero."""
    for f in fields(profile):
        value = getattr(profile, f.name)
        if not 0 <= value < math.inf or (value == 0 and f.name in positive):
            kind = "positive" if f.name in positive else "non-negative"
            raise ConfigError(f"{f.name} must be finite and {kind}, got {value}")


@dataclass(frozen=True)
class WifiMacProfile:
    """802.11ac MAC/PHY parameters for a downlink A-MPDU transmitter.

    Defaults are the standard VHT values used throughout the evaluation.
    """

    slot_us: float = 9.0
    aifsn: int = 2
    sifs_us: float = SIFS_US
    cw_min: int = 16                 # window size; counters drawn from [0, CW-1]
    cw_max: int = 1024
    max_retries: int = 7
    basic_rate_mbps: float = BASIC_RATE_MBPS
    max_ppdu_us: float = 5484.0      # VHT PPDU duration bound
    ampdu_exp: int = 7
    max_mpdus: int = 64
    phy_header_us: float = 40.0
    mac_header_bytes: int = 34
    llc_header_bytes: int = 8
    payload_bytes: int = 1500
    block_ack_bytes: int = 32
    ack_timeout_us: float = 50.0

    def __post_init__(self):
        _check_ranges(self, ("slot_us", "sifs_us", "basic_rate_mbps", "max_ppdu_us",
                             "phy_header_us", "payload_bytes", "block_ack_bytes",
                             "ack_timeout_us", "mac_header_bytes"))
        if not (_is_power_of_two(self.cw_min) and _is_power_of_two(self.cw_max)):
            raise ConfigError("contention windows must be powers of two")
        if not self.cw_min <= self.cw_max <= 1024:    # aCWmax = 1023 on OFDM PHYs
            raise ConfigError("need cw_min <= cw_max <= 1024")
        if not 0 <= self.ampdu_exp <= AMPDU_MAX_EXP:
            raise ConfigError("ampdu_exp out of [0, 7]")
        if not 0 < self.max_mpdus <= AMPDU_HARD_LIMIT_MPDUS:
            raise ConfigError("max_mpdus out of (0, 64]")

    @property
    def difs_us(self) -> float:
        return self.sifs_us + self.aifsn * self.slot_us

    @property
    def mpdu_bytes(self) -> int:
        """MPDU without its delimiter: MAC + LLC headers + payload."""
        return self.mac_header_bytes + self.llc_header_bytes + self.payload_bytes

    @property
    def subframe_bytes(self) -> int:
        """One A-MPDU subframe: delimiter + MPDU."""
        return AMPDU_DELIMITER_BYTES + self.mpdu_bytes


@dataclass(frozen=True)
class LaaClassProfile:
    """LAA LBT parameters for one channel-access priority class."""

    laa_class: int
    defer_slots: int                 # m_l
    cw_min: int
    cw_max: int
    max_retries: int
    txop_coex_us: float              # burst bound while contending with Wi-Fi
    txop_shared_us: float            # burst bound under exclusive operation
    slot_us: float = 9.0
    defer_base_us: float = 16.0      # T_f
    laa_slot_us: float = LAA_SLOT_US

    def __post_init__(self):
        _check_ranges(self, ("laa_class", "cw_min", "txop_coex_us", "txop_shared_us",
                             "slot_us", "laa_slot_us"))
        if self.cw_min > self.cw_max:
            raise ConfigError("cw_min must not exceed cw_max")

    @property
    def defer_total_us(self) -> float:
        return self.defer_base_us + self.defer_slots * self.slot_us

    @property
    def gamma_us(self) -> float:
        """Mean wait to the next slot boundary."""
        return self.laa_slot_us / 2.0


#: Peak physical data rates (Mbps) per channel bandwidth (MHz).
WIFI_RATES_MBPS = {20: 86.7, 40: 200.0, 80: 433.3, 160: 866.7}
LAA_RATES_MBPS = {20: 75.4, 40: 150.8, 60: 226.1, 80: 301.5, 100: 376.9}

# least-squares per-carrier LAA rate through the origin, for wider carriers
_LAA_SLOPE_MBPS = (sum(bw // 20 * rate for bw, rate in LAA_RATES_MBPS.items())
                   / sum((bw // 20) ** 2 for bw in LAA_RATES_MBPS))


def wifi_rate(bandwidth_mhz: int) -> float:
    try:
        return WIFI_RATES_MBPS[bandwidth_mhz]
    except KeyError:
        raise UnsupportedBandwidthError(
            f"no Wi-Fi rate for {bandwidth_mhz} MHz "
            f"(supported: {sorted(WIFI_RATES_MBPS)})") from None


def laa_rate(bandwidth_mhz: int) -> float:
    if bandwidth_mhz <= 0 or bandwidth_mhz % 20:
        raise UnsupportedBandwidthError(
            f"LAA bandwidth must be a positive multiple of 20 MHz, got {bandwidth_mhz}")
    if bandwidth_mhz in LAA_RATES_MBPS:
        return LAA_RATES_MBPS[bandwidth_mhz]
    return (bandwidth_mhz // 20) * _LAA_SLOPE_MBPS


def contention_window(profile, stage: int) -> int:
    """Window size at retransmission stage ``stage``: min(cw_min * 2**stage, cw_max)."""
    if stage < 0:
        raise ValueError("stage must be non-negative")
    # cap the shift so huge stages cannot overflow before the clamp
    grown = profile.cw_min << min(stage, 32)
    return min(grown, profile.cw_max)


def ampdu_limit_bytes(ampdu_exp: int, mpdu_length_bytes: int) -> int:
    """Aggregated burst size bound: min(2**(13+exp) - 1, 64 * (mpdu + delimiter))."""
    if not 0 <= ampdu_exp <= AMPDU_MAX_EXP:
        raise ValueError("ampdu_exp out of [0, 7]")
    if mpdu_length_bytes <= 0:
        raise ValueError("mpdu_length_bytes must be positive")
    return min(2 ** (13 + ampdu_exp) - 1,
               AMPDU_HARD_LIMIT_MPDUS * (mpdu_length_bytes + AMPDU_DELIMITER_BYTES))


def max_mpdus_per_burst(profile: WifiMacProfile, data_rate_mbps: float,
                        duration_cap_us: float) -> int:
    """Largest MPDU count whose PPDU satisfies the byte and airtime bounds.

    The airtime bound is phy_header + N * subframe_bits / rate <=
    min(max_ppdu_us, duration_cap_us); the byte bound comes from
    :func:`ampdu_limit_bytes`.  Returns 0 when a single MPDU does not fit.
    """
    if data_rate_mbps <= 0:
        raise ValueError("data_rate_mbps must be positive")
    cap = min(profile.max_ppdu_us, duration_cap_us)
    airtime_per_mpdu = profile.subframe_bytes * 8 / data_rate_mbps
    budget = cap - profile.phy_header_us
    if budget < 0:
        return 0
    by_airtime = int(budget / airtime_per_mpdu + 1e-9)
    limit = ampdu_limit_bytes(profile.ampdu_exp, profile.mpdu_bytes)
    by_bytes = limit // profile.subframe_bytes
    return min(profile.max_mpdus, by_airtime, by_bytes)


def full_burst_mpdus(profile: WifiMacProfile, bandwidth_mhz: int) -> int:
    """MPDUs in a full Wi-Fi burst at the width; ``EmptyBurstError`` if none fits."""
    n = max_mpdus_per_burst(profile, wifi_rate(bandwidth_mhz), profile.max_ppdu_us)
    if n == 0:
        raise EmptyBurstError(f"no {profile.payload_bytes} B MPDU fits a Wi-Fi burst "
                              f"at {bandwidth_mhz} MHz")
    return n


def padded_airtime_us(psdu_bits: int, rate_mbps: float) -> float:
    """PSDU airtime rounded up to whole OFDM symbols, incl. service/tail bits."""
    bits_per_symbol = rate_mbps * OFDM_SYMBOL_US
    symbols = math.ceil((SERVICE_BITS + psdu_bits + TAIL_BITS) / bits_per_symbol)
    return symbols * OFDM_SYMBOL_US


# ---------------------------------------------------------------------------
# presets and INI sections
# ---------------------------------------------------------------------------

def wifi_default() -> WifiMacProfile:
    return WifiMacProfile()


def laa_class1() -> LaaClassProfile:
    return LaaClassProfile(laa_class=1, defer_slots=1, cw_min=4, cw_max=16,
                           max_retries=6, txop_coex_us=2000.0, txop_shared_us=2000.0)


def laa_class4() -> LaaClassProfile:
    return LaaClassProfile(laa_class=4, defer_slots=7, cw_min=16, cw_max=1024,
                           max_retries=10, txop_coex_us=8000.0, txop_shared_us=10_000.0)


#: Named presets accepted anywhere a profile can be configured.
PRESETS = {
    "table2-wifi": wifi_default,
    "table3-laa": laa_class1,      # common LAA timing, class-1 contention
    "table4-class1": laa_class1,
    "table5-class4": laa_class4,
    "wifi-default": wifi_default,
    "laa-class1": laa_class1,
    "laa-class4": laa_class4,
}


def load_preset(name: str):
    try:
        return PRESETS[name]()
    except KeyError:
        raise ConfigError(f"unknown preset {name!r} (choose from {sorted(PRESETS)})") from None


@cache
def _converters(cls) -> dict:
    """Parser per text-settable field of a config dataclass: its int, float
    and str fields, optional or not (nested profiles and flags have none)."""
    converters = {}
    for name, hint in typing.get_type_hints(cls).items():
        kinds = [k for k in typing.get_args(hint) if k is not type(None)] or [hint]
        if len(kinds) == 1 and kinds[0] in (int, float, str):
            converters[name] = kinds[0]
    return converters


def section_kwargs(cls, section: str, items) -> dict:
    """Constructor kwargs for ``cls`` from a section's ``(key, value)`` text
    pairs, each value converted to its field's declared type; every field
    with no default must be given."""
    converters = _converters(cls)
    kwargs = {}
    for key, raw in items:
        if key not in converters:
            raise ConfigError(f"unknown {section} parameter {key!r}")
        convert = converters[key]
        try:
            kwargs[key] = convert(raw.strip())
        except ValueError:
            raise ConfigError(f"{section} parameter {key!r} must be "
                              f"{convert.__name__}, got {raw!r}") from None
    missing = [f.name for f in fields(cls) if f.name not in kwargs
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{section} section lacks {', '.join(missing)}")
    return kwargs


PROFILE_SECTIONS = {"wifi": WifiMacProfile, "laa": LaaClassProfile}

