"""Saturation-throughput model for Wi-Fi and LAA contending on one channel.

Couples two per-technology backoff chains through collision and
countdown-blocking probabilities, solves the resulting fixed point, and
turns the equilibrium into event probabilities, mean slot duration and
per-technology throughput.  The no-coexistence capacity is the same chain
with no contender, priced in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ConfigError, ConvergenceError, DegenerateBlockingError
from .params import (LaaClassProfile, WifiMacProfile, contention_window,
                     full_burst_mpdus, laa_rate, max_mpdus_per_burst, wifi_rate)


@dataclass(frozen=True)
class CoexScenario:
    """Full input to the analytical model for one channel configuration."""

    wifi: WifiMacProfile
    laa: LaaClassProfile
    bandwidth_mhz: int
    n_w: int = 1
    n_l: int = 1
    p_fc: float = 1.0          # 1.0 once bursts are long A-MPDUs

    def __post_init__(self):
        if self.n_w < 0 or self.n_l < 0 or self.n_w + self.n_l < 1:
            raise ConfigError("need at least one transmitter")
        if not 0.0 <= self.p_fc <= 1.0:
            raise ConfigError("p_fc must be a probability")

    @property
    def wifi_rate_mbps(self) -> float:
        """Peak Wi-Fi rate at the bandwidth; raises ``UnsupportedBandwidthError``
        for a width with no Wi-Fi rate (LAA-alone pricing never reads it)."""
        return wifi_rate(self.bandwidth_mhz)

    @property
    def laa_rate_mbps(self) -> float:
        return laa_rate(self.bandwidth_mhz)

    @property
    def payload_bytes(self) -> int:
        return self.wifi.payload_bytes

    @property
    def cca_min(self) -> int:
        return min(self.wifi.aifsn, self.laa.defer_slots)

    def mpdus_per_burst(self, duration_cap_us: float | None = None) -> int:
        cap = self.wifi.max_ppdu_us if duration_cap_us is None else duration_cap_us
        return max_mpdus_per_burst(self.wifi, self.wifi_rate_mbps, cap)


@dataclass(frozen=True)
class Equilibrium:
    tau_w: float
    tau_l: float
    pc_w: float
    pc_l: float
    pb_w: float
    pb_l: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class EventProbs:
    """Disjoint outcomes of one generalized backoff slot; they sum to 1."""

    p_idle: float
    ps_w: float
    ps_l: float
    pc_ww: float
    pc_ll: float
    pc_wl: float

    def total(self) -> float:
        return (self.p_idle + self.ps_w + self.ps_l
                + self.pc_ww + self.pc_ll + self.pc_wl)


@dataclass(frozen=True)
class BurstDurations:
    """Event durations in us with the burst bounds they were priced from;
    LAA collisions and successes last the same."""

    n_mpdus: int               # MPDUs per Wi-Fi burst
    laa_txop_us: float
    ts_w: float
    tc_w: float
    ts_l: float
    tc_l: float


# ---------------------------------------------------------------------------
# burst durations
# ---------------------------------------------------------------------------

def wifi_success_duration(scenario: CoexScenario, n_mpdus: int) -> float:
    """Channel time of a successful Wi-Fi burst: defer, data PPDU, block-ACK exchange."""
    w = scenario.wifi
    psdu_bits = n_mpdus * w.subframe_bytes * 8
    ba_bits = w.block_ack_bytes * 8
    return (w.difs_us + w.phy_header_us
            + psdu_bits / scenario.wifi_rate_mbps
            + w.sifs_us + ba_bits / w.basic_rate_mbps)


def wifi_collision_duration(scenario: CoexScenario, n_mpdus: int) -> float:
    """Channel time of a collided Wi-Fi burst: the ACK never arrives."""
    w = scenario.wifi
    psdu_bits = n_mpdus * w.subframe_bytes * 8
    return (w.difs_us + w.phy_header_us
            + psdu_bits / scenario.wifi_rate_mbps
            + w.ack_timeout_us)


def burst_durations(scenario: CoexScenario, n_mpdus: int,
                    laa_txop_us: float) -> BurstDurations:
    """Durations of a Wi-Fi burst of ``n_mpdus`` MPDUs and of an LAA burst
    bounded by ``laa_txop_us``, which adds the slot-alignment wait and lasts
    the same collided or not."""
    ts_w = wifi_success_duration(scenario, n_mpdus)
    tc_w = wifi_collision_duration(scenario, n_mpdus)
    laa_dur = scenario.laa.gamma_us + laa_txop_us
    return BurstDurations(n_mpdus, laa_txop_us, ts_w, tc_w, laa_dur, laa_dur)


# ---------------------------------------------------------------------------
# backoff chain and coupling
# ---------------------------------------------------------------------------

def backoff_windows(profile) -> tuple[int, ...]:
    """``cw - 1`` at each retry stage 0..max_retries: the largest counter
    the stage draws."""
    return tuple(contention_window(profile, r) - 1
                 for r in range(profile.max_retries + 1))


def backoff_tau(windows: tuple[int, ...], pc: float, pb: float) -> float:
    """Probability of transmitting in a randomly chosen slot, for a chain
    with the stage windows ``backoff_windows(profile)``.

    Stage r is reached with weight pc**r; the stage-0, counter-0 state has
    probability b00 = 1 / sum of the weighted stage lengths, and
    tau = b00 * sum of the weights.
    """
    if pb >= 1.0:
        raise DegenerateBlockingError("blocking probability of 1 stalls the countdown")
    free = 1.0 - pb
    twice_free = 2.0 * free
    # both sums run left to right with +=: sum() of floats is compensated
    # from Python 3.12 on, which would move the last bits between versions
    total = 0.0
    sent = 0.0
    for r, window in enumerate(windows):
        weight = pc ** r
        total += weight * (1.0 + (2.0 + free * window) / twice_free)
        sent += weight
    return 1.0 / total * sent     # b00 * weights, rounded as written


def coupling_step(scenario: CoexScenario):
    """The scenario's coupling map: (tau_w, tau_l) -> the collision and
    countdown-blocking probabilities (pc_w, pc_l, pb_w, pb_l)."""
    n_w, n_l = scenario.n_w, scenario.n_l
    # a side with no nodes has tau = 0, so a power of -1 is 1.0 ** -1 = 1.0
    peers_w, peers_l = n_w - 1, n_l - 1
    p_fc = scenario.p_fc
    no_fc = 1.0 - p_fc
    exp_w = scenario.wifi.aifsn - scenario.cca_min + 1
    exp_l = scenario.laa.defer_slots - scenario.cca_min + 1

    def step(tau_w: float, tau_l: float):
        quiet_w_peers = (1.0 - tau_w) ** peers_w   # no other Wi-Fi node
        quiet_w_all = (1.0 - tau_w) ** n_w
        quiet_l_peers = (1.0 - tau_l) ** peers_l
        quiet_l_all = (1.0 - tau_l) ** n_l
        pc_w = 1.0 - quiet_l_all * quiet_w_peers
        pc_l = 1.0 - (no_fc + p_fc * quiet_w_all) * quiet_l_peers
        pb_w = 1.0 - (quiet_l_all * quiet_w_peers) ** exp_w
        pb_l = 1.0 - (quiet_w_all * quiet_l_peers) ** exp_l
        return pc_w, pc_l, pb_w, pb_l
    return step


SOLVER_TOL = 1e-10
SOLVER_MAX_ITERATIONS = 10_000
SOLVER_DAMPING = 0.5


def solve_equilibrium(scenario: CoexScenario) -> Equilibrium:
    """Damped Picard iteration on (tau_w, tau_l); deterministic for a scenario."""
    n_w, n_l = scenario.n_w, scenario.n_l
    step = coupling_step(scenario)
    windows_w = backoff_windows(scenario.wifi)
    windows_l = backoff_windows(scenario.laa)
    tau_w = 0.05 if n_w else 0.0
    tau_l = 0.05 if n_l else 0.0
    residual = math.inf
    for iteration in range(1, SOLVER_MAX_ITERATIONS + 1):
        pc_w, pc_l, pb_w, pb_l = step(tau_w, tau_l)
        new_w = backoff_tau(windows_w, pc_w, pb_w) if n_w else 0.0
        new_l = backoff_tau(windows_l, pc_l, pb_l) if n_l else 0.0
        residual = max(abs(new_w - tau_w), abs(new_l - tau_l))
        if residual <= SOLVER_TOL:
            return Equilibrium(new_w, new_l, *step(new_w, new_l),
                               residual, iteration)
        tau_w += SOLVER_DAMPING * (new_w - tau_w)
        tau_l += SOLVER_DAMPING * (new_l - tau_l)
    raise ConvergenceError(
        f"no fixed point after {SOLVER_MAX_ITERATIONS} iterations "
        f"(residual {residual:.3e})",
        residual=residual, iterations=SOLVER_MAX_ITERATIONS)


def event_probabilities(eq: Equilibrium, scenario: CoexScenario) -> EventProbs:
    """Per-slot outcome probabilities; an exhaustive disjoint partition."""
    n_w, n_l = scenario.n_w, scenario.n_l
    tau_w, tau_l = eq.tau_w, eq.tau_l
    quiet_w = (1.0 - tau_w) ** n_w
    quiet_l = (1.0 - tau_l) ** n_l
    single_w = n_w * tau_w * (1.0 - tau_w) ** (n_w - 1)
    single_l = n_l * tau_l * (1.0 - tau_l) ** (n_l - 1)
    return EventProbs(
        p_idle=quiet_w * quiet_l,
        ps_w=single_w * quiet_l,
        ps_l=single_l * quiet_w,
        pc_ww=quiet_l * (1.0 - quiet_w - single_w),
        pc_ll=quiet_w * (1.0 - quiet_l - single_l),
        pc_wl=(1.0 - quiet_w) * (1.0 - quiet_l),
    )


def mean_slot_duration(probs: EventProbs, dur: BurstDurations, slot_us: float) -> float:
    """Expected duration of a generalized contention slot."""
    return (probs.ps_w * dur.ts_w + probs.ps_l * dur.ts_l
            + probs.pc_ww * dur.tc_w + probs.pc_ll * dur.tc_l
            + probs.pc_wl * max(dur.tc_w, dur.tc_l)
            + probs.p_idle * slot_us)


LAA_EFFICIENCY = 13.0 / 14.0   # control-overhead discount, applied as given


def throughputs(eq: Equilibrium, scenario: CoexScenario,
                dur: BurstDurations) -> tuple[float, float]:
    """(Th_w, Th_l): mean payload bits per us of generalized slot (= Mbps).

    Whole trailing LAA slots survive a cross-RAT collision.
    """
    probs = event_probabilities(eq, scenario)
    t_cs = mean_slot_duration(probs, dur, scenario.wifi.slot_us)
    th_w = probs.ps_w * dur.n_mpdus * scenario.payload_bytes * 8 / t_cs
    slot = scenario.laa.laa_slot_us
    surviving = math.floor(max(0.0, dur.tc_l - dur.tc_w) / slot) * slot
    delivered = probs.ps_l * dur.laa_txop_us + probs.pc_wl * surviving
    return th_w, LAA_EFFICIENCY * scenario.laa_rate_mbps * delivered / t_cs


#: Scenarios whose coexistence throughputs are kept.  A design sweep prices
#: about 16 distinct coupled scenarios, each many times over; a stream of
#: distinct scenarios gains nothing and keeps at most this many.
COEXISTENCE_CACHE_SIZE = 64


@functools.lru_cache(maxsize=COEXISTENCE_CACHE_SIZE)
def coexistence_throughputs(scenario: CoexScenario) -> tuple[float, float]:
    """(Th_w, Th_l) for direct coexistence on the shared channel.

    Memoized per (frozen, hashable) scenario in a least-recently-used
    cache of ``COEXISTENCE_CACHE_SIZE`` entries; ``cache_info()`` reports
    its hits.  Errors are not cached.  With no Wi-Fi station only the LAA
    burst is priced, and Th_w is 0.
    """
    if scenario.n_w == 0:
        laa_dur = scenario.laa.gamma_us + scenario.laa.txop_coex_us
        dur = BurstDurations(0, scenario.laa.txop_coex_us, 0.0, 0.0, laa_dur, laa_dur)
        return throughputs(solve_equilibrium(scenario), scenario, dur)
    n = full_burst_mpdus(scenario.wifi, scenario.bandwidth_mhz)
    dur = burst_durations(scenario, n, scenario.laa.txop_coex_us)
    return throughputs(solve_equilibrium(scenario), scenario, dur)


def capacity_no_coex(rat: str, scenario: CoexScenario,
                     tx_duration_cap_us: float | None = None) -> float:
    """Capacity of one RAT operating alone, bursts truncated to the cap.

    Wi-Fi truncates by aggregating fewer MPDUs; LAA truncates its burst
    bound.  Returns 0 when nothing fits the cap.  Alone, a station never
    collides or defers: it sends in a slot with probability
    ``tau = 2 / (cw_min + 3)``, and a slot is its burst or an idle slot.
    """
    if rat == "wifi":
        n = scenario.mpdus_per_burst(tx_duration_cap_us)
        if n == 0:
            return 0.0
        tau = 2.0 / (scenario.wifi.cw_min + 3)
        t_cs = (tau * wifi_success_duration(scenario, n)
                + (1.0 - tau) * scenario.wifi.slot_us)
        return tau * n * scenario.payload_bytes * 8 / t_cs
    if rat == "laa":
        txop = scenario.laa.txop_shared_us
        if tx_duration_cap_us is not None:
            txop = min(txop, tx_duration_cap_us)
        if txop <= 0:
            return 0.0
        tau = 2.0 / (scenario.laa.cw_min + 3)
        t_cs = (tau * (scenario.laa.gamma_us + txop)
                + (1.0 - tau) * scenario.wifi.slot_us)
        return LAA_EFFICIENCY * scenario.laa_rate_mbps * (tau * txop) / t_cs
    raise ValueError(f"unknown RAT {rat!r}")
