"""Saturation-throughput model for Wi-Fi and LAA contending on one channel.

Couples two per-technology backoff chains through collision and
countdown-blocking probabilities, solves the resulting fixed point, and
turns the equilibrium into event probabilities, mean slot duration and
per-technology throughput.  The no-coexistence capacity is the same model
with the other technology zeroed out.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

from .errors import ConvergenceError, DegenerateBlockingError, EmptyBurstError
from .params import (DEFAULT_RATE_TABLE, LaaClassProfile, WifiMacProfile,
                     contention_window, max_mpdus_per_burst)


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
            raise ValueError("need at least one transmitter")
        if not 0.0 <= self.p_fc <= 1.0:
            raise ValueError("p_fc must be a probability")

    @property
    def wifi_rate_mbps(self) -> float:
        """Peak Wi-Fi rate at the bandwidth; raises ``UnsupportedBandwidthError``
        for a width with no Wi-Fi rate (LAA-alone pricing never reads it)."""
        return DEFAULT_RATE_TABLE.wifi_rate(self.bandwidth_mhz)

    @property
    def laa_rate_mbps(self) -> float:
        return DEFAULT_RATE_TABLE.laa_rate(self.bandwidth_mhz)

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

    def to_dict(self) -> dict:
        return {"tau_w": self.tau_w, "tau_l": self.tau_l,
                "pc_w": self.pc_w, "pc_l": self.pc_l,
                "pb_w": self.pb_w, "pb_l": self.pb_l,
                "residual": self.residual, "iterations": self.iterations}


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

    def to_dict(self) -> dict:
        return {"p_idle": self.p_idle, "ps_w": self.ps_w, "ps_l": self.ps_l,
                "pc_ww": self.pc_ww, "pc_ll": self.pc_ll, "pc_wl": self.pc_wl}


@dataclass(frozen=True)
class BurstDurations:
    """Event durations in us with the burst bounds they were priced from;
    LAA collisions and successes last the same."""

    n_mpdus: int               # MPDUs per Wi-Fi burst; 0 means no Wi-Fi burst
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
    """Durations of a Wi-Fi burst of ``n_mpdus`` MPDUs (0: no Wi-Fi burst,
    zero-length legs) and of an LAA burst bounded by ``laa_txop_us``, which
    adds the slot-alignment wait and lasts the same collided or not."""
    ts_w = wifi_success_duration(scenario, n_mpdus) if n_mpdus else 0.0
    tc_w = wifi_collision_duration(scenario, n_mpdus) if n_mpdus else 0.0
    laa_dur = scenario.laa.gamma_us + laa_txop_us
    return BurstDurations(n_mpdus, laa_txop_us, ts_w, tc_w, laa_dur, laa_dur)


# ---------------------------------------------------------------------------
# backoff chain and coupling
# ---------------------------------------------------------------------------

def backoff_root_probability(profile, pc: float, pb: float) -> float:
    """Stationary probability of the stage-0, counter-0 chain state."""
    if pb >= 1.0:
        raise DegenerateBlockingError("blocking probability of 1 stalls the countdown")
    total = 0.0
    for r in range(profile.max_retries + 1):
        cw = contention_window(profile, r)
        total += pc ** r * (1.0 + (2.0 + (1.0 - pb) * (cw - 1)) / (2.0 * (1.0 - pb)))
    return 1.0 / total


def transmission_probability(b00: float, pc: float, max_retries: int) -> float:
    """Probability of transmitting in a randomly chosen slot."""
    return b00 * sum(pc ** r for r in range(max_retries + 1))


def _pow_n(base: float, n: int) -> float:
    # (1 - tau)**(n - 1) with n = 0 only ever occurs alongside tau = 0
    if n <= 0:
        return 1.0
    return base ** n


def coupling_step(tau_w: float, tau_l: float, scenario: CoexScenario):
    """Collision and countdown-blocking probabilities given both transmit rates."""
    n_w, n_l = scenario.n_w, scenario.n_l
    quiet_w_peers = _pow_n(1.0 - tau_w, n_w - 1)   # no other Wi-Fi node
    quiet_w_all = _pow_n(1.0 - tau_w, n_w)
    quiet_l_peers = _pow_n(1.0 - tau_l, n_l - 1)
    quiet_l_all = _pow_n(1.0 - tau_l, n_l)
    p_fc = scenario.p_fc

    pc_w = 1.0 - quiet_l_all * quiet_w_peers
    pc_l = 1.0 - ((1.0 - p_fc) + p_fc * quiet_w_all) * quiet_l_peers
    exp_w = scenario.wifi.aifsn - scenario.cca_min + 1
    exp_l = scenario.laa.defer_slots - scenario.cca_min + 1
    pb_w = 1.0 - (quiet_l_all * quiet_w_peers) ** exp_w
    pb_l = 1.0 - (quiet_w_all * quiet_l_peers) ** exp_l
    return pc_w, pc_l, pb_w, pb_l


def _tau_pair(pc_w, pc_l, pb_w, pb_l, scenario):
    if scenario.n_w > 0:
        b_w = backoff_root_probability(scenario.wifi, pc_w, pb_w)
        tau_w = transmission_probability(b_w, pc_w, scenario.wifi.max_retries)
    else:
        tau_w = 0.0
    if scenario.n_l > 0:
        b_l = backoff_root_probability(scenario.laa, pc_l, pb_l)
        tau_l = transmission_probability(b_l, pc_l, scenario.laa.max_retries)
    else:
        tau_l = 0.0
    return tau_w, tau_l


SOLVER_TOL = 1e-10
SOLVER_MAX_ITERATIONS = 10_000
SOLVER_DAMPING = 0.5


def solve_equilibrium(scenario: CoexScenario) -> Equilibrium:
    """Damped Picard iteration on (tau_w, tau_l); deterministic for a scenario."""
    tau_w = 0.05 if scenario.n_w else 0.0
    tau_l = 0.05 if scenario.n_l else 0.0
    residual = math.inf
    for iteration in range(1, SOLVER_MAX_ITERATIONS + 1):
        pc_w, pc_l, pb_w, pb_l = coupling_step(tau_w, tau_l, scenario)
        new_w, new_l = _tau_pair(pc_w, pc_l, pb_w, pb_l, scenario)
        residual = max(abs(new_w - tau_w), abs(new_l - tau_l))
        if residual <= SOLVER_TOL:
            pc_w, pc_l, pb_w, pb_l = coupling_step(new_w, new_l, scenario)
            return Equilibrium(new_w, new_l, pc_w, pc_l, pb_w, pb_l,
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
    quiet_w = _pow_n(1.0 - tau_w, n_w)
    quiet_l = _pow_n(1.0 - tau_l, n_l)
    single_w = n_w * tau_w * _pow_n(1.0 - tau_w, n_w - 1) if n_w else 0.0
    single_l = n_l * tau_l * _pow_n(1.0 - tau_l, n_l - 1) if n_l else 0.0
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
    its hits.  Errors are not cached.
    """
    n = scenario.mpdus_per_burst()
    if n == 0:
        raise EmptyBurstError("no MPDU fits a Wi-Fi burst")
    dur = burst_durations(scenario, n, scenario.laa.txop_coex_us)
    return throughputs(solve_equilibrium(scenario), scenario, dur)


def _lone_equilibrium(alone: CoexScenario) -> Equilibrium:
    """The fixed point of one station with no contender, without iterating.

    Alone, the station's collision and blocking probabilities do not depend
    on the transmit rates (both are 0), so the first Picard proposal is the
    fixed point, and ``solve_equilibrium`` returns that value bit for bit.
    """
    tau_w, tau_l = _tau_pair(*coupling_step(0.0, 0.0, alone), alone)
    return Equilibrium(tau_w, tau_l, *coupling_step(tau_w, tau_l, alone), 0.0, 0)


def capacity_no_coex(rat: str, scenario: CoexScenario,
                     tx_duration_cap_us: float | None = None) -> float:
    """Capacity of one RAT operating alone, bursts truncated to the cap.

    Wi-Fi truncates by aggregating fewer MPDUs; LAA truncates its burst
    bound.  Returns 0 when nothing fits the cap.  The lone station's
    equilibrium is closed form (``_lone_equilibrium``), with no iteration.
    """
    if rat == "wifi":
        alone = replace(scenario, n_w=1, n_l=0)
        n = alone.mpdus_per_burst(tx_duration_cap_us)
        if n == 0:
            return 0.0
        dur = burst_durations(alone, n, 0.0)
        return throughputs(_lone_equilibrium(alone), alone, dur)[0]
    if rat == "laa":
        alone = replace(scenario, n_w=0, n_l=1)
        txop = alone.laa.txop_shared_us
        if tx_duration_cap_us is not None:
            txop = min(txop, tx_duration_cap_us)
        if txop <= 0:
            return 0.0
        dur = burst_durations(alone, 0, txop)
        return throughputs(_lone_equilibrium(alone), alone, dur)[1]
    raise ValueError(f"unknown RAT {rat!r}")
