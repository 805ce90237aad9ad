"""Independent verification tools used by the test suite.

Nothing here calls the closed-form implementations it checks: burst sizes
come from a linear scan, windowed capacities from a sequential packer, the
equilibrium quantities from Monte Carlo counting, and the coupled fixed
point from Newton's method in 50-digit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from coexcap.coex import event_probabilities
from coexcap.params import contention_window


def scan_max_mpdus(profile, data_rate_mbps, duration_cap_us):
    """Largest burst size found by trying every MPDU count in turn."""
    from coexcap.params import ampdu_limit_bytes
    best = 0
    cap = min(profile.max_ppdu_us, duration_cap_us)
    limit = ampdu_limit_bytes(profile.ampdu_exp, profile.mpdu_bytes)
    for n in range(1, profile.max_mpdus + 1):
        airtime = profile.phy_header_us + n * profile.subframe_bytes * 8 / data_rate_mbps
        if airtime <= cap + 1e-9 and n * profile.subframe_bytes <= limit:
            best = n
    return best


def pack_window(window_us, txop_us, t_cax_us, capacity_fn):
    """Sequential burst packer: lay access + burst until the window closes."""
    t = 0.0
    delivered = 0.0   # Mbps-weighted airtime, i.e. payload bits
    while window_us - t > t_cax_us:
        burst = min(txop_us, window_us - t - t_cax_us)
        delivered += capacity_fn(burst) * (t_cax_us + burst)
        t += t_cax_us + burst
    return delivered / window_us


# ---------------------------------------------------------------------------
# Monte Carlo oracles
# ---------------------------------------------------------------------------

@dataclass
class McEstimate:
    value: float
    se: float

    def within(self, target: float, sigmas: float = 3.0) -> bool:
        return abs(self.value - target) <= sigmas * max(self.se, 1e-15)


def _batch(values_num, values_den, batches):
    num = np.array_split(values_num, batches)
    den = np.array_split(values_den, batches)
    est = np.array([n.sum() / d.sum() for n, d in zip(num, den)])
    return McEstimate(values_num.sum() / values_den.sum(),
                      est.std(ddof=1) / math.sqrt(batches))


def chain_tau(profile, pc, pb, n_cycles=200_000, seed=0, batches=20):
    """Empirical transmit probability of the backoff chain, by slot counting.

    One cycle per buffered burst: at each stage the chain spends one
    transmit slot, a geometric defer (success rate 1 - pb), and a uniform
    countdown over [0, CW_r - 1]; a collision (probability pc) advances
    the stage until the retry limit drops the burst.
    """
    rng = np.random.default_rng(seed)
    m = profile.max_retries
    if pc == 0.0:
        stages = np.zeros(n_cycles, dtype=np.int64)
    else:
        u = rng.random(n_cycles)
        stages = np.minimum((np.log(u) / math.log(pc)).astype(np.int64), m)
    tx = np.zeros(n_cycles)
    total = np.zeros(n_cycles)
    for r in range(m + 1):
        active = stages >= r
        count = int(active.sum())
        if count == 0:
            break
        cw = contention_window(profile, r)
        countdown = rng.integers(0, cw, count)
        defer = rng.geometric(1.0 - pb, count)
        tx[active] += 1.0
        total[active] += 1.0 + defer + countdown
    return _batch(tx, total, batches)


def contention_slots(scenario, eq, durations, n_slots=2_000_000, seed=0,
                     batches=20):
    """Slot-level contention Monte Carlo given the per-slot transmit rates.

    Each slot every station transmits independently with its technology's
    rate; outcomes are counted and durations / delivered payload
    accumulated, giving empirical event probabilities, per-station
    collision and blocking rates, and both throughputs with batch-mean
    standard errors (one batch per processing chunk).
    """
    rng = np.random.default_rng(seed)
    chunk = max(1000, math.ceil(n_slots / batches))
    n_w, n_l = scenario.n_w, scenario.n_l
    wifi = scenario.wifi
    laa = scenario.laa
    n_mpdus = scenario.mpdus_per_burst()
    burst_bits_w = n_mpdus * scenario.payload_bytes * 8
    txop = laa.txop_coex_us
    rate_factor = 13.0 / 14.0 * scenario.laa_rate_mbps
    slot_l = laa.laa_slot_us
    surviving = math.floor(max(0.0, durations.tc_l - durations.tc_w) / slot_l) * slot_l
    exp_w = wifi.aifsn - scenario.cca_min + 1
    exp_l = laa.defer_slots - scenario.cca_min + 1

    keys = ("p_idle", "ps_w", "ps_l", "pc_ww", "pc_ll", "pc_wl")
    counts = {k: np.zeros(0) for k in keys}
    time_us = np.zeros(0)
    bits_w = np.zeros(0)
    bits_l = np.zeros(0)
    w0_tx = np.zeros(0)
    w0_coll = np.zeros(0)
    l0_tx = np.zeros(0)
    l0_coll = np.zeros(0)
    blocked_w = np.zeros(0)
    blocked_l = np.zeros(0)
    windows_n = np.zeros(0)

    done = 0
    while done < n_slots:
        size = min(chunk, n_slots - done)
        w = rng.random((size, n_w)) < eq.tau_w if n_w else np.zeros((size, 0), bool)
        l = rng.random((size, n_l)) < eq.tau_l if n_l else np.zeros((size, 0), bool)
        nw_tx = w.sum(axis=1)
        nl_tx = l.sum(axis=1)
        idle = (nw_tx == 0) & (nl_tx == 0)
        ps_w = (nw_tx == 1) & (nl_tx == 0)
        ps_l = (nl_tx == 1) & (nw_tx == 0)
        pc_ww = (nw_tx >= 2) & (nl_tx == 0)
        pc_ll = (nl_tx >= 2) & (nw_tx == 0)
        pc_wl = (nw_tx >= 1) & (nl_tx >= 1)

        chunk_counts = {"p_idle": idle, "ps_w": ps_w, "ps_l": ps_l,
                        "pc_ww": pc_ww, "pc_ll": pc_ll, "pc_wl": pc_wl}
        for k in keys:
            counts[k] = np.concatenate([counts[k], [chunk_counts[k].sum()]])
        dur = (idle * wifi.slot_us + ps_w * durations.ts_w + ps_l * durations.ts_l
               + pc_ww * durations.tc_w + pc_ll * durations.tc_l
               + pc_wl * max(durations.tc_w, durations.tc_l))
        time_us = np.concatenate([time_us, [dur.sum()]])
        bits_w = np.concatenate([bits_w, [ps_w.sum() * burst_bits_w]])
        bits_l = np.concatenate(
            [bits_l, [rate_factor * (ps_l.sum() * txop + pc_wl.sum() * surviving)]])

        # per-station rates seen by the first station of each technology
        others_w = (nw_tx - w[:, 0] >= 1) | (nl_tx >= 1) if n_w else np.zeros(size, bool)
        others_l = (nl_tx - l[:, 0] >= 1) | (nw_tx >= 1) if n_l else np.zeros(size, bool)
        if n_w:
            w0_tx = np.concatenate([w0_tx, [w[:, 0].sum()]])
            w0_coll = np.concatenate([w0_coll, [(w[:, 0] & others_w).sum()]])
            blk = _windowed_any(others_w, exp_w)
            blocked_w = np.concatenate([blocked_w, [blk.sum()]])
            windows_n = np.concatenate([windows_n, [blk.size]])
        if n_l:
            l0_tx = np.concatenate([l0_tx, [l[:, 0].sum()]])
            l0_coll = np.concatenate([l0_coll, [(l[:, 0] & others_l).sum()]])
            blk = _windowed_any(others_l, exp_l)
            blocked_l = np.concatenate([blocked_l, [blk.sum()]])
        done += size

    slots = np.full(counts["p_idle"].shape, float(chunk))
    slots[-1] = n_slots - chunk * (len(slots) - 1)
    out = {k: _batch(counts[k], slots, min(batches, len(slots))) for k in keys}
    out["th_w"] = _batch(bits_w, time_us, min(batches, len(slots)))
    out["th_l"] = _batch(bits_l, time_us, min(batches, len(slots)))
    if n_w:
        out["pc_w"] = _batch(w0_coll, np.maximum(w0_tx, 1.0), min(batches, len(slots)))
        out["pb_w"] = _batch(blocked_w, windows_n, min(batches, len(slots)))
    if n_l:
        out["pc_l"] = _batch(l0_coll, np.maximum(l0_tx, 1.0), min(batches, len(slots)))
        out["pb_l"] = _batch(blocked_l, windows_n, min(batches, len(slots)))
    return out


def _windowed_any(indicator: np.ndarray, width: int) -> np.ndarray:
    """Whether any of ``width`` consecutive slots is set, per window position."""
    if width <= 1:
        return indicator
    n = indicator.size - width + 1
    stacked = np.stack([indicator[i:i + n] for i in range(width)])
    return stacked.any(axis=0)


def analytic_event_probs(eq, scenario):
    probs = event_probabilities(eq, scenario)
    return {"p_idle": probs.p_idle, "ps_w": probs.ps_w, "ps_l": probs.ps_l,
            "pc_ww": probs.pc_ww, "pc_ll": probs.pc_ll, "pc_wl": probs.pc_wl}


# ---------------------------------------------------------------------------
# exact fixed point
# ---------------------------------------------------------------------------

#: Starting points of the exact solve; each must reach the same fixed point.
EXACT_STARTS = ((0.01, 0.01), (0.25, 0.02), (0.02, 0.25))


def _exact_chain(profile):
    """The backoff chain's transmit probability as a function of (pc, pb):
    slots sent over slots spent, stage r weighted by pc**r.  A stage spends
    one transmit slot, a mean 1/(1 - pb) defer slots and a mean
    (CW_r - 1)/2 countdown slots."""
    stages = range(profile.max_retries, -1, -1)
    ones = [1] * len(stages)
    countdowns = [mpmath.mpf(contention_window(profile, r) - 1) / 2 for r in stages]

    def tau(pc, pb):
        sent = mpmath.polyval(ones, pc)
        return sent / (sent * (1 + 1 / (1 - pb)) + mpmath.polyval(countdowns, pc))
    return tau


def _exact_map(scenario):
    """The model's tau -> T(tau) map in mpmath arithmetic."""
    n_w, n_l = scenario.n_w, scenario.n_l
    p_fc = mpmath.mpf(scenario.p_fc)
    cca = min(scenario.wifi.aifsn, scenario.laa.defer_slots)
    exp_w = scenario.wifi.aifsn - cca + 1
    exp_l = scenario.laa.defer_slots - cca + 1
    chain_w, chain_l = _exact_chain(scenario.wifi), _exact_chain(scenario.laa)

    def mapped(tau_w, tau_l):
        # what a Wi-Fi node and an LAA node each see of the other stations
        others_w = (1 - tau_l) ** n_l * (1 - tau_w) ** (n_w - 1)
        others_l = (1 - tau_w) ** n_w * (1 - tau_l) ** (n_l - 1)
        out_w = out_l = mpmath.mpf(0)
        if n_w:
            out_w = chain_w(1 - others_w, 1 - others_w ** exp_w)
        if n_l:
            pc_l = 1 - ((1 - p_fc) + p_fc * (1 - tau_w) ** n_w) * (1 - tau_l) ** (n_l - 1)
            out_l = chain_l(pc_l, 1 - others_l ** exp_l)
        return out_w, out_l
    return mapped


def _newton(residual, x, tol):
    """Newton's method with a forward-difference Jacobian, halving a step
    that leaves (0, 1) or does not shrink the residual."""
    f = residual(x)
    h = tol ** 0.5
    for _ in range(200):
        jac = mpmath.matrix(len(x), len(x))
        for j in range(len(x)):
            bumped = list(x)
            bumped[j] += h
            fj = residual(bumped)
            for i in range(len(x)):
                jac[i, j] = (fj[i] - f[i]) / h
        step = mpmath.lu_solve(jac, mpmath.matrix(f))
        if max(abs(si) for si in step) <= tol:
            return [xi - si for xi, si in zip(x, step)]
        norm = max(abs(v) for v in f)
        scale = mpmath.mpf(1)
        while True:
            trial = [xi - scale * si for xi, si in zip(x, step)]
            if all(0 < t < 1 for t in trial):
                f_trial = residual(trial)
                if max(abs(v) for v in f_trial) < norm:
                    break
            scale /= 2
            if scale < tol:
                raise ArithmeticError("no Newton step shrinks the residual")
        x, f = trial, f_trial
    raise ArithmeticError("Newton's method did not converge")


def exact_equilibrium(scenario, digits=50):
    """(tau_w, tau_l) at the coupled fixed point to ``digits`` digits.

    Newton's method on tau - T(tau) = 0 in ``digits + 10``-digit
    arithmetic, from every point of ``EXACT_STARTS``; all the runs must
    land on one point, which is returned as mpmath numbers.  A side with
    no station sends with probability 0 and is not an unknown.
    """
    sides = [i for i, n in enumerate((scenario.n_w, scenario.n_l)) if n]

    def both(x):
        tau = [mpmath.mpf(0)] * 2
        for i, v in zip(sides, x):
            tau[i] = v
        return tau

    def residual(x):
        tau = both(x)
        mapped = tau_map(*tau)
        return [tau[i] - mapped[i] for i in sides]

    with mpmath.workdps(digits + 10):
        tau_map = _exact_map(scenario)
        tol = mpmath.mpf(10) ** -(digits + 5)
        roots = [_newton(residual, [mpmath.mpf(start[i]) for i in sides], tol)
                 for start in EXACT_STARTS]
        for root in roots[1:]:
            if max(abs(a - b) for a, b in zip(root, roots[0])) > mpmath.mpf(10) ** -digits:
                raise ArithmeticError(f"two fixed points: {roots[0]} and {root}")
        return tuple(both(roots[0]))
