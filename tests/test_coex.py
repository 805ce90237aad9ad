import math
from dataclasses import replace

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from conftest import coex_durations, make_scenario
from coexcap.coex import (COEXISTENCE_CACHE_SIZE, BurstDurations, CoexScenario,
                          backoff_tau, backoff_windows, burst_durations,
                          capacity_no_coex, coexistence_throughputs,
                          coupling_step, event_probabilities,
                          mean_slot_duration, solve_equilibrium, throughputs,
                          wifi_collision_duration, wifi_success_duration)
from coexcap import coex
from coexcap.errors import (ConfigError, ConvergenceError, DegenerateBlockingError,
                            EmptyBurstError, UnsupportedBandwidthError)
from coexcap.params import contention_window, laa_class1, laa_class4, wifi_default
from coexcap.tables import SweepSpec, scenario_for, sweep_rows
from oracles import (analytic_event_probs, chain_tau, contention_slots,
                     exact_equilibrium)


# ---------------------------------------------------------------------------
# burst durations
# ---------------------------------------------------------------------------

def test_wifi_success_duration_matches_term_sum(scenario_80):
    # explicit term-by-term recomputation at 80 MHz, 64 MPDUs of 1546 B
    expected = 34 + 40 + 64 * 1546 * 8 / 433.3 + 16 + 32 * 8 / 6
    assert wifi_success_duration(scenario_80, 64) == pytest.approx(expected, rel=1e-12)


def test_wifi_collision_duration_relation(scenario_80):
    n = scenario_80.mpdus_per_burst()
    ts = wifi_success_duration(scenario_80, n)
    tc = wifi_collision_duration(scenario_80, n)
    ba_exchange = 16 + 32 * 8 / 6
    assert tc == pytest.approx(ts - ba_exchange + 50.0, rel=1e-12)
    assert tc <= ts


def test_payload_scales_only_psdu_term():
    base = make_scenario(80, payload_bytes=1500)
    doubled = make_scenario(80, payload_bytes=3000)
    n = base.mpdus_per_burst()
    d_base = wifi_success_duration(base, n)
    d_big = wifi_success_duration(doubled, n)
    extra = n * 1500 * 8 / 433.3
    assert d_big - d_base == pytest.approx(extra, rel=1e-9)


def test_empty_burst_rejected(scenario_80):
    capped = replace(scenario_80, wifi=replace(scenario_80.wifi, max_ppdu_us=1.0))
    with pytest.raises(EmptyBurstError):
        coexistence_throughputs(capped)
    # the coupled model and the scenario builder refuse with one message
    with pytest.raises(EmptyBurstError, match="no 99999999 B MPDU fits a Wi-Fi burst"
                       " at 80 MHz") as refused:
        scenario_for(80, payload_bytes=99_999_999)
    oversized = replace(scenario_80, wifi=replace(scenario_80.wifi, payload_bytes=99_999_999))
    with pytest.raises(EmptyBurstError, match=str(refused.value)):
        coexistence_throughputs(oversized)


def test_laa_burst_durations(laa1, laa4):
    assert burst_durations(make_scenario(80, 1), 0, laa1.txop_coex_us).ts_l == 2250.0
    assert burst_durations(make_scenario(80, 4), 0, laa4.txop_coex_us).ts_l == 8250.0
    assert laa1.gamma_us == 250.0


def test_rates_follow_the_bandwidth():
    narrowed = replace(scenario_for(80), bandwidth_mhz=40)
    assert (narrowed.wifi_rate_mbps, narrowed.laa_rate_mbps) == (200.0, 150.8)
    # an LAA-only width prices LAA alone; only reading its Wi-Fi rate fails
    laa_only = replace(scenario_for(80), bandwidth_mhz=60)
    assert capacity_no_coex("laa", laa_only) > 0.0
    with pytest.raises(UnsupportedBandwidthError):
        laa_only.wifi_rate_mbps


def test_burst_durations_symmetry(scenario_80):
    dur = coex_durations(scenario_80)
    assert dur.ts_l == dur.tc_l
    assert dur.tc_w <= dur.ts_w


# ---------------------------------------------------------------------------
# backoff chain closed forms
# ---------------------------------------------------------------------------

def test_root_probability_closed_forms(wifi, laa1):
    # with no collision only stage 0 is used, so tau is the root
    # probability b00 = 2 / (cw_min + 3)
    assert backoff_tau(backoff_windows(wifi), 0.0, 0.0) == pytest.approx(2 / 19, rel=1e-12)
    assert backoff_tau(backoff_windows(laa1), 0.0, 0.0) == pytest.approx(2 / 7, rel=1e-12)


def test_root_probability_degenerate_blocking(wifi):
    # a countdown that is always blocked leaves no root probability
    with pytest.raises(DegenerateBlockingError):
        backoff_tau(backoff_windows(wifi), 0.1, 1.0)


@given(st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=0.0, max_value=0.95))
def test_backoff_tau_decreases_with_pc(pc, pb):
    windows = backoff_windows(wifi_default())
    tau = backoff_tau(windows, pc, pb)
    assert 0.0 < tau <= 1.0
    assert backoff_tau(windows, min(pc + 0.02, 0.97), pb) <= tau + 1e-12


def test_transmission_probability(wifi):
    assert backoff_windows(wifi) == (15, 31, 63, 127, 255, 511, 1023, 1023)
    assert backoff_tau(backoff_windows(wifi), 0.0, 0.0) == pytest.approx(0.10526, abs=1e-5)


@given(st.floats(min_value=0.0, max_value=0.95), st.floats(min_value=0.0, max_value=0.9))
def test_transmission_probability_in_unit_interval(pc, pb):
    tau = backoff_tau(backoff_windows(laa_class4()), pc, pb)
    assert 0.0 <= tau <= 1.0


def _two_step_tau(profile, pc, pb):
    """The textbook chain in two steps: the stage-0, counter-0 probability
    b00, then tau = b00 * sum of pc**r, each sum added left to right."""
    total = 0.0
    for r in range(profile.max_retries + 1):
        cw = contention_window(profile, r)
        total += pc ** r * (1.0 + (2.0 + (1.0 - pb) * (cw - 1)) / (2.0 * (1.0 - pb)))
    b00 = 1.0 / total
    weights = 0.0
    for r in range(profile.max_retries + 1):
        weights += pc ** r
    return b00 * weights


@pytest.mark.parametrize("profile", (wifi_default(), laa_class1(), laa_class4()),
                         ids=("wifi", "laa1", "laa4"))
@given(pc=st.floats(min_value=0.0, max_value=1.0),
       pb=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_backoff_tau_is_the_two_step_formula(profile, pc, pb):
    # one loop, the same operations in the same order: the same double
    assert backoff_tau(backoff_windows(profile), pc, pb) == _two_step_tau(profile, pc, pb)


def test_coupling_step_trivial_cases():
    step = coupling_step(make_scenario(80, n_w=1, n_l=1))
    pc_w, _, _, _ = step(0.3, 0.0)
    assert pc_w == 0.0
    _, pc_l, _, _ = step(0.0, 0.4)
    assert pc_l == 0.0
    _, _, pb_w, pb_l = step(0.0, 0.0)
    assert pb_w == pb_l == 0.0


# ---------------------------------------------------------------------------
# equilibrium
# ---------------------------------------------------------------------------

def test_equilibrium_single_wifi():
    eq = solve_equilibrium(make_scenario(80, n_w=1, n_l=0))
    assert eq.tau_w == pytest.approx(2 / 19, abs=1e-9)
    assert eq.pc_w == 0.0 and eq.pb_w == 0.0
    assert eq.residual <= 1e-10


def test_equilibrium_single_laa():
    eq = solve_equilibrium(make_scenario(80, laa_class=1, n_w=0, n_l=1))
    assert eq.tau_l == pytest.approx(2 / 7, abs=1e-9)
    assert eq.pc_l == 0.0 and eq.pb_l == 0.0


@pytest.mark.parametrize("bw", [20, 40, 80, 160])
@pytest.mark.parametrize("cls", [1, 4])
def test_equilibrium_converges_on_grid(bw, cls):
    for n_w in range(1, 5):
        for n_l in range(1, 5):
            eq = solve_equilibrium(make_scenario(bw, cls, n_w=n_w, n_l=n_l))
            assert eq.residual <= 1e-10
            for p in (eq.tau_w, eq.tau_l, eq.pc_w, eq.pc_l, eq.pb_w, eq.pb_l):
                assert 0.0 <= p <= 1.0


def test_equilibrium_self_consistent():
    scen = make_scenario(80, laa_class=4, n_w=2, n_l=2)
    eq = solve_equilibrium(scen)
    pc_w, pc_l, pb_w, pb_l = coupling_step(scen)(eq.tau_w, eq.tau_l)
    assert pc_w == pytest.approx(eq.pc_w, abs=1e-10)
    assert pb_l == pytest.approx(eq.pb_l, abs=1e-10)
    assert backoff_tau(backoff_windows(scen.wifi), pc_w, pb_w) == \
        pytest.approx(eq.tau_w, abs=1e-9)


#: The exact-oracle grid: n_w, n_l in 1..4, four widths, both classes and
#: four p_fc values at 1500 B, 512 scenarios.
ORACLE_GRID = [make_scenario(bw, cls, n_w=n_w, n_l=n_l, p_fc=p_fc)
               for bw in (20, 40, 80, 160) for cls in (1, 4)
               for n_w in range(1, 5) for n_l in range(1, 5)
               for p_fc in (0.25, 0.5, 0.75, 1.0)]

#: Damped Picard iterations summed over ``ORACLE_GRID``.
ORACLE_GRID_ITERATIONS = 17_932


def test_solver_within_exact_fixed_point():
    # the step rule bounds one damped step, not the distance to the fixed
    # point; against the 50-digit point the solver sits within 4.2e-10.
    # The map reads no width, so the four widths share each exact point.
    exact = {}
    worst = 0.0
    for scen in ORACLE_GRID:
        key = (scen.wifi, scen.laa, scen.n_w, scen.n_l, scen.p_fc)
        if key not in exact:
            exact[key] = exact_equilibrium(scen)
        eq = solve_equilibrium(scen)
        for got, want in zip((eq.tau_w, eq.tau_l), exact[key]):
            worst = max(worst, float(abs(got - want) / want))
    assert len(ORACLE_GRID) == 512 and len(exact) == 128
    assert worst <= 1e-9


def test_exact_equilibrium_lone_station():
    # alone, a station neither collides nor defers: tau = 2 / (cw_min + 3)
    for scen, side, cw_min in ((make_scenario(80, 1, n_w=1, n_l=0), 0, 16),
                               (make_scenario(80, 1, n_w=0, n_l=1), 1, 4),
                               (make_scenario(80, 4, n_w=0, n_l=1), 1, 16)):
        tau = exact_equilibrium(scen)
        assert tau[1 - side] == 0
        with mpmath.workdps(60):
            assert abs(tau[side] - mpmath.mpf(2) / (cw_min + 3)) < mpmath.mpf(10) ** -50


def test_iteration_path_is_pinned():
    # a cheaper iteration must take the same steps
    total = sum(solve_equilibrium(scen).iterations for scen in ORACLE_GRID)
    assert total == ORACLE_GRID_ITERATIONS


def test_solver_raises_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(coex, "SOLVER_MAX_ITERATIONS", 3)
    with pytest.raises(ConvergenceError, match="after 3 iterations") as info:
        solve_equilibrium(make_scenario(80, 1, n_w=2, n_l=2))
    assert info.value.iterations == 3
    assert info.value.residual == pytest.approx(2.761e-02, abs=1e-5)


@pytest.mark.parametrize("kw, message", [
    (dict(n_w=0, n_l=0), "at least one transmitter"),
    (dict(n_w=-1, n_l=2), "at least one transmitter"),
    (dict(p_fc=-0.1), "p_fc"),
    (dict(p_fc=1.5), "p_fc"),
    (dict(p_fc=math.nan), "p_fc"),
])
def test_scenario_refuses_invalid_inputs(kw, message):
    with pytest.raises(ConfigError, match=message):
        make_scenario(80, **kw)


def test_equilibrium_deterministic():
    scen = make_scenario(40, laa_class=4, n_w=3, n_l=2)
    assert solve_equilibrium(scen) == solve_equilibrium(scen)


def test_boundary_reduction_matches_pure_wifi():
    # without LAA users the coupling reduces to Wi-Fi peers only
    scen = make_scenario(80, n_w=3, n_l=0)
    eq = solve_equilibrium(scen)
    assert eq.pc_w == pytest.approx(1 - (1 - eq.tau_w) ** 2, abs=1e-9)
    assert eq.tau_l == 0.0


# ---------------------------------------------------------------------------
# event probabilities and mean slot
# ---------------------------------------------------------------------------

def test_event_probs_zero_tau():
    scen = make_scenario(80, n_w=1, n_l=1)
    eq = solve_equilibrium(scen)
    probs = event_probabilities(replace(eq, tau_w=0.0, tau_l=0.0), scen)
    assert probs.p_idle == 1.0
    assert probs.total() == pytest.approx(1.0, abs=1e-12)


def test_event_probs_certain_intra_wifi_collision():
    scen = make_scenario(80, n_w=2, n_l=1)
    eq = solve_equilibrium(scen)
    probs = event_probabilities(replace(eq, tau_w=1.0, tau_l=0.0), scen)
    assert probs.pc_ww == pytest.approx(1.0)


@settings(max_examples=200)
@given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6))
def test_event_probs_partition_of_unity(tau_w, tau_l, n_w, n_l):
    if n_w + n_l == 0:
        n_w = 1
    scen = make_scenario(80, n_w=n_w, n_l=n_l)
    eq = solve_equilibrium(scen)
    probs = event_probabilities(replace(eq, tau_w=tau_w if n_w else 0.0,
                                        tau_l=tau_l if n_l else 0.0), scen)
    assert probs.total() == pytest.approx(1.0, abs=1e-9)


def test_mean_slot_degenerate_weights():
    dur = BurstDurations(n_mpdus=64, laa_txop_us=2000.0,
                         ts_w=2000.0, tc_w=1950.0, ts_l=2250.0, tc_l=2250.0)
    from coexcap.coex import EventProbs
    idle = EventProbs(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert mean_slot_duration(idle, dur, 9.0) == 9.0
    only_w = EventProbs(0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert mean_slot_duration(only_w, dur, 9.0) == 2000.0


def test_mean_slot_dot_product_oracle():
    scen = make_scenario(80, laa_class=4, n_w=2, n_l=2)
    eq = solve_equilibrium(scen)
    probs = event_probabilities(eq, scen)
    dur = coex_durations(scen)
    weights = [probs.ps_w, probs.ps_l, probs.pc_ww, probs.pc_ll, probs.pc_wl,
               probs.p_idle]
    values = [dur.ts_w, dur.ts_l, dur.tc_w, dur.tc_l, max(dur.tc_w, dur.tc_l), 9.0]
    expected = sum(w * v for w, v in zip(weights, values))
    assert mean_slot_duration(probs, dur, 9.0) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# throughput and no-coexistence capacity
# ---------------------------------------------------------------------------

def test_wifi_capacity_reference_points():
    assert capacity_no_coex("wifi", make_scenario(80)) == pytest.approx(377.22, abs=0.01)
    assert capacity_no_coex("wifi", make_scenario(40, payload_bytes=15_000)) == \
        pytest.approx(191.98, abs=0.01)
    assert capacity_no_coex("wifi", make_scenario(160)) == pytest.approx(684.21, abs=0.01)
    assert capacity_no_coex("wifi", make_scenario(80, payload_bytes=15_000)) == \
        pytest.approx(415.51, abs=0.01)


def test_capacity_zero_cap():
    assert capacity_no_coex("wifi", make_scenario(80), 0.0) == 0.0
    assert capacity_no_coex("laa", make_scenario(80), 0.0) == 0.0


def test_throughput_zero_success():
    scen = make_scenario(80)
    eq = solve_equilibrium(scen)
    silent = replace(eq, tau_w=0.0, tau_l=0.0)
    assert throughputs(silent, scen, coex_durations(scen)) == (0.0, 0.0)


def test_collision_duration_identity_with_matched_timeout():
    # if the timeout is set to exactly the ACK exchange time, a collision
    # occupies the channel as long as a success
    scen = make_scenario(80)
    ba_exchange = scen.wifi.sifs_us + scen.wifi.block_ack_bytes * 8 / 6.0
    matched = replace(scen, wifi=replace(scen.wifi, ack_timeout_us=ba_exchange))
    n = matched.mpdus_per_burst()
    assert wifi_collision_duration(matched, n) == pytest.approx(
        wifi_success_duration(matched, n), rel=1e-12)


def test_laa_collision_recovery_active_for_long_bursts():
    # class-4 bursts outlast a collided Wi-Fi burst by whole scheduled slots
    scen = make_scenario(40, laa_class=4)
    dur = coex_durations(scen)
    slots = math.floor((dur.tc_l - dur.tc_w) / 500.0)
    assert slots >= 1
    eq = solve_equilibrium(scen)
    probs = event_probabilities(eq, scen)
    t_cs = mean_slot_duration(probs, dur, 9.0)
    expected = (13 / 14 * scen.laa_rate_mbps
                * (probs.ps_l * 8000.0 + probs.pc_wl * slots * 500.0) / t_cs)
    assert throughputs(eq, scen, dur)[1] == pytest.approx(expected, rel=1e-12)


def test_laa_collision_recovery_vanishes_when_wifi_longer():
    # class 1 at 80 MHz: the Wi-Fi collision is shorter than the LAA burst
    # by less than one scheduled slot, so no slot survives
    scen = make_scenario(80, laa_class=1)
    dur = coex_durations(scen)
    assert dur.tc_l - dur.tc_w < 500.0
    eq = solve_equilibrium(scen)
    th = throughputs(eq, scen, dur)[1]
    probs = event_probabilities(eq, scen)
    t_cs = mean_slot_duration(probs, dur, 9.0)
    expected = 13 / 14 * scen.laa_rate_mbps * probs.ps_l * 2000.0 / t_cs
    assert th == pytest.approx(expected, rel=1e-12)


def test_monotone_degradation_grid():
    for bw in (20, 40, 80, 160):
        for cls in (1, 4):
            th_w_prev = math.inf
            th_l_prev = math.inf
            for n in range(1, 5):
                c_w, _ = coexistence_throughputs(make_scenario(bw, cls, n_w=1, n_l=n))
                _, c_l = coexistence_throughputs(make_scenario(bw, cls, n_w=n, n_l=1))
                assert c_w <= th_w_prev + 1e-9
                assert c_l <= th_l_prev + 1e-9
                th_w_prev, th_l_prev = c_w, c_l


def test_coexistence_never_beats_isolation():
    for bw in (40, 80, 160):
        for cls in (1, 4):
            scen = make_scenario(bw, cls)
            c_w, c_l = coexistence_throughputs(scen)
            assert c_w <= capacity_no_coex("wifi", scen) + 1e-9
            assert c_l <= capacity_no_coex("laa", scen) + 1e-9


def test_forced_zero_recovers_no_coex():
    scen = make_scenario(80, n_w=1, n_l=1)
    alone = replace(scen, n_w=1, n_l=0)
    th = throughputs(solve_equilibrium(alone), alone, coex_durations(alone))[0]
    assert th == capacity_no_coex("wifi", scen)


@pytest.mark.parametrize("bw", (20, 40, 60, 80, 160))
@pytest.mark.parametrize("cls", (1, 4))
@pytest.mark.parametrize("payload", (1500, 10**6))
def test_coexistence_without_wifi_prices_laa_alone(bw, cls, payload):
    # no Wi-Fi station: no Wi-Fi burst is priced, so neither a width with
    # no Wi-Fi rate (60 MHz) nor a payload no burst holds gets in the way;
    # LAA is priced alone at its coexistence burst bound, which is class
    # 1's shared bound too, bit for bit
    scen = make_scenario(bw, cls, payload, n_w=0, n_l=1)
    bound = replace(scen.laa, txop_shared_us=scen.laa.txop_coex_us)
    assert coexistence_throughputs(scen) == (
        0.0, capacity_no_coex("laa", replace(scen, laa=bound)))
    if cls == 1:
        assert coexistence_throughputs(scen)[1] == capacity_no_coex("laa", scen)


@pytest.mark.parametrize("bw", (20, 40, 80, 160))
@pytest.mark.parametrize("cls", (1, 4))
@pytest.mark.parametrize("payload", (1500, 15_000, 10**6))
def test_lone_closed_form_equals_solver(bw, cls, payload):
    # capacity_no_coex skips the fixed-point iteration; the solver's
    # capacity must come out bit for bit the same, under every burst cap
    scen = make_scenario(bw, cls, payload)
    for cap in (None, 300.0, 2500.0, 7500.0):
        alone = replace(scen, n_w=1, n_l=0)
        n = alone.mpdus_per_burst(cap)
        expected = (throughputs(solve_equilibrium(alone), alone,
                                burst_durations(alone, n, 0.0))[0] if n else 0.0)
        assert capacity_no_coex("wifi", scen, cap) == expected, cap
        alone = replace(scen, n_w=0, n_l=1)
        txop = alone.laa.txop_shared_us if cap is None else min(alone.laa.txop_shared_us, cap)
        expected = throughputs(solve_equilibrium(alone), alone,
                               burst_durations(alone, 0, txop))[1]
        assert capacity_no_coex("laa", scen, cap) == expected, cap


def _solver_capacity(rat, scen, cap=None):
    """A lone station priced through the coupled model with the other side
    zeroed, with the duration of the station's collided burst."""
    if rat == "wifi":
        alone = replace(scen, n_w=1, n_l=0)
        dur = burst_durations(alone, alone.mpdus_per_burst(cap), 0.0)
        return throughputs(solve_equilibrium(alone), alone, dur)[0], dur.tc_w
    alone = replace(scen, n_w=0, n_l=1)
    txop = alone.laa.txop_shared_us if cap is None else min(alone.laa.txop_shared_us, cap)
    dur = burst_durations(alone, 0, txop)
    return throughputs(solve_equilibrium(alone), alone, dur)[1], dur.tc_l


def _assert_lone_price(rat, scen, cap):
    closed = capacity_no_coex(rat, scen, cap)
    solver, collision_us = _solver_capacity(rat, scen, cap)
    tau = 2.0 / ((scen.wifi if rat == "wifi" else scen.laa).cw_min + 3)
    # the solver prices a same-RAT collision with probability
    # (1 - (1 - tau)) - tau, a rounding residue; where it is 0 the two
    # prices are one double, elsewhere they differ by at most the residue's
    # airtime over the idle part of the mean slot
    residue = (1.0 - (1.0 - tau)) - tau
    if residue == 0.0:
        assert closed == solver, cap
    else:
        drift = abs(residue) * collision_us / ((1.0 - tau) * scen.wifi.slot_us)
        assert math.isclose(closed, solver, rel_tol=1e-15 + drift), cap


@pytest.mark.parametrize("cw_min", [2 ** k for k in range(11)])
def test_lone_wifi_price_at_every_window(cw_min):
    wifi = replace(wifi_default(), cw_min=cw_min)
    for bw in (40, 160):
        scen = CoexScenario(wifi=wifi, laa=laa_class1(), bandwidth_mhz=bw)
        for cap in (None, 300.0, 2500.0):
            _assert_lone_price("wifi", scen, cap)


@pytest.mark.parametrize("cw_min", (1, 3, 4, 7, 8, 16, 63, 1023))
def test_lone_laa_price_at_every_window(cw_min):
    laa = replace(laa_class4(), cw_min=cw_min)
    for bw in (20, 160):
        scen = CoexScenario(wifi=wifi_default(), laa=laa, bandwidth_mhz=bw)
        for cap in (None, 300.0, 2500.0):
            _assert_lone_price("laa", scen, cap)


@pytest.mark.parametrize("profile", (wifi_default(), laa_class1(), laa_class4()),
                         ids=("wifi", "laa1", "laa4"))
def test_lone_chain_mc_matches_closed_form(profile):
    # a station alone never collides or defers: counting slots of its
    # chain gives the transmit probability the closed form prices with
    est = chain_tau(profile, 0.0, 0.0, n_cycles=150_000, seed=11)
    assert est.within(2.0 / (profile.cw_min + 3)), (est.value, est.se)


# ---------------------------------------------------------------------------
# memo of coexistence_throughputs
# ---------------------------------------------------------------------------

def test_repeated_sweep_hits_the_memo():
    spec = SweepSpec(bandwidths=(40, 80), classes=(1, 4), regimes=("coex",))
    hits = coexistence_throughputs.cache_info().hits
    first = sweep_rows(spec)
    assert sweep_rows(spec) == first
    assert coexistence_throughputs.cache_info().hits > hits


def test_memo_stays_bounded():
    for i in range(200):
        coexistence_throughputs(make_scenario(80, 1 + 3 * (i % 2), p_fc=0.5 + i / 1000))
    info = coexistence_throughputs.cache_info()
    assert info.maxsize == COEXISTENCE_CACHE_SIZE == 64
    assert info.currsize <= info.maxsize


def test_memo_returns_the_unmemoized_values():
    for n_w, n_l in ((1, 1), (2, 3), (4, 1)):
        for p_fc in (0.5, 1.0):
            scen = make_scenario(40, 4, 15_000, n_w, n_l, p_fc)
            assert coexistence_throughputs(scen) == coexistence_throughputs.__wrapped__(scen)
            assert coexistence_throughputs(scen) == coexistence_throughputs.__wrapped__(scen)


def test_memo_never_keeps_an_error():
    scen = make_scenario(80, payload_bytes=10**6)
    for _ in range(3):
        with pytest.raises(EmptyBurstError):
            coexistence_throughputs(scen)


# ---------------------------------------------------------------------------
# Monte Carlo spot checks (full 3-sigma sweep lives in the acceptance suite)
# ---------------------------------------------------------------------------

def test_chain_mc_matches_closed_form():
    scen = make_scenario(80, laa_class=1)
    eq = solve_equilibrium(scen)
    est = chain_tau(scen.wifi, eq.pc_w, eq.pb_w, n_cycles=150_000, seed=11)
    assert est.within(eq.tau_w), (est.value, eq.tau_w, est.se)


def test_contention_mc_matches_model():
    scen = make_scenario(80, laa_class=1)
    eq = solve_equilibrium(scen)
    dur = coex_durations(scen)
    stats = contention_slots(scen, eq, dur, n_slots=400_000, seed=7)
    expected = analytic_event_probs(eq, scen)
    for key, target in expected.items():
        assert stats[key].within(target), (key, stats[key].value, target)
    th_w, th_l = throughputs(eq, scen, dur)
    assert stats["th_w"].within(th_w)
    assert stats["th_l"].within(th_l)
    assert stats["pc_w"].within(eq.pc_w)
    assert stats["pb_l"].within(eq.pb_l)
