"""Charging schedules: exact optimum, oracle agreement, baselines, fleets."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhealth.errors import (
    DegenerateDistribution,
    InfeasibleSession,
    MalformedRow,
    SignalCoverageGap,
    WindowTooLarge,
)
from gridhealth.health import HealthSeries
from gridhealth.scheduler import (
    ALL_STRATEGIES,
    STRATEGY_CONTINUOUS,
    STRATEGY_FIRST,
    STRATEGY_LATEST,
    ChargingSession,
    SessionTable,
    _fleet_arrays,
    _session_costs,
    baseline_schedule,
    brute_force_schedule,
    evaluate_fleet,
    load_sessions,
    optimal_schedule,
    sample_sessions,
    schedule_for,
    signal_to_slot_prices,
    write_sessions,
)


def session(window, n_slots, rate=1.0, arrival=0, remainder=0.0):
    demand = rate * n_slots - (rate - remainder if remainder else 0.0)
    return ChargingSession(arrival, arrival + window - 1, demand, rate)


def table(sessions):
    return SessionTable.from_sessions(sessions)


def as_sessions(fleet):
    return [fleet.session(i) for i in range(len(fleet))]


class TestOptimal:
    def test_two_cheapest_slots(self):
        s = session(4, 2)
        h = np.array([3.0, 1.0, 2.0, 5.0])
        sched = optimal_schedule(s, h)
        np.testing.assert_array_equal(sched.bits, [0, 1, 1, 0])
        assert sched.cost(h) == 3.0
        # brute force confirms over all C(4,2)=6 subsets
        assert brute_force_schedule(s, h).cost(h) == 3.0

    def test_full_window_forced(self):
        s = session(3, 3)
        h = np.array([9.0, 1.0, 4.0])
        sched = optimal_schedule(s, h)
        np.testing.assert_array_equal(sched.bits, [1, 1, 1])

    def test_constant_h_earliest_tie_break(self):
        s = session(5, 2)
        h = np.full(5, 2.0)
        sched = optimal_schedule(s, h)
        np.testing.assert_array_equal(sched.bits, [1, 1, 0, 0, 0])
        for other in (brute_force_schedule(s, h), baseline_schedule(s, h, STRATEGY_FIRST)):
            assert other.cost(h) == sched.cost(h)

    def test_zero_demand_empty(self):
        s = ChargingSession(0, 3, 0.0, 1.0)
        sched = optimal_schedule(s, np.arange(4.0))
        assert sched.total_energy() == 0.0
        assert sched.cost(np.arange(4.0)) == 0.0

    def test_partial_slot_on_most_expensive_chosen(self):
        # n = 2 forced by demand 1.5, c = 1: remainder 0.5 on the pricier slot
        s = ChargingSession(0, 2, 1.5, 1.0)
        h = np.array([4.0, 1.0, 2.0])
        sched = optimal_schedule(s, h)
        np.testing.assert_array_equal(sched.bits, [0, 1, 1])
        assert sched.energy[1] == 1.0
        assert sched.energy[2] == 0.5
        assert sched.cost(h) == pytest.approx(1.0 + 0.5 * 2.0)


class TestBruteForce:
    def test_window_bound(self):
        s = ChargingSession(0, 20, 5.0, 1.0)
        with pytest.raises(WindowTooLarge):
            brute_force_schedule(s, np.ones(21))

    def test_single_slot(self):
        s = session(1, 1)
        sched = brute_force_schedule(s, np.array([3.0]))
        np.testing.assert_array_equal(sched.bits, [1])

    def test_oracle_agreement_randomized(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            w = int(rng.integers(1, 17))
            rate = float(rng.uniform(1.0, 9.0))
            demand = float(rng.uniform(0.0, rate * w))
            s = ChargingSession(0, w - 1, demand, rate)
            h = rng.uniform(0.1, 5.0, size=w)
            assert optimal_schedule(s, h).cost(h) == brute_force_schedule(s, h).cost(h)


class TestBaselines:
    H = np.array([3.0, 1.0, 2.0, 5.0])

    def test_first_latest_continuous_hand_values(self):
        s = session(4, 2)
        assert baseline_schedule(s, self.H, STRATEGY_FIRST).cost(self.H) == 4.0
        assert baseline_schedule(s, self.H, STRATEGY_LATEST).cost(self.H) == 7.0
        cont = baseline_schedule(s, self.H, STRATEGY_CONTINUOUS)
        np.testing.assert_array_equal(cont.bits, [0, 1, 1, 0])
        assert cont.cost(self.H) == 3.0

    def test_full_window_all_strategies_coincide(self):
        s = session(4, 4)
        costs = {name: schedule_for(s, self.H, name).total_cost for name in ALL_STRATEGIES}
        assert len(set(costs.values())) == 1

    def test_increasing_h_continuous_equals_first(self):
        s = session(5, 3)
        h = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        cont = baseline_schedule(s, h, STRATEGY_CONTINUOUS)
        first = baseline_schedule(s, h, STRATEGY_FIRST)
        np.testing.assert_array_equal(cont.bits, first.bits)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            baseline_schedule(session(3, 1), np.ones(3), "greedy")


class TestInvariants:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_dominance_per_session(self, w, data):
        n = data.draw(st.integers(0, w))
        h = np.array(data.draw(st.lists(st.floats(0.05, 9.0), min_size=w, max_size=w)))
        s = ChargingSession(0, w - 1, float(n * 1.0), 1.0)
        opt = optimal_schedule(s, h).cost(h)
        for strategy in (STRATEGY_FIRST, STRATEGY_LATEST, STRATEGY_CONTINUOUS):
            assert opt <= baseline_schedule(s, h, strategy).cost(h) + 1e-12

    @given(st.integers(1, 10), st.floats(0.1, 5.0), st.data())
    @settings(max_examples=80, deadline=None)
    def test_demand_met_exactly(self, w, rate, data):
        demand = data.draw(st.floats(0.0, rate * w))
        h = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=w, max_size=w)))
        s = ChargingSession(0, w - 1, demand, rate)
        for strategy in ALL_STRATEGIES:
            sched = schedule_for(s, h, strategy).schedule
            assert sched.total_energy() == pytest.approx(demand, abs=1e-9)

    def test_demand_met_bit_exactly_when_divisible(self):
        s = ChargingSession(0, 5, 4.0, 2.0)
        h = np.array([3.0, 1.0, 2.0, 5.0, 0.5, 0.7])
        sched = optimal_schedule(s, h)
        assert sched.total_energy() == 4.0

    def test_shift_invariance_divisible(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = int(rng.integers(2, 10))
            n = int(rng.integers(1, w + 1))
            c = float(rng.uniform(0.5, 4.0))
            s = ChargingSession(0, w - 1, n * c, c)
            h = rng.uniform(0.5, 4.0, size=w)
            delta = float(rng.uniform(0.1, 2.0))
            for strategy in ALL_STRATEGIES:
                base = schedule_for(s, h, strategy)
                shifted = schedule_for(s, h + delta, strategy)
                assert shifted.total_cost == pytest.approx(
                    base.total_cost + c * n * delta, rel=1e-9)
                np.testing.assert_array_equal(shifted.schedule.bits, base.schedule.bits)

    def test_shift_changes_cost_by_energy_times_delta_general(self):
        s = ChargingSession(0, 4, 3.7, 1.5)
        h = np.array([2.0, 0.5, 1.0, 3.0, 0.8])
        delta = 0.9
        base = optimal_schedule(s, h)
        shifted = optimal_schedule(s, h + delta)
        assert shifted.cost(h + delta) == pytest.approx(base.cost(h) + 3.7 * delta, rel=1e-9)


class TestSessionValidation:
    def test_departure_before_arrival(self):
        with pytest.raises(InfeasibleSession):
            ChargingSession(5, 3, 1.0, 1.0)

    def test_demand_exceeds_window(self):
        with pytest.raises(InfeasibleSession):
            ChargingSession(0, 1, 10.0, 1.0)

    def test_nonpositive_rate(self):
        with pytest.raises(InfeasibleSession):
            ChargingSession(0, 1, 1.0, 0.0)

    @pytest.mark.parametrize("demand,rate", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf),
    ])
    def test_non_finite_rejected(self, demand, rate):
        with pytest.raises(InfeasibleSession, match="finite"):
            ChargingSession(0, 3, demand, rate)

    def test_slots_beyond_window_rejected_at_small_rate(self):
        # within 1e-9 kWh of 4 slots' energy, but 5 slots by slots_needed
        with pytest.raises(InfeasibleSession, match="5 slots"):
            ChargingSession(0, 3, 4 * 0.001 + 5e-10, 0.001)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                              st.sampled_from([0.0, 1.0, 2.5, 7.2, -1.0, math.nan, math.inf,
                                               1e308]),
                              st.sampled_from([1.0, 3.6, 1e-10, 0.0, -2.0, math.nan,
                                               math.inf])),
                    max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_table_rejects_first_offender_like_scalar(self, rows):
        ids = [f"s{i}" for i in range(len(rows))]
        expected = None
        for row, name in zip(rows, ids):
            try:
                ChargingSession(*row, name)
            except InfeasibleSession as exc:
                expected = str(exc)
                break
        columns = [list(c) for c in zip(*rows)] or [[]] * 4
        if expected is None:
            fleet = SessionTable(ids, *columns)
            assert as_sessions(fleet) == [ChargingSession(*r, n) for r, n in zip(rows, ids)]
        else:
            with pytest.raises(InfeasibleSession) as info:
                SessionTable(ids, *columns)
            assert str(info.value) == expected

    @given(st.integers(1, 100), st.floats(1e-4, 1e3), st.floats(-1e-12, 1e-12),
           st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_demand_near_multiple_of_rate(self, n, rate, eps, extra):
        demand = n * rate * (1 + eps)
        assert ChargingSession(0, n + 2, demand, rate).slots_needed == n
        w = max(1, n + extra)
        if n > w:
            with pytest.raises(InfeasibleSession):
                ChargingSession(0, w - 1, demand, rate)
            return
        s = ChargingSession(0, w - 1, demand, rate)
        assert s.slots_needed <= s.window_length
        h = np.linspace(0.5, 2.0, w)
        for strategy in ALL_STRATEGIES:
            schedule_for(s, h, strategy)


def diurnal_signal(hours, t0=0):
    costs = []
    for t in range(t0, t0 + hours):
        hod = t % 24
        cost = 3.0 + 1.5 * math.sin(2 * math.pi * (hod - 10) / 24.0)
        costs.append((cost * 0.7, cost * 0.3))
    return HealthSeries(np.arange(t0, t0 + hours), np.reshape(costs, (hours, 2)))


class TestFleet:
    def test_single_session_single_strategy(self):
        signals = diurnal_signal(48)
        s = ChargingSession(10, 20, 6.0, 2.0)
        totals = evaluate_fleet(table([s]), signals, [STRATEGY_FIRST])
        h = (signals.costs[10:21, 0] + signals.costs[10:21, 1]) / 1000.0
        assert totals[STRATEGY_FIRST] == pytest.approx(
            baseline_schedule(s, h, STRATEGY_FIRST).cost(h))

    def test_empty_fleet(self):
        totals = evaluate_fleet(table([]), diurnal_signal(24), ALL_STRATEGIES)
        assert all(v == 0.0 for v in totals.values())

    def test_random_fleet_ordering_and_reductions(self):
        signals = diurnal_signal(24 * 8)
        rng = np.random.default_rng(8)
        sessions = []
        for i in range(100):
            arr = int(rng.integers(0, 24 * 6))
            w = int(rng.integers(2, 30))
            rate = 6.0
            demand = float(rng.uniform(0, rate * w))
            sessions.append(ChargingSession(arr, arr + w - 1, demand, rate, f"s{i}"))
        totals = evaluate_fleet(table(sessions), signals, ALL_STRATEGIES)
        assert totals["optimal"] <= totals[STRATEGY_CONTINUOUS] + 1e-9
        assert totals["optimal"] <= totals[STRATEGY_FIRST] + 1e-9
        assert totals["optimal"] <= totals[STRATEGY_LATEST] + 1e-9
        worst = max(totals[STRATEGY_FIRST], totals[STRATEGY_LATEST])
        reduction = 100.0 * (worst - totals["optimal"]) / worst
        assert reduction >= 0.0

    def test_coverage_gap_names_session(self):
        signals = diurnal_signal(24)
        s = ChargingSession(20, 30, 1.0, 1.0, session_id="EV42")
        with pytest.raises(SignalCoverageGap, match="EV42"):
            evaluate_fleet(table([s]), signals, [STRATEGY_FIRST])

    def test_signal_gap_detected(self):
        a, b = diurnal_signal(10), diurnal_signal(10, t0=12)
        signals = HealthSeries(np.concatenate([a.timestamps, b.timestamps]),
                               np.concatenate([a.costs, b.costs]))
        with pytest.raises(SignalCoverageGap):
            evaluate_fleet(table([ChargingSession(0, 3, 1.0, 1.0)]), signals, [STRATEGY_FIRST])


def engine_costs(sessions, signals, strategy):
    prices, t0 = signal_to_slot_prices(signals)
    return _session_costs(_fleet_arrays(table(sessions), prices, t0), prices, strategy)


@st.composite
def fleets(draw):
    """A signal starting at some t0 and sessions inside it, with edge cases common."""
    hours = draw(st.integers(1, 40))
    t0 = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["ties", "constant", "zeros", "uniform"]))
    if kind == "ties":
        costs = [0.37 * k for k in draw(st.lists(st.integers(0, 3), min_size=hours,
                                                  max_size=hours))]
    elif kind == "constant":
        costs = [draw(st.floats(0.0, 50.0))] * hours
    elif kind == "zeros":
        costs = [0.0] * hours
    else:
        costs = draw(st.lists(st.floats(0.0, 50.0), min_size=hours, max_size=hours))
    signals = HealthSeries(np.arange(t0, t0 + hours),
                           np.reshape([(c * 600.0, c * 400.0) for c in costs], (hours, 2)))
    sessions = []
    for i in range(draw(st.integers(0, 25))):
        w = draw(st.integers(1, hours))
        arrival = t0 + draw(st.integers(0, hours - w))
        n = draw(st.integers(0, w))
        rate = draw(st.sampled_from([0.37, 1.0, 3.6, 7.2, 11.0]))
        if n == 0 or draw(st.booleans()):
            demand = n * rate
        else:
            demand = (n - 1 + draw(st.floats(0.01, 1.0))) * rate
        sessions.append(ChargingSession(arrival, arrival + w - 1, demand, rate, f"E{i}"))
    return sessions, signals


class TestFleetEngine:
    """`evaluate_fleet` against the per-session functions, compared with ==."""

    @given(fleets())
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, fleet):
        sessions, signals = fleet
        prices, t0 = signal_to_slot_prices(signals)
        totals = evaluate_fleet(table(sessions), signals)
        for strategy in ALL_STRATEGIES:
            costs = engine_costs(sessions, signals, strategy)
            total = 0.0
            for s, cost in zip(sessions, costs):
                h = prices[s.arrival - t0:s.departure - t0 + 1]
                scalar = schedule_for(s, h, strategy).total_cost
                assert cost == scalar, (strategy, s)
                total += scalar
            assert totals[strategy] == total

    def test_edge_sessions(self):
        signals = diurnal_signal(30, t0=17)
        sessions = [
            ChargingSession(17, 17, 3.0, 3.6, "w1-partial"),
            ChargingSession(20, 20, 7.2, 7.2, "w1-full"),
            ChargingSession(18, 25, 0.0, 7.2, "zero"),
            ChargingSession(18, 25, 8 * 7.2, 7.2, "n-equals-w"),
            ChargingSession(30, 46, 5 * 11.0, 11.0, "exact-multiple"),
            ChargingSession(19, 40, 20.5, 3.6, "partial"),
        ]
        prices, t0 = signal_to_slot_prices(signals)
        for strategy in ALL_STRATEGIES:
            costs = engine_costs(sessions, signals, strategy)
            for s, cost in zip(sessions, costs):
                h = prices[s.arrival - t0:s.departure - t0 + 1]
                assert cost == schedule_for(s, h, strategy).total_cost, (strategy, s)

    def test_coverage_gap_names_first_offender(self):
        signals = diurnal_signal(24, t0=5)
        fleet = [ChargingSession(5, 10, 1.0, 1.0, "ok"),
                 ChargingSession(20, 30, 1.0, 1.0, "first"),
                 ChargingSession(0, 3, 1.0, 1.0, "second")]
        with pytest.raises(SignalCoverageGap, match=r"session first window \[20, 30\] "
                                                    r"outside signal range \[5, 28\]"):
            evaluate_fleet(table(fleet), signals)
        with pytest.raises(SignalCoverageGap, match="session #1 "):
            evaluate_fleet(table([fleet[0], ChargingSession(0, 3, 1.0, 1.0)]), signals)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy 'greedy'"):
            evaluate_fleet(table([ChargingSession(0, 3, 1.0, 1.0)]), diurnal_signal(24),
                           ["optimal", "greedy"])


ARRIVAL = np.zeros(24)
ARRIVAL[18] = 1.0
DEPART = np.zeros(24)
DEPART[7] = 1.0


class TestSampling:
    def test_point_mass_identical_sessions(self):
        fleet = as_sessions(sample_sessions(5, ARRIVAL, DEPART, [11.0], rate=5.0, seed=1))
        assert len({(s.arrival, s.departure, s.demand_kwh, s.rate_kw) for s in fleet}) == 1
        assert fleet[0].arrival % 24 == 18
        assert fleet[0].departure % 24 == 7
        assert fleet[0].departure > fleet[0].arrival

    def test_same_seed_identical_fleet(self):
        a = sample_sessions(20, ARRIVAL, DEPART, [5.0, 20.0], rate=5.0, seed=9, days=3)
        b = sample_sessions(20, ARRIVAL, DEPART, [5.0, 20.0], rate=5.0, seed=9, days=3)
        assert as_sessions(a) == as_sessions(b)

    def test_arrival_frequencies_match_histogram(self):
        hist = np.zeros(24)
        hist[[16, 17, 18, 19, 20]] = [0.1, 0.2, 0.35, 0.25, 0.1]
        fleet = as_sessions(sample_sessions(10000, hist, DEPART, [10.0], rate=5.0, seed=3))
        counts = np.zeros(24)
        for s in fleet:
            counts[s.arrival % 24] += 1
        tv = 0.5 * np.abs(counts / len(fleet) - hist).sum()
        assert tv < 0.02

    def test_departure_always_after_arrival(self):
        fleet = as_sessions(sample_sessions(500, np.ones(24), np.ones(24),
                                            {"kind": "uniform", "low": 1, "high": 5},
                                            rate=5.0, seed=4, days=4))
        assert all(s.departure > s.arrival for s in fleet)

    def test_infeasible_demand_clipped(self):
        fleet = as_sessions(sample_sessions(50, ARRIVAL, DEPART, [1e6], rate=2.0, seed=5))
        for s in fleet:
            assert s.demand_kwh <= s.rate_kw * s.window_length + 1e-9

    def test_long_fraction_extends_departure(self):
        short = as_sessions(sample_sessions(200, ARRIVAL, DEPART, [5.0], rate=5.0, seed=6,
                                            long_fraction=0.0))
        mixed = as_sessions(sample_sessions(200, ARRIVAL, DEPART, [5.0], rate=5.0, seed=6,
                                            long_fraction=1.0))
        assert all(m.departure - s.departure == 24 for s, m in zip(short, mixed))

    @pytest.mark.parametrize("bad", [np.zeros(24), -np.ones(24), np.ones(5)])
    def test_degenerate_histograms(self, bad):
        with pytest.raises(DegenerateDistribution):
            sample_sessions(5, bad, DEPART, [5.0], rate=5.0, seed=1)

    def test_degenerate_demand(self):
        with pytest.raises(DegenerateDistribution):
            sample_sessions(5, ARRIVAL, DEPART, [], rate=5.0, seed=1)


@pytest.mark.parametrize("row,error", [
    ("a,0,3,nan,1.0", InfeasibleSession),
    ("a,0,3,1.0,inf", InfeasibleSession),
    ("a,5,3,1.0,1.0", InfeasibleSession),
    ("a,0,3,x,1.0", MalformedRow),
    ("a,0,3,1.0", MalformedRow),
    ("a,0,1,1e308,1e-10", InfeasibleSession),          # demand / rate overflows
    ("a,99999999999999999999,3,1.0,1.0", MalformedRow),  # beyond int64
    ("a,0,99999999999999999999,1.0,1.0", MalformedRow),
])
def test_load_sessions_names_path_and_line(tmp_path, row, error):
    p = tmp_path / "sessions.csv"
    p.write_text("session_id,arrival,departure,demand_kwh,rate_kw\nok,0,3,1.0,1.0\n" + row + "\n")
    with pytest.raises(error, match=re.escape(f"{p}:3: ")):
        load_sessions(p)


def test_sessions_csv_round_trip(tmp_path):
    fleet = sample_sessions(10, ARRIVAL, DEPART, [7.5, 22.0], rate=6.6, seed=2, days=2)
    p = tmp_path / "sessions.csv"
    write_sessions(p, fleet)
    again = load_sessions(p)
    assert as_sessions(again) == as_sessions(fleet)
