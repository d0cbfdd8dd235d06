"""Health-aware EV charging schedules.

A session charges at a constant rate, so meeting demand `z` means picking
n = ceil(z / c) slots inside [arrival, departure]; when z is not a multiple
of c the slot selected last carries only the remainder, and the objective
weights it by that partial energy. With the remainder on the last-selected
(most expensive) slot, picking the n cheapest slots is globally optimal,
which `brute_force_schedule` verifies by enumeration.

Fleet evaluation is array-form: `evaluate_fleet` groups sessions by window
length, gathers one (sessions, window) price block per group and costs every
strategy in batch. The per-session functions (`optimal_schedule`,
`baseline_schedule`, `schedule_for`, `brute_force_schedule`) are the oracle
it is tested against: each session's cost is the `math.fsum` of the same
energy x price products `Schedule.cost` adds, so it is equal with `==`.

Costs are in dollars: h carries $/kWh per slot and energies are kWh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateDistribution,
    InfeasibleSession,
    SignalCoverageGap,
    WindowTooLarge,
)
from .health import HealthSeries
from .ingest import as_float, as_int, as_str, read_table, write_table

BRUTE_FORCE_MAX_WINDOW = 20

STRATEGY_OPTIMAL = "optimal"
STRATEGY_FIRST = "first_hours"
STRATEGY_LATEST = "latest_hours"
STRATEGY_CONTINUOUS = "continuous"
ALL_STRATEGIES = (STRATEGY_OPTIMAL, STRATEGY_FIRST, STRATEGY_LATEST, STRATEGY_CONTINUOUS)

USD_PER_MWH_TO_PER_KWH = 1e-3


@dataclass(frozen=True, slots=True)
class ChargingSession:
    """One EV: arrival/departure slot indices (inclusive), kWh demand, kW rate.

    A session is feasible when the slots it needs fit in its window.
    """

    arrival: int
    departure: int
    demand_kwh: float
    rate_kw: float
    session_id: str = ""

    def __post_init__(self):
        name = self.session_id or "session"
        if self.departure < self.arrival:
            raise InfeasibleSession(f"{name}: departure before arrival")
        if not math.isfinite(self.demand_kwh) or self.demand_kwh < 0:
            raise InfeasibleSession(f"{name}: demand must be finite and nonnegative, "
                                    f"got {self.demand_kwh}")
        if not math.isfinite(self.rate_kw) or self.rate_kw <= 0:
            raise InfeasibleSession(f"{name}: rate must be finite and positive, "
                                    f"got {self.rate_kw}")
        # ceil(x) > w exactly when x > w, for an integer w; x may be inf
        needed = self.demand_kwh / self.rate_kw - 1e-9
        if needed > self.window_length:
            slots = math.ceil(needed) if math.isfinite(needed) else needed
            raise InfeasibleSession(
                f"{name}: demand {self.demand_kwh} kWh needs {slots} slots at "
                f"{self.rate_kw} kW, the window has {self.window_length}"
            )

    @property
    def window_length(self) -> int:
        return self.departure - self.arrival + 1

    @property
    def slots_needed(self) -> int:
        if self.demand_kwh == 0:
            return 0
        return int(math.ceil(self.demand_kwh / self.rate_kw - 1e-9))


@dataclass(eq=False)
class SessionTable:
    """A fleet as columns, entry i for session i, held to `ChargingSession`'s rules.

    The first session those rules reject raises its `ChargingSession` error,
    which carries the session's index as `row`.
    """

    session_id: np.ndarray   # (S,) str, "" for an unnamed session
    arrival: np.ndarray      # (S,) int64 slot indices, inclusive
    departure: np.ndarray    # (S,) int64
    demand_kwh: np.ndarray   # (S,) float64
    rate_kw: np.ndarray      # (S,) float64

    def __post_init__(self):
        self.session_id = np.asarray(self.session_id, dtype=str)
        self.arrival = np.asarray(self.arrival, dtype=np.int64)
        self.departure = np.asarray(self.departure, dtype=np.int64)
        self.demand_kwh = np.asarray(self.demand_kwh, dtype=np.float64)
        self.rate_kw = np.asarray(self.rate_kw, dtype=np.float64)
        if not (self.arrival.shape == self.departure.shape == self.demand_kwh.shape
                == self.rate_kw.shape == self.session_id.shape == (len(self.arrival),)):
            raise ValueError("session columns must be 1-d and of one length")
        # the rules over whole columns flag the sessions to build one by one; a
        # window beyond 2**53 slots is flagged by its rounded float length
        window = (self.departure - self.arrival).astype(np.float64) + 1
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            needed = self.demand_kwh / self.rate_kw - 1e-9
        bad = ((self.departure < self.arrival) | (needed > window)
               | ~(np.isfinite(self.demand_kwh) & (self.demand_kwh >= 0))
               | ~(np.isfinite(self.rate_kw) & (self.rate_kw > 0)))
        for i in np.flatnonzero(bad).tolist():
            try:
                self.session(i)
            except InfeasibleSession as exc:
                exc.row = i
                raise

    @classmethod
    def from_sessions(cls, sessions) -> "SessionTable":
        """The table of a sequence of `ChargingSession`s."""
        return cls(*([getattr(s, f.name) for s in sessions] for f in fields(cls)))

    def __len__(self) -> int:
        return len(self.arrival)

    def session(self, i: int) -> ChargingSession:
        return ChargingSession(int(self.arrival[i]), int(self.departure[i]),
                               float(self.demand_kwh[i]), float(self.rate_kw[i]),
                               str(self.session_id[i]))


# The sessions CSV holds the table's columns in field order.
SESSION_COLUMNS = [("session_id", as_str), ("arrival", as_int), ("departure", as_int),
                   ("demand_kwh", as_float), ("rate_kw", as_float)]


@dataclass
class Schedule:
    """Binary slot selection plus the per-slot energy it delivers."""

    session: ChargingSession
    bits: np.ndarray     # (window,), 0/1
    energy: np.ndarray   # (window,), kWh; rate_kw except on the remainder slot

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.int8)
        self.energy = np.asarray(self.energy, dtype=np.float64)

    def total_energy(self) -> float:
        return math.fsum(self.energy)

    def cost(self, h: np.ndarray) -> float:
        """Total dollars against per-slot $/kWh prices for the window."""
        h = np.asarray(h, dtype=np.float64)
        if h.shape != self.energy.shape:
            raise ValueError("price vector does not cover the window")
        return float(math.fsum(self.energy * h))


@dataclass
class StrategyResult:
    strategy: str
    total_cost: float
    schedule: Schedule


def _make_schedule(session: ChargingSession, chosen_in_order: list[int]) -> Schedule:
    """Build a schedule from slots listed in selection order.

    The slot selected last carries the remainder energy; earlier ones charge
    at full rate.
    """
    w = session.window_length
    bits = np.zeros(w, dtype=np.int8)
    energy = np.zeros(w)
    n = len(chosen_in_order)
    if n:
        remainder = session.demand_kwh - (n - 1) * session.rate_kw
        for slot in chosen_in_order[:-1]:
            bits[slot] = 1
            energy[slot] = session.rate_kw
        last = chosen_in_order[-1]
        bits[last] = 1
        energy[last] = remainder
    return Schedule(session, bits, energy)


def _check_h(session: ChargingSession, h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or h.shape[0] != session.window_length:
        raise ValueError(
            f"h must cover the window: expected {session.window_length} slots, got {h.shape}"
        )
    return h


def optimal_schedule(session: ChargingSession, h) -> Schedule:
    """Charge in the n cheapest slots; global cost minimum.

    Ties break toward the earlier slot. Selection order is cheapest first,
    so any remainder lands on the most expensive chosen slot.
    """
    h = _check_h(session, h)
    n = session.slots_needed
    order = np.argsort(h, kind="stable")
    return _make_schedule(session, [int(i) for i in order[:n]])


def brute_force_schedule(session: ChargingSession, h) -> Schedule:
    """Enumerate every feasible slot subset; verification oracle only."""
    h = _check_h(session, h)
    w = session.window_length
    if w > BRUTE_FORCE_MAX_WINDOW:
        raise WindowTooLarge(f"window {w} exceeds enumeration bound {BRUTE_FORCE_MAX_WINDOW}")
    n = session.slots_needed
    if n == 0:
        return _make_schedule(session, [])
    remainder = session.demand_kwh - (n - 1) * session.rate_kw
    idx = np.array(list(combinations(range(w), n)))  # (S, n), lexicographic
    hs = h[idx]
    hmax = hs.max(axis=1)
    costs = session.rate_kw * (hs.sum(axis=1) - hmax) + remainder * hmax
    best = int(np.argmin(costs))  # first minimum = earliest subset on ties
    subset = idx[best]
    # remainder on the most expensive slot of the subset (latest on ties)
    k = int(np.where(hs[best] == hmax[best])[0][-1])
    in_order = [int(s) for i, s in enumerate(subset) if i != k] + [int(subset[k])]
    return _make_schedule(session, in_order)


def baseline_schedule(session: ChargingSession, h, strategy: str) -> Schedule:
    """first_hours, latest_hours, or best contiguous block."""
    h = _check_h(session, h)
    n = session.slots_needed
    w = session.window_length
    if strategy == STRATEGY_FIRST:
        return _make_schedule(session, list(range(n)))
    if strategy == STRATEGY_LATEST:
        return _make_schedule(session, list(range(w - n, w)))
    if strategy == STRATEGY_CONTINUOUS:
        if n == 0:
            return _make_schedule(session, [])
        remainder = session.demand_kwh - (n - 1) * session.rate_kw
        best_cost, best_start = math.inf, 0
        for start in range(w - n + 1):
            block = h[start:start + n]
            cost = session.rate_kw * (block[:-1].sum() if n > 1 else 0.0) + remainder * block[-1]
            if cost < best_cost:
                best_cost = cost
                best_start = start
        return _make_schedule(session, list(range(best_start, best_start + n)))
    raise ValueError(f"unknown strategy {strategy!r}")


def schedule_for(session: ChargingSession, h, strategy: str) -> StrategyResult:
    if strategy == STRATEGY_OPTIMAL:
        sched = optimal_schedule(session, h)
    else:
        sched = baseline_schedule(session, h, strategy)
    return StrategyResult(strategy, sched.cost(np.asarray(h, dtype=np.float64)), sched)


def signal_to_slot_prices(signals: HealthSeries) -> tuple[np.ndarray, int]:
    """Dense $/kWh per slot (internal + external) and the first timestamp."""
    if not len(signals):
        raise SignalCoverageGap("empty health signal series")
    first, last = int(signals.timestamps[0]), int(signals.timestamps[-1])
    if last - first != len(signals) - 1:   # stamps strictly increase, so this is a gap
        raise SignalCoverageGap("health signal series has gaps")
    prices = (signals.costs[:, 0] + signals.costs[:, 1]) * USD_PER_MWH_TO_PER_KWH
    return prices, first


def evaluate_fleet(sessions: SessionTable, signals: HealthSeries,
                   strategies: list[str] | tuple[str, ...] = ALL_STRATEGIES) -> dict[str, float]:
    """Total fleet cost per strategy against one health-signal series.

    Each total adds the per-session costs left to right in session order.
    """
    for strategy in strategies:
        if strategy not in ALL_STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    prices, t0 = signal_to_slot_prices(signals)
    fleet = _fleet_arrays(sessions, prices, t0)
    totals = {}
    for strategy in strategies:
        costs = _session_costs(fleet, prices, strategy)
        # accumulate is sequential, like +=; sum() and np.sum round differently
        totals[strategy] = float(np.add.accumulate(costs, out=costs)[-1]) if len(costs) else 0.0
    return totals


# Elements in one temporary block of the fleet engine; bounds its memory.
_BLOCK_ELEMENTS = 1 << 13


class _Fleet(NamedTuple):
    lo: np.ndarray         # each window's first slot, as an index into the prices
    width: np.ndarray      # window lengths
    rate: np.ndarray
    n: np.ndarray          # slots needed
    remainder: np.ndarray  # energy of the last-selected slot, as `_make_schedule` has it
    chunks: list           # (window length, session indices), at most one block each


def _fleet_arrays(sessions: SessionTable, prices: np.ndarray, t0: int) -> _Fleet:
    """The engine's session arrays, chunked by window length; raises on a coverage gap."""
    lo = sessions.arrival - t0
    hi = sessions.departure - t0
    outside = (lo < 0) | (hi >= len(prices))
    if outside.any():
        i = int(np.argmax(outside))
        raise SignalCoverageGap(
            f"session {sessions.session_id[i] or f'#{i}'} window "
            f"[{sessions.arrival[i]}, {sessions.departure[i]}] "
            f"outside signal range [{t0}, {t0 + len(prices) - 1}]"
        )
    # slot indices fit int32 and it halves the engine's index memory
    lo, width = lo.astype(np.int32), (hi - lo + 1).astype(np.int32)
    order = np.argsort(width, kind="stable").astype(np.int32)
    chunks = []
    for group in np.split(order, np.flatnonzero(np.diff(width[order])) + 1):
        if len(group):
            w = int(width[group[0]])
            step = max(1, _BLOCK_ELEMENTS // w)
            chunks.extend((w, group[at:at + step]) for at in range(0, len(group), step))
    rate = sessions.rate_kw
    # `ChargingSession.slots_needed`'s arithmetic; a zero demand gives ceil(-1e-9) = 0
    n = np.ceil(sessions.demand_kwh / rate - 1e-9).astype(np.int32)
    remainder = np.where(n > 0, sessions.demand_kwh - (n - 1) * rate, 0.0)
    return _Fleet(lo, width, rate, n, remainder, chunks)


def _session_costs(fleet: _Fleet, prices: np.ndarray, strategy: str) -> np.ndarray:
    """One strategy's cost per session, in session order.

    The chosen slots of a row are columns start..start+n-1 of its price
    block (sorted for `optimal`); the last carries the remainder. Each cost
    is the `math.fsum` of the products `Schedule.cost` adds, so it equals
    `schedule_for(...).total_cost`.
    """
    if strategy == STRATEGY_CONTINUOUS:
        best_start = _continuous_starts(fleet, prices)
    costs = np.zeros(len(fleet.n))
    for w, idx in fleet.chunks:
        col = np.arange(w)
        block = prices[fleet.lo[idx, None] + col]
        n, rate, remainder = fleet.n[idx], fleet.rate[idx], fleet.remainder[idx]
        if strategy == STRATEGY_OPTIMAL:
            block.sort(axis=1, kind="stable")
            start = np.zeros_like(n)
        elif strategy == STRATEGY_FIRST:
            start = np.zeros_like(n)
        elif strategy == STRATEGY_LATEST:
            start = w - n
        else:
            start = best_start[idx]
        last = (start + n - 1)[:, None]
        energy = np.where(col == last, remainder[:, None],
                          np.where((col >= start[:, None]) & (col < last), rate[:, None], 0.0))
        costs[idx] = [math.fsum(row) for row in (energy * block).tolist()]
    return costs


def _continuous_starts(fleet: _Fleet, prices: np.ndarray) -> np.ndarray:
    """First start of each session's cheapest contiguous run, as `baseline_schedule` finds it.

    A run of n slots from slot p costs rate x (numpy sum of prices[p:p+n-1])
    + remainder x prices[p+n-1], the scalar loop's arithmetic. The leading
    sum depends only on p and n, so it is taken once per (n, p) that some
    session needs, each the pairwise sum of one contiguous row: it rounds
    like the scalar slice, where a cumsum difference would not.
    """
    n, width, lo = fleet.n, fleet.width, fleet.lo
    best_start = np.zeros_like(n)
    for m in np.flatnonzero(np.bincount(n)).tolist():
        rows = np.flatnonzero((n == m) & (width > m))
        if m == 0 or not len(rows):
            continue
        starts = width[rows] - m + 1
        lead = np.zeros(len(prices))
        if m > 1:
            # slots where some run starts: +1 at each lo, -1 past its last start
            cover = np.cumsum(np.bincount(lo[rows], minlength=len(prices) + 1)
                              - np.bincount(lo[rows] + starts, minlength=len(prices) + 1))
            needed = np.flatnonzero(cover[:-1])
            runs = sliding_window_view(prices, m - 1)
            step = max(1, _BLOCK_ELEMENTS // (m - 1))
            for at in range(0, len(needed), step):
                p = needed[at:at + step]
                lead[p] = runs[p].sum(axis=-1)
        span = np.arange(int(starts.max()))
        step = max(1, _BLOCK_ELEMENTS // len(span))
        for at in range(0, len(rows), step):
            r = rows[at:at + step]
            valid = span < starts[at:at + step, None]
            p = np.where(valid, lo[r, None] + span, lo[r, None])
            cost = (fleet.rate[r, None] * lead[p]
                    + fleet.remainder[r, None] * prices[p + m - 1])
            cost[~valid] = np.inf
            best_start[r] = np.argmin(cost, axis=1)
    return best_start


def sample_sessions(count: int, arrival_dist, departure_dist, demand_dist,
                    rate: float, seed: int, days: int = 1,
                    start_hour: int = 0, long_fraction: float = 0.0) -> SessionTable:
    """Draw a fleet from hour-of-day histograms and a demand distribution.

    Arrival is (uniform day, histogram hour); departure is the first slot
    strictly after arrival whose hour-of-day follows the departure
    histogram, which keeps overnight windows intact. A `long_fraction`
    share of vehicles stays parked one extra day (weekend / work-from-home
    pattern). Demands beyond what the window can deliver are clipped to
    the feasible maximum. Session i is named ``S{i:05d}``.

    `demand_dist` is either a sequence of empirical kWh values or
    {"kind": "uniform", "low": .., "high": ..}.
    """
    arrival_p = _normalize_hist(arrival_dist, "arrival")
    departure_p = _normalize_hist(departure_dist, "departure")
    if rate <= 0:
        raise DegenerateDistribution("charging rate must be positive")
    if days < 1:
        raise DegenerateDistribution("days must be at least 1")
    if start_hour + 24 * (days + 2) > np.iinfo(np.int64).max:   # last departure, with slack
        raise DegenerateDistribution(f"'days' {days} puts session hours past int64")
    if not (0.0 <= long_fraction <= 1.0):
        raise DegenerateDistribution("long_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    arrivals, departures, demands = [], [], []
    for _ in range(count):
        day = int(rng.integers(0, days))
        arr_hour = int(rng.choice(24, p=arrival_p))
        arrival = start_hour + 24 * day + arr_hour
        dep_hour = int(rng.choice(24, p=departure_p))
        # first slot strictly after arrival with this hour-of-day
        offset = (dep_hour - (arrival + 1)) % 24
        departure = arrival + 1 + offset
        if rng.random() < long_fraction:
            departure += 24
        window = departure - arrival + 1
        demand = _draw_demand(demand_dist, rng)
        arrivals.append(arrival)
        departures.append(departure)
        demands.append(min(demand, rate * window))
    return SessionTable([f"S{i:05d}" for i in range(count)], arrivals, departures, demands,
                        np.full(len(arrivals), float(rate)))


def _normalize_hist(dist, name: str) -> np.ndarray:
    try:
        if isinstance(dist, dict):
            weights = np.zeros(24)
            for hour, wt in dist.items():
                weights[int(hour) % 24] = float(wt)
        else:
            weights = np.asarray(dist, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DegenerateDistribution(f"{name} histogram: {exc}") from exc
    if weights.shape != (24,):
        raise DegenerateDistribution(f"{name} histogram must have 24 bins")
    if not np.all(np.isfinite(weights) & (weights >= 0)) or weights.sum() <= 0:
        raise DegenerateDistribution(f"{name} histogram has no usable mass")
    return weights / weights.sum()


def _draw_demand(demand_dist, rng: np.random.Generator) -> float:
    try:
        if isinstance(demand_dist, dict):
            kind = demand_dist.get("kind")
            if kind == "uniform":
                lo, hi = float(demand_dist["low"]), float(demand_dist["high"])
                if hi < lo or hi <= 0:
                    raise DegenerateDistribution("bad uniform demand bounds")
                return float(rng.uniform(lo, hi))
            raise DegenerateDistribution(f"unknown demand spec {demand_dist!r}")
        values = np.asarray(demand_dist, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DegenerateDistribution(f"bad demand spec: {exc!r}") from exc
    if values.ndim != 1 or values.size == 0 or np.any(values < 0):
        raise DegenerateDistribution("empirical demand list is empty or negative")
    return float(values[int(rng.integers(0, values.size))])


# -- session CSV interface -----------------------------------------------------

def load_sessions(path: str | Path) -> SessionTable:
    """Read `session_id,arrival,departure,demand_kwh,rate_kw` rows.

    An infeasible session raises `ChargingSession`'s error prefixed with
    ``{path}:{line}:``.
    """
    t = read_table(path, SESSION_COLUMNS)
    try:
        return SessionTable(*t.columns)
    except InfeasibleSession as exc:
        raise InfeasibleSession(f"{path}:{t.lines[exc.row]}: {exc}") from exc


def write_sessions(path: str | Path, sessions: SessionTable) -> None:
    write_table(path, [name for name, _ in SESSION_COLUMNS],
                [getattr(sessions, name) for name, _ in SESSION_COLUMNS])
