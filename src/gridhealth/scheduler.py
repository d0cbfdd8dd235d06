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

import csv
import math
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateDistribution,
    InfeasibleSession,
    MalformedRow,
    SignalCoverageGap,
    WindowTooLarge,
)
from .health import HealthSignal
from .ingest import open_csv

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
        if self.slots_needed > self.window_length:
            raise InfeasibleSession(
                f"{name}: demand {self.demand_kwh} kWh needs {self.slots_needed} slots at "
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


def signal_to_slot_prices(signals: list[HealthSignal]) -> tuple[np.ndarray, int]:
    """Dense $/kWh per slot (internal + external) and the first timestamp."""
    if not signals:
        raise SignalCoverageGap("empty health signal series")
    stamps = np.array([s.timestamp for s in signals])
    if np.any(np.diff(stamps) != 1):
        raise SignalCoverageGap("health signal series has gaps")
    prices = np.array([(s.internal_cost + s.external_cost) * USD_PER_MWH_TO_PER_KWH
                       for s in signals])
    return prices, int(stamps[0])


def evaluate_fleet(sessions: list[ChargingSession], signals: list[HealthSignal],
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


def _fleet_arrays(sessions: list[ChargingSession], prices: np.ndarray, t0: int) -> _Fleet:
    """Session fields as arrays, chunked by window length; raises on a coverage gap."""
    def column(name, dtype):
        return np.fromiter(map(attrgetter(name), sessions), dtype, len(sessions))

    lo = column("arrival", np.int64) - t0
    hi = column("departure", np.int64) - t0
    outside = (lo < 0) | (hi >= len(prices))
    if outside.any():
        i = int(np.argmax(outside))
        s = sessions[i]
        raise SignalCoverageGap(
            f"session {s.session_id or f'#{i}'} window [{s.arrival}, {s.departure}] "
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
    rate, n = column("rate_kw", np.float64), column("slots_needed", np.int32)
    remainder = np.where(n > 0, column("demand_kwh", np.float64) - (n - 1) * rate, 0.0)
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
                    start_hour: int = 0, long_fraction: float = 0.0) -> list[ChargingSession]:
    """Draw a fleet from hour-of-day histograms and a demand distribution.

    Arrival is (uniform day, histogram hour); departure is the first slot
    strictly after arrival whose hour-of-day follows the departure
    histogram, which keeps overnight windows intact. A `long_fraction`
    share of vehicles stays parked one extra day (weekend / work-from-home
    pattern). Demands beyond what the window can deliver are clipped to
    the feasible maximum.

    `demand_dist` is either a sequence of empirical kWh values or
    {"kind": "uniform", "low": .., "high": ..}.
    """
    arrival_p = _normalize_hist(arrival_dist, "arrival")
    departure_p = _normalize_hist(departure_dist, "departure")
    if rate <= 0:
        raise DegenerateDistribution("charging rate must be positive")
    if days < 1:
        raise DegenerateDistribution("days must be at least 1")
    if not (0.0 <= long_fraction <= 1.0):
        raise DegenerateDistribution("long_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    sessions = []
    for i in range(count):
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
        demand = min(demand, rate * window)
        sessions.append(ChargingSession(arrival, departure, demand, rate,
                                        session_id=f"S{i:05d}"))
    return sessions


def _normalize_hist(dist, name: str) -> np.ndarray:
    if isinstance(dist, dict):
        weights = np.zeros(24)
        for hour, wt in dist.items():
            weights[int(hour) % 24] = float(wt)
    else:
        weights = np.asarray(dist, dtype=np.float64)
        if weights.shape != (24,):
            raise DegenerateDistribution(f"{name} histogram must have 24 bins")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise DegenerateDistribution(f"{name} histogram has no usable mass")
    return weights / weights.sum()


def _draw_demand(demand_dist, rng: np.random.Generator) -> float:
    if isinstance(demand_dist, dict):
        kind = demand_dist.get("kind")
        if kind == "uniform":
            lo, hi = float(demand_dist["low"]), float(demand_dist["high"])
            if hi < lo or hi <= 0:
                raise DegenerateDistribution("bad uniform demand bounds")
            return float(rng.uniform(lo, hi))
        raise DegenerateDistribution(f"unknown demand spec {demand_dist!r}")
    values = np.asarray(demand_dist, dtype=np.float64)
    if values.size == 0 or np.any(values < 0):
        raise DegenerateDistribution("empirical demand list is empty or negative")
    return float(values[int(rng.integers(0, values.size))])


# -- session CSV interface -----------------------------------------------------

def load_sessions(path: str | Path) -> list[ChargingSession]:
    """Read `session_id,arrival,departure,demand_kwh,rate_kw` rows."""
    sessions = []
    with open_csv(path) as reader:
        header = next(reader, None)
        if header != ["session_id", "arrival", "departure", "demand_kwh", "rate_kw"]:
            raise MalformedRow(f"{path}: bad sessions header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 5:
                raise MalformedRow(f"{where}: bad row {row!r}")
            try:
                fields = int(row[1]), int(row[2]), float(row[3]), float(row[4])
            except ValueError as exc:
                raise MalformedRow(f"{where}: bad number in {row!r}") from exc
            try:
                sessions.append(ChargingSession(*fields, session_id=row[0]))
            except InfeasibleSession as exc:
                raise InfeasibleSession(f"{where}: {exc}") from exc
    return sessions


def write_sessions(path: str | Path, sessions: list[ChargingSession]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["session_id", "arrival", "departure", "demand_kwh", "rate_kw"])
        for s in sessions:
            writer.writerow([s.session_id, s.arrival, s.departure,
                             repr(float(s.demand_kwh)), repr(float(s.rate_kw))])
