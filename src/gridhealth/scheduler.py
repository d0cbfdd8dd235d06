"""Health-aware EV charging schedules.

A session charges at a constant rate, so meeting demand `z` means picking
n = ceil(z / c) slots inside [arrival, departure]; when z is not a multiple
of c the slot selected last carries only the remainder, and the objective
weights it by that partial energy. With the remainder on the last-selected
(most expensive) slot, picking the n cheapest slots is globally optimal,
which `brute_force_schedule` verifies by enumeration.

Fleet evaluation is array-form, always costs all four strategies, and makes
two passes over the sessions that charge; a zero-demand session costs +0.0
without either. `first_hours` and `latest_hours` start their runs at the
window's ends. The plan pass takes sessions in chunks of one window length
and gathers each chunk's (sessions, window) price block once. On it,
`continuous` records the first slot of its run, and `optimal` is costed on
the block sorted row-wise. The cost pass takes sessions in chunks of one
slot count n and sums each run's n charged products.
`continuous` compares the contiguous runs of n slots on prefix sums of the
prices, rate x (P[s+n-1] - P[s]) + remainder x h[s+n-1] with
P = [0, *cumsum(h)]; a row-wise cumsum adds in the order of the 1-d one, so
the engine and `baseline_schedule` pick the same run. The per-session
functions (`optimal_schedule`, `baseline_schedule`, `schedule_for`,
`brute_force_schedule`) are the oracle the engine is tested against: each
session's cost is the `math.fsum` of the energy x price products
`Schedule.cost` adds, so it is equal with `==`; the products of unselected
slots are zeros, which fsum skips, so the engine sums only the charged ones.
The engine gets that value from `health._row_fsums` without a Python float
per product: a long-double row sum where every partial sum is exact in it
(x87 80-bit on x86-64 Linux, IEEE binary128 on 64-bit ARM Linux), and
`math.fsum` for the other rows and on every other platform.

Costs are in dollars: h carries $/kWh per slot and energies are kWh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import combinations
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateDistribution,
    InfeasibleSession,
    NonFiniteValue,
    SignalCoverageGap,
    WindowTooLarge,
)
from .health import HealthSeries, _row_fsums
from .ingest import as_float, as_int, as_str, read_table, write_table

BRUTE_FORCE_MAX_WINDOW = 20
_SLOT_TOLERANCE = 1e-9     # demand / rate this far above a whole slot count n >= 1 rounds down to n

STRATEGY_OPTIMAL = "optimal"
STRATEGY_FIRST = "first_hours"
STRATEGY_LATEST = "latest_hours"
STRATEGY_CONTINUOUS = "continuous"
ALL_STRATEGIES = (STRATEGY_OPTIMAL, STRATEGY_FIRST, STRATEGY_LATEST, STRATEGY_CONTINUOUS)

USD_PER_MWH_TO_PER_KWH = 1e-3


def _slot_plan(demand, rate):
    """(slots, remainder) for kWh `demand` at kW `rate`, scalars or arrays, without warnings.

    slots = ceil(demand / rate - _SLOT_TOLERANCE), a float, and at least 1 for
    a positive demand: a demand below rate x _SLOT_TOLERANCE still charges one
    slot, so no energy is dropped; 0 for zero demand. remainder is the energy
    of the slot selected last, 0 when there is none.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slots = np.maximum(np.ceil(np.divide(demand, rate) - _SLOT_TOLERANCE),
                           np.greater(demand, 0))
        return slots, np.where(slots > 0, demand - (slots - 1) * rate, 0.0)


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
        slots = float(_slot_plan(self.demand_kwh, self.rate_kw)[0])
        if slots > self.window_length:
            raise InfeasibleSession(
                f"{name}: demand {self.demand_kwh} kWh needs "
                f"{int(slots) if math.isfinite(slots) else slots} slots at "
                f"{self.rate_kw} kW, the window has {self.window_length}"
            )

    @property
    def window_length(self) -> int:
        return self.departure - self.arrival + 1

    @property
    def slots_needed(self) -> int:
        return int(_slot_plan(self.demand_kwh, self.rate_kw)[0])

    @property
    def remainder_kwh(self) -> float:
        """Energy of the slot selected last; 0 when no slot is needed."""
        return float(_slot_plan(self.demand_kwh, self.rate_kw)[1])


@dataclass(eq=False)
class SessionTable:
    """A fleet as columns, entry i for session i, held to `ChargingSession`'s rules.

    The first session those rules reject raises its `ChargingSession` error,
    which carries the session's index as `row`. Before those rules, the first
    session id that holds NUL raises `InfeasibleSession` with its `row`: a
    numpy str array would drop a trailing NUL.
    """

    session_id: np.ndarray   # (S,) str, "" for an unnamed session
    arrival: np.ndarray      # (S,) int64 slot indices, inclusive
    departure: np.ndarray    # (S,) int64
    demand_kwh: np.ndarray   # (S,) float64
    rate_kw: np.ndarray      # (S,) float64

    def __post_init__(self):
        given = self.session_id
        self.session_id = np.asarray(given, dtype=str)
        self.arrival = np.asarray(self.arrival, dtype=np.int64)
        self.departure = np.asarray(self.departure, dtype=np.int64)
        self.demand_kwh = np.asarray(self.demand_kwh, dtype=np.float64)
        self.rate_kw = np.asarray(self.rate_kw, dtype=np.float64)
        if not (self.arrival.shape == self.departure.shape == self.demand_kwh.shape
                == self.rate_kw.shape == self.session_id.shape == (len(self.arrival),)):
            raise ValueError("session columns must be 1-d and of one length")
        given = given.tolist() if isinstance(given, np.ndarray) else given
        if "\0" in "".join(map(str, given)):
            i = next(i for i, name in enumerate(map(str, given)) if "\0" in name)
            exc = InfeasibleSession(f"session id {given[i]!r} holds NUL")
            exc.row = i
            raise exc
        # the rules over whole columns flag the sessions to build one by one; a
        # window beyond 2**53 slots is flagged by its rounded float length
        window = (self.departure - self.arrival).astype(np.float64) + 1
        slots, _ = _slot_plan(self.demand_kwh, self.rate_kw)
        bad = ((self.departure < self.arrival) | (slots > window)
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

    The slots number `session.slots_needed`. The slot selected last carries
    the remainder energy; earlier ones charge at full rate.
    """
    w = session.window_length
    bits = np.zeros(w, dtype=np.int8)
    energy = np.zeros(w)
    if chosen_in_order:
        for slot in chosen_in_order[:-1]:
            bits[slot] = 1
            energy[slot] = session.rate_kw
        last = chosen_in_order[-1]
        bits[last] = 1
        energy[last] = session.remainder_kwh
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
    remainder = session.remainder_kwh
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
    """first_hours, latest_hours, or best contiguous block.

    The best block is the first start with the least rate x (prefix-sum
    difference over its leading slots) + remainder x its last slot's price.
    """
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
        remainder = session.remainder_kwh
        lead = np.concatenate(([0.0], np.cumsum(h)))
        best_cost, best_start = math.inf, 0
        for start in range(w - n + 1):
            cost = (session.rate_kw * (lead[start + n - 1] - lead[start])
                    + remainder * h[start + n - 1])
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
    """Dense $/kWh per slot (internal + external) and the first timestamp.

    An hour whose two costs overflow when added raises `NonFiniteValue`:
    each is finite, but an infinite price makes NaN of the zero energy x
    price products of every slot a schedule leaves out.
    """
    if not len(signals):
        raise SignalCoverageGap("empty health signal series")
    first, last = int(signals.timestamps[0]), int(signals.timestamps[-1])
    if last - first != len(signals) - 1:   # stamps strictly increase, so this is a gap
        raise SignalCoverageGap("health signal series has gaps")
    with np.errstate(over="ignore"):
        prices = (signals.costs[:, 0] + signals.costs[:, 1]) * USD_PER_MWH_TO_PER_KWH
    if not np.isfinite(prices).all():
        i = int(np.argmin(np.isfinite(prices)))
        raise NonFiniteValue(f"health costs at hour {signals.timestamps[i]} overflow when "
                             f"added: {signals.costs[i].tolist()}")
    return prices, first


def evaluate_fleet(sessions: SessionTable, signals: HealthSeries,
                   strategies: list[str] | tuple[str, ...] = ALL_STRATEGIES) -> dict[str, float]:
    """Total fleet cost per strategy against one health-signal series.

    Each total adds the per-session costs left to right in session order.
    All four strategies are costed; `strategies` selects the totals returned.
    """
    for strategy in strategies:
        if strategy not in ALL_STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    # accumulate is sequential, like +=; sum() and np.sum round differently
    running = np.add.accumulate(_session_costs(sessions, signals), axis=1)
    totals = dict(zip(ALL_STRATEGIES, running[:, -1].tolist() if len(sessions)
                  else [0.0] * len(ALL_STRATEGIES)))
    return {s: totals[s] for s in strategies}


# Elements in one temporary block of the fleet engine; bounds its memory.
_BLOCK_ELEMENTS = 1 << 13


def _session_costs(sessions: SessionTable, signals: HealthSeries) -> np.ndarray:
    """Each strategy's cost per session, a (4, sessions) matrix in `ALL_STRATEGIES` order.

    Raises `SignalCoverageGap` naming the first session outside the signal.
    A session's cost is the `math.fsum` of the energy x price products
    `Schedule.cost` adds, so it equals `schedule_for(...).total_cost`. The
    products of uncharged slots are zeros, which fsum skips, so only the n
    charged slots are summed, and a zero-demand session keeps +0.0, fsum's
    zero sum, without a sum. The four strategies are always costed together;
    the sessions that charge are taken in two passes:

    - Plan, in chunks of one window length and at most `_BLOCK_ELEMENTS`
      prices; each chunk's (sessions, window) price block is gathered once.
      `continuous` records the price index of its run's first slot, int32,
      comparing runs on row-wise prefix sums of the block, which add in the
      order `baseline_schedule`'s 1-d prefix sums do, so it picks the same
      start; `first_hours` and `latest_hours` start at the window's ends.
      `optimal` is costed here, on the block sorted row-wise and cut to the
      chunk's largest n: np.sort's default kind gives the stable sort's
      values but may swap -0.0 and +0.0, and the sign of a zero product
      never changes an fsum.
    - Cost, in chunks of one slot count n and at most `_BLOCK_ELEMENTS`
      prices: each run's n charged prices are gathered and weighted by the
      rate, the last one by the remainder.

    One `_row_fsums` call sums each chunk's rows: in long double where every
    partial sum is exact in it, else with `math.fsum`.
    """
    prices, t0 = signal_to_slot_prices(signals)
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
    rate = sessions.rate_kw
    slots, remainder = _slot_plan(sessions.demand_kwh, rate)
    slots = slots.astype(np.int32)
    charged = np.flatnonzero(slots > 0)
    costs = np.zeros((len(ALL_STRATEGIES), len(sessions)))
    # price index of the first slot of each run: first_hours, latest_hours, continuous
    starts = np.stack([lo, lo + width - slots, lo])
    for w, idx in _chunks(charged, width, slots):
        col = np.arange(w)
        block = prices[lo[idx, None] + col]
        n, c, r = slots[idx, None], rate[idx, None], remainder[idx, None]
        # a chunk's rows are sorted by slot count, so few columns pad them
        m = int(n.max())
        energy = np.where(col[:m] == n - 1, r, np.where(col[:m] < n - 1, c, 0.0))
        costs[0, idx] = _row_fsums(energy * np.sort(block, axis=1)[:, :m])
        # run from column s: rate x (P[s+n-1] - P[s]) + remainder x h[s+n-1]
        lead = np.zeros((len(idx), w + 1))
        np.cumsum(block, axis=1, out=lead[:, 1:])
        end = np.minimum(col + n - 1, w - 1)
        run = (c * (lead.ravel()[end + (w + 1) * np.arange(len(idx))[:, None]] - lead[:, :w])
               + r * prices[lo[idx, None] + end])
        run[col > w - n] = np.inf
        starts[2, idx] = lo[idx] + np.argmin(run, axis=1)
    for n, idx in _chunks(charged, slots):
        h = prices[starts[:, idx, None] + np.arange(n)]
        products = h * rate[idx, None]
        products[:, :, -1] = h[:, :, -1] * remainder[idx]
        costs[1:, idx] = _row_fsums(products.reshape(-1, n)).reshape(3, -1)
    return costs


def _chunks(rows, size, tie=None):
    """(size, chunk) pairs that cover `rows` in order of `size` (then `tie`).

    A chunk's rows share one `size` value and number at most
    `_BLOCK_ELEMENTS // size`, one at least.
    """
    order = rows[np.lexsort((size[rows],) if tie is None else (tie[rows], size[rows]))]
    for group in np.split(order, np.flatnonzero(np.diff(size[order])) + 1):
        if len(group):
            value = int(size[group[0]])
            step = max(1, _BLOCK_ELEMENTS // value)
            for at in range(0, len(group), step):
                yield value, group[at:at + step]


def sample_sessions(count: int, arrival_dist, departure_dist, demand_dist,
                    rate: float, seed: int, days: int = 1,
                    start_hour: int = 0, long_fraction: float = 0.0) -> SessionTable:
    """Draw a fleet from hour-of-day histograms and a demand distribution.

    Arrival is (uniform day, histogram hour); departure is the first slot
    strictly after arrival whose hour-of-day follows the departure
    histogram, which keeps overnight windows intact. A `long_fraction`
    share of vehicles stays parked one extra day (weekend / work-from-home
    pattern). Demands beyond what the window can deliver are clipped to
    the feasible maximum. Session i is named ``S{i:05d}``. Each column is
    drawn for the whole fleet at once, in the order day, arrival hour,
    departure hour, long stay, demand.

    `demand_dist` is either a sequence of empirical kWh values or
    {"kind": "uniform", "low": .., "high": ..}.
    """
    arrival_p = _normalize_hist(arrival_dist, "arrival")
    departure_p = _normalize_hist(departure_dist, "departure")
    if not (math.isfinite(rate) and rate > 0):
        raise DegenerateDistribution(f"charging rate must be finite and positive, got {rate}")
    if count < 1:
        raise DegenerateDistribution("count must be at least 1")
    if days < 1:
        raise DegenerateDistribution("days must be at least 1")
    if start_hour + 24 * (days + 2) > np.iinfo(np.int64).max:   # last departure, with slack
        raise DegenerateDistribution(f"'days' {days} puts session hours past int64")
    if not (0.0 <= long_fraction <= 1.0):
        raise DegenerateDistribution("long_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    try:
        day = rng.integers(0, days, size=count)
        arrival = start_hour + 24 * day + rng.choice(24, size=count, p=arrival_p)
        dep_hour = rng.choice(24, size=count, p=departure_p)
        # first slot strictly after arrival with this hour-of-day
        departure = arrival + 1 + (dep_hour - (arrival + 1)) % 24
        departure += 24 * (rng.random(count) < long_fraction)
        demand = np.minimum(_draw_demands(demand_dist, rng, count),
                            rate * (departure - arrival + 1))
        ids = np.char.add("S", np.char.zfill(np.arange(count).astype(str), 5))
        return SessionTable(ids, arrival, departure, demand, np.full(count, float(rate)))
    except MemoryError as exc:
        raise DegenerateDistribution(f"'count' {count}: the fleet does not fit in memory") from exc


def _normalize_hist(dist, name: str) -> np.ndarray:
    try:
        if isinstance(dist, dict):
            hours = [int(hour) for hour in dist]
            if not all(0 <= h < 24 for h in hours) or len(set(hours)) < len(hours):
                raise DegenerateDistribution(
                    f"{name} histogram keys must be distinct hours 0-23, got {list(dist)}")
            weights = np.zeros(24)
            weights[hours] = [float(wt) for wt in dist.values()]
        else:
            weights = np.asarray(dist, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DegenerateDistribution(f"{name} histogram: {exc}") from exc
    if weights.shape != (24,):
        raise DegenerateDistribution(f"{name} histogram must have 24 bins")
    if not np.all(np.isfinite(weights) & (weights >= 0)) or weights.sum() <= 0:
        raise DegenerateDistribution(f"{name} histogram has no usable mass")
    return weights / weights.sum()


def _draw_demands(demand_dist, rng: np.random.Generator, count: int) -> np.ndarray:
    """`count` demands in kWh from `demand_dist`, checked once."""
    try:
        if isinstance(demand_dist, dict):
            kind = demand_dist.get("kind")
            if kind == "uniform":
                lo, hi = float(demand_dist["low"]), float(demand_dist["high"])
                if not (0 <= lo <= hi < math.inf and hi > 0):
                    raise DegenerateDistribution(f"'demand' bounds {lo}, {hi} are not "
                                                 "finite with 0 <= low <= high, high > 0")
                return rng.uniform(lo, hi, size=count)
            raise DegenerateDistribution(f"unknown 'demand' spec {demand_dist!r}")
        values = np.asarray(demand_dist, dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DegenerateDistribution(f"bad 'demand' spec: {exc!r}") from exc
    if values.ndim != 1 or values.size == 0 or not np.all(np.isfinite(values) & (values >= 0)):
        raise DegenerateDistribution("'demand' list is empty, non-finite or negative")
    return values[rng.integers(0, values.size, size=count)]


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
