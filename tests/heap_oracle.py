"""An independent per-event ``heapq`` simulator: the engine's oracle.

:class:`repro.sim.engine.Simulation` applies good churn in batches
straight from :class:`~repro.sim.blocks.ChurnBlock` rows and never
pushes a row onto its heap.  This module is the reference it is checked
against: every churn row, session departure, tick and callback becomes
one heap entry ordered by ``(time, priority, seq)`` and is dispatched
one at a time through the defense's *per-event* hooks.  It shares no
loop code with the engine (it imports nothing from
``repro.sim.engine``), so agreement means the block lane's batch cuts
and tie rules reproduce the ABC model's total order, not merely that
two modes of one loop agree.

Ordering rules, as documented in ``Simulation.run``:

* A churn row at time t is pushed at priority 0 once nothing earlier
  than t is left in the heap, i.e. after every entry pushed during an
  earlier instant and before anything pushed while instant t runs.
  Rows past the horizon are never admitted.
* Ticks run at priority 10 and re-arm at ``time + tick_interval`` while
  that stays within the horizon (a non-positive interval never
  re-arms).
* Before an entry is dispatched the adversary acts if the entry's time
  has reached its wake time, and the wake time is recomputed.
* After an entry is dispatched, a sample is taken if the clock has
  reached the next sample mark, which then moves to
  ``now + sample_interval``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Dict, Iterable, NamedTuple, Optional

from repro.sim.blocks import ChurnBlock
from repro.sim.clock import Clock
from repro.sim.events import (
    BadDeparture,
    BadDepartureBatch,
    Callback,
    GoodDeparture,
    GoodJoin,
    Tick,
)
from repro.sim.metrics import MetricSet
from repro.sim.rng import RngRegistry

#: Counter keys that describe *how* events were processed (heap traffic,
#: block-vs-heap split) rather than the simulated trajectory.  These are
#: the only counters allowed to differ between the engine and the
#: oracle; equivalence checks strip them before comparing results.
PATH_COUNTERS = (
    "queue_pushes",
    "queue_pops",
    "queue_max_size",
    "churn_events_fast",
    "churn_events_heap",
    "good_joins_fast",
)

TICK_PRIORITY = 10


class OracleResult(NamedTuple):
    """The fields of ``SimulationResult`` the equivalence tests compare."""

    good_spend: float
    adversary_spend: float
    max_bad_fraction: float
    final_system_size: int
    counters: Dict[str, int]
    metrics: MetricSet


class _SessionEnd(NamedTuple):
    """Heap payload: the scheduled departure of an admitted ID."""

    time: float
    ident: str


class OracleQueue:
    """The ``sim.queue.push`` surface that tests and scenarios use."""

    def __init__(self) -> None:
        self.heap: list = []
        self.seq = itertools.count()

    def push(self, item, priority: int = 0) -> None:
        heapq.heappush(self.heap, (item.time, priority, next(self.seq), item))


class HeapOracle:
    """Per-event reference run of one defense, churn trace and adversary.

    Takes the same arguments as ``Simulation`` (``config`` only needs
    ``horizon``, ``tick_interval``, ``sample_interval`` and ``seed``).
    """

    def __init__(self, config, defense, churn: Iterable, adversary=None,
                 rngs: Optional[RngRegistry] = None, initial_members=None):
        self.config = config
        self.clock = Clock()
        self.queue = OracleQueue()
        self.metrics = MetricSet()
        self.rngs = rngs if rngs is not None else RngRegistry(config.seed)
        self.defense = defense
        self.adversary = adversary
        self._rows = self._churn_rows(churn)
        self._initial = list(initial_members or [])
        #: proposed trace ident -> latest admitted unique (and back, for
        #: joiners whose departure the oracle schedules itself)
        self._aliases: dict = {}
        self._owners: dict = {}
        self._counts = dict.fromkeys(
            ("good_join_events", "good_departure_events", "bad_departure_events"),
            0,
        )
        defense.bind(self)
        if adversary is not None:
            adversary.bind(self, defense)

    def call_at(self, when: float, fn, label: str = "") -> None:
        self.queue.push(Callback(time=when, fn=fn, label=label))

    def call_after(self, delay: float, fn, label: str = "") -> None:
        self.call_at(self.clock.now + delay, fn, label=label)

    @staticmethod
    def _churn_rows(churn: Iterable):
        for item in churn:
            events = item.iter_events() if isinstance(item, ChurnBlock) else (item,)
            for event in events:
                if not isinstance(event, (GoodJoin, GoodDeparture)):
                    raise TypeError(
                        f"not a churn row: {type(event).__name__}"
                    )
                yield event

    def run(self) -> OracleResult:
        config = self.config
        horizon = config.horizon
        heap = self.queue.heap
        idents = [member.ident for member in self._initial]
        self.defense.bootstrap(idents)
        for member in self._initial:
            if member.residual is not None and 0 <= member.residual <= horizon:
                self.queue.push(_SessionEnd(member.residual, member.ident))
        if 0 < config.tick_interval <= horizon:
            self.queue.push(Tick(time=config.tick_interval), TICK_PRIORITY)
        wake = -math.inf
        next_sample = 0.0
        row = next(self._rows, None)
        while True:
            while row is not None and row.time <= min(
                heap[0][0] if heap else horizon, horizon
            ):
                self.queue.push(row)
                row = next(self._rows, None)
            if not heap or heap[0][0] > horizon:
                break
            when, _, _, item = heapq.heappop(heap)
            self.clock.advance_to(when)
            if self.adversary is not None and when >= wake:
                self.adversary.act(when)
                wake = self.adversary.next_wake(when)
            self._dispatch(item, when)
            if when >= next_sample:
                self._sample()
                next_sample = when + config.sample_interval
        self.clock.advance_to(horizon)
        if self.adversary is not None and horizon >= wake:
            self.adversary.act(horizon)
        self._sample()
        return self._result()

    def _dispatch(self, item, now: float) -> None:
        defense = self.defense
        counts = self._counts
        if isinstance(item, GoodJoin):
            counts["good_join_events"] += 1
            uid = defense.process_good_join(item.ident)
            if uid is None:
                return
            if item.ident is not None:
                self._aliases[item.ident] = uid
            if item.session is not None and now + item.session <= self.config.horizon:
                self.queue.push(_SessionEnd(now + item.session, uid))
                if item.ident is not None:
                    self._owners[uid] = item.ident
        elif isinstance(item, GoodDeparture):
            counts["good_departure_events"] += 1
            ident = item.ident
            if ident is not None:
                ident = self._aliases.pop(ident, ident)
            defense.process_good_departure(ident)
        elif isinstance(item, _SessionEnd):
            counts["good_departure_events"] += 1
            defense.process_good_departure(item.ident)
            proposed = self._owners.pop(item.ident, None)
            if proposed is not None and self._aliases.get(proposed) == item.ident:
                del self._aliases[proposed]
        elif isinstance(item, BadDepartureBatch):
            count = item.count
            if item.drain_fraction is not None:
                count = math.ceil(defense.bad_count() * item.drain_fraction)
            counts["bad_departure_events"] += defense.process_bad_departure_batch(count)
        elif isinstance(item, BadDeparture):
            counts["bad_departure_events"] += 1
            defense.process_bad_departure(item.ident)
        elif isinstance(item, Tick):
            defense.on_tick(now)
            interval = self.config.tick_interval
            if interval > 0 and now + interval <= self.config.horizon:
                self.queue.push(Tick(time=now + interval), TICK_PRIORITY)
        elif isinstance(item, Callback):
            item.fn(now)
        else:
            raise TypeError(f"unhandled event type: {type(item).__name__}")

    def _sample(self) -> None:
        now = self.clock.now
        size = self.defense.system_size()
        fraction = self.defense.bad_fraction()
        if self.metrics.system_size.last_time() == now:
            return
        self.metrics.system_size.record(now, size)
        self.metrics.bad_fraction.record(now, fraction)

    def _result(self) -> OracleResult:
        metrics = self.metrics
        max_bad = metrics.bad_fraction.max() if len(metrics.bad_fraction) else 0.0
        max_bad = max(max_bad, getattr(self.defense, "peak_bad_fraction", 0.0))
        counters = metrics.counters
        # Every churn event went through the heap.
        counters.add("churn_events_heap", sum(self._counts.values()))
        for key, count in self._counts.items():
            if count:
                counters.add(key, count)
        return OracleResult(
            good_spend=metrics.good.total,
            adversary_spend=metrics.adversary.total,
            max_bad_fraction=max_bad,
            final_system_size=self.defense.system_size(),
            counters=counters.as_dict(),
            metrics=metrics,
        )
