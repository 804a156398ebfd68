"""Compile a :class:`~repro.scenarios.spec.ScenarioSpec` to churn blocks.

The compiler walks the spec's phase timeline with a running time cursor
and a coarse population estimate, emitting

* time-sorted :class:`~repro.sim.blocks.ChurnBlock` batches for all good
  churn (so every scenario rides the engine's zero-heap fast path -- the
  phase compilers reuse the vectorized generators
  :func:`~repro.churn.generators.poisson_join_blocks` /
  :func:`~repro.churn.generators.modulated_join_blocks`), and
* scheduled :class:`~repro.sim.events.BadDepartureBatch` events for
  adversarial exoduses (one heap entry per batch, never per ID).

The population estimate is deliberately simple (joins add, departures
subtract, steady phases hold) -- it only sizes fraction-based phases and
resolves equilibrium rates; the simulation itself tracks the true
population.  Everything is derived from the one ``rng`` stream handed
in, so a (spec, seed) pair compiles to a bit-identical workload.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.churn.generators import (
    diurnal_rate,
    modulated_join_blocks,
    poisson_join_blocks,
)
from repro.churn.sessions import (
    EquilibriumResidualSampler,
    SessionDistribution,
    sample_session_array,
)
from repro.churn.traces import InitialMember, SortedPeakJoins, load_trace_csv
from repro.traces.reader import TraceBlockStream
from repro.traces.source import PACKAGED_DATA_DIR, resolve_trace
from repro.scenarios.spec import (
    DiurnalCycle,
    FlashCrowd,
    MassExodus,
    PartitionRejoin,
    ScenarioSpec,
    Silence,
    SteadyState,
    SybilExodus,
    TraceReplay,
)
from repro.sim.blocks import DEPART, JOIN, ChurnBlock, blocks_from_events
from repro.sim.events import BadDepartureBatch, Event, GoodDeparture, GoodJoin

#: Packaged trace data (``TraceReplay`` relative paths resolve here);
#: shared with the :mod:`repro.traces` registry.
DATA_DIR = PACKAGED_DATA_DIR


class _ShapeTally:
    """Workload shape of one block pass (trace side only).

    :meth:`walk` is the pass itself.  It lives here rather than on
    :class:`CompiledScenario`, which stores the pass: a suspended
    generator then holds the tally and the parts list, not its owner,
    so a pass left open forms no reference cycle.
    """

    __slots__ = ("joins", "departures", "peak", "done")

    def __init__(self) -> None:
        self.joins = 0
        self.departures = 0
        # Compiled block streams are globally time-sorted (enforced by
        # ``_check_sorted``), which is exactly the tracker's contract.
        self.peak = SortedPeakJoins()
        #: set once the pass has yielded its last block
        self.done = False

    def walk(self, parts: List) -> Iterator[ChurnBlock]:
        """Flatten churn parts into one block stream, tallying each block."""
        for part in parts:
            for block in (part,) if isinstance(part, ChurnBlock) else part:
                kinds = block.kinds
                block_joins = int(np.count_nonzero(kinds == JOIN))
                self.joins += block_joins
                self.departures += len(block) - block_joins
                # Peak join rate: max joins falling into any 1-second bin.
                if block_joins:
                    self.peak.add_block(block.times[kinds == JOIN])
                yield block
        self.done = True


@dataclass
class CompiledScenario:
    """A runnable workload: what the simulation engine consumes.

    ``blocks`` holds the time-sorted good churn as a list of *parts*:
    materialized :class:`~repro.sim.blocks.ChurnBlock` batches
    interleaved with lazy
    :class:`~repro.traces.reader.TraceBlockStream` segments (streaming
    ``TraceReplay`` phases).  Consumers iterate :meth:`iter_blocks`,
    which flattens both shapes into one lazy block stream -- a lazy
    segment is parsed from disk only as the engine walks past it, so
    trace length never bounds memory.  The workload summary rides that
    same pass (see :meth:`summary`), so a simulated point reads its
    trace once.
    """

    spec: ScenarioSpec
    horizon: float
    initial: List[InitialMember]
    #: churn parts: ``ChurnBlock`` batches and lazy trace segments
    blocks: List
    #: events to push into the queue before run() (Sybil exoduses)
    scheduled: List[Event] = dataclass_field(default_factory=list)
    #: compile-time anomalies (e.g. fraction phases clamped at small
    #: ``--n0-scale``), surfaced through :meth:`summary` and the CLI
    warnings: List[str] = dataclass_field(default_factory=list)
    #: the latest :meth:`iter_blocks` pass and its running shape tally
    _pass: Optional[Tuple[Iterator[ChurnBlock], _ShapeTally]] = dataclass_field(
        default=None, init=False, repr=False, compare=False
    )

    def iter_blocks(self) -> Iterator[ChurnBlock]:
        """One lazy, time-sorted block stream over all churn parts.

        Every block is tallied into the workload shape as it is
        yielded.  Each call starts a fresh pass with a fresh tally, and
        :meth:`summary` reads the latest one.
        """
        tally = _ShapeTally()
        blocks = tally.walk(self.blocks)
        self._pass = (blocks, tally)
        return blocks

    def summary(self) -> dict:
        """Workload-shape statistics (trace side only, defense-free).

        Reads the tally of the latest :meth:`iter_blocks` pass instead
        of walking the churn again: a pass that ran to the end is read
        as is, a pass its consumer left early (the engine stopping at
        the horizon) is finished on the same iterator, and with no pass
        yet the summary makes one itself.  Every case tallies each block
        once, in stream order, so the result does not depend on how far
        a consumer got.
        """
        if self._pass is None:
            self.iter_blocks()
        blocks, tally = self._pass
        deque(blocks, maxlen=0)
        if not tally.done:
            # The pass was closed midway (a closed or failed generator
            # cannot be resumed), so its tally is short: walk afresh.
            self._pass = None
            return self.summary()
        return {
            "horizon": self.horizon,
            "initial_members": len(self.initial),
            "good_joins": tally.joins,
            "good_departures": tally.departures,
            "peak_join_rate": tally.peak.result(),
            "scheduled_bad_departure_batches": len(self.scheduled),
            "warnings": list(self.warnings),
        }


class _Compiler:
    """Single-pass phase walker (one instance per compile call)."""

    def __init__(
        self,
        spec: ScenarioSpec,
        rng: np.random.Generator,
        sessions: SessionDistribution,
        n0: int,
    ) -> None:
        self.spec = spec
        self.rng = rng
        self.sessions = sessions
        self.now = 0.0
        #: coarse population estimate (sizes fraction-based phases)
        self.pop = float(n0)
        self.blocks: List = []
        self.scheduled: List[Event] = []
        self.warnings: List[str] = []
        #: set once a streaming TraceReplay has been compiled: its join
        #: count is unknown without a full pass, so the population
        #: estimate excludes it and later pop-sized phases get a warning
        self._streamed_replay = False
        self._streamed_pop_warned = False

    # -- helpers -------------------------------------------------------
    def equilibrium_rate(self) -> float:
        return max(self.pop, 1.0) / self.sessions.mean()

    def fraction_count(self, fraction: float, phase_name: str) -> int:
        """Size a fraction-based phase against the population estimate.

        ``int(round(fraction * pop))`` reaches 0 under small
        ``--n0-scale``, silently turning exodus/partition phases into
        no-ops; a positive fraction of a non-empty population is clamped
        to at least one member, and the clamp is reported through the
        compile warnings so scaled-down runs stay interpretable.
        """
        count = int(round(fraction * self.pop))
        if count == 0 and fraction > 0.0 and self.pop >= 1.0:
            self.warnings.append(
                f"{phase_name}: fraction {fraction:g} of estimated "
                f"population {self.pop:.1f} rounds to 0; clamped to 1"
            )
            count = 1
        return count

    def emit(self, blocks) -> int:
        """Collect a block stream; returns the number of rows emitted."""
        rows = 0
        for block in blocks:
            if len(block):
                self.blocks.append(block)
                rows += len(block)
        return rows

    def join_burst(self, count: int, start: float, duration: float) -> int:
        """``count`` joins with sessions, uniform over the window."""
        if count <= 0:
            return 0
        width = max(duration, 1e-9)
        times = np.sort(self.rng.uniform(start, start + width, size=count))
        self.blocks.append(
            ChurnBlock(
                times,
                np.full(count, JOIN, dtype=np.uint8),
                sessions=sample_session_array(self.sessions, self.rng, count),
            )
        )
        return count

    def departure_burst(self, count: int, start: float, duration: float) -> int:
        """``count`` anonymous departures, uniform over the window."""
        if count <= 0:
            return 0
        width = max(duration, 1e-9)
        times = np.sort(self.rng.uniform(start, start + width, size=count))
        self.blocks.append(
            ChurnBlock(times, np.full(count, DEPART, dtype=np.uint8))
        )
        return count

    def _pop_dependent(self, phase) -> bool:
        """Does compiling ``phase`` read the population estimate?"""
        if isinstance(phase, SteadyState):
            return phase.rate is None
        if isinstance(phase, DiurnalCycle):
            return phase.base_rate is None
        if isinstance(phase, FlashCrowd):
            return phase.joins is None
        if isinstance(phase, MassExodus):
            return phase.count is None and phase.fraction > 0.0
        return isinstance(phase, PartitionRejoin)

    # -- phase compilers ----------------------------------------------
    def compile_phase(self, phase) -> None:
        start = self.now
        if (
            self._streamed_replay
            and not self._streamed_pop_warned
            and self._pop_dependent(phase)
        ):
            self.warnings.append(
                f"{type(phase).__name__}: sized from a population estimate "
                "that excludes joins from earlier streaming TraceReplay "
                "phases (use streaming=False to have replayed joins "
                "counted)"
            )
            self._streamed_pop_warned = True
        if isinstance(phase, SteadyState):
            rate = (
                phase.rate
                if phase.rate is not None
                else self.equilibrium_rate() * phase.rate_scale
            )
            self.emit(
                poisson_join_blocks(
                    rate=rate,
                    session_dist=self.sessions,
                    rng=self.rng,
                    horizon=start + phase.duration,
                    start=start,
                )
            )
            self.now = start + phase.duration
        elif isinstance(phase, FlashCrowd):
            joins = (
                phase.joins
                if phase.joins is not None
                else int(round(phase.multiplier * self.pop))
            )
            rate = joins / max(phase.duration, 1e-9)
            emitted = self.emit(
                poisson_join_blocks(
                    rate=rate,
                    session_dist=self.sessions,
                    rng=self.rng,
                    horizon=start + phase.duration,
                    start=start,
                )
            )
            self.pop += emitted
            self.now = start + phase.duration
        elif isinstance(phase, DiurnalCycle):
            base = (
                phase.base_rate
                if phase.base_rate is not None
                else self.equilibrium_rate()
            )
            rate_fn = diurnal_rate(base, phase.amplitude, period=phase.period)
            self.emit(
                modulated_join_blocks(
                    rate_fn=rate_fn,
                    max_rate=base * (1.0 + phase.amplitude),
                    session_dist=self.sessions,
                    rng=self.rng,
                    horizon=start + phase.duration,
                    start=start,
                )
            )
            self.now = start + phase.duration
        elif isinstance(phase, MassExodus):
            count = (
                phase.count
                if phase.count is not None
                else self.fraction_count(phase.fraction, "MassExodus")
            )
            self.departure_burst(count, start, phase.duration)
            self.pop = max(self.pop - count, 0.0)
            self.now = start + phase.duration
        elif isinstance(phase, PartitionRejoin):
            count = self.fraction_count(phase.fraction, "PartitionRejoin")
            self.departure_burst(count, start, phase.exodus_window)
            rejoin_at = start + phase.exodus_window + phase.away
            self.join_burst(count, rejoin_at, phase.rejoin_window)
            self.now = start + phase.duration
        elif isinstance(phase, Silence):
            self.now = start + phase.duration
        elif isinstance(phase, TraceReplay):
            self.compile_replay(phase, start)
            self.now = start + phase.duration
        elif isinstance(phase, SybilExodus):
            step = phase.duration / phase.batches
            if phase.count is None:
                # "Withdraw everything": sized at fire time, in equal
                # shares of the then-standing population -- fractions
                # 1/n, 1/(n-1), ..., 1 drain it all by the last batch.
                # (A precomputed huge count would collapse the staged
                # exodus into the first batch.)
                for i in range(phase.batches):
                    self.scheduled.append(
                        BadDepartureBatch(
                            time=start + i * step,
                            count=0,
                            drain_fraction=1.0 / (phase.batches - i),
                        )
                    )
            else:
                per_batch = max(phase.count // phase.batches, 1)
                for i in range(phase.batches):
                    self.scheduled.append(
                        BadDepartureBatch(
                            time=start + i * step, count=per_batch
                        )
                    )
            self.now = start + phase.duration
        else:  # pragma: no cover - spec validation rejects these earlier
            raise TypeError(f"unknown phase type: {type(phase).__name__}")

    def compile_replay(self, phase: TraceReplay, start: float) -> None:
        """Lower a trace-replay phase: lazy block stream or eager load.

        ``phase.path`` is resolved through the :mod:`repro.traces`
        registry (names, packaged fixtures, plain paths).  The default
        streaming form appends a re-iterable
        :class:`~repro.traces.reader.TraceBlockStream` part -- the file
        is parsed only as a block pass consumes it, so replay memory is
        bounded by the block size, not the trace.  The eager form
        (``streaming=False``) keeps the historical load-sort-pack
        behavior and feeds the population estimate.
        """
        path = resolve_trace(phase.path)
        if phase.streaming is not False:
            part = TraceBlockStream(
                path,
                start=start,
                time_scale=phase.time_scale,
                duration=phase.duration,
            )
            if not part.empty:
                self.blocks.append(part)
                self._streamed_replay = True
            return
        events = load_trace_csv(path)
        if not events:
            return
        events.sort(key=lambda e: e.time)
        origin = events[0].time
        shifted: List[Event] = []
        joins = 0
        for event in events:
            t = (event.time - origin) * phase.time_scale
            if t > phase.duration:
                break
            if isinstance(event, GoodJoin):
                shifted.append(
                    GoodJoin(
                        time=start + t, ident=event.ident, session=event.session
                    )
                )
                joins += 1
            else:
                shifted.append(GoodDeparture(time=start + t, ident=event.ident))
        self.emit(blocks_from_events(shifted))
        # Replayed departures name explicit replay idents, so they do
        # not shrink the anonymous background population estimate.
        self.pop += joins


def compile_scenario(
    spec: ScenarioSpec,
    rng: np.random.Generator,
    n0_scale: float = 1.0,
) -> CompiledScenario:
    """Materialize a spec into a runnable, deterministic workload.

    ``n0_scale`` scales the initial population; every population-derived
    quantity (equilibrium rates, fraction-based exodus sizes, flash
    crowd multipliers) follows automatically, so ``--quick`` runs are
    shape-preserving miniatures of the full scenario.
    """
    if n0_scale <= 0:
        raise ValueError(f"n0_scale must be positive: {n0_scale}")
    sessions = spec.sessions.build()
    n0 = max(int(round(spec.n0 * n0_scale)), 1)
    if spec.equilibrium:
        draw = EquilibriumResidualSampler(sessions).sample
    else:
        draw = sessions.sample
    initial = [
        InitialMember(ident=f"{spec.name}-init-{i}", residual=draw(rng))
        for i in range(n0)
    ]
    compiler = _Compiler(spec, rng, sessions, n0)
    for phase in spec.phases:
        compiler.compile_phase(phase)
    _check_sorted(compiler.blocks, spec.name)
    return CompiledScenario(
        spec=spec,
        horizon=compiler.now,
        initial=initial,
        blocks=compiler.blocks,
        scheduled=sorted(compiler.scheduled, key=lambda e: e.time),
        warnings=compiler.warnings,
    )


def _check_sorted(blocks: Sequence, name: str) -> None:
    """Phases compile sequentially, so parts must chain in time order.

    Lazy trace segments are checked by their bounds (phase start and
    ``start + duration``) -- the streaming reader enforces monotonicity
    *within* a segment and clips at the duration, so the bounds are
    exact without reading the file.
    """
    last = float("-inf")
    for part in blocks:
        if not isinstance(part, ChurnBlock):
            if part.t_begin < last:
                raise ValueError(
                    f"scenario {name!r} compiled out of order: trace "
                    f"segment starting at {part.t_begin} follows time {last}"
                )
            last = max(last, part.t_end_bound)
            continue
        if len(part) == 0:
            continue
        if part.times[0] < last:
            raise ValueError(
                f"scenario {name!r} compiled out of order: block starting at "
                f"{part.times[0]} follows time {last}"
            )
        last = float(part.times[-1])
