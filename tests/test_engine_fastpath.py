"""The engine's block lane vs the per-event heap oracle.

The engine applies good churn in batches straight from blocks; it must
be *observably identical* to :class:`tests.heap_oracle.HeapOracle`, an
independent per-event ``heapq`` simulator that drives only the per-ID
defense hooks: same spends, same peak bad fraction, same final
population, same protocol counters -- for every defense, including the
ones that override the batch hooks with amortized bookkeeping.  Only
the path-diagnostic counters (queue traffic, ``churn_events_*``) may
differ, because they describe how events were processed.
"""

import ast
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro.baselines.ccom import CCom
from repro.baselines.remp import Remp
from repro.baselines.sybilcontrol import SybilControl
from repro.churn.datasets import NETWORKS
from repro.churn.generators import smooth_trace
from repro.core.ergo import Ergo
from repro.core.protocol import Defense
from repro.experiments.runner import adversary_for
from repro.sim.blocks import ChurnBlock, blocks_from_events
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.events import Callback, GoodJoin
from repro.sim.null_defense import NullDefense
from repro.sim.rng import RngRegistry
from tests.heap_oracle import PATH_COUNTERS, HeapOracle

DEFENSES = {
    "ergo": Ergo,
    "ccom": CCom,
    "sybilcontrol": SybilControl,
    "remp": Remp,
    "null": NullDefense,
}


#: the engine and its oracle, constructed with identical arguments
SIMULATORS = {"engine": Simulation, "oracle": HeapOracle}


def observable(result):
    """The path-independent projection of a run's result."""
    counters = {
        k: v for k, v in result.counters.items() if k not in PATH_COUNTERS
    }
    return (
        result.good_spend,
        result.adversary_spend,
        result.max_bad_fraction,
        result.final_system_size,
        counters,
    )


def run_network_sim(defense_name, simulator, t_rate=50.0, horizon=150.0,
                    n0=300, seed=11):
    """One gnutella-churn run with a defense-appropriate adversary."""
    registry = RngRegistry(seed=seed)
    scenario = NETWORKS["gnutella"].scenario(
        horizon=horizon, rng=registry.stream("churn"), n0=n0
    )
    defense = DEFENSES[defense_name]()
    adversary = adversary_for(defense, t_rate)
    sim = SIMULATORS[simulator](
        SimulationConfig(horizon=horizon, seed=seed),
        defense,
        scenario.events,
        adversary=adversary,
        rngs=registry,
        initial_members=scenario.initial,
    )
    return sim.run()


class TestNetworkEquivalence:
    """Engine vs oracle rows across all defenses."""

    @pytest.mark.parametrize("name", list(DEFENSES))
    def test_paths_are_observably_identical(self, name):
        engine = run_network_sim(name, "engine")
        oracle = run_network_sim(name, "oracle")
        assert observable(engine) == observable(oracle)

    def test_fast_path_engages_on_blocks(self):
        result = run_network_sim("null", "engine")
        assert result.counters["churn_events_fast"] > 0

    def test_event_totals_are_path_independent(self):
        engine = run_network_sim("ergo", "engine")
        oracle = run_network_sim("ergo", "oracle")
        for key in ("good_join_events", "good_departure_events"):
            assert engine.counters[key] == oracle.counters[key]
        engine_total = (
            engine.counters["churn_events_fast"]
            + engine.counters["churn_events_heap"]
        )
        assert engine_total == oracle.counters["churn_events_heap"]


class TestSmoothTraceEquivalence:
    """Mixed join/departure blocks with explicit idents (purge-heavy)."""

    @pytest.mark.parametrize("name", ["ergo", "ccom", "null"])
    def test_paths_match_on_smooth_blocks(self, name):
        rng = np.random.default_rng(3)
        events = smooth_trace(n0=60, epoch_rates=[2.0, 4.0, 1.0], rng=rng)
        blocks = list(blocks_from_events(events, block_size=32))
        results = []
        for simulator in SIMULATORS.values():
            defense = DEFENSES[name]()
            sim = simulator(
                SimulationConfig(horizon=200.0, seed=5), defense, blocks
            )
            results.append(sim.run())
        assert observable(results[0]) == observable(results[1])

    def test_sampling_grid_is_path_independent(self):
        rng = np.random.default_rng(2)
        events = smooth_trace(n0=40, epoch_rates=[2.0], rng=rng)
        blocks = list(blocks_from_events(events, block_size=16))
        series = []
        for simulator in SIMULATORS.values():
            sim = simulator(
                SimulationConfig(horizon=50.0, sample_interval=3.0, seed=1),
                NullDefense(),
                blocks,
            )
            result = sim.run()
            series.append(
                (
                    result.metrics.system_size.times.tolist(),
                    result.metrics.system_size.values.tolist(),
                )
            )
        assert series[0] == series[1]


class RecordingDefense(Defense):
    """Uses only the default (loop-based) batch hooks; records order."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.log = []

    def process_good_join(self, ident: Optional[str] = None) -> Optional[str]:
        unique = self.ids.issue(ident or "g")
        self.population.good_join(unique, self.now)
        self.log.append(("join", self.now, ident))
        return unique

    def process_good_departure(self, ident: Optional[str] = None) -> Optional[str]:
        victim = self._select_departing_good(ident)
        if victim is None:
            self.log.append(("noop-depart", self.now, ident))
            return None
        self.population.good_depart(victim)
        self.log.append(("depart", self.now, victim))
        return victim

    def quote_entrance_cost(self) -> float:
        return 1.0

    def process_bad_join_batch(self, budget: float):
        return 0, 0.0

    def on_tick(self, now: float) -> None:
        self.log.append(("tick", now, None))


def run_recording(blocks, simulator, horizon=20.0, tick=1.0, callbacks=()):
    defense = RecordingDefense()
    sim = SIMULATORS[simulator](
        SimulationConfig(horizon=horizon, tick_interval=tick, seed=1),
        defense,
        blocks,
    )
    for when, label in callbacks:
        sim.queue.push(Callback(time=when, fn=lambda now, l=label: defense.log.append(("cb", now, l))))
    sim.run()
    return defense.log


class TestTotalOrderPreserved:
    """The batch boundaries reproduce the oracle's total order exactly."""

    def test_joins_departures_ticks_interleave_identically(self):
        # Short sessions force scheduled departures *between* later join
        # rows -- the dep-interleave batch cut must reproduce the exact
        # ABC-model order the oracle produces.
        times = [0.5, 0.9, 1.3, 1.7, 2.1, 2.5, 6.0]
        sessions = [0.6, 3.0, 0.5, float("nan"), 10.0, 0.45, 1.0]
        kinds = [0] * 7
        block = ChurnBlock(times, kinds, sessions=sessions)
        engine_log = run_recording([block], "engine")
        oracle_log = run_recording([block], "oracle")
        assert engine_log == oracle_log

    def test_callbacks_win_seq_ties_against_block_rows(self):
        # A callback scheduled before the run at t=2.0 (priority 0) must
        # run before a block row at exactly t=2.0, while the tick at 2.0
        # (priority 10) runs after -- in the engine and the oracle.
        block = ChurnBlock([1.5, 2.0, 2.0], [0, 0, 0])
        logs = [
            run_recording([block], simulator, callbacks=[(2.0, "x")])
            for simulator in SIMULATORS
        ]
        assert logs[0] == logs[1]
        events_at_2 = [entry for entry in logs[0] if entry[1] == 2.0]
        assert events_at_2[0][0] == "cb"
        assert events_at_2[-1][0] == "tick"

    def test_departure_rows_with_uar_victims_match(self):
        rng = np.random.default_rng(9)
        joins = [GoodJoin(time=0.1 * (i + 1), ident=f"j{i}") for i in range(30)]
        from repro.sim.events import GoodDeparture

        departures = [GoodDeparture(time=4.0 + 0.1 * i) for i in range(10)]
        blocks = list(blocks_from_events(joins + departures, block_size=8))
        engine_log = run_recording(blocks, "engine")
        oracle_log = run_recording(blocks, "oracle")
        assert engine_log == oracle_log

    def test_same_instant_session_departure_ties(self):
        # A zero-length session lands a departure at *exactly* the next
        # row's time.  Every churn row due at an instant ranks before
        # anything pushed during that instant (the oracle admits the
        # rows first), so both joins precede the departure -- the block lane must
        # reproduce that order, not let the heap entry win the tie.
        block = ChurnBlock(
            [5.0, 5.0], [0, 0], sessions=[0.0, float("nan")]
        )
        engine_log = run_recording([block], "engine", tick=0.0)
        oracle_log = run_recording([block], "oracle", tick=0.0)
        assert engine_log == oracle_log
        assert [e[0] for e in engine_log] == ["join", "join", "depart"]

    def test_same_instant_ties_across_kind_change(self):
        # join@5 (session 0 -> departure@5) followed by an explicit
        # departure row@5: the kind change cuts the batch, and the
        # leftover row must still beat the same-instant scheduled
        # departure (it was admitted first).
        block = ChurnBlock(
            [5.0, 5.0], [0, 1],
            sessions=[0.0, float("nan")],
            idents=[None, "missing"],
        )
        engine_log = run_recording([block], "engine", tick=0.0)
        oracle_log = run_recording([block], "oracle", tick=0.0)
        assert engine_log == oracle_log

    def test_departure_landing_on_later_row_time(self):
        # The session is chosen so join@1's departure lands exactly on
        # the fourth row's time.  The oracle admits that row only after
        # the departure is already resident (rows enter once nothing
        # earlier is left in the heap), so the departure wins the tie.
        block = ChurnBlock(
            [1.0, 2.0, 3.0, 4.0],
            [0, 0, 0, 0],
            sessions=[3.0] + [float("nan")] * 3,
        )
        engine_log = run_recording([block], "engine", tick=0.0)
        oracle_log = run_recording([block], "oracle", tick=0.0)
        assert engine_log == oracle_log
        churn = [(e[0], e[1]) for e in engine_log if e[0] != "tick"]
        assert churn[-2:] == [("depart", 4.0), ("join", 4.0)]

    def test_departure_tie_with_resident_tick(self):
        # Same collision shape but with the recurring tick resident in
        # the heap, so batches form mid-trace: the departure scheduled
        # by the earlier-instant join must still precede the same-time
        # later row.
        block = ChurnBlock(
            [0.1, 0.2, 0.5, 0.8],
            [0, 0, 0, 0],
            sessions=[float("nan"), 0.6, float("nan"), float("nan")],
        )
        engine_log = run_recording([block], "engine", tick=1.0, horizon=3.0)
        oracle_log = run_recording([block], "oracle", tick=1.0, horizon=3.0)
        assert engine_log == oracle_log
        churn = [(e[0], e[1]) for e in engine_log if e[0] != "tick"]
        assert churn[-2:] == [("depart", 0.8), ("join", 0.8)]

    def test_departure_run_spanning_instants_yields_to_scheduled_dep(self):
        # join@4 (session 1) schedules a departure for t=5; the explicit
        # departure run starting at t=4 must NOT extend through the t=5
        # rows -- the scheduled departure was pushed during instant 4,
        # before the t=5 rows were admitted, so it goes first.
        block = ChurnBlock(
            [4.0, 4.0, 5.0, 5.0],
            [0, 1, 1, 1],
            sessions=[1.0] + [float("nan")] * 3,
            idents=[None, "a", "b", "c"],
        )
        engine_log = run_recording([block], "engine", tick=0.0)
        oracle_log = run_recording([block], "oracle", tick=0.0)
        assert engine_log == oracle_log

    def test_mixed_event_and_block_streams(self):
        # ChurnScenario documents events as "events and/or churn blocks";
        # both orderings must work in the engine and the oracle.
        mixed_event_first = [
            GoodJoin(time=1.0, ident="e0"),
            ChurnBlock([2.0, 3.0], [0, 0], idents=["b0", "b1"]),
            GoodJoin(time=4.0, ident="e1"),
        ]
        mixed_block_first = [
            ChurnBlock([1.0], [0], idents=["b0"]),
            GoodJoin(time=2.0, ident="e0"),
            ChurnBlock([3.0], [0], idents=["b1"]),
        ]
        for source, expected_joins in (
            (mixed_event_first, 4),
            (mixed_block_first, 3),
        ):
            logs = [
                run_recording(list(source), simulator, tick=0.0)
                for simulator in SIMULATORS
            ]
            assert logs[0] == logs[1]
            assert len([e for e in logs[0] if e[0] == "join"]) == expected_joins

    def test_cross_block_disorder_fails_loudly(self):
        block_a = ChurnBlock([5.0, 6.0], [0, 0])
        block_b = ChurnBlock([1.0], [0])
        defense = RecordingDefense()
        sim = Simulation(
            SimulationConfig(horizon=10.0, tick_interval=0.0, seed=1),
            defense,
            [block_a, block_b],
        )
        with pytest.raises(ValueError, match="backwards"):
            sim.run()


class TestRandomizedOrderEquivalence:
    """Property-style fuzz: collision-heavy traces, same log as the oracle.

    Times are drawn on a coarse grid so exact ties (rows vs scheduled
    session departures, rows vs ticks) occur constantly -- the regime
    where the batch-boundary and tie rules earn their keep.
    """

    @pytest.mark.parametrize("seed", range(25))
    @pytest.mark.parametrize("decimals", [0, 1])
    def test_fast_and_heap_logs_match(self, seed, decimals):
        r = np.random.default_rng(seed + 1000 * decimals)
        n = int(r.integers(3, 25))
        times = np.sort(np.round(r.uniform(0, 8, n), decimals))
        kinds = r.integers(0, 2, n).astype(np.uint8)
        sessions = np.where(
            r.random(n) < 0.6, np.round(r.uniform(0, 3, n), decimals), np.nan
        )
        sessions = np.where(kinds == 0, sessions, np.nan)
        idents = [f"x{i}" if r.random() < 0.3 else None for i in range(n)]
        block = ChurnBlock(times, kinds, sessions=sessions, idents=idents)
        blocks = list(
            blocks_from_events(
                list(block.iter_events()), block_size=int(r.integers(2, 10))
            )
        )
        tick = float(r.choice([0.0, 0.5, 1.0]))
        sample = float(r.choice([1.0, 3.0, 50.0]))
        logs = []
        for simulator in SIMULATORS.values():
            defense = RecordingDefense()
            sim = simulator(
                SimulationConfig(
                    horizon=10.0, tick_interval=tick, seed=1,
                    sample_interval=sample,
                ),
                defense,
                blocks,
            )
            sampled = sim.run().metrics.system_size
            # The sampled series pins the sample rule as well: a sample
            # taken at the wrong point of a batch shows up as a
            # different (time, size) pair.
            logs.append(
                (defense.log, sampled.times.tolist(), sampled.values.tolist())
            )
        assert logs[0] == logs[1]


class TestOracleIndependence:
    def test_oracle_imports_nothing_from_the_engine(self):
        source = Path(__file__).with_name("heap_oracle.py").read_text()
        modules = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        assert modules
        assert not any(m.startswith("repro.sim.engine") for m in modules)
        assert "repro.sim" not in modules  # re-exports the engine
