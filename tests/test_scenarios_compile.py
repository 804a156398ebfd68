"""Scenario-compiler sizing: fraction phases under small ``--n0-scale``.

``int(round(fraction * pop))`` reaches 0 when the scaled population
estimate is small, silently compiling mass-exodus / partition-rejoin
phases into no-ops -- exactly the phases those scenarios exist to
exercise.  The compiler now clamps positive fractions of non-empty
populations to at least one member and reports the clamp through the
compile warnings.
"""

import numpy as np
import pytest

from repro.scenarios.catalog import get_scenario, scenario_names
from repro.scenarios.compile import compile_scenario
from repro.scenarios.spec import (
    MassExodus,
    PartitionRejoin,
    ScenarioSpec,
    SessionSpec,
    Silence,
    SteadyState,
    TraceReplay,
)
from repro.sim.blocks import DEPART, JOIN, ChurnBlock


def tiny_spec(phase):
    return ScenarioSpec(
        name="tiny",
        description="clamp regression",
        phases=(SteadyState(duration=10.0), phase),
        n0=8,
        sessions=SessionSpec(kind="exponential", mean=500.0),
    )


def departures_in(compiled):
    return sum(
        int(np.count_nonzero(block.kinds == DEPART))
        for block in compiled.blocks
    )


class TestFractionClamp:
    def test_mass_exodus_scaled_down_still_departs(self):
        # n0=8 at n0_scale=0.25 -> pop estimate 2; 10% of 2 rounds to 0.
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.1))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert departures_in(compiled) >= 1
        assert any("MassExodus" in w for w in compiled.warnings)
        assert compiled.summary()["warnings"] == compiled.warnings

    def test_partition_rejoin_scaled_down_still_cycles(self):
        spec = tiny_spec(
            PartitionRejoin(
                fraction=0.1, away=5.0,
                exodus_window=2.0, rejoin_window=2.0,
            )
        )
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert departures_in(compiled) >= 1
        assert any("PartitionRejoin" in w for w in compiled.warnings)

    def test_unscaled_fractions_do_not_warn(self):
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.5))
        compiled = compile_scenario(spec, np.random.default_rng(0))
        assert compiled.warnings == []
        assert departures_in(compiled) >= 1

    def test_explicit_count_bypasses_clamp(self):
        spec = tiny_spec(MassExodus(duration=5.0, count=0))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        # A literal count of 0 is the author's choice, not a rounding
        # artifact: no clamp, no warning.
        assert compiled.warnings == []

    def test_zero_fraction_is_a_legitimate_noop(self):
        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.0))
        compiled = compile_scenario(
            spec, np.random.default_rng(0), n0_scale=0.25
        )
        assert compiled.warnings == []

    def test_warnings_reach_the_metrics_row(self):
        from repro.scenarios import catalog as catalog_mod
        from repro.scenarios.run import ScenarioPointSpec, run_scenario_point

        spec = tiny_spec(MassExodus(duration=5.0, fraction=0.1))
        registered = catalog_mod.CATALOG.setdefault(spec.name, spec)
        try:
            row = run_scenario_point(
                ScenarioPointSpec(
                    scenario=spec.name,
                    defense="Null",
                    seed=7,
                    t_rate=0.0,
                    n0_scale=0.25,
                )
            )
            assert any("MassExodus" in w for w in row["compile_warnings"])
        finally:
            if registered is spec:
                del catalog_mod.CATALOG[spec.name]


class TestSybilExodusStaging:
    """count=None exoduses must stage, not collapse into batch one."""

    def test_drain_fractions_stage_a_full_exodus(self):
        from repro.scenarios.spec import SybilExodus

        spec = ScenarioSpec(
            name="staged",
            description="staged exodus",
            phases=(SybilExodus(duration=30.0, batches=4),),
            n0=8,
            sessions=SessionSpec(kind="exponential", mean=500.0),
        )
        compiled = compile_scenario(spec, np.random.default_rng(0))
        fractions = [e.drain_fraction for e in compiled.scheduled]
        assert fractions == [1.0 / 4, 1.0 / 3, 1.0 / 2, 1.0]

    def test_explicit_count_still_splits_evenly(self):
        from repro.scenarios.spec import SybilExodus

        spec = ScenarioSpec(
            name="counted",
            description="counted exodus",
            phases=(SybilExodus(duration=20.0, count=400, batches=4),),
            n0=8,
            sessions=SessionSpec(kind="exponential", mean=500.0),
        )
        compiled = compile_scenario(spec, np.random.default_rng(0))
        assert [e.count for e in compiled.scheduled] == [100] * 4
        assert all(e.drain_fraction is None for e in compiled.scheduled)

    def test_engine_withdraws_in_equal_stages(self):
        from repro.sim.engine import Simulation, SimulationConfig
        from repro.sim.events import BadDepartureBatch, Callback
        from repro.sim.null_defense import NullDefense

        defense = NullDefense()
        sim = Simulation(
            SimulationConfig(horizon=10.0, tick_interval=0.0, seed=1),
            defense,
            [],
        )
        defense.population.bad_join(100, 0.0)
        remaining = []
        for i, t in enumerate((1.0, 2.0, 3.0, 4.0)):
            sim.queue.push(
                BadDepartureBatch(
                    time=t, count=0, drain_fraction=1.0 / (4 - i)
                )
            )
            sim.queue.push(
                Callback(
                    time=t + 0.5,
                    fn=lambda now: remaining.append(defense.bad_count()),
                )
            )
        result = sim.run()
        # Equal 25-ID stages, fully drained by the last batch.
        assert remaining == [75, 50, 25, 0]
        assert result.counters["bad_departure_events"] == 100


# -- single-pass workload summary -------------------------------------

_STREAMED_REPLAY = ScenarioSpec(
    name="streamed-replay",
    description="streamed replay between generated phases",
    phases=(
        SteadyState(duration=30.0),
        TraceReplay(path="tor_relay_flap.csv", duration=400.0),
        Silence(duration=20.0),
    ),
    n0=40,
)


def _compile_small(name):
    if name == _STREAMED_REPLAY.name:
        spec = _STREAMED_REPLAY
    else:
        spec = get_scenario(name)
    compiled = compile_scenario(spec, np.random.default_rng(5), n0_scale=0.1)
    for part in compiled.blocks:
        if not isinstance(part, ChurnBlock):
            # Many small blocks, so a partial pass stops mid-trace.
            part.block_size = 16
    return compiled


def _shape_from_parts(compiled):
    """Oracle: the tallied keys computed straight from the parts."""
    blocks = []
    for part in compiled.blocks:
        blocks.extend([part] if isinstance(part, ChurnBlock) else list(part))
    kinds = np.concatenate([b.kinds for b in blocks])
    times = np.concatenate([b.times for b in blocks])
    join_secs = np.floor(times[kinds == JOIN]).astype(np.int64)
    per_second = np.unique(join_secs, return_counts=True)[1]
    return {
        "good_joins": int(np.count_nonzero(kinds == JOIN)),
        "good_departures": int(np.count_nonzero(kinds == DEPART)),
        "peak_join_rate": int(per_second.max()) if len(per_second) else 0,
    }


def _take_one(compiled):
    next(compiled.iter_blocks())


def _full(compiled):
    for _ in compiled.iter_blocks():
        pass


def _two_full(compiled):
    _full(compiled)
    _full(compiled)


def _partial_then_full(compiled):
    _take_one(compiled)
    _full(compiled)


def _closed_midway(compiled):
    blocks = compiled.iter_blocks()
    next(blocks)
    blocks.close()


def _summary_first(compiled):
    compiled.summary()


_PASSES = {
    "no-pass": lambda compiled: None,
    "full": _full,
    "partial": _take_one,
    "two-full": _two_full,
    "partial-then-full": _partial_then_full,
    "closed-midway": _closed_midway,
    "summary-twice": _summary_first,
}


class TestSinglePassSummary:
    """``summary()`` reads the tally of the engine's own block pass, so
    it must come out the same however far that pass got."""

    @pytest.mark.parametrize("name", [*scenario_names(), _STREAMED_REPLAY.name])
    def test_summary_independent_of_prior_passes(self, name):
        expected = _compile_small(name).summary()
        oracle = _shape_from_parts(_compile_small(name))
        assert {k: expected[k] for k in oracle} == oracle
        for label, drive in _PASSES.items():
            compiled = _compile_small(name)
            drive(compiled)
            assert compiled.summary() == expected, label

    def test_partial_pass_is_finished_on_the_same_iterator(self):
        compiled = _compile_small(_STREAMED_REPLAY.name)
        blocks = compiled.iter_blocks()
        next(blocks)
        compiled.summary()
        # The summary drained the consumer's iterator rather than
        # opening a second pass.
        assert next(blocks, None) is None
