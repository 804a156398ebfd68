"""Edge cases for the simulation engine and defense plumbing."""

import pytest

from repro.adversary.strategies import GreedyJoinAdversary
from repro.churn.traces import InitialMember
from repro.core.ergo import Ergo, ErgoConfig
from repro.sim.engine import Simulation, SimulationConfig
from repro.sim.events import BadDeparture, GoodJoin


def build(events=(), initial=None, horizon=50.0, adversary=None, **config):
    defense = Ergo(ErgoConfig(**config)) if config else Ergo()
    sim = Simulation(
        SimulationConfig(horizon=horizon),
        defense,
        list(events),
        adversary=adversary,
        initial_members=initial or [],
    )
    return sim, defense


class TestEmptyBootstrap:
    def test_empty_system_runs(self):
        sim, defense = build()
        result = sim.run()
        assert result.final_system_size == 0
        assert result.good_spend == 0.0

    def test_first_join_into_empty_system(self):
        sim, defense = build(events=[GoodJoin(time=1.0)])
        result = sim.run()
        assert result.final_system_size == 1
        # The joiner paid an entrance cost of at least 1.
        assert result.good_spend >= 1.0


class TestLazyChurnSources:
    def test_generator_source_is_consumed_lazily(self):
        pulled = []

        def source():
            for i in range(1000):
                pulled.append(i)
                yield GoodJoin(time=float(i))

        sim, defense = build(horizon=10.0)
        sim._churn = source()
        sim.run()
        # Events past the horizon were not materialized wholesale.
        assert len(pulled) < 50

    def test_non_churn_event_in_churn_source_is_rejected(self):
        # Churn sources carry good churn only: a stray event is packed
        # into a one-row block, and a bad departure cannot be packed.
        # Scheduled bad departures go through ``sim.queue.push``.
        sim, _ = build(
            events=[GoodJoin(time=1.0), BadDeparture(time=2.0, ident="b")]
        )
        with pytest.raises(TypeError, match="BadDeparture"):
            sim.run()

    def test_unordered_near_ties_are_handled(self):
        events = [GoodJoin(time=1.0), GoodJoin(time=1.0), GoodJoin(time=1.0)]
        sim, defense = build(events=events)
        result = sim.run()
        assert result.counters["good_join_events"] == 3


class TestBadDepartureEvents:
    def test_bad_departure_event_dispatch(self):
        initial = [InitialMember(ident=f"i{k}") for k in range(44)]
        sim, defense = build(initial=initial, horizon=30.0)
        sim.queue.push(BadDeparture(time=5.0, ident="whatever"))
        sim.run()
        # With no bad IDs present the departure is a no-op.
        assert defense.population.bad_count == 0

    def test_bad_departure_counts_as_churn(self):
        initial = [InitialMember(ident=f"i{k}") for k in range(44)]
        sim, defense = build(initial=initial, horizon=30.0)
        sim.run()
        defense.process_bad_join_batch(budget=2.0)
        counter_before = defense._event_counter
        defense.process_bad_departure()
        assert defense._event_counter == counter_before + 1


class TestSampling:
    def test_sample_interval_respected(self):
        initial = [InitialMember(ident=f"i{k}") for k in range(10)]
        defense = Ergo()
        sim = Simulation(
            SimulationConfig(horizon=100.0, sample_interval=10.0),
            defense,
            [],
            initial_members=initial,
        )
        result = sim.run()
        assert 5 <= len(result.metrics.system_size) <= 13


class TestWindowWidthCap:
    def test_tiny_estimate_caps_window(self):
        sim, defense = build(
            initial=[InitialMember(ident=f"i{k}") for k in range(44)],
            max_window_width=100.0,
        )
        sim.run()
        # Force an absurdly small estimate and check the cap.
        defense.goodjest._estimate = 1e-12
        assert defense._window_width() == 100.0


class TestRetryExhaustion:
    def test_hostile_classifier_abandons_good_joins(self):
        from repro.classifier.bernoulli import BernoulliClassifier

        class NeverAdmit(BernoulliClassifier):
            def __init__(self):
                super().__init__(0.5)

            def classify_good(self, rng):
                return False

        sim, defense = build(
            events=[GoodJoin(time=1.0)],
            initial=[InitialMember(ident=f"i{k}") for k in range(44)],
            classifier=NeverAdmit(),
            max_good_retries=3,
        )
        result = sim.run()
        assert result.counters.get("good_abandoned", 0) == 1
        assert result.counters.get("good_refused", 0) == 3


class TestSystemShrink:
    def test_ergo_survives_population_collapse(self):
        initial = [InitialMember(ident=f"i{k}", residual=float(k + 1)) for k in range(44)]
        sim, defense = build(initial=initial, horizon=60.0)
        result = sim.run()
        assert result.final_system_size == 0
        # Iterations rolled as the system shrank; no division blowups.
        assert defense.iteration_count >= 2
        assert defense.goodjest.estimate > 0


class TestAdversaryAtHorizonBoundary:
    def test_final_act_at_horizon(self):
        adversary = GreedyJoinAdversary(rate=10.0)
        initial = [InitialMember(ident=f"i{k}") for k in range(44)]
        sim, defense = build(initial=initial, adversary=adversary, horizon=20.0)
        result = sim.run()
        # Budget accrued through the full horizon was spendable.
        assert result.adversary_spend == pytest.approx(10.0 * 20.0, rel=0.2)
