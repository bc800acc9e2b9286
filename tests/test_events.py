"""Tests for stopping conditions (repro.sim.events)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StoppingConditionError
from repro.sim import (
    AllCondition,
    AnyCondition,
    CategoryFiringCondition,
    CompiledNetwork,
    FiringCountCondition,
    OutcomeThresholds,
    PredicateCondition,
    SpeciesThreshold,
)


@pytest.fixture
def compiled(example1_network):
    return CompiledNetwork.compile(example1_network)


def _counts(compiled, **overrides):
    counts = compiled.initial_counts().copy()
    index = {s.name: i for i, s in enumerate(compiled.species)}
    for name, value in overrides.items():
        counts[index[name]] = value
    return counts


def _firings(compiled, **by_name):
    firings = np.zeros(compiled.n_reactions, dtype=np.int64)
    for name, value in by_name.items():
        firings[compiled.network.index_of(name)] = value
    return firings


class TestSpeciesThreshold:
    def test_triggers_at_threshold(self, compiled):
        condition = SpeciesThreshold("d_1", 5)
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, d_1=5), compiled, _firings(compiled)) == "d_1>=5"

    def test_not_triggered_below(self, compiled):
        condition = SpeciesThreshold("d_1", 5)
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, d_1=4), compiled, _firings(compiled)) is None

    def test_less_equal_comparison(self, compiled):
        condition = SpeciesThreshold("e_1", 0, comparison="<=", label="drained")
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, e_1=0), compiled, _firings(compiled)) == "drained"

    def test_unknown_species_raises_on_reset(self, compiled):
        with pytest.raises(StoppingConditionError):
            SpeciesThreshold("nope", 1).reset(compiled)

    def test_invalid_comparison(self):
        with pytest.raises(StoppingConditionError):
            SpeciesThreshold("a", 1, comparison=">")


class TestOutcomeThresholds:
    def test_returns_label(self, compiled):
        condition = OutcomeThresholds({"win1": ("o_1", 3), "win2": ("o_2", 3)})
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, o_2=3), compiled, _firings(compiled)) == "win2"

    def test_none_when_no_threshold_met(self, compiled):
        condition = OutcomeThresholds({"win1": ("o_1", 3)})
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled), compiled, _firings(compiled)) is None

    def test_empty_mapping_rejected(self):
        with pytest.raises(StoppingConditionError):
            OutcomeThresholds({})

    def test_unknown_species_rejected(self, compiled):
        with pytest.raises(StoppingConditionError):
            OutcomeThresholds({"x": ("missing", 1)}).reset(compiled)


class TestFiringConditions:
    def test_firing_count_total(self, compiled):
        condition = FiringCountCondition([0, 1], 3, label="enough")
        firings = _firings(compiled)
        firings[0], firings[1] = 2, 1
        assert condition.check(0.0, _counts(compiled), compiled, firings) == "enough"

    def test_firing_count_not_reached(self, compiled):
        condition = FiringCountCondition([0], 3)
        assert condition.check(0.0, _counts(compiled), compiled, _firings(compiled)) is None

    def test_firing_count_validation(self):
        with pytest.raises(StoppingConditionError):
            FiringCountCondition([], 1)
        with pytest.raises(StoppingConditionError):
            FiringCountCondition([0], 0)

    def test_category_condition_reports_reaction_name(self, compiled):
        condition = CategoryFiringCondition("working", 10)
        condition.reset(compiled)
        firings = _firings(compiled, **{"working[2]": 10})
        assert condition.check(0.0, _counts(compiled), compiled, firings) == "working[2]"

    def test_category_condition_requires_each_reaction_individually(self, compiled):
        condition = CategoryFiringCondition("working", 10)
        condition.reset(compiled)
        firings = _firings(compiled, **{"working[1]": 5, "working[2]": 5})
        assert condition.check(0.0, _counts(compiled), compiled, firings) is None

    def test_category_missing_raises(self, compiled):
        with pytest.raises(StoppingConditionError):
            CategoryFiringCondition("nonexistent", 1).reset(compiled)


class TestCombinators:
    def test_predicate_condition(self, compiled):
        condition = PredicateCondition(
            lambda time, state: "hit" if state.get("d_1", 0) >= 2 else None
        )
        assert condition.check(0.0, _counts(compiled, d_1=2), compiled, _firings(compiled)) == "hit"
        assert condition.check(0.0, _counts(compiled), compiled, _firings(compiled)) is None

    def test_any_condition_first_match_wins(self, compiled):
        condition = AnyCondition(
            [SpeciesThreshold("d_1", 1, label="one"), SpeciesThreshold("d_2", 1, label="two")]
        )
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, d_2=1), compiled, _firings(compiled)) == "two"

    def test_all_condition_requires_every_child(self, compiled):
        condition = AllCondition(
            [SpeciesThreshold("d_1", 1, label="a"), SpeciesThreshold("d_2", 1, label="b")]
        )
        condition.reset(compiled)
        assert condition.check(0.0, _counts(compiled, d_1=1), compiled, _firings(compiled)) is None
        both = _counts(compiled, d_1=1, d_2=1)
        assert condition.check(0.0, both, compiled, _firings(compiled)) == "a & b"

    def test_empty_combinators_rejected(self):
        with pytest.raises(StoppingConditionError):
            AnyCondition([])
        with pytest.raises(StoppingConditionError):
            AllCondition([])


# ---------------------------------------------------------------------------
# end-to-end stopping edge cases (satellite coverage for the kernel layer PR)
# ---------------------------------------------------------------------------


class TestStoppingEdgeCasesEndToEnd:
    """Integration edge cases: t=0 triggers, final-firing triggers, and
    stop_detail propagation into Trajectory / EnsembleResult — exercised on
    the per-trial kernels, tau-leaping and the batched engine."""

    PER_TRIAL_ENGINES = ("direct", "first-reaction", "next-reaction", "tau-leaping")

    @pytest.mark.parametrize("engine", PER_TRIAL_ENGINES)
    @pytest.mark.parametrize(
        "condition,detail",
        [
            (SpeciesThreshold("x", 5), "x>=5"),
            (SpeciesThreshold("x", 25, comparison="<="), "x<=25"),
        ],
    )
    def test_condition_already_true_at_t0(self, engine, condition, detail):
        from repro.crn import parse_network
        from repro.sim import StopReason, make_simulator

        net = parse_network("x ->{1} 0\ninit: x = 5")
        trajectory = make_simulator(net, engine=engine, seed=1).run(stopping=condition)
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail == detail
        assert trajectory.firing_counts.sum() == 0 and trajectory.final_time == 0.0
        assert trajectory.final_count("x") == 5

    @pytest.mark.parametrize("engine", [*PER_TRIAL_ENGINES, "batch-direct"])
    def test_unknown_initial_species_rejected(self, engine):
        from repro.crn import parse_network
        from repro.errors import SimulationError
        from repro.sim import make_simulator

        net = parse_network("x ->{1} 0\ninit: x = 5")
        with pytest.raises(SimulationError, match="typo"):
            make_simulator(net, engine=engine, seed=1).run(
                initial_state={"typo": 5}, record_firings=False
            )

    def test_condition_already_true_at_t0_batched(self):
        from repro.crn import parse_network
        from repro.sim import StopReason, make_simulator

        net = parse_network("x ->{1} 0\ninit: x = 5")
        batch = make_simulator(net, engine="batch-direct", seed=1).run_batch(
            8, stopping=SpeciesThreshold("x", 5)
        )
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)
        assert all(detail == "x>=5" for detail in batch.stop_details)
        assert batch.firing_counts.sum() == 0
        assert np.all(batch.final_times == 0.0)

    def test_condition_triggering_on_the_final_firing(self):
        # Every molecule decays; the <=0 threshold becomes true exactly on
        # the last possible firing — the run must stop on CONDITION, not
        # EXHAUSTED, with the full event count.
        from repro.crn import parse_network
        from repro.sim import StopReason, make_simulator

        net = parse_network("x ->{1} 0\ninit: x = 5")
        trajectory = make_simulator(net, engine="direct", seed=3).run(
            stopping=SpeciesThreshold("x", 0, comparison="<=", label="gone"),
            backend="numpy",
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail == "gone"
        assert trajectory.n_firings == 5
        assert trajectory.final_time == pytest.approx(trajectory.times[-1])

    def test_condition_triggering_on_the_final_firing_batched(self):
        from repro.crn import parse_network
        from repro.sim import StopReason, make_simulator

        net = parse_network("x ->{1} 0\ninit: x = 5")
        batch = make_simulator(net, engine="batch-direct", seed=3).run_batch(
            16, stopping=SpeciesThreshold("x", 0, comparison="<=", label="gone")
        )
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)
        assert all(detail == "gone" for detail in batch.stop_details)
        assert np.all(batch.firing_counts.sum(axis=1) == 5)

    def test_stop_detail_propagates_into_ensemble_outcomes(self):
        # The default ensemble classifier labels trials by stop_detail; the
        # outcome thresholds' label must therefore flow end to end.
        from repro.api import Experiment
        from repro.crn import parse_network

        net = parse_network(
            """
            init: e1 = 10
            init: e2 = 10
            e1 ->{1} d1
            e2 ->{1} d2
            """
        )
        stopping = OutcomeThresholds({"one": ("d1", 2), "two": ("d2", 2)})
        result = Experiment.from_network(net, stopping=stopping).simulate(
            trials=60, seed=9, backend="numpy"
        )
        counts = result.ensemble.outcome_counts
        assert set(counts) <= {"one", "two"}
        assert sum(counts.values()) == 60
        assert counts.get("one", 0) > 0 and counts.get("two", 0) > 0

    def test_stop_detail_propagates_with_batched_engine(self):
        from repro.api import Experiment
        from repro.crn import parse_network

        net = parse_network(
            """
            init: e1 = 10
            init: e2 = 10
            e1 ->{1} d1
            e2 ->{1} d2
            """
        )
        stopping = OutcomeThresholds({"one": ("d1", 2), "two": ("d2", 2)})
        result = Experiment.from_network(net, stopping=stopping).simulate(
            trials=60, seed=9, engine="batch-direct"
        )
        counts = result.ensemble.outcome_counts
        assert set(counts) <= {"one", "two"}
        assert sum(counts.values()) == 60
