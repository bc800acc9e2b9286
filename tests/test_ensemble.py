"""Tests for the Monte-Carlo ensemble runner (repro.sim.ensemble)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment
from repro.crn import parse_network
from repro.errors import EnsembleError
from repro.sim import (
    EnsembleResult,
    OutcomeThresholds,
    ParallelEnsembleRunner,
    SimulationOptions,
    SpeciesThreshold,
    make_simulator,
)


def _simulate(network, n_trials, stopping=None, **simulate_kwargs) -> EnsembleResult:
    """One ensemble through the facade (what every caller of the runner uses)."""
    experiment = Experiment.from_network(network, stopping=stopping)
    return experiment.simulate(trials=n_trials, **simulate_kwargs).ensemble


@pytest.fixture
def decision_network():
    """Two-way race: a wins 70% of the time (70 vs 30 molecules, equal rates)."""
    return parse_network(
        """
        init: ea = 70
        init: eb = 30
        ea ->{1} wa
        eb ->{1} wb
        """
    )


@pytest.fixture
def decision_condition():
    return OutcomeThresholds({"A": ("wa", 1), "B": ("wb", 1)})


class TestRunner:
    def test_outcome_distribution(self, decision_network, decision_condition):
        result = _simulate(
            decision_network, 800, stopping=decision_condition, seed=1
        )
        distribution = result.outcome_distribution()
        assert distribution["A"] == pytest.approx(0.7, abs=0.05)
        assert distribution["B"] == pytest.approx(0.3, abs=0.05)
        assert result.decided_fraction() == 1.0

    def test_outcome_counts_sum_to_trials(self, decision_network, decision_condition):
        result = _simulate(decision_network, 100, stopping=decision_condition, seed=2)
        assert sum(result.outcome_counts.values()) == result.n_trials == 100

    def test_reproducible_with_seed(self, decision_network, decision_condition):
        r1 = _simulate(decision_network, 100, stopping=decision_condition, seed=5)
        r2 = _simulate(decision_network, 100, stopping=decision_condition, seed=5)
        assert r1.outcome_counts == r2.outcome_counts
        np.testing.assert_array_equal(r1.final_counts, r2.final_counts)

    def test_different_seeds_differ(self, decision_network, decision_condition):
        r1 = _simulate(decision_network, 200, stopping=decision_condition, seed=5)
        r2 = _simulate(decision_network, 200, stopping=decision_condition, seed=6)
        assert r1.outcome_counts != r2.outcome_counts or not np.array_equal(
            r1.final_times, r2.final_times
        )

    def test_undecided_without_condition(self, decision_network):
        result = _simulate(decision_network, 20, seed=3)
        assert result.outcome_counts == {EnsembleResult.UNDECIDED: 20}
        assert result.decided_fraction() == 0.0
        assert result.outcome_distribution() == {}
        assert result.outcome_distribution(include_undecided=True) == {
            EnsembleResult.UNDECIDED: 1.0
        }

    def test_custom_classifier(self, decision_network):
        runner = ParallelEnsembleRunner(
            decision_network,
            outcome_classifier=lambda t: "big" if t.final_count("wa") > 0 else "small",
        )
        result = runner.run(30, seed=4)
        assert set(result.outcome_counts) <= {"big", "small"}

    def test_species_statistics(self, decision_network, decision_condition):
        result = _simulate(decision_network, 200, stopping=decision_condition, seed=7)
        assert 0.6 < result.mean_final("wa") < 0.8            # wins 70% of races
        assert result.std_final("wa") > 0
        histogram = result.final_histogram("wa")
        assert set(histogram) <= {0, 1}
        assert result.threshold_fraction("wa", 1) == pytest.approx(
            result.outcome_frequency("A")
        )

    def test_unknown_species_raises(self, decision_network, decision_condition):
        result = _simulate(decision_network, 10, stopping=decision_condition, seed=8)
        with pytest.raises(EnsembleError):
            result.mean_final("nope")

    def test_keep_trajectories(self, decision_network, decision_condition):
        result = _simulate(
            decision_network, 5, stopping=decision_condition, seed=9, keep_trajectories=True
        )
        assert len(result.trajectories) == 5

    def test_trials_validation(self, decision_network):
        with pytest.raises(EnsembleError):
            _simulate(decision_network, 0)

    @pytest.mark.parametrize("value", [True, "64", 64.5])
    def test_counts_of_another_spelling_name_the_field(self, decision_network, value):
        """A bool, a string or a fraction is not a count: ``True`` used to
        run one-trial chunks, and ``run(True)`` one trial."""
        with pytest.raises(EnsembleError, match="chunk_size: expected an integer"):
            ParallelEnsembleRunner(decision_network, engine="direct", chunk_size=value)
        runner = ParallelEnsembleRunner(decision_network, engine="direct")
        with pytest.raises(EnsembleError, match="n_trials: expected an integer"):
            runner.run(value, seed=1)

    def test_integral_float_counts_are_integers(self, decision_network, decision_condition):
        runner = ParallelEnsembleRunner(
            decision_network, engine="direct", stopping=decision_condition, chunk_size=16.0
        )
        result = runner.run(32.0, seed=1)
        assert runner.chunk_size == 16 and result.n_trials == 32

    def test_engine_selection(self, decision_network, decision_condition):
        result = _simulate(
            decision_network, 200, stopping=decision_condition, seed=10, engine="next-reaction"
        )
        assert result.outcome_distribution()["A"] == pytest.approx(0.7, abs=0.08)

    def test_initial_state_override(self, decision_network, decision_condition):
        result = _simulate(decision_network, 200, stopping=decision_condition, seed=11)
        runner = ParallelEnsembleRunner(decision_network, stopping=decision_condition)
        flipped = runner.run(200, seed=11, initial_state={"ea": 30, "eb": 70})
        assert flipped.outcome_distribution()["A"] < result.outcome_distribution()["A"]

    def test_summary_text(self, decision_network, decision_condition):
        result = _simulate(decision_network, 50, stopping=decision_condition, seed=12)
        text = result.summary()
        assert "Ensemble of 50 trials" in text
        assert "A" in text and "B" in text


class TestInitialStateMapping:
    """``initial_state={}`` starts every trial from all zeros, as ``run`` does."""

    NETWORK = """
    init: a = 5
    0 ->{1} a
    a ->{0.1} 0
    """

    @pytest.mark.parametrize("engine", ["direct", "next-reaction", "batch-direct"])
    def test_empty_mapping_is_all_zeros(self, engine):
        net = parse_network(self.NETWORK)
        options = SimulationOptions(record_firings=False, max_steps=1)
        single = make_simulator(net, engine=engine, seed=1).run(
            initial_state={}, options=options
        )
        assert single.final_count("a") == 1
        # One chunk (the default width) and two chunks (width 4).
        for chunk_size in (512, 4):
            result = ParallelEnsembleRunner(
                net, engine=engine, options=options, chunk_size=chunk_size
            ).run(6, seed=1, initial_state={})
            assert result.final_values("a").tolist() == [1] * 6

    def test_none_is_the_networks_own_state(self):
        net = parse_network(self.NETWORK)
        options = SimulationOptions(record_firings=False, max_steps=1)
        result = ParallelEnsembleRunner(net, options=options).run(
            6, seed=1, initial_state=None
        )
        assert set(result.final_values("a").tolist()) <= {4, 6}


class TestShardPaths:
    """Columnar slices and per-trial trajectories give the same ensemble."""

    @pytest.mark.parametrize(
        "engine", ["direct", "first-reaction", "next-reaction", "tau-leaping"]
    )
    def test_trajectory_path_matches_columns(self, engine, decision_network,
                                             decision_condition):
        def runner(classifier=None):
            return ParallelEnsembleRunner(
                decision_network, engine=engine, stopping=decision_condition,
                outcome_classifier=classifier, workers=1, chunk_size=40,
            )

        columns = runner().run(100, seed=4)
        opaque = runner(lambda trajectory: trajectory.stop_detail or None).run(100, seed=4)
        kept = runner().run(100, seed=4, keep_trajectories=True)
        for other in (opaque, kept):
            assert other.outcome_counts == columns.outcome_counts
            np.testing.assert_array_equal(other.final_counts, columns.final_counts)
            np.testing.assert_array_equal(other.final_times, columns.final_times)
            np.testing.assert_array_equal(other.n_firings, columns.n_firings)
        assert len(kept.trajectories) == 100 and not columns.trajectories

    def test_log_free_trajectories_report_their_firings(
        self, decision_network, decision_condition
    ):
        """Ensemble trajectory views (per-trial and batched engines) and a
        batch-direct ``run()`` keep no firing log, yet report their firings."""
        for engine in ("direct", "batch-direct"):
            result = ParallelEnsembleRunner(
                decision_network, engine=engine, stopping=decision_condition
            ).run(3, seed=1, keep_trajectories=True)
            for trajectory, fired in zip(result.trajectories, result.n_firings):
                assert len(trajectory.reaction_indices) == 0
                assert trajectory.n_firings == trajectory.firing_counts.sum() == fired > 0
                assert f"firings={fired}," in repr(trajectory)
        run = make_simulator(decision_network, engine="batch-direct", seed=1).run(
            stopping=decision_condition
        )
        assert run.n_firings == run.firing_counts.sum() > 0

    def test_reused_runner_sees_a_mutated_condition(self, decision_network):
        condition = SpeciesThreshold("wa", 3)
        runner = ParallelEnsembleRunner(decision_network, stopping=condition)
        assert set(runner.run(20, seed=1).final_values("wa").tolist()) <= {3}
        condition.threshold = 5
        assert set(runner.run(20, seed=1).final_values("wa").tolist()) <= {5}


class TestOneEnsemblePath:
    """The runner and the facade are one Monte-Carlo path with one answer."""

    @pytest.mark.parametrize("engine", ["direct", "batch-direct"])
    def test_runner_equals_experiment_bitwise(self, engine):
        from repro.core import synthesize_distribution

        system = synthesize_distribution(
            {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
        )
        # 1,100 trials: three chunks of the default 512-trial schedule.
        runner = ParallelEnsembleRunner(
            system.network_with_inputs(None),
            engine=engine,
            stopping=system.stopping_condition(10),
            outcome_classifier=system.outcome_classifier(),
        ).run(1100, seed=7)
        facade = (
            Experiment.from_system(system)
            .simulate(trials=1100, engine=engine, seed=7)
            .ensemble
        )
        assert list(runner.outcome_counts.items()) == list(facade.outcome_counts.items())
        for name in ("final_counts", "final_times", "n_firings"):
            ours, theirs = getattr(runner, name), getattr(facade, name)
            assert (ours.dtype, ours.shape) == (theirs.dtype, theirs.shape)
            assert ours.tobytes() == theirs.tobytes()
