"""Tests for the batched engine, parallel ensemble runner and Welford merge."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment
from repro.crn import parse_network
from repro.errors import EnsembleError, SimulationError
from repro.sim import (
    BatchDirectEngine,
    EnsembleResult,
    OutcomeThresholds,
    ParallelEnsembleRunner,
    RunningMoments,
    SimulationOptions,
    SpeciesThreshold,
    StopReason,
    make_simulator,
)


@pytest.fixture
def two_outcome_network():
    """Two-way race: A wins with probability 0.7 (70 vs 30 molecules, equal rates)."""
    return parse_network(
        """
        init: ea = 70
        init: eb = 30
        ea ->{1} wa
        eb ->{1} wb
        """
    )


@pytest.fixture
def two_outcome_condition():
    return OutcomeThresholds({"A": ("wa", 1), "B": ("wb", 1)})


def chi_squared(observed: dict[str, int], expected: dict[str, float], n: int) -> float:
    """Pearson chi-squared statistic of observed counts vs expected probabilities."""
    return sum(
        (observed.get(label, 0) - n * p) ** 2 / (n * p) for label, p in expected.items()
    )


class TestBatchDirectEngine:
    def test_matches_direct_method_chi_squared(
        self, two_outcome_network, two_outcome_condition
    ):
        """Batch engine agrees with DirectMethodSimulator on the reference race.

        Both engines sample the same exact SSA, whose first-firing outcome
        probability is 70/100 = 0.7.  Each engine's outcome counts are tested
        against that reference with a chi-squared tolerance (df=1, the 99.9%
        critical value is 10.83), and against each other via a two-sample
        chi-squared.
        """
        n = 2000
        expected = {"A": 0.7, "B": 0.3}
        counts = {}
        for engine in ("direct", "batch-direct"):
            result = Experiment.from_network(
                two_outcome_network, stopping=two_outcome_condition
            ).simulate(trials=n, engine=engine, seed=101).ensemble
            assert sum(result.outcome_counts.values()) == n
            assert result.decided_fraction() == 1.0
            assert chi_squared(result.outcome_counts, expected, n) < 10.83
            counts[engine] = result.outcome_counts
        # Two-sample chi-squared between the engines (df=1).
        stat = sum(
            (counts["direct"].get(k, 0) - counts["batch-direct"].get(k, 0)) ** 2
            / (counts["direct"].get(k, 0) + counts["batch-direct"].get(k, 0))
            for k in ("A", "B")
        )
        assert stat < 10.83

    def test_reproducible_with_seed(self, two_outcome_network, two_outcome_condition):
        experiment = Experiment.from_network(
            two_outcome_network, stopping=two_outcome_condition
        )
        r1 = experiment.simulate(trials=200, engine="batch-direct", seed=5).ensemble
        r2 = experiment.simulate(trials=200, engine="batch-direct", seed=5).ensemble
        assert r1.outcome_counts == r2.outcome_counts
        np.testing.assert_array_equal(r1.final_counts, r2.final_counts)
        np.testing.assert_array_equal(r1.final_times, r2.final_times)

    def test_exhaustion_and_conservation(self, two_outcome_network):
        """Without a stopping condition every trial exhausts with all 100 conversions."""
        engine = BatchDirectEngine(two_outcome_network)
        batch = engine.run_batch(50, seed=3)
        assert all(reason == StopReason.EXHAUSTED for reason in batch.stop_reasons)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), 100)
        np.testing.assert_array_equal(batch.final_counts.sum(axis=1), 100)

    def test_max_time_stops_at_horizon(self, two_outcome_network):
        engine = BatchDirectEngine(two_outcome_network)
        batch = engine.run_batch(
            30, options=SimulationOptions(max_time=1e-4, record_firings=False), seed=4
        )
        assert all(reason == StopReason.MAX_TIME for reason in batch.stop_reasons)
        np.testing.assert_allclose(batch.final_times, 1e-4)

    def test_max_steps_guard(self, birth_death_network):
        engine = BatchDirectEngine(birth_death_network)
        batch = engine.run_batch(
            10, options=SimulationOptions(max_steps=25, record_firings=False), seed=6
        )
        assert all(reason == StopReason.MAX_STEPS for reason in batch.stop_reasons)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), 25)

    def test_condition_already_met_at_t0(self, two_outcome_network):
        engine = BatchDirectEngine(two_outcome_network)
        batch = engine.run_batch(
            5, stopping=SpeciesThreshold("ea", 1, label="preloaded"), seed=7
        )
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)
        assert all(detail == "preloaded" for detail in batch.stop_details)
        np.testing.assert_array_equal(batch.final_times, 0.0)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), 0)

    def test_single_run_is_trajectory_dropin(self, two_outcome_network, two_outcome_condition):
        simulator = make_simulator(two_outcome_network, engine="batch-direct")
        trajectory = simulator.run(
            stopping=two_outcome_condition,
            options=SimulationOptions(record_firings=False),
            seed=8,
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail in ("A", "B")
        assert int(trajectory.firing_counts.sum()) >= 1

    def test_firing_log_request_raises(self, two_outcome_network):
        engine = BatchDirectEngine(two_outcome_network)
        with pytest.raises(SimulationError):
            engine.run_batch(5, options=SimulationOptions(record_firings=True))
        with pytest.raises(SimulationError):
            engine.run_batch(
                5, options=SimulationOptions(record_firings=False, record_states=True)
            )

    def test_callback_condition_on_numpy_sweep(self, two_outcome_network):
        """Conditions with no clause encoding are checked per active row by the sweep."""
        from repro.sim import PredicateCondition

        stopping = PredicateCondition(
            lambda time, state: "done" if state["wa"] + state["wb"] >= 10 else None
        )
        engine = BatchDirectEngine(two_outcome_network)
        batch = engine.run_batch(20, stopping=stopping, seed=9)
        assert engine._sweep_buffers.allocations == 1
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)
        assert all(detail == "done" for detail in batch.stop_details)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), 10)

    def test_initial_state_override(self, two_outcome_network, two_outcome_condition):
        runner = ParallelEnsembleRunner(
            two_outcome_network, engine="batch-direct", stopping=two_outcome_condition
        )
        baseline = runner.run(400, seed=11)
        flipped = runner.run(400, seed=11, initial_state={"ea": 30, "eb": 70})
        assert flipped.outcome_frequency("A") < baseline.outcome_frequency("A")


class TestParallelEnsembleRunner:
    def test_identical_across_worker_counts_per_trial_engine(
        self, two_outcome_network, two_outcome_condition
    ):
        """Per-trial streams are keyed by global trial index, so neither the
        worker count nor the chunk width changes a seeded result; the
        defaults (one inline 512-trial chunk here) agree with every sharding."""
        results = [
            ParallelEnsembleRunner(two_outcome_network, stopping=two_outcome_condition)
            .run(300, seed=21)
        ] + [
            ParallelEnsembleRunner(
                two_outcome_network,
                stopping=two_outcome_condition,
                workers=workers,
                chunk_size=chunk_size,
            ).run(300, seed=21)
            for workers, chunk_size in ((1, 64), (2, 64), (3, 64), (2, 100))
        ]
        for other in results[1:]:
            assert results[0].outcome_counts == other.outcome_counts
            np.testing.assert_array_equal(results[0].final_counts, other.final_counts)
            np.testing.assert_array_equal(results[0].final_times, other.final_times)

    def test_identical_across_worker_counts_batch_engine(
        self, two_outcome_network, two_outcome_condition
    ):
        results = [
            ParallelEnsembleRunner(
                two_outcome_network,
                engine="batch-direct",
                stopping=two_outcome_condition,
                workers=workers,
                chunk_size=64,
            ).run(300, seed=23)
            for workers in (1, 4)
        ]
        assert results[0].outcome_counts == results[1].outcome_counts
        np.testing.assert_array_equal(results[0].final_counts, results[1].final_counts)

    def test_merged_moments_match_numpy(self, two_outcome_network, two_outcome_condition):
        result = ParallelEnsembleRunner(
            two_outcome_network,
            engine="batch-direct",
            stopping=two_outcome_condition,
            workers=2,
            chunk_size=50,
        ).run(250, seed=24)
        assert result.moments is not None
        assert result.moments.count == 250
        np.testing.assert_allclose(result.moments.mean, result.final_counts.mean(axis=0))
        np.testing.assert_allclose(
            result.moments.variance(), result.final_counts.var(axis=0, ddof=1)
        )

    def test_validation(self, two_outcome_network):
        with pytest.raises(EnsembleError):
            ParallelEnsembleRunner(two_outcome_network, chunk_size=0)
        with pytest.raises(EnsembleError):
            ParallelEnsembleRunner(two_outcome_network, workers=0)
        with pytest.raises(EnsembleError):
            ParallelEnsembleRunner(two_outcome_network).run(0)
        with pytest.raises(EnsembleError):
            ParallelEnsembleRunner(two_outcome_network, engine="no-such-engine")

    def test_experiment_workers_shortcut(self, two_outcome_network, two_outcome_condition):
        result = Experiment.from_network(
            two_outcome_network, stopping=two_outcome_condition
        ).simulate(trials=150, seed=25, workers=2).ensemble
        assert result.n_trials == 150
        assert sum(result.outcome_counts.values()) == 150


class TestEnsembleResultMerge:
    def test_merge_concatenates_in_order(self, two_outcome_network, two_outcome_condition):
        runner = ParallelEnsembleRunner(two_outcome_network, stopping=two_outcome_condition)
        [a] = runner._run_group(31, [(0, 60)], None, False)
        [b] = runner._run_group(31, [(60, 100)], None, False)
        whole = runner.run(100, seed=31)
        merged = EnsembleResult.merge([a, b])
        assert merged.n_trials == 100
        assert merged.outcome_counts == whole.outcome_counts
        np.testing.assert_array_equal(merged.final_counts, whole.final_counts)
        np.testing.assert_allclose(merged.moments.mean, whole.moments.mean)
        np.testing.assert_allclose(merged.moments.variance(), whole.moments.variance())

    def test_merge_empty_raises(self):
        with pytest.raises(EnsembleError):
            EnsembleResult.merge([])

    def test_merge_empty_raises_value_error(self):
        # Regression: an empty shard list must fail with a *clear* ValueError
        # (campaign aggregation and user code catch the built-in type), not
        # an opaque IndexError from shards[0].
        with pytest.raises(ValueError, match="empty list of ensemble shards"):
            EnsembleResult.merge([])
        with pytest.raises(ValueError, match="empty list of ensemble shards"):
            EnsembleResult.merge(iter(()))


class TestRunningMoments:
    def test_welford_matches_numpy(self):
        rng = np.random.default_rng(0)
        samples = rng.integers(0, 50, size=(200, 4)).astype(float)
        moments = RunningMoments(4)
        for row in samples:
            moments.update(row)
        np.testing.assert_allclose(moments.mean, samples.mean(axis=0))
        np.testing.assert_allclose(moments.variance(), samples.var(axis=0, ddof=1))

    def test_merge_matches_single_pass(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(10.0, 3.0, size=(301, 3))
        # Uneven three-way split exercises the Chan et al. merge.
        parts = np.split(samples, [40, 173])
        merged = RunningMoments(3)
        for part in parts:
            merged.merge(RunningMoments.from_samples(part))
        np.testing.assert_allclose(merged.mean, samples.mean(axis=0))
        np.testing.assert_allclose(merged.variance(), samples.var(axis=0, ddof=1))
        np.testing.assert_allclose(merged.std(), samples.std(axis=0, ddof=1))

    def test_merge_with_empty_is_identity(self):
        samples = np.arange(12.0).reshape(4, 3)
        moments = RunningMoments.from_samples(samples).merge(RunningMoments(3))
        np.testing.assert_allclose(moments.mean, samples.mean(axis=0))
        assert moments.count == 4

    def test_variance_needs_two_samples(self):
        moments = RunningMoments(2)
        moments.update([1.0, 2.0])
        assert np.isnan(moments.variance()).all()
