"""Tests for the fluent experiment facade (repro.api)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment, RunResult
from repro.core import AffineResponseSpec
from repro.core.modules import linear_module, logarithm_module
from repro.crn import parse_network
from repro.errors import EnsembleError, ExperimentError
from repro.sim import OutcomeThresholds, TauLeapOptions

#: 99.9% chi-squared critical values by degrees of freedom.
CHI2_999 = {1: 10.83, 2: 13.82}


@pytest.fixture
def two_outcome_network():
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


class TestFluentConstruction:
    def test_from_distribution_carries_system_and_target(self):
        experiment = Experiment.from_distribution({"a": 0.25, "b": 0.75}, scale=40)
        assert experiment.system is not None
        assert experiment._resolved_target() == pytest.approx({"a": 0.25, "b": 0.75})

    def test_fluent_methods_return_new_experiments(self):
        base = Experiment.from_distribution({"a": 0.5, "b": 0.5}, scale=20)
        programmed = base.program({"x": 3})
        assert programmed is not base
        assert base.inputs == ()
        assert dict(programmed.inputs) == {"x": 3}

    def test_program_merges_inputs(self):
        experiment = (
            Experiment.from_module(linear_module())
            .program({"x": 3})
            .program({"x": 5})
        )
        assert dict(experiment.inputs) == {"x": 5}

    def test_empty_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="empty experiment"):
            Experiment().simulate(trials=1)

    def test_declare_after_validation(self):
        experiment = Experiment.from_distribution({"a": 0.5, "b": 0.5}, scale=20)
        with pytest.raises(ExperimentError):
            experiment.declare_after(0)


class TestSimulateEndToEnd:
    def test_example1_batch_parallel_reproduces_target(self):
        """Acceptance: batch engine + 2 workers hit Example 1's distribution.

        Chi-squared of the outcome counts against the programmed (0.3, 0.4,
        0.3) target, df=2, 99.9% critical value 13.82.
        """
        result = (
            Experiment.from_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3)
            .simulate(trials=2000, engine="batch-direct", workers=2, seed=11)
        )
        assert result.decided_fraction() == 1.0
        assert result.chi_squared() < CHI2_999[2]
        assert result.total_variation() < 0.1

    def test_worker_count_invariance(self):
        """Fixed (seed, trials, chunk_size) gives identical results on 2 or 3 workers."""
        experiment = Experiment.from_distribution({"a": 0.5, "b": 0.5}, scale=40)
        two = experiment.simulate(
            trials=600, engine="batch-direct", workers=2, seed=9, chunk_size=128
        )
        three = experiment.simulate(
            trials=600, engine="batch-direct", workers=3, seed=9, chunk_size=128
        )
        assert two.ensemble.outcome_counts == three.ensemble.outcome_counts
        np.testing.assert_array_equal(
            two.ensemble.final_counts, three.ensemble.final_counts
        )

    def test_module_settling(self):
        summary = (
            Experiment.from_module(logarithm_module())
            .program({"x": 16})
            .simulate(trials=12, seed=5)
            .output_summary("y")
        )
        assert summary["mean"] == pytest.approx(4.0, abs=0.5)
        assert summary["expected"] == 4.0
        assert summary["n_trials"] == 12.0

    def test_module_settling_batched(self):
        # linear_module computes alpha·Y∞ = beta·X0, so (1, 2) doubles the input.
        summary = (
            Experiment.from_module(linear_module(alpha=1, beta=2))
            .program({"x": 10})
            .simulate(trials=16, engine="batch-direct", seed=6)
            .output_summary("y")
        )
        assert summary["mean"] == pytest.approx(20.0, abs=0.1)

    def test_network_experiment(self, two_outcome_network, two_outcome_condition):
        result = (
            Experiment.from_network(two_outcome_network, stopping=two_outcome_condition)
            .targeting({"A": 0.7, "B": 0.3})
            .simulate(trials=800, engine="batch-direct", seed=13)
        )
        assert result.chi_squared() < CHI2_999[1]
        assert set(result.frequencies) == {"A", "B"}

    def test_affine_response_programming_shifts_distribution(self):
        spec = AffineResponseSpec(
            base={"a": 0.5, "b": 0.5},
            slopes={"a": {"x1": 0.03}, "b": {"x1": -0.03}},
        )
        experiment = Experiment.from_affine_response(spec, gamma=1e3, scale=100)
        baseline = experiment.simulate(trials=300, seed=21)
        shifted = experiment.program({"x1": 10}).simulate(trials=300, seed=21)
        # Slope 0.03 * 10 = +0.3 expected shift toward outcome "a".
        assert shifted.frequency("a") > baseline.frequency("a") + 0.1
        assert shifted.target["a"] == pytest.approx(0.8)

    def test_tau_leaping_options_flow_through(self):
        summary = (
            Experiment.from_module(linear_module())
            .program({"x": 30})
            .simulate(
                trials=8,
                engine="tau-leaping",
                seed=3,
                engine_options=TauLeapOptions(epsilon=0.01),
            )
            .output_summary("y")
        )
        assert summary["mean"] == pytest.approx(30.0, abs=3.0)

    def test_run_once_supports_deterministic_ode(self):
        trajectory = (
            Experiment.from_module(linear_module(alpha=2, beta=1))
            .program({"x": 10})
            .run_once(engine="ode")
        )
        assert trajectory.final_time > 0
        assert trajectory.final_count("y") == 5

    def test_ensemble_rejects_ode(self):
        experiment = Experiment.from_module(linear_module()).program({"x": 4})
        with pytest.raises(EnsembleError, match="deterministic"):
            experiment.simulate(trials=5, engine="ode")


class TestSimulateCounts:
    @pytest.mark.parametrize(
        "field, value",
        [("trials", True), ("trials", "5"), ("trials", 2.5),
         ("chunk_size", True), ("chunk_size", "512"), ("chunk_size", 100.5)],
    )
    def test_a_count_of_another_spelling_is_refused(self, tmp_path, field, value):
        """A bool, a string or a fraction is not a count: refused before any
        compute, and before a store key is made."""
        experiment = Experiment.from_network(parse_network("x ->{1} 0\ninit: x = 3"))
        arguments = {"trials": 5, "engine": "direct", "seed": 1, field: value}
        with pytest.raises(ExperimentError, match=field):
            experiment.simulate(**arguments)
        with pytest.raises(ExperimentError, match=field):
            experiment.simulate(store=tmp_path / "store", **arguments)
        assert not (tmp_path / "store").exists()


class TestRunResult:
    @pytest.fixture
    def result(self):
        return Experiment.from_distribution({"a": 0.3, "b": 0.7}, scale=40).simulate(
            trials=300, engine="batch-direct", seed=17
        )

    def test_distances_keys_and_bounds(self, result):
        distances = result.distances()
        assert set(distances) == {
            "total_variation",
            "jensen_shannon",
            "hellinger",
            "kl_divergence",
        }
        assert 0.0 <= distances["total_variation"] <= 1.0
        assert distances["hellinger"] <= 1.0

    def test_decision_times_summary(self, result):
        times = result.decision_times()
        assert times["p95"] >= times["median"] > 0
        assert times["mean_firings"] > 0
        assert times["n_trials"] == 300.0

    def test_decision_times_raise_when_nothing_decided(self):
        # A horizon far shorter than the slow initializing tier: every trial
        # hits max_time before any working reaction fires, so no trial
        # decides and there is no latency to report.
        undecided = (
            Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=1e3, scale=20)
            .configure(max_time=1e-9)
            .simulate(trials=20, seed=1)
        )
        assert undecided.decided_fraction() == 0.0
        with pytest.raises(ExperimentError, match="no trial reached a decision"):
            undecided.decision_times()

    def test_distance_requires_target(self, two_outcome_network, two_outcome_condition):
        bare = Experiment.from_network(
            two_outcome_network, stopping=two_outcome_condition
        ).simulate(trials=50, seed=2)
        with pytest.raises(ExperimentError, match="no target distribution"):
            bare.total_variation()
        # Explicit reference still works.
        assert bare.total_variation({"A": 0.7, "B": 0.3}) <= 1.0

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "run.json"
        result.to_json(path)
        restored = RunResult.from_json(path)
        assert restored.frequencies == result.frequencies
        assert restored.target == pytest.approx(result.target)
        assert restored.engine == result.engine
        assert restored.seed == result.seed
        assert restored.ensemble.n_trials == result.ensemble.n_trials
        np.testing.assert_array_equal(
            restored.ensemble.final_counts, result.ensemble.final_counts
        )
        # Distances recompute identically from the restored payload.
        assert restored.total_variation() == pytest.approx(result.total_variation())

    def test_json_round_trip_keeps_module_outputs(self, tmp_path):
        run = (
            Experiment.from_module(linear_module(alpha=1, beta=2))
            .program({"x": 6})
            .simulate(trials=5, seed=8)
        )
        restored = RunResult.from_json(run.to_json())
        assert restored.output_summary("y") == run.output_summary("y")

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ExperimentError, match="schema"):
            RunResult.from_json('{"schema": "other/v9"}')

    def test_summary_mentions_tv_distance(self, result):
        text = result.summary()
        assert "TV distance" in text
        assert "Ensemble of 300 trials" in text
