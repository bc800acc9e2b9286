"""Tests for the Figure-3 error model (repro.core.error_model)."""

from __future__ import annotations

import functools
import math

import pytest

from repro.core import (
    PAPER_GAMMA_VALUES,
    build_error_experiment_network,
    estimate_error_rate,
    first_events,
    gamma_sweep,
)
from repro.core.error_model import ErrorEstimate
from repro.errors import SynthesisError
from repro.sim import CategoryFiringCondition, SimulationOptions, make_simulator
from repro.sim.fsp import UNDECIDED, FspEngine, ThresholdStateClassifier
from repro.sim.outcomes import apportion
from repro.sim.rng import spawn_children_range


# -- the literal protocol, kept as the reference the decomposition answers to --


def classify_trial(trajectory, network) -> "tuple[str, str] | None":
    """``(intended, actual)`` outcome labels of one trial, ``None`` if undecided.

    *intended* is the outcome of the first initializing reaction that fired
    (read from the firing log), *actual* the outcome whose working reaction
    declared the stop.
    """
    index_to_label = {
        index: reaction.name.split("[", 1)[1].rstrip("]")
        for index, reaction in network.reactions_in_category("initializing")
    }
    first = trajectory.first_firing(list(index_to_label))
    if first is None or not trajectory.stop_detail.startswith("working["):
        return None
    return index_to_label[first], trajectory.stop_detail.split("[", 1)[1].rstrip("]")


def literal_protocol(network, n_trials: int, seed: int, declare_after: int):
    """The paper's protocol one trial at a time on ``direct``: (errors, decided)."""
    simulator = make_simulator(network, engine="direct")
    stopping = CategoryFiringCondition("working", declare_after)
    options = SimulationOptions(record_firings=True, max_steps=200_000)
    n_errors = n_decided = 0
    for rng in spawn_children_range(seed, n_trials, 0, n_trials):
        classified = classify_trial(
            simulator.run(stopping=stopping, options=options, seed=rng), network
        )
        if classified is not None:
            n_decided += 1
            n_errors += classified[0] != classified[1]
    return n_errors, n_decided


@functools.lru_cache(maxsize=None)
def exact_error_rate(gamma: float, input_quantity: int = 3, declare_after: int = 2) -> float:
    """P(error | decided) by FSP, one absorption solve per first-event branch.

    A working firing makes one ``o_L``, so "working[L] fired k times" is the
    state predicate ``o_L >= k``.
    """
    network = build_error_experiment_network(gamma, input_quantity=input_quantity)
    branches = first_events(network)
    classify = ThresholdStateClassifier(
        {label: (f"o_{label}", declare_after) for label, _, _ in branches}
    )
    errors = decided = 0.0
    for label, probability, start in branches:
        absorbed = FspEngine(network).outcome_probabilities(
            classify, initial_state=start, on_overflow="raise"
        ).probabilities
        undecided = absorbed.get(UNDECIDED, 0.0)
        errors += probability * (1.0 - undecided - absorbed.get(label, 0.0))
        decided += probability * (1.0 - undecided)
    return errors / decided


def assert_conforms(n_errors: int, n_decided: int, exact: float) -> None:
    """The error rate lies within 4 binomial standard errors of ``exact``."""
    standard_error = math.sqrt(exact * (1.0 - exact) / n_decided)
    assert abs(n_errors / n_decided - exact) <= 4.0 * standard_error, (
        n_errors, n_decided, exact,
    )


class TestExperimentNetwork:
    def test_paper_configuration(self):
        """Three outcomes, each input type at 100 molecules, unit initializing rate."""
        network = build_error_experiment_network(gamma=100.0)
        for label in ("1", "2", "3"):
            assert network.initial_count(f"e_{label}") == 100
        for _, reaction in network.reactions_in_category("initializing"):
            assert reaction.rate == pytest.approx(1.0)
        for _, reaction in network.reactions_in_category("purifying"):
            assert reaction.rate == pytest.approx(100.0**2)

    def test_custom_outcome_count(self):
        network = build_error_experiment_network(gamma=10.0, n_outcomes=4)
        assert len(network.reactions_in_category("initializing")) == 4
        assert len(network.reactions_in_category("purifying")) == 6

    def test_validation(self):
        with pytest.raises(SynthesisError):
            build_error_experiment_network(gamma=10.0, n_outcomes=1)


class TestClassification:
    """The test-only reference classifier of the literal protocol."""

    def test_intended_and_actual_labels(self):
        network = build_error_experiment_network(gamma=1000.0)
        simulator = make_simulator(network, seed=5)
        trajectory = simulator.run(
            stopping=CategoryFiringCondition("working", 10),
            options=SimulationOptions(record_firings=True),
        )
        classified = classify_trial(trajectory, network)
        assert classified is not None
        intended, actual = classified
        assert intended in {"1", "2", "3"}
        assert actual in {"1", "2", "3"}

    def test_undecided_when_nothing_fired(self):
        network = build_error_experiment_network(gamma=10.0)
        simulator = make_simulator(network, seed=6)
        trajectory = simulator.run(options=SimulationOptions(max_steps=1, record_firings=True))
        # One firing cannot both initialize and reach 10 working firings.
        assert classify_trial(trajectory, network) is None


class TestFirstEvents:
    def test_paper_branches(self):
        """Equal inputs and rates: three equally likely branches, one e_i moved to d_i."""
        network = build_error_experiment_network(gamma=100.0)
        branches = first_events(network)
        assert [label for label, _, _ in branches] == ["1", "2", "3"]
        for label, probability, start in branches:
            assert probability == pytest.approx(1 / 3)
            assert set(start) == {s.name for s in network.species_order}
            expected = {**network.initial_state.to_dict(), f"e_{label}": 99, f"d_{label}": 1}
            assert {k: v for k, v in start.items() if v} == expected

    def test_unequal_inputs_weight_the_branches(self):
        network = build_error_experiment_network(gamma=10.0).copy()
        network.set_initial("e_1", 200)
        probabilities = {label: p for label, p, _ in first_events(network)}
        assert probabilities == pytest.approx({"1": 0.5, "2": 0.25, "3": 0.25})

    def test_enabled_non_initializing_reaction_is_refused(self):
        network = build_error_experiment_network(gamma=10.0).copy()
        network.set_initial("d_1", 1)
        with pytest.raises(SynthesisError, match=r"reinforcing\[1\]"):
            first_events(network)

    def test_nothing_enabled_is_refused(self):
        network = build_error_experiment_network(gamma=10.0).copy()
        for label in ("1", "2", "3"):
            network.set_initial(f"e_{label}", 0)
        with pytest.raises(SynthesisError, match="no reaction can fire"):
            first_events(network)

    def test_paper_protocol_trial_shares(self):
        """2,000 trials split by largest remainder over three equal branches."""
        network = build_error_experiment_network(gamma=1.0)
        shares = apportion({label: p for label, p, _ in first_events(network)}, 2000)
        assert shares == {"1": 667, "2": 667, "3": 666}
        assert apportion({"a": 1.0, "b": 0.0}, 5) == {"a": 5}


class TestExactAnchor:
    """E = 3, an outcome declared after 2 working firings (11,725 states a branch)."""

    @pytest.mark.parametrize("gamma, exact", [(10.0, 0.0975), (100.0, 0.01215)])
    def test_fsp_over_the_branches(self, gamma, exact):
        assert exact_error_rate(gamma) == pytest.approx(exact, rel=1e-3)

    @pytest.mark.parametrize("gamma", [10.0, 100.0])
    def test_decomposition_conforms(self, gamma):
        estimate = estimate_error_rate(
            gamma, n_trials=20_000, seed=5, input_quantity=3, declare_after=2,
            engine="batch-direct",
        )
        assert_conforms(
            estimate.n_errors, estimate.n_trials - estimate.n_undecided,
            exact_error_rate(gamma),
        )

    @pytest.mark.parametrize("gamma", [10.0, 100.0])
    def test_literal_protocol_conforms(self, gamma):
        network = build_error_experiment_network(gamma, input_quantity=3)
        n_errors, n_decided = literal_protocol(
            network, n_trials=3000, seed=5, declare_after=2
        )
        assert_conforms(n_errors, n_decided, exact_error_rate(gamma))


class TestErrorEstimates:
    def test_error_estimate_properties(self):
        estimate = ErrorEstimate(gamma=10.0, n_trials=100, n_errors=5, n_undecided=20)
        assert estimate.error_rate == pytest.approx(5 / 80)
        assert estimate.error_percent == pytest.approx(100 * 5 / 80)

    def test_error_rate_zero_when_all_undecided(self):
        estimate = ErrorEstimate(gamma=10.0, n_trials=10, n_errors=0, n_undecided=10)
        assert estimate.error_rate == 0.0

    def test_error_decreases_with_gamma(self):
        """The headline claim of Figure 3: larger γ → smaller error."""
        low = estimate_error_rate(1.0, n_trials=250, seed=1)
        high = estimate_error_rate(100.0, n_trials=250, seed=2)
        assert low.error_rate > high.error_rate
        assert low.error_rate > 0.1          # γ=1: tens of percent
        assert high.error_rate < 0.1         # γ=100: around a percent

    def test_validation(self):
        with pytest.raises(SynthesisError):
            estimate_error_rate(10.0, n_trials=0)

    def test_runs_on_batch_direct(self):
        estimate = estimate_error_rate(1.0, n_trials=600, seed=4, engine="batch-direct")
        assert estimate.n_trials == 600 and estimate.n_undecided == 0
        assert estimate.error_rate > 0.1          # γ=1: tens of percent

    @pytest.mark.parametrize("engine", ["ode", "fsp"])
    def test_deterministic_engines_refused_before_any_trial(self, engine, monkeypatch):
        from repro.api.experiment import Experiment

        def no_trials(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(Experiment, "simulate", no_trials)
        with pytest.raises(SynthesisError, match=engine):
            estimate_error_rate(10.0, n_trials=10, engine=engine)

    def test_step_limit_leaves_every_trial_undecided(self):
        estimate = estimate_error_rate(10.0, n_trials=30, seed=1, max_steps=1)
        assert estimate.n_undecided == 30
        assert estimate.n_errors == 0
        assert estimate.error_rate == 0.0

    def test_seeded_runs_repeat(self):
        first = estimate_error_rate(10.0, n_trials=300, seed=8, engine="batch-direct")
        again = estimate_error_rate(10.0, n_trials=300, seed=8, engine="batch-direct")
        assert first == again

    def test_unseeded_runs_derive_no_seed(self, monkeypatch):
        """``derive_seed(None, ...)`` is a fixed seed, so seed=None never calls it."""
        import repro.core.error_model as error_model

        calls = []
        monkeypatch.setattr(error_model, "derive_seed", lambda *a: calls.append(a) or 0)
        estimate_error_rate(10.0, n_trials=30, engine="batch-direct")
        assert calls == []
        estimate_error_rate(10.0, n_trials=30, seed=3, engine="batch-direct")
        assert calls == [(3, 0), (3, 1), (3, 2)]

    def test_gamma_sweep_structure(self):
        points = gamma_sweep([1.0, 10.0], n_trials=60, seed=3)
        assert [p.gamma for p in points] == [1.0, 10.0]
        assert all(0.0 <= p.estimate.error_rate <= 1.0 for p in points)

    def test_paper_gamma_grid(self):
        assert PAPER_GAMMA_VALUES == (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)
