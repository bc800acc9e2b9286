"""Tests for the sparse finite-state-projection solver (repro.sim.fsp)."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from repro.api import Experiment
from repro.api.results import RunResult
from repro.core import DistributionSpec, OutcomeSpec, build_stochastic_module
from repro.crn import parse_network
from repro.errors import EnsembleError, ExperimentError, FspError, SimulationError
from repro.sim import ParallelEnsembleRunner, make_simulator
from repro.sim.fsp import (
    UNDECIDED,
    AbsorptionResult,
    DominantSpeciesClassifier,
    FspEngine,
    FspOptions,
    ThresholdStateClassifier,
    absorption_probabilities,
    build_generator,
    enumerate_states,
)
from repro.sim.propensity import CompiledNetwork
from repro.sim import registry


@pytest.fixture
def race_to_one():
    """Three-way first-firing race: exact outcome probabilities 0.3/0.4/0.3."""
    return parse_network(
        """
        init: e1 = 30
        init: e2 = 40
        init: e3 = 30
        e1 ->{1} d1
        e2 ->{1} d2
        e3 ->{1} d3
        """,
        name="race",
    )


def first_catalyst(state):
    for label, marker in (("1", "d1"), ("2", "d2"), ("3", "d3")):
        if state.get(marker, 0) >= 1:
            return label
    return None


def surviving_catalyst(state):
    """A two-outcome module's outcome: the sole catalyst left once the inputs
    are consumed, or a "tie" when both catalysts were annihilated."""
    if state.get("e_A", 0) == 0 and state.get("e_B", 0) == 0:
        a, b = state.get("d_A", 0), state.get("d_B", 0)
        if a > 0 and b == 0:
            return "A"
        if b > 0 and a == 0:
            return "B"
        if a == 0 and b == 0:
            return "tie"
    return None


def complete(network, classify, **options):
    """Absorption probabilities over the complete reachable space."""
    engine = FspEngine(network, engine_options=FspOptions(**options))
    return engine.outcome_probabilities(classify, on_overflow="raise")


class TestEnumeration:
    def test_race_space_is_start_plus_absorbing(self, race_to_one):
        compiled = CompiledNetwork.compile(race_to_one)
        space = enumerate_states(
            compiled, compiled.initial_counts(), classify=first_catalyst
        )
        # Initial state plus one absorbing state per outcome.
        assert space.n_states == 4
        assert space.labels[0] is None
        assert sorted(space.outcome_labels()) == ["1", "2", "3"]
        assert not space.truncated

    def test_unbounded_network_truncates_at_max_states(self):
        network = parse_network("src ->{1} src + x\ninit: src = 1")
        compiled = CompiledNetwork.compile(network)
        space = enumerate_states(
            compiled, compiled.initial_counts(), max_states=50, on_overflow="truncate"
        )
        assert space.truncated
        assert space.n_states == 50
        # The boundary state leaks its entire outflow.
        assert space.leak_rates().sum() > 0.0

    def test_on_overflow_raise(self):
        network = parse_network("src ->{1} src + x\ninit: src = 1")
        compiled = CompiledNetwork.compile(network)
        with pytest.raises(FspError):
            enumerate_states(
                compiled, compiled.initial_counts(), max_states=50, on_overflow="raise"
            )

    def test_count_caps_bound_the_space(self):
        network = parse_network("src ->{1} src + x\ninit: src = 1")
        compiled = CompiledNetwork.compile(network)
        space = enumerate_states(
            compiled, compiled.initial_counts(), count_caps={"x": 9}
        )
        assert space.truncated
        assert space.n_states == 10  # x in 0..9
        assert space.states[:, [s.name for s in compiled.species].index("x")].max() == 9

    def test_count_caps_unknown_species_rejected(self, race_to_one):
        compiled = CompiledNetwork.compile(race_to_one)
        with pytest.raises(FspError):
            enumerate_states(
                compiled, compiled.initial_counts(), count_caps={"nope": 3}
            )

    def test_generator_conserves_or_leaks_mass(self, race_to_one):
        compiled = CompiledNetwork.compile(race_to_one)
        space = enumerate_states(
            compiled, compiled.initial_counts(), classify=first_catalyst
        )
        generator = build_generator(space)
        # Column sums are zero for kept transitions (mass moves, never appears).
        sums = np.asarray(generator.sum(axis=0)).ravel()
        assert np.all(sums <= 1e-12)


class TestAbsorption:
    def test_matches_exact_race(self, race_to_one):
        result = FspEngine(race_to_one).outcome_probabilities(first_catalyst)
        assert result.probability("1") == pytest.approx(0.3, abs=1e-12)
        assert result.probability("2") == pytest.approx(0.4, abs=1e-12)
        assert result.probability("3") == pytest.approx(0.3, abs=1e-12)
        assert result.n_transient == 1

    def test_decided_renormalizes(self):
        network = parse_network("init: x = 1\nx ->{1} a\nx ->{1} junk")
        result = FspEngine(network).outcome_probabilities(
            lambda s: "a" if s.get("a", 0) else None
        )
        assert result.probability(UNDECIDED) == pytest.approx(0.5)
        assert result.decided()["a"] == pytest.approx(1.0)

    def test_initial_state_already_classified(self):
        network = parse_network("x ->{1} y\ninit: x = 1")
        result = FspEngine(network).outcome_probabilities(lambda s: "done")
        assert result.probabilities == {"done": 1.0}

    def test_initial_dead_end_is_undecided(self):
        network = parse_network("a + b ->{1} c\ninit: a = 1")
        result = FspEngine(network).outcome_probabilities(
            lambda s: "c" if s.get("c", 0) else None
        )
        assert result.probabilities == {UNDECIDED: 1.0}

    def test_truncated_absorption_reports_leak_as_undecided(self):
        # Unbounded growth: with a tight budget some mass escapes the box.
        network = parse_network(
            """
            init: src = 1
            src ->{1} src + x
            src ->{1} done
            """
        )
        engine = FspEngine(network, engine_options=FspOptions(max_states=10, strict=False))
        result = engine.outcome_probabilities(
            lambda s: "done" if s.get("done", 0) else None
        )
        assert result.probability("done") < 1.0
        assert result.probability(UNDECIDED) > 0.0
        assert result.truncation_error == pytest.approx(
            result.probability(UNDECIDED), abs=1e-12
        )
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=1e-9)
        # Under the default strict options the same truncation is an error.
        with pytest.raises(FspError):
            FspEngine(network, engine_options=FspOptions(max_states=10)).outcome_probabilities(
                lambda s: "done" if s.get("done", 0) else None
            )

    def test_rates_weight_the_race(self):
        network = parse_network("init: x = 1\nx ->{3} a\nx ->{1} b")
        result = complete(
            network, lambda s: "a" if s.get("a", 0) else ("b" if s.get("b", 0) else None)
        )
        assert result.probability("a") == pytest.approx(0.75)

    def test_two_stage_race(self):
        """x → m → a (two Exp(1) stages) races x2 → b (one): P(b first) =
        1/2 + 1/2 · 1/2 = 3/4."""
        network = parse_network(
            """
            init: x = 1
            init: x2 = 1
            x ->{1} m
            m ->{1} a
            x2 ->{1} b
            """
        )
        result = complete(
            network, lambda s: "a" if s.get("a", 0) else ("b" if s.get("b", 0) else None)
        )
        assert result.probability("b") == pytest.approx(0.75, abs=1e-9)
        assert result.probability("a") == pytest.approx(0.25, abs=1e-9)

    def test_small_module_hits_programmed_distribution(self, tiny_two_outcome_network):
        """With γ=100 the winner-take-all error is small, so a 4-molecule
        module's exact outcome distribution sits near the programmed
        0.25 / 0.75."""
        result = complete(tiny_two_outcome_network, surviving_catalyst, max_states=100_000)
        decided = result.decided()
        assert decided.get("A", 0.0) == pytest.approx(0.25, abs=0.06)
        assert decided.get("B", 0.0) == pytest.approx(0.75, abs=0.06)

    def test_symmetric_module_tie_mass_shrinks_with_gamma(self):
        """A symmetric two-outcome module: exact symmetry at any γ, and the
        dead-heat ("tie": both catalysts annihilated) mass shrinks as γ grows."""

        def analyze(gamma: float) -> dict[str, float]:
            spec = DistributionSpec(
                [OutcomeSpec("A", target_output=2), OutcomeSpec("B", target_output=2)],
                [0.5, 0.5],
            )
            network = build_stochastic_module(spec, gamma=gamma, scale=4)
            return complete(network, surviving_catalyst).probabilities

        low_gamma, high_gamma = analyze(10.0), analyze(1000.0)
        for probabilities in (low_gamma, high_gamma):
            assert probabilities.get("A", 0.0) == pytest.approx(
                probabilities.get("B", 0.0), abs=1e-9
            )
        assert high_gamma.get("tie", 0.0) <= low_gamma.get("tie", 0.0) + 1e-12

    def test_incomplete_space_raises_on_overflow(self):
        network = parse_network("src ->{1} src + x\ninit: src = 1")
        with pytest.raises(FspError, match="max_states=50"):
            complete(network, lambda s: None, max_states=50)


#: A closed cycle b ⇄ c that half the mass enters and no outcome leaves.
TRAPPED_CYCLE = """
init: a = 1
a ->{1} w
a ->{1} b
b ->{1} c
c ->{1} b
"""
#: Every reachable state is trapped: the outcome species is never produced.
ALL_TRAPPED = """
init: a = 1
a ->{1} b
b ->{1} a
a ->{1} c
c ->{1} a
"""


class TestTrappedStates:
    """Mass trapped where no outcome is reachable reports as undecided.

    A sampled trial that enters such a class never produces an outcome; the
    exact engines used to return NaN here (a singular system) or crash.
    """

    @pytest.mark.parametrize(
        "text, expected",
        [(TRAPPED_CYCLE, {"win": 0.5, UNDECIDED: 0.5}), (ALL_TRAPPED, {UNDECIDED: 1.0})],
        ids=["cycle", "all-trapped"],
    )
    @pytest.mark.parametrize("entry", ["engine", "experiment"])
    def test_trapped_mass_is_undecided(self, text, expected, entry):
        network = parse_network(text, name="trapped")
        classify = ThresholdStateClassifier({"win": ("w", 1)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if entry == "engine":
                result = FspEngine(network).outcome_probabilities(classify)
                assert result.truncation_error == 0.0
                probabilities = result.probabilities
            else:
                run = (
                    Experiment.from_network(network)
                    .classify_states(classify)
                    .simulate(engine="fsp")
                )
                assert run.exact_info["truncation_error"] == 0.0
                probabilities = run.exact
        assert sorted(probabilities) == sorted(expected)
        for label, value in expected.items():
            assert probabilities[label] == pytest.approx(value, abs=1e-12)

    def test_failed_solve_raises(self, race_to_one, monkeypatch):
        import repro.sim.fsp as fsp_module

        monkeypatch.setattr(
            fsp_module, "spsolve", lambda matrix, rhs, **_: np.full(rhs.shape, np.nan)
        )
        with pytest.raises(FspError, match="absorption solve failed"):
            FspEngine(race_to_one).outcome_probabilities(first_catalyst)

    def test_strict_check_rejects_nan_bound(self, race_to_one, monkeypatch):
        import repro.sim.fsp as fsp_module

        nan_bound = AbsorptionResult(
            probabilities={"1": float("nan")}, n_states=1, n_transient=1,
            truncation_error=float("nan"),
        )
        monkeypatch.setattr(fsp_module, "absorption_probabilities", lambda space: nan_bound)
        with pytest.raises(FspError, match="truncation error"):
            FspEngine(race_to_one).outcome_probabilities(first_catalyst)


class TestTransient:
    def test_birth_death_matches_poisson(self, birth_death_network):
        """dx/dt: birth at 5, death at 0.5 → x(t) ~ Poisson(10(1-e^{-t/2}))."""
        engine = FspEngine(
            birth_death_network,
            engine_options=FspOptions(count_caps={"x": 60}, tolerance=1e-8),
        )
        result = engine.solve(20.0)
        assert result.error_bound() <= 1e-8
        mean = 10.0 * (1.0 - math.exp(-0.5 * 20.0))
        assert result.mean("x") == pytest.approx(mean, rel=1e-6)
        marginal = result.marginal("x")
        for k in (5, 10, 15):
            poisson = math.exp(-mean) * mean**k / math.factorial(k)
            assert marginal[k] == pytest.approx(poisson, abs=1e-6)

    def test_checkpoint_grid_and_bounds_are_monotone(self, birth_death_network):
        engine = FspEngine(
            birth_death_network,
            engine_options=FspOptions(count_caps={"x": 25}, checkpoints=6, strict=False),
        )
        result = engine.solve(10.0)
        assert result.times.shape == (6,)
        assert result.times[0] == 0.0 and result.times[-1] == 10.0
        assert result.probabilities.shape == (6, result.space.n_states)
        # p(0) is the initial point mass.
        assert result.probabilities[0, 0] == pytest.approx(1.0)
        # The leak only ever grows.
        bounds = result.error_bounds()
        assert np.all(np.diff(bounds) >= -1e-12)

    def test_adaptive_expansion_meets_tolerance(self, birth_death_network):
        # Start with a cap far too tight; expansion must grow it until the
        # reported bound meets the tolerance.
        engine = FspEngine(
            birth_death_network,
            engine_options=FspOptions(count_caps={"x": 4}, tolerance=1e-8),
        )
        result = engine.solve(20.0)
        assert result.error_bound() <= 1e-8
        assert result.space.n_states > 5

    def test_strict_truncation_raises(self, birth_death_network):
        engine = FspEngine(
            birth_death_network,
            engine_options=FspOptions(count_caps={"x": 3}, tolerance=1e-10, expand=False),
        )
        with pytest.raises(FspError):
            engine.solve(20.0)

    def test_state_probability_and_outcome_mass(self, race_to_one):
        engine = FspEngine(race_to_one)
        result = engine.solve(0.5)
        # All mass is on enumerated states (race network is finite).
        assert result.error_bound() <= 1e-9
        start = {"e1": 30, "e2": 40, "e3": 30}
        assert result.state_probability(start, time_index=0) == pytest.approx(1.0)
        mass = result.outcome_probabilities(classify=first_catalyst)
        # By t=0.5 some trajectory weight has produced a catalyst.
        assert mass.get("2", 0.0) > 0.0

    def test_non_uniform_grid_checkpoints_are_exact(self):
        """Explicit non-uniform time grids evaluate p(t) at the given times."""
        network = parse_network("init: x = 1\nx ->{1} y")
        engine = FspEngine(network)
        result = engine.solve(10.0, times=[0.0, 0.1, 10.0])
        # P(x still present at t) = e^{-t}, at the *requested* checkpoints.
        assert result.state_probability({"x": 1}, time_index=1) == pytest.approx(
            math.exp(-0.1), rel=1e-9
        )
        assert result.state_probability({"x": 1}, time_index=2) == pytest.approx(
            math.exp(-10.0), rel=1e-6
        )

    def test_invalid_grids_rejected(self, race_to_one):
        engine = FspEngine(race_to_one)
        with pytest.raises(FspError):
            engine.solve(-1.0)
        with pytest.raises(FspError):
            engine.solve(1.0, times=[0.5, 1.0])
        with pytest.raises(FspError):
            engine.solve(1.0, times=[0.0, 0.0, 1.0])


class TestOptionsAndClassifier:
    def test_options_validation(self):
        with pytest.raises(FspError):
            FspOptions(max_states=0)
        with pytest.raises(FspError):
            FspOptions(tolerance=-1.0)
        with pytest.raises(FspError):
            FspOptions(checkpoints=1)

    @pytest.mark.parametrize("fields", [
        {"max_states": 10.5},
        {"max_states": True},
        {"checkpoints": 2.5},
        {"checkpoints": "3"},
        {"tolerance": "abc"},
        {"tolerance": float("nan")},
        {"tolerance": float("inf")},
        {"expand": "yes"},
        {"strict": 3},
        {"count_caps": 5},
        {"count_caps": {"x": 1.5}},
        {"count_caps": {"x": -1}},
        {"count_caps": {1: 3}},
    ], ids=repr)
    def test_options_refuse_wrong_types(self, fields):
        """Every field is type-checked, naming it; a fractional count is refused."""
        (name,) = fields
        with pytest.raises(FspError, match=name):
            FspOptions(**fields)

    def test_options_accept_numpy_integers(self):
        options = FspOptions(
            max_states=np.int64(10), checkpoints=np.int32(2), tolerance=0,
            count_caps={"x": np.int64(0)},
        )
        assert options.max_states == 10 and options.count_caps == {"x": 0}

    def test_dominant_species_classifier(self):
        classify = DominantSpeciesClassifier({"A": "d_A", "B": "d_B"})
        assert classify({"d_A": 2, "d_B": 0}) == "A"
        assert classify({"d_A": 0, "d_B": 3}) == "B"
        assert classify({"d_A": 0, "d_B": 0}) is None
        assert classify({"d_A": 2, "d_B": 2}) is None  # tied lead
        with pytest.raises(FspError):
            DominantSpeciesClassifier({})


class TestEngineProtocol:
    def test_registered_with_distribution_capability(self):
        info = registry.get("fsp")
        assert info.exact and info.kind == "distribution"
        assert info.options_type is FspOptions

    def test_make_simulator_builds_engine(self, race_to_one):
        engine = make_simulator(race_to_one, engine="fsp")
        assert isinstance(engine, FspEngine)
        with pytest.raises(SimulationError):
            engine.run()

    def test_ensembles_reject_fsp(self, race_to_one):
        with pytest.raises(EnsembleError):
            ParallelEnsembleRunner(race_to_one, engine="fsp")

    def test_with_options_copy(self, race_to_one):
        engine = FspEngine(race_to_one)
        tightened = engine.with_options(tolerance=1e-3)
        assert tightened.options.tolerance == 1e-3
        assert engine.options.tolerance == FspOptions().tolerance


class TestExperimentIntegration:
    def test_example1_exact_is_the_programmed_distribution(self):
        """Acceptance: fsp through the facade returns Example 1's target."""
        experiment = Experiment.from_distribution(
            {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
        )
        result = experiment.simulate(engine="fsp")
        # The first catalyst produced decides: the start state plus one
        # absorbing state per outcome.
        assert result.exact_info["n_states"] == 4
        # The programmed distribution, exactly.
        assert result.frequencies == pytest.approx(
            {"1": 0.3, "2": 0.4, "3": 0.3}, abs=1e-12
        )
        assert result.decided_fraction() == pytest.approx(1.0)

    def test_exact_run_result_shape(self, race_to_one):
        class Race:
            def __call__(self, state):
                return first_catalyst(state)

        result = (
            Experiment.from_network(race_to_one, target={"1": 0.3, "2": 0.4, "3": 0.3})
            .classify_states(Race())
            .simulate(trials=1000, engine="fsp")
        )
        assert result.engine == "fsp"
        assert result.exact_info["n_states"] == 4
        # Nominal counts round to the trial budget.
        assert sum(result.ensemble.outcome_counts.values()) == 1000
        assert result.total_variation() == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ExperimentError):
            result.decision_times()

    def test_raw_network_without_classifier_raises(self, race_to_one):
        with pytest.raises(ExperimentError):
            Experiment.from_network(race_to_one).simulate(engine="fsp")

    def test_metadata_outcome_map_supplies_classifier(self):
        """Designs round-tripped through JSON keep their exact-oracle hookup."""
        from repro.crn import network_from_json, network_to_json

        system = Experiment.from_distribution({"a": 0.25, "b": 0.75}, gamma=100, scale=4).system
        network = network_from_json(network_to_json(system.network))
        result = Experiment.from_network(network).simulate(engine="fsp")
        assert result.exact["a"] == pytest.approx(0.25, abs=1e-12)
        assert result.exact["b"] == pytest.approx(0.75, abs=1e-12)

    def test_json_round_trip_preserves_exact(self, race_to_one):
        result = (
            Experiment.from_network(race_to_one)
            .classify_states(DominantSpeciesClassifier({"1": "d1", "2": "d2", "3": "d3"}))
            .simulate(engine="fsp")
        )
        restored = RunResult.from_json(result.to_json())
        assert restored.exact == result.exact
        assert restored.exact_info == result.exact_info
        assert restored.frequencies == result.frequencies

    def test_engine_options_flow_through_facade(self, race_to_one):
        result = (
            Experiment.from_network(race_to_one)
            .classify_states(DominantSpeciesClassifier({"1": "d1", "2": "d2", "3": "d3"}))
            .simulate(engine="fsp", engine_options=FspOptions(max_states=10))
        )
        assert result.exact["2"] == pytest.approx(0.4, abs=1e-12)
        bad = Experiment.from_network(race_to_one).classify_states(first_catalyst)
        with pytest.raises(EnsembleError):
            bad.simulate(engine="fsp", engine_options=object())


class TestCli:
    def test_simulate_fsp_flags(self, tmp_path, capsys):
        from repro.cli import main

        design = tmp_path / "design.json"
        assert main([
            "synthesize", "--probabilities", "a=0.25,b=0.75",
            "--gamma", "100", "--scale", "4", "-o", str(design),
        ]) == 0
        capsys.readouterr()
        assert main([
            "simulate", str(design), "--engine", "fsp", "--fsp-max-states", "50000",
        ]) == 0
        out = capsys.readouterr().out
        assert "0.2500" in out and "0.7500" in out

    def test_fsp_flags_require_fsp_engine(self, tmp_path, capsys):
        from repro.cli import main

        design = tmp_path / "design.json"
        main(["synthesize", "--probabilities", "a=0.5,b=0.5", "-o", str(design)])
        capsys.readouterr()
        assert main([
            "simulate", str(design), "--engine", "direct", "--fsp-max-states", "10",
        ]) == 2
        assert "--fsp-max-states" in capsys.readouterr().err

    def test_engines_matrix_lists_distribution_column(self, capsys):
        from repro.cli import main

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "distribution" in out
        assert "fsp" in out
