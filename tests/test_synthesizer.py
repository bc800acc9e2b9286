"""Tests for the top-level synthesis API (repro.core.synthesizer)."""

from __future__ import annotations

import math

import pytest

from repro.api import Experiment
from repro.core import (
    AffineResponseSpec,
    OutcomeSpec,
    synthesize_affine_response,
    synthesize_distribution,
    verify_by_sampling,
)
from repro.errors import SpecificationError, SynthesisError


class TestSynthesizeDistribution:
    def test_accepts_mapping(self):
        system = synthesize_distribution({"a": 0.25, "b": 0.75})
        assert system.labels == ("a", "b")
        assert system.target_distribution() == {"a": 0.25, "b": 0.75}

    def test_accepts_sequence_with_default_labels(self):
        system = synthesize_distribution([0.5, 0.5])
        assert system.labels == ("1", "2")

    def test_accepts_spec(self, example1_spec):
        system = synthesize_distribution(example1_spec, gamma=500.0, scale=50)
        assert system.gamma == 500.0
        assert system.scale == 50
        assert sum(system.network.initial_count(system.input_species(l))
                   for l in system.labels) == 50

    def test_species_helpers(self):
        system = synthesize_distribution({"win": 0.5, "lose": 0.5})
        assert system.input_species("win") == "e_win"
        assert system.catalyst_species("lose") == "d_lose"
        assert system.working_reaction_name("win") == "working[win]"
        assert system.rate_ladder().gamma == system.gamma

    def test_describe_mentions_outcomes(self):
        text = synthesize_distribution({"a": 0.3, "b": 0.7}).describe()
        assert "a" in text and "b" in text and "gamma" in text

    def test_sampled_distribution_matches_target(self):
        system = synthesize_distribution({"a": 0.2, "b": 0.8}, gamma=1e3, scale=100)
        sampled = Experiment.from_system(system).simulate(trials=400, seed=21)
        assert sampled.target == {"a": 0.2, "b": 0.8}
        assert sampled.frequencies["b"] == pytest.approx(0.8, abs=0.07)
        assert sampled.total_variation() < 0.08
        assert "TV distance" in sampled.summary()

    def test_classify_outcome_fallback_uses_catalyst(self):
        system = synthesize_distribution({"a": 0.5, "b": 0.5})
        # Simulate without the working stopping condition: classification falls
        # back to the dominant catalyst.
        from repro.sim import DirectMethodSimulator, SimulationOptions

        trajectory = DirectMethodSimulator(system.network, seed=3).run(
            options=SimulationOptions(max_steps=5000, record_firings=False)
        )
        assert system.classify_outcome(trajectory) in {"a", "b"}

    def test_network_with_inputs_rejects_unknown_species(self):
        system = synthesize_distribution({"a": 0.5, "b": 0.5})
        with pytest.raises(SynthesisError):
            system.network_with_inputs({"zzz": 1})

    def test_verification_report(self):
        system = synthesize_distribution({"a": 0.3, "b": 0.7}, gamma=1e3)
        report = verify_by_sampling(system, n_trials=300, seed=5, tolerance=0.1)
        assert report.passed
        assert report.tv_distance < 0.1
        assert 0 <= report.chi2_pvalue <= 1
        assert "PASS" in report.summary()

    def test_verification_without_decided_trials_fails(self):
        """A run in which no trial decides reports a failure; it does not raise."""
        system = synthesize_distribution({"a": 0.3, "b": 0.7}, gamma=1e3)
        # No input molecules: nothing fires, and every catalyst ends at 0.
        report = verify_by_sampling(
            system, n_trials=20, seed=5, inputs={"e_a": 0, "e_b": 0}, tolerance=1.0
        )
        assert report.n_trials == 0 and report.measured == {}
        assert not report.passed
        assert math.isnan(report.tv_distance) and math.isnan(report.chi2_pvalue)
        assert "FAIL" in report.summary()


class TestSynthesizeAffineResponse:
    @pytest.fixture
    def example2(self) -> AffineResponseSpec:
        return AffineResponseSpec(
            base={"1": 0.3, "2": 0.4, "3": 0.3},
            slopes={"1": {"x1": 0.02, "x2": -0.03}, "2": {"x2": 0.03}, "3": {"x1": -0.02}},
        )

    def test_preprocessing_reactions_added(self, example2):
        system = synthesize_affine_response(example2)
        preprocessing = system.network.reactions_in_category("preprocessing")
        assert len(preprocessing) == 2        # one per external input
        assert system.preprocessing is not None
        assert system.affine is example2

    def test_example2_reaction_shapes(self, example2):
        """The compiled reactions are 2·e3 + x1 → 2·e1 and 3·e1 + x2 → 3·e2."""
        system = synthesize_affine_response(example2)
        compiled = {
            tuple(sorted((s.name, c) for s, c in r.reactants.items())): r
            for _, r in system.network.reactions_in_category("preprocessing")
        }
        key_x1 = (("e_3", 2), ("x1", 1))
        key_x2 = (("e_1", 3), ("x2", 1))
        assert key_x1 in compiled and key_x2 in compiled
        assert {s.name: c for s, c in compiled[key_x1].products.items()} == {"e_1": 2}
        assert {s.name: c for s, c in compiled[key_x2].products.items()} == {"e_2": 3}

    def test_external_inputs_default_to_zero(self, example2):
        system = synthesize_affine_response(example2)
        assert system.network.initial_count("x1") == 0
        assert system.network.initial_count("x2") == 0

    def test_target_distribution_tracks_inputs(self, example2):
        system = synthesize_affine_response(example2)
        assert system.target_distribution() == pytest.approx(
            {"1": 0.3, "2": 0.4, "3": 0.3}
        )
        shifted = system.target_distribution({"x1": 5})
        assert shifted["1"] == pytest.approx(0.4)
        assert shifted["3"] == pytest.approx(0.2)

    def test_sampling_with_inputs_shifts_distribution(self, example2):
        system = synthesize_affine_response(example2, gamma=1e3)
        experiment = Experiment.from_system(system)
        baseline = experiment.simulate(trials=300, seed=31)
        shifted = experiment.program({"x1": 10}).simulate(trials=300, seed=32)
        assert shifted.target == system.target_distribution({"x1": 10})
        assert shifted.frequencies["1"] > baseline.frequencies["1"]
        assert shifted.frequencies["3"] < baseline.frequencies["3"]
        assert shifted.total_variation() < 0.1

    def test_non_representable_slope_rejected(self):
        spec = AffineResponseSpec(
            base={"a": 0.5, "b": 0.5},
            slopes={"a": {"x": 0.0213}, "b": {"x": -0.0213}},
        )
        with pytest.raises(SpecificationError):
            synthesize_affine_response(spec, scale=100)

    def test_outcome_specs_must_match_labels(self, example2):
        with pytest.raises(SpecificationError):
            synthesize_affine_response(
                example2, outcomes=[OutcomeSpec("wrong"), OutcomeSpec("2"), OutcomeSpec("3")]
            )

    def test_metadata_records_affine_design(self, example2):
        system = synthesize_affine_response(example2)
        recorded = system.network.metadata["affine_response"]
        assert recorded["base"] == {"1": 0.3, "2": 0.4, "3": 0.3}
        assert len(recorded["transfers"]) == 2
