"""Shared fixtures for the test suite.

Monte-Carlo tests use small trial counts with fixed seeds and generous
tolerances; tight assertions are reserved for exact CTMC computations and for
deterministic structural checks.
"""

from __future__ import annotations

import pytest

from repro.core import DistributionSpec, OutcomeSpec, build_stochastic_module
from repro.crn import ReactionNetwork, parse_network


@pytest.fixture
def birth_death_network() -> ReactionNetwork:
    """A simple birth–death process: ∅ → x at rate 5, x → ∅ at rate 0.5."""
    return parse_network(
        """
        init: x = 0
        src ->{5} src + x
        x ->{0.5} 0
        init: src = 1
        """,
        name="birth-death",
    )


@pytest.fixture
def race_network() -> ReactionNetwork:
    """Three competing unimolecular conversions with a 3:4:3 quantity ratio."""
    return parse_network(
        """
        init: e1 = 30
        init: e2 = 40
        init: e3 = 30
        e1 ->{1} d1
        e2 ->{1} d2
        e3 ->{1} d3
        """,
        name="three-way-race",
    )


@pytest.fixture
def example1_spec() -> DistributionSpec:
    """The target distribution of the paper's Example 1: (0.3, 0.4, 0.3)."""
    return DistributionSpec(
        [OutcomeSpec("1"), OutcomeSpec("2"), OutcomeSpec("3")], [0.3, 0.4, 0.3]
    )


@pytest.fixture
def example1_network(example1_spec) -> ReactionNetwork:
    """The stochastic module of Example 1 (γ = 10³, scale 100)."""
    return build_stochastic_module(example1_spec, gamma=1e3, scale=100)


@pytest.fixture
def tiny_two_outcome_network() -> ReactionNetwork:
    """A 2-outcome stochastic module small enough for exact CTMC analysis."""
    spec = DistributionSpec(
        [OutcomeSpec("A", target_output=3), OutcomeSpec("B", target_output=3)],
        [0.25, 0.75],
    )
    return build_stochastic_module(spec, gamma=100.0, scale=4)


@pytest.fixture
def growth_payload() -> dict:
    """A store payload stopping ``x ->{1} x + x; x ->{1} 0`` (x = 3) at
    ``x >= 10``."""
    from repro.api import Experiment
    from repro.sim.events import SpeciesThreshold
    from repro.store import experiment_to_payload

    network = parse_network("x ->{1} x + x\nx ->{1} 0\ninit: x = 3")
    experiment = Experiment.from_network(network, SpeciesThreshold("x", 10))
    return experiment_to_payload(experiment, trials=20, engine="direct", seed=1)


@pytest.fixture
def polya_race_payloads() -> "tuple[dict, dict]":
    """The polya-urn ``fsp`` payload, and the same with every threshold-race
    entry in its two-element ``[species, count]`` form."""
    from repro.api import Experiment
    from repro.store import experiment_to_payload

    payload = experiment_to_payload(Experiment.from_zoo("polya-urn"), trials=100, engine="fsp")
    race = payload["state_classifier"]["thresholds"]
    assert all(comparison == ">=" for _, _, comparison in race.values())
    short = {"type": "threshold-race", "thresholds": {k: v[:2] for k, v in race.items()}}
    return payload, {**payload, "state_classifier": short}
