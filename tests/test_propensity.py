"""Tests for mass-action propensity evaluation and network compilation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import SplittingConfig, run_splitting
from repro.crn import Reaction, ReactionNetwork, State, parse_network
from repro.errors import PropensityError, SimulationError
from repro.sim import (
    BatchDirectEngine,
    CompiledNetwork,
    DirectMethodSimulator,
    FspEngine,
    OdeIntegrator,
    ParallelEnsembleRunner,
    TauLeapingSimulator,
    combinations,
    dependency_graph,
    reaction_propensity,
)
from repro.sim.kernels.numpy_backend import _propensity

import propensity_reference as reference


class TestCombinations:
    @pytest.mark.parametrize(
        "count, needed, expected",
        [
            (0, 0, 1),
            (5, 0, 1),
            (5, 1, 5),
            (5, 2, 10),
            (2, 2, 1),
            (1, 2, 0),
            (0, 1, 0),
            (10, 3, 120),
        ],
    )
    def test_values(self, count, needed, expected):
        assert combinations(count, needed) == expected

    def test_negative_needed_rejected(self):
        with pytest.raises(PropensityError):
            combinations(3, -1)


class TestReactionPropensity:
    def test_unimolecular(self):
        r = Reaction({"a": 1}, {"b": 1}, rate=2.0)
        assert reaction_propensity(r, State({"a": 7})) == pytest.approx(14.0)

    def test_bimolecular_distinct(self):
        r = Reaction({"a": 1, "b": 1}, {"c": 1}, rate=0.5)
        assert reaction_propensity(r, State({"a": 4, "b": 3})) == pytest.approx(6.0)

    def test_bimolecular_identical(self):
        # 2x -> y: h = x(x-1)/2
        r = Reaction({"x": 2}, {"y": 1}, rate=1.0)
        assert reaction_propensity(r, State({"x": 5})) == pytest.approx(10.0)

    def test_zero_when_insufficient(self):
        r = Reaction({"x": 2}, {"y": 1}, rate=1.0)
        assert reaction_propensity(r, State({"x": 1})) == 0.0

    def test_source_reaction_constant(self):
        r = Reaction({}, {"x": 1}, rate=3.0)
        assert reaction_propensity(r, State()) == pytest.approx(3.0)


def _splitting(network):
    return run_splitting(
        network, config=SplittingConfig(outcome="a"), species="a", threshold=3,
        stopping=None, seed=1,
    )


#: Every entry point that takes a network or a compiled network.
NETWORK_ENTRY_POINTS = {
    "coerce": CompiledNetwork.coerce,
    "direct": DirectMethodSimulator,
    "tau-leaping": TauLeapingSimulator,
    "batch-direct": BatchDirectEngine,
    "ensemble": ParallelEnsembleRunner,
    "fsp": FspEngine,
    "ode": OdeIntegrator,
    "splitting": _splitting,
    "dependency-graph": dependency_graph,
}


class TestCompiledNetwork:
    @pytest.mark.parametrize("entry", sorted(NETWORK_ENTRY_POINTS))
    def test_non_network_is_refused(self, entry):
        """Each entry point refuses anything but a network or a compiled one
        with a SimulationError naming the type."""
        with pytest.raises(SimulationError, match="got int"):
            NETWORK_ENTRY_POINTS[entry](5)

    def test_coerce_keeps_a_compiled_network(self, race_network):
        compiled = CompiledNetwork.coerce(race_network)
        assert CompiledNetwork.coerce(compiled) is compiled

    def test_compile_empty_rejected(self):
        with pytest.raises(PropensityError):
            CompiledNetwork.compile(ReactionNetwork())

    def test_initial_counts_and_roundtrip(self, race_network):
        compiled = CompiledNetwork.compile(race_network)
        counts = compiled.initial_counts()
        state = compiled.counts_to_state(counts)
        assert state == race_network.initial_state

    def test_propensities_match_reference(self, example1_network):
        compiled = CompiledNetwork.compile(example1_network)
        counts = compiled.initial_counts()
        state = compiled.counts_to_state(counts)
        expected = np.array(
            [reaction_propensity(r, state) for r in example1_network.reactions]
        )
        views = compiled.py_views()
        exact = [
            _propensity(views["rates"], views["reactants"], counts.tolist(), j)
            for j in range(compiled.n_reactions)
        ]
        np.testing.assert_array_equal(exact, expected)
        np.testing.assert_allclose(compiled.propensities(counts), expected, rtol=1e-12)

    def test_apply_matches_state_apply(self, example1_network):
        compiled = CompiledNetwork.compile(example1_network)
        counts = compiled.initial_counts()
        reference.apply(compiled, 0, counts)
        expected = example1_network.initial_state
        expected.apply(example1_network.reaction(0))
        assert compiled.counts_to_state(counts) == expected
        assert compiled.counts_to_state(compiled.initial_counts() + compiled.delta_matrix[0]) == (
            expected
        )

    def test_dependents_include_self(self, example1_network):
        compiled = CompiledNetwork.compile(example1_network)
        for j, affected in enumerate(compiled.py_views()["dependents"]):
            assert j in affected

    def test_dependents_cover_shared_species(self):
        net = parse_network(
            """
            init: a = 5
            init: c = 5
            a ->{1} b
            b ->{1} c
            c ->{1} d
            """
        )
        dependents = CompiledNetwork.compile(net).py_views()["dependents"]
        # firing reaction 0 changes a and b -> must include reaction 1 (consumes b)
        assert 1 in dependents[0]
        # firing reaction 0 does not touch c -> reaction 2 unaffected
        assert 2 not in dependents[0]

    def test_mass_action_rates_continuous(self):
        net = parse_network("2 x ->{3} y\ninit: x = 4")
        compiled = CompiledNetwork.compile(net)
        concentrations = np.array([0.0, 0.0], dtype=float)
        x_index = compiled.species_index()[[s for s in compiled.species if s.name == "x"][0]]
        concentrations[x_index] = 2.0
        rates = OdeIntegrator(compiled).mass_action_rates(concentrations)
        assert rates[0] == pytest.approx(3 * 2.0**2)
