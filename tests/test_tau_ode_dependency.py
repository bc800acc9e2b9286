"""Tests for tau-leaping, the mean-field ODE integrator, and dependency graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import settle_module
from repro.core.modules import exponentiation_module
from repro.crn import parse_network
from repro.errors import SimulationError
from repro.sim import (
    OdeIntegrator,
    SimulationOptions,
    SpeciesThreshold,
    TauLeapingSimulator,
    TauLeapOptions,
    dependency_graph,
    dependency_stats,
    make_simulator,
    simulate_ode,
)


@pytest.fixture
def production_decay():
    """src -> src + x at 50/s, x -> 0 at 1/s: stationary mean 50."""
    return parse_network("src ->{50} src + x\nx ->{1} 0\ninit: src = 1")


class TestTauLeaping:
    def test_stationary_mean_matches(self, production_decay):
        simulator = TauLeapingSimulator(production_decay, seed=3)
        finals = [
            simulator.run(max_time=20.0).final_count("x") for _ in range(30)
        ]
        assert np.mean(finals) == pytest.approx(50.0, rel=0.15)

    def test_no_negative_counts(self, production_decay):
        simulator = TauLeapingSimulator(production_decay, seed=4)
        trajectory = simulator.run(max_time=5.0, record_states=True)
        assert np.all(trajectory.state_snapshots >= 0)

    def test_threshold_condition_checked_at_leap_boundaries(self, production_decay):
        simulator = TauLeapingSimulator(production_decay, seed=5)
        trajectory = simulator.run(stopping=SpeciesThreshold("x", 30), max_time=50.0)
        assert trajectory.stop_reason == "condition"
        assert trajectory.final_count("x") >= 30

    def test_exhaustion(self):
        net = parse_network("x ->{1} 0\ninit: x = 200")
        trajectory = TauLeapingSimulator(net, seed=6).run(max_time=1e6)
        assert trajectory.final_count("x") == 0
        assert trajectory.stop_reason == "exhausted"
        assert trajectory.firing_counts[0] == 200

    def test_small_systems_fall_back_to_exact_steps(self):
        # With a handful of molecules the selected tau is tiny, so the engine
        # should silently take exact steps and still finish correctly.
        net = parse_network("a + b ->{1} c\ninit: a = 3\ninit: b = 3")
        trajectory = TauLeapingSimulator(net, seed=7).run(max_time=100.0)
        assert trajectory.final_count("c") == 3

    def test_options_dataclass(self):
        options = TauLeapOptions(epsilon=0.01)
        simulator = TauLeapingSimulator(
            parse_network("x ->{1} 0\ninit: x = 10"), seed=1, leap_options=options
        )
        assert simulator.leap_options.epsilon == 0.01


class TestOde:
    def test_exponential_decay(self):
        net = parse_network("x ->{2} 0\ninit: x = 100")
        result = simulate_ode(net, t_final=1.0, n_points=50)
        assert result.final("x") == pytest.approx(100 * np.exp(-2.0), rel=1e-3)

    def test_production_decay_steady_state(self, production_decay):
        result = simulate_ode(production_decay, t_final=20.0)
        assert result.final("x") == pytest.approx(50.0, rel=1e-2)

    def test_conversion_conserves_total(self):
        net = parse_network("x ->{1} y\ninit: x = 40")
        result = simulate_ode(net, t_final=5.0)
        totals = result.series("x") + result.series("y")
        np.testing.assert_allclose(totals, 40.0, rtol=1e-4)

    def test_series_unknown_species_raises(self, production_decay):
        result = simulate_ode(production_decay, t_final=1.0)
        with pytest.raises(SimulationError):
            result.series("nope")

    def test_invalid_time_raises(self, production_decay):
        with pytest.raises(SimulationError):
            OdeIntegrator(production_decay).run(t_final=0.0)

    def test_initial_state_override(self):
        net = parse_network("x ->{1} 0\ninit: x = 100")
        result = simulate_ode(net, t_final=0.5, initial_state={"x": 10})
        assert result.series("x")[0] == pytest.approx(10.0)

    def test_unknown_start_species_raises(self, production_decay):
        """Like every sampling engine, an unknown species is refused, not dropped."""
        with pytest.raises(SimulationError, match="zzz"):
            simulate_ode(production_decay, t_final=1.0, initial_state={"zzz": 5})
        engine = make_simulator(production_decay, engine="ode")
        with pytest.raises(SimulationError, match="zzz"):
            engine.run(initial_state={"zzz": 5}, options=SimulationOptions(max_time=1.0))

    def test_unknown_option_raises(self, production_decay):
        engine = make_simulator(production_decay, engine="ode")
        with pytest.raises(SimulationError, match="bogus"):
            engine.run(options=SimulationOptions(max_time=1.0), bogus=3)
        assert engine.run(options=SimulationOptions(max_time=1.0), max_time=2.0).final_time == 2.0

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_diverging_mean_field_raises(self):
        """The exponentiation module's mean field overflows within microseconds.

        The rounded counts used to be int64's minimum; now the run stops
        with an error naming the species and the time.
        """
        with pytest.raises(SimulationError, match=r"mean field diverged: species 'y'.* at t="):
            settle_module(exponentiation_module(), {"x": 4}, engine="ode")

    def test_final_state_dict(self, production_decay):
        result = simulate_ode(production_decay, t_final=1.0)
        final = result.final_state()
        assert set(final) == {"src", "x"}
        assert final["src"] == pytest.approx(1.0)

    def test_mean_field_misses_stochastic_choice(self, example1_network):
        """The mean-field prediction is deterministic — no distribution at all.

        Integrated as ODEs, the stochastic module always resolves the same
        way (the majority input, outcome 2, wins every time), whereas the
        stochastic semantics produce outcome 2 only 40% of the time.  This is
        the paper's motivation for discrete stochastic treatment.
        """
        first = simulate_ode(example1_network, t_final=50.0)
        second = simulate_ode(example1_network, t_final=50.0)
        finals_first = {i: first.final(f"d_{i}") for i in (1, 2, 3)}
        finals_second = {i: second.final(f"d_{i}") for i in (1, 2, 3)}
        # Identical every run (no randomness) ...
        for i in (1, 2, 3):
            assert finals_first[i] == pytest.approx(finals_second[i], rel=1e-9)
        # ... and the majority outcome dominates deterministically.
        assert finals_first[2] > finals_first[1]
        assert finals_first[2] > finals_first[3]


class TestDependencyGraph:
    def test_graph_structure(self, example1_network):
        graph = dependency_graph(example1_network)
        assert graph.number_of_nodes() == example1_network.size
        # every node depends on itself
        assert all(graph.has_edge(node, node) for node in graph.nodes)

    def test_stats(self, example1_network):
        stats = dependency_stats(example1_network)
        assert stats.n_reactions == example1_network.size
        assert 0 < stats.density <= 1.0
        assert stats.max_out_degree >= 1
        assert stats.mean_out_degree <= stats.max_out_degree

    def test_sparse_chain_is_sparse(self):
        net = parse_network("a ->{1} b\nb ->{1} c\nc ->{1} d\nd ->{1} e\ninit: a = 1")
        stats = dependency_stats(net)
        assert stats.max_out_degree == 2
