"""Tests for the exact SSA engines (direct, first-reaction, next-reaction).

Correctness checks use small systems with known analytic answers:

* a pure-death process (every molecule decays) must always exhaust;
* the mean of a birth–death process at stationarity is rate_in / rate_out;
* a k-way race decided by the first firing must reproduce the propensity
  ratios (this is the core mechanism the paper's stochastic module relies on);
* all engines must agree with each other within Monte-Carlo error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crn import parse_network
from repro.errors import SimulationError
from repro.sim import (
    DirectMethodSimulator,
    FiringCountCondition,
    NextReactionSimulator,
    SimulationOptions,
    SpeciesThreshold,
    StopReason,
    StoppingCondition,
    make_simulator,
    registry,
)

EXACT_ENGINES = ["direct", "first-reaction", "next-reaction"]


class TestRunMechanics:
    def test_pure_death_exhausts(self):
        net = parse_network("x ->{1} 0\ninit: x = 20")
        trajectory = DirectMethodSimulator(net, seed=1).run()
        assert trajectory.stop_reason == StopReason.EXHAUSTED
        assert trajectory.final_count("x") == 0
        assert trajectory.n_firings == 20

    def test_times_are_increasing(self):
        net = parse_network("x ->{1} 0\ninit: x = 30")
        trajectory = DirectMethodSimulator(net, seed=2).run()
        assert np.all(np.diff(trajectory.times) >= 0)
        assert trajectory.final_time == pytest.approx(trajectory.times[-1])

    def test_max_steps_stop(self):
        net = parse_network("src ->{1} src + x\ninit: src = 1")
        trajectory = DirectMethodSimulator(net, seed=3).run(max_steps=50)
        assert trajectory.stop_reason == StopReason.MAX_STEPS
        assert trajectory.n_firings == 50

    def test_max_time_stop(self):
        net = parse_network("src ->{1} src + x\ninit: src = 1")
        trajectory = DirectMethodSimulator(net, seed=4).run(max_time=5.0)
        assert trajectory.stop_reason == StopReason.MAX_TIME
        assert trajectory.final_time == pytest.approx(5.0)

    def test_condition_stop(self):
        net = parse_network("src ->{1} src + x\ninit: src = 1")
        trajectory = DirectMethodSimulator(net, seed=5).run(
            stopping=SpeciesThreshold("x", 7)
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.final_count("x") == 7

    def test_condition_already_true_at_start(self):
        net = parse_network("x ->{1} 0\ninit: x = 5")
        trajectory = DirectMethodSimulator(net, seed=6).run(
            stopping=SpeciesThreshold("x", 5)
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.n_firings == 0

    def test_initial_state_override(self):
        net = parse_network("x ->{1} 0\ninit: x = 5")
        trajectory = DirectMethodSimulator(net, seed=7).run(initial_state={"x": 2})
        assert trajectory.n_firings == 2

    def test_initial_state_unknown_species_rejected(self):
        net = parse_network("x ->{1} 0\ninit: x = 5")
        with pytest.raises(SimulationError):
            DirectMethodSimulator(net, seed=8).run(initial_state={"zzz": 1})

    def test_record_states_snapshots(self):
        net = parse_network("x ->{1} 0\ninit: x = 10")
        trajectory = DirectMethodSimulator(net, seed=9).run(record_states=True)
        series = trajectory.species_series("x")
        assert len(series) == trajectory.n_firings
        assert series[0] == 9 and series[-1] == 0

    def test_record_firings_off(self):
        net = parse_network("x ->{1} 0\ninit: x = 10")
        trajectory = DirectMethodSimulator(net, seed=10).run(record_firings=False)
        assert len(trajectory.reaction_indices) == 0  # log disabled...
        assert trajectory.n_firings == 10              # ...but totals still tracked
        assert trajectory.firing_counts.sum() == 10

    def test_reproducible_with_same_seed(self):
        net = parse_network("x ->{1} 0\ninit: x = 15")
        t1 = DirectMethodSimulator(net, seed=42).run()
        t2 = DirectMethodSimulator(net, seed=42).run()
        np.testing.assert_allclose(t1.times, t2.times)
        np.testing.assert_array_equal(t1.reaction_indices, t2.reaction_indices)

    def test_invalid_options_rejected(self):
        with pytest.raises(SimulationError):
            SimulationOptions(max_steps=0)
        with pytest.raises(SimulationError):
            SimulationOptions(max_time=-1.0)

    def test_engine_registry(self):
        assert all(registry.get(name).kind == "per-trial" for name in EXACT_ENGINES)
        with pytest.raises(Exception):
            make_simulator(parse_network("x ->{1} 0"), engine="bogus")


class _NthCheck(StoppingCondition):
    """Stops on the ``n``-th check since its last reset (per-run state)."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.checks = 0

    def reset(self, compiled) -> None:
        self.checks = 0

    def check(self, time, counts, compiled, firing_counts):
        self.checks += 1
        return "nth" if self.checks >= self.n else None


#: Annihilation makes trials exhaust at different steps, so with a horizon
#: and a step cap one slice of 30 trials stops in several ways.
MIXED_STOPS = """
init: ea = 70
init: eb = 30
ea ->{1.1} wa
eb ->{0.9} wb
ea + eb ->{0.03} 0
"""


@pytest.mark.parametrize("engine", EXACT_ENGINES)
class TestRunSlice:
    """``run_slice`` row ``i`` is ``run(seed=streams[i])``'s final state."""

    def _assert_rows_match_runs(self, engine, network, stopping, options, n=30):
        simulator = make_simulator(network, engine=engine)
        batch = simulator.run_slice(
            [np.random.default_rng(seed) for seed in range(n)],
            stopping=stopping, options=options,
        )
        assert batch.n_trials == n
        for trial in range(n):
            run = simulator.run(
                stopping=stopping, options=options, seed=np.random.default_rng(trial)
            )
            np.testing.assert_array_equal(
                batch.final_counts[trial], run.final_state.to_vector(batch.species)
            )
            assert batch.final_times[trial] == run.final_time
            np.testing.assert_array_equal(batch.firing_counts[trial], run.firing_counts)
            assert batch.stop_reasons[trial] == run.stop_reason
            assert batch.stop_details[trial] == run.stop_detail
        return batch

    @pytest.mark.parametrize("stopping,reasons", [
        (None, {StopReason.EXHAUSTED, StopReason.MAX_TIME, StopReason.MAX_STEPS}),
        (SpeciesThreshold("wa", 54),
         {StopReason.CONDITION, StopReason.EXHAUSTED, StopReason.MAX_TIME}),
    ])
    def test_mixed_stops(self, engine, stopping, reasons):
        batch = self._assert_rows_match_runs(
            engine, parse_network(MIXED_STOPS), stopping,
            SimulationOptions(record_firings=False, max_time=4.5, max_steps=86),
        )
        assert set(batch.stop_reasons) == reasons

    def test_condition_at_start(self, engine):
        batch = self._assert_rows_match_runs(
            engine, parse_network(MIXED_STOPS), SpeciesThreshold("ea", 50),
            SimulationOptions(record_firings=False), n=5,
        )
        assert set(batch.stop_reasons) == {StopReason.CONDITION}
        assert batch.firing_counts.sum() == 0 and not batch.final_times.any()

    def test_callback_condition_is_reset_per_trial(self, engine):
        # The t=0 check is the first; the fourth follows the third firing.
        batch = self._assert_rows_match_runs(
            engine, parse_network(MIXED_STOPS), _NthCheck(4),
            SimulationOptions(record_firings=False), n=10,
        )
        assert set(batch.stop_details) == {"nth"}
        assert set(batch.firing_counts.sum(axis=1)) == {3}

    def test_initial_state_and_no_log(self, engine):
        net = parse_network("x ->{1} 0\ninit: x = 5")
        simulator = make_simulator(net, engine=engine)
        streams = [np.random.default_rng(seed) for seed in range(4)]
        batch = simulator.run_slice(streams, initial_state={"x": 2})
        assert batch.firing_counts.sum(axis=1).tolist() == [2, 2, 2, 2]
        assert set(batch.stop_reasons) == {StopReason.EXHAUSTED}
        assert set(batch.stop_details) == {""}
        assert simulator._kernel_buffers.n_events == 0


@pytest.mark.parametrize("engine", [*EXACT_ENGINES, "batch-direct"])
def test_mutated_condition_is_recompiled(engine):
    net = parse_network("src ->{1} src + x\ninit: src = 1")
    condition = SpeciesThreshold("x", 7)
    simulator = make_simulator(net, engine=engine, seed=5)
    first = simulator.run(stopping=condition, record_firings=False)
    condition.threshold = 9
    second = simulator.run(stopping=condition, record_firings=False)
    assert (first.final_count("x"), second.final_count("x")) == (7, 9)


@pytest.mark.parametrize("engine", EXACT_ENGINES)
class TestStatisticalCorrectness:
    def test_race_probabilities_follow_propensities(self, engine, race_network):
        # First firing among e1/e2/e3 conversions at equal rates and quantities
        # 30/40/30 must occur with probabilities 0.3/0.4/0.3 (Section 2.1.2).
        simulator = make_simulator(race_network, engine=engine, seed=123)
        condition = FiringCountCondition([0, 1, 2], 1)
        wins = {"d1": 0, "d2": 0, "d3": 0}
        n = 1500
        for _ in range(n):
            trajectory = simulator.run(stopping=condition, record_firings=False)
            for name in wins:
                if trajectory.final_count(name) == 1:
                    wins[name] += 1
        assert wins["d1"] / n == pytest.approx(0.3, abs=0.05)
        assert wins["d2"] / n == pytest.approx(0.4, abs=0.05)
        assert wins["d3"] / n == pytest.approx(0.3, abs=0.05)

    def test_exhaustion_time_mean(self, engine):
        # Single molecule decaying at rate 2: mean lifetime 0.5.
        net = parse_network("x ->{2} 0\ninit: x = 1")
        simulator = make_simulator(net, engine=engine, seed=7)
        lifetimes = [simulator.run().final_time for _ in range(2000)]
        assert np.mean(lifetimes) == pytest.approx(0.5, rel=0.1)

    def test_birth_death_stationary_mean(self, engine, birth_death_network):
        # Birth rate 5, death rate 0.5 per molecule: stationary mean = 10.
        simulator = make_simulator(birth_death_network, engine=engine, seed=11)
        finals = [
            simulator.run(max_time=30.0, record_firings=False).final_count("x")
            for _ in range(60)
        ]
        assert np.mean(finals) == pytest.approx(10.0, rel=0.2)


class TestEngineAgreement:
    def test_final_distribution_agreement(self, example1_network):
        """All exact engines must give the same outcome statistics."""
        from repro.sim import CategoryFiringCondition

        distributions = {}
        for engine in EXACT_ENGINES:
            simulator = make_simulator(example1_network, engine=engine, seed=99)
            condition = CategoryFiringCondition("working", 5)
            outcomes = {"working[1]": 0, "working[2]": 0, "working[3]": 0}
            n = 300
            for _ in range(n):
                trajectory = simulator.run(stopping=condition, record_firings=False)
                outcomes[trajectory.stop_detail] += 1
            distributions[engine] = {k: v / n for k, v in outcomes.items()}
        for engine in EXACT_ENGINES[1:]:
            for key in distributions["direct"]:
                assert distributions[engine][key] == pytest.approx(
                    distributions["direct"][key], abs=0.09
                )

    def test_next_reaction_trajectory_statistics(self):
        """Next-reaction must reproduce the decay-chain completion time."""
        net = parse_network("a ->{1} b\nb ->{1} c\ninit: a = 1")
        direct = DirectMethodSimulator(net, seed=5)
        nrm = NextReactionSimulator(net, seed=5)
        mean_direct = np.mean([direct.run().final_time for _ in range(1500)])
        mean_nrm = np.mean([nrm.run().final_time for _ in range(1500)])
        # Both estimate E[T] = 1 + 1 = 2.
        assert mean_direct == pytest.approx(2.0, rel=0.1)
        assert mean_nrm == pytest.approx(2.0, rel=0.1)
