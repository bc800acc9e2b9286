"""Tests for the capability-aware engine registry (repro.sim.registry)."""

from __future__ import annotations

import pytest

from repro.crn import parse_network
from repro.errors import EnsembleError
from repro.sim import ParallelEnsembleRunner, TauLeapOptions, make_simulator
from repro.sim.direct import DirectMethodSimulator
from repro.sim.ode import OdeOptions
from repro.sim.registry import EngineRegistry, register_engine, registry


BUILTIN = {
    "direct",
    "first-reaction",
    "next-reaction",
    "tau-leaping",
    "batch-direct",
    "ode",
}


@pytest.fixture
def race_net():
    return parse_network("init: a = 10\na ->{1} b")


class TestRegistryContents:
    def test_builtin_engines_registered(self):
        assert BUILTIN <= set(registry.names())

    def test_per_trial_and_batched_partition(self):
        per_trial = set(registry.per_trial_names())
        batched = set(registry.batched_names())
        assert per_trial | batched == set(registry.names())
        assert per_trial.isdisjoint(batched)
        assert "batch-direct" in batched
        assert "direct" in per_trial

    def test_mapping_protocol(self):
        assert "direct" in registry
        assert "bogus" not in registry
        assert len(registry) >= len(BUILTIN)
        assert sorted(registry) == registry.names()

    def test_capability_matrix(self):
        rows = {row["engine"]: row for row in registry.capability_matrix()}
        assert rows["direct"]["exact"] and rows["direct"]["events"]
        assert rows["batch-direct"]["batched"] and rows["batch-direct"]["exact"]
        assert rows["tau-leaping"]["approximate"]
        assert rows["tau-leaping"]["options"] == "TauLeapOptions"
        assert rows["ode"]["deterministic"] and not rows["ode"]["events"]

    def test_info_fields(self):
        info = registry.get("tau-leaping")
        assert info.options_type is TauLeapOptions
        assert info.options_param == "leap_options"
        assert info.summary


class TestResolution:
    def test_unknown_engine_lists_dynamic_names_and_suggests(self, race_net):
        with pytest.raises(EnsembleError) as excinfo:
            make_simulator(race_net, engine="dirct")
        message = str(excinfo.value)
        for name in sorted(BUILTIN):
            assert name in message
        assert "did you mean 'direct'?" in message

    def test_unknown_engine_without_close_match(self, race_net):
        with pytest.raises(EnsembleError) as excinfo:
            make_simulator(race_net, engine="zzzzzz")
        assert "did you mean" not in str(excinfo.value)

    def test_engine_options_reach_the_engine(self, race_net):
        options = TauLeapOptions(epsilon=0.01)
        simulator = make_simulator(race_net, engine="tau-leaping", engine_options=options)
        assert simulator.leap_options.epsilon == 0.01

    def test_engine_options_rejected_by_optionless_engine(self, race_net):
        with pytest.raises(EnsembleError, match="does not accept engine options"):
            make_simulator(race_net, engine="direct", engine_options=TauLeapOptions())

    def test_engine_options_type_checked(self, race_net):
        with pytest.raises(EnsembleError, match="expects engine_options of type"):
            make_simulator(race_net, engine="tau-leaping", engine_options=OdeOptions())

    def test_ensemble_runner_validates_options_at_construction(self, race_net):
        with pytest.raises(EnsembleError, match="does not accept engine options"):
            ParallelEnsembleRunner(race_net, engine="direct", engine_options=TauLeapOptions())

    def test_ensemble_rejects_deterministic_engine(self, race_net):
        with pytest.raises(EnsembleError, match="deterministic"):
            ParallelEnsembleRunner(race_net, engine="ode")


class TestThirdPartyRegistration:
    def test_register_run_and_unregister(self, race_net):
        @register_engine("test-custom-direct", exact=True, summary="test engine")
        class CustomDirect(DirectMethodSimulator):
            method_name = "test-custom-direct"

        try:
            assert "test-custom-direct" in registry
            # Selectable through the ensemble layer without editing it.
            result = ParallelEnsembleRunner(race_net, engine="test-custom-direct").run(
                20, seed=3
            )
            assert result.n_trials == 20
            # And through the facade.
            from repro.api import Experiment

            run = Experiment.from_network(race_net).simulate(
                trials=10, engine="test-custom-direct", seed=4
            )
            assert run.ensemble.n_trials == 10
        finally:
            registry.unregister("test-custom-direct")
        assert "test-custom-direct" not in registry

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EnsembleError, match="already registered"):
            register_engine("direct", exact=True)(DirectMethodSimulator)

    def test_independent_registry_instances(self):
        fresh = EngineRegistry()

        @fresh.register("only-here", exact=True)
        class Local(DirectMethodSimulator):
            pass

        assert fresh.names() == ["only-here"]
        assert "only-here" not in registry
