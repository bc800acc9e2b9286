"""Tests for the engine table (repro.sim.registry)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.crn import parse_network
from repro.errors import EnsembleError
from repro.sim import ParallelEnsembleRunner, TauLeapOptions, make_simulator, registry
from repro.sim.direct import DirectMethodSimulator
from repro.sim.ode import OdeOptions
from repro.sim.registry import register_engine


BUILTIN = {
    "direct",
    "first-reaction",
    "next-reaction",
    "tau-leaping",
    "batch-direct",
    "ode",
}

#: SHA-256 of ``json.dumps(capability_matrix(), sort_keys=True)`` over the
#: seven built-in engines.
CAPABILITY_MATRIX_SHA256 = "9ace69fb308994b28dc393febd9d1291f7dc9f8502f28f6282adb7d1bc1a3c6c"


@pytest.fixture
def race_net():
    return parse_network("init: a = 10\na ->{1} b")


class TestRegistryContents:
    def test_builtin_engines_registered(self):
        assert BUILTIN <= set(registry.names())

    def test_builtin_kinds(self):
        kinds = {name: registry.get(name).kind for name in registry.names()}
        assert kinds == {
            "direct": "per-trial",
            "first-reaction": "per-trial",
            "next-reaction": "per-trial",
            "tau-leaping": "per-trial",
            "batch-direct": "batched",
            "fsp": "distribution",
            "ode": "mean-field",
        }

    def test_names_sorted(self):
        assert registry.names() == sorted(registry.names())

    def test_capability_matrix(self):
        rows = {row["engine"]: row for row in registry.capability_matrix()}
        assert rows["direct"]["exact"] and rows["direct"]["events"]
        assert rows["batch-direct"]["batched"] and rows["batch-direct"]["exact"]
        assert rows["tau-leaping"]["approximate"]
        assert rows["tau-leaping"]["options"] == "TauLeapOptions"
        assert rows["ode"]["deterministic"] and not rows["ode"]["events"]

    def test_capability_matrix_digest(self):
        # `repro engines` and `GET /engines` print these rows; the digest
        # holds every key and value of every built-in row.
        rows = registry.capability_matrix()
        digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
        assert digest == CAPABILITY_MATRIX_SHA256

    def test_info_fields(self):
        info = registry.get("tau-leaping")
        assert info.options_type is TauLeapOptions
        assert info.kind == "per-trial" and not info.exact
        assert info.backends == ()
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
    def test_register_run_and_unregister(self, race_net, monkeypatch):
        # The engine is added to a copy of the table, which teardown drops.
        monkeypatch.setattr(registry, "_ENGINES", dict(registry._table()))

        @register_engine(
            "test-custom-direct", kind="per-trial", exact=True, summary="test engine"
        )
        class CustomDirect(DirectMethodSimulator):
            method_name = "test-custom-direct"

        assert "test-custom-direct" in registry.names()
        assert registry.get("test-custom-direct").backends == ("numpy", "numba")
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
        monkeypatch.undo()
        assert "test-custom-direct" not in registry.names()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(EnsembleError, match="already registered"):
            register_engine("direct", kind="per-trial", exact=True)(DirectMethodSimulator)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EnsembleError, match="unknown engine kind 'sampled'"):
            register_engine("test-unknown-kind", kind="sampled", exact=True)
        assert "test-unknown-kind" not in registry.names()
