"""Tests for module composition (Section 2.2.2) and module settling."""

from __future__ import annotations

import pytest

from repro.core import SystemComposer, default_horizon, settle_module
from repro.core.modules import (
    exponentiation_module,
    fanout_module,
    linear_module,
    logarithm_module,
)
from repro.errors import ModuleCompositionError, SimulationError
from repro.sim import DirectMethodSimulator, SimulationOptions


class TestSystemComposer:
    def test_two_instances_of_same_module_do_not_collide(self):
        """Two linear modules both use internal naming but must stay distinct."""
        composer = SystemComposer("pair")
        composer.add_module("double", linear_module(alpha=1, beta=2,
                                                    input_name="x", output_name="mid"))
        composer.add_module("triple", linear_module(alpha=1, beta=3,
                                                    input_name="mid", output_name="out"))
        network = composer.build(initial={"x": 4})
        result = DirectMethodSimulator(network, seed=1).run()
        # x=4 -> mid=8 -> out=24
        assert result.final_count("out") == 24

    def test_chained_log_then_gain(self):
        """log2 followed by a gain of 6 computes the lambda model's 6·log2(MOI)."""
        composer = SystemComposer("chain")
        composer.add_module("log", logarithm_module(input_name="moi", output_name="ylog"))
        composer.add_module("gain", linear_module(alpha=1, beta=6,
                                                  input_name="ylog", output_name="y2"))
        network = composer.build(initial={"moi": 8})
        trajectory = DirectMethodSimulator(network, seed=2).run(
            options=SimulationOptions(max_time=1.0, record_firings=False)
        )
        assert trajectory.final_count("y2") == 18

    def test_fanout_feeds_two_branches(self):
        composer = SystemComposer("branches")
        composer.add_module("split", fanout_module("inp", ["a_in", "b_in"]))
        composer.add_module("da", linear_module(alpha=1, beta=2, input_name="a_in",
                                                output_name="a_out"))
        composer.add_module("db", linear_module(alpha=2, beta=1, input_name="b_in",
                                                output_name="b_out"))
        network = composer.build(initial={"inp": 6})
        result = DirectMethodSimulator(network, seed=3).run()
        assert result.final_count("a_out") == 12
        assert result.final_count("b_out") == 3

    def test_connections_rename_ports(self):
        composer = SystemComposer("wired")
        placed = composer.add_module(
            "exp", exponentiation_module(), connections={"y": "stage_two_input"}
        )
        assert placed.output_species("y") == "stage_two_input"
        network = composer.build(initial={"x": 3})
        result = DirectMethodSimulator(network, seed=4).run()
        assert result.final_count("stage_two_input") == 8

    def test_duplicate_instance_name_rejected(self):
        composer = SystemComposer()
        composer.add_module("m", linear_module())
        with pytest.raises(ModuleCompositionError):
            composer.add_module("m", linear_module())

    def test_unknown_connection_species_rejected(self):
        composer = SystemComposer()
        with pytest.raises(ModuleCompositionError):
            composer.add_module("m", linear_module(), connections={"nonport": "z"})

    def test_instances_and_lookup(self):
        composer = SystemComposer()
        composer.add_module("a", linear_module())
        composer.add_module("b", exponentiation_module(input_name="y", output_name="z"))
        assert composer.instances == ("a", "b")
        assert composer.instance("a").name == "linear"
        with pytest.raises(ModuleCompositionError):
            composer.instance("c")

    def test_metadata_records_composition(self):
        composer = SystemComposer("meta")
        composer.add_module("a", linear_module())
        network = composer.build()
        recorded = network.metadata["composition"]["instances"]
        assert recorded[0]["name"] == "a"
        assert recorded[0]["kind"] == "linear"

    def test_add_reaction_glue(self):
        composer = SystemComposer()
        composer.add_module("a", linear_module())
        composer.add_reaction({"y": 1}, {"z": 1}, rate=1e6, name="glue[y->z]")
        network = composer.build(initial={"x": 5})
        result = DirectMethodSimulator(network, seed=5).run()
        assert result.final_count("z") == 5


class TestRuntime:
    def test_default_horizon_scales_with_slowest_rate(self):
        module = linear_module(tiers=None, tier="slow")
        horizon = default_horizon(module, rounds=100)
        slowest = min(r.rate for r in module.network.reactions)
        assert horizon == pytest.approx(100 / slowest)

    def test_settle_respects_inputs_by_role(self):
        module = linear_module(alpha=1, beta=4)
        assert settle_module(module, {"x": 3}, seed=1).output("y") == 12

    def test_module_ensemble_validation(self):
        from repro.api import Experiment

        experiment = Experiment.from_module(linear_module()).program({"x": 1})
        with pytest.raises(SimulationError, match="n_trials must be positive"):
            experiment.simulate(trials=0)

    def test_settle_result_contains_diagnostics(self):
        result = settle_module(linear_module(), {"x": 2}, seed=2)
        assert result.n_firings == 2
        assert result.stop_reason in ("exhausted", "max_time")
        assert result.final_state["y"] == 2
