"""Tests for the deterministic functional modules (Section 2.2.1).

Each module is simulated to completion ("settled") and its output compared to
the function it is supposed to compute.  Inputs are kept small so tests are
fast; the A1 benchmark sweeps wider ranges.
"""

from __future__ import annotations

import pytest

from repro.api import Experiment
from repro.core import settle_module
from repro.core.modules import (
    DEFAULT_TIERS,
    assimilation_module,
    exponentiation_module,
    fanout_module,
    isolation_module,
    linear_module,
    logarithm_module,
    power_module,
)
from repro.errors import ModuleCompositionError, SpecificationError


class TestLinearModule:
    @pytest.mark.parametrize("alpha, beta, x0, expected", [
        (1, 1, 7, 7),
        (1, 3, 5, 15),
        (2, 1, 10, 5),
        (6, 1, 10, 1),     # the lambda model's MOI/6 term (floor)
        (2, 3, 10, 15),
    ])
    def test_gain(self, alpha, beta, x0, expected):
        module = linear_module(alpha=alpha, beta=beta)
        result = settle_module(module, {"x": x0}, seed=1)
        assert result.output("y") == expected

    def test_expected_function(self):
        module = linear_module(alpha=2, beta=3)
        assert module.expected_outputs({"x": 10}) == {"y": 15}

    def test_description_and_ports(self):
        module = linear_module(alpha=1, beta=6, input_name="ylog", output_name="y2")
        assert module.input_species("x") == "ylog"
        assert module.output_species("y") == "y2"

    def test_validation(self):
        with pytest.raises(SpecificationError):
            linear_module(alpha=0, beta=1)
        with pytest.raises(SpecificationError):
            linear_module(input_name="x", output_name="x")


class TestExponentiationModule:
    @pytest.mark.parametrize("x0", [0, 1, 2, 3, 4, 5])
    def test_powers_of_two(self, x0):
        module = exponentiation_module()
        result = settle_module(module, {"x": x0}, seed=3)
        assert result.output("y") == 2 ** x0

    def test_initial_output_scales_result(self):
        module = exponentiation_module(initial_output=3)
        result = settle_module(module, {"x": 2}, seed=4)
        assert result.output("y") == 12

    def test_statistics_are_tight(self):
        stats = (
            Experiment.from_module(exponentiation_module())
            .program({"x": 4})
            .simulate(trials=10, seed=5)
            .output_summary()
        )
        assert stats["mean"] == pytest.approx(16, abs=1.5)
        assert stats["expected"] == 16

    def test_validation(self):
        with pytest.raises(SpecificationError):
            exponentiation_module(initial_output=0)
        with pytest.raises(SpecificationError):
            exponentiation_module(input_name="y", output_name="y")


class TestLogarithmModule:
    @pytest.mark.parametrize("x0, expected", [(2, 1), (4, 2), (8, 3), (16, 4), (32, 5)])
    def test_exact_powers_of_two(self, x0, expected):
        module = logarithm_module()
        result = settle_module(module, {"x": x0}, seed=6)
        assert result.output("y") == expected

    def test_x_equals_one_gives_zero(self):
        result = settle_module(logarithm_module(), {"x": 1}, seed=7)
        assert result.output("y") == 0

    def test_non_power_of_two_close_to_floor(self):
        stats = (
            Experiment.from_module(logarithm_module())
            .program({"x": 10})
            .simulate(trials=10, seed=8)
            .output_summary()
        )
        # log2(10) = 3.32; the chemistry gives ~floor values with small spread.
        assert 2.5 <= stats["mean"] <= 4.0

    def test_validation(self):
        with pytest.raises(SpecificationError):
            logarithm_module(trigger_quantity=0)


class TestPowerModule:
    @pytest.mark.parametrize("x0, p0, expected", [
        (2, 0, 1),
        (2, 1, 2),
        (2, 2, 4),
        (3, 2, 9),
        (2, 3, 8),
        (4, 2, 16),
    ])
    def test_small_powers(self, x0, p0, expected):
        module = power_module()
        result = settle_module(module, {"x": x0, "p": p0}, seed=9)
        assert result.output("y") == expected

    def test_uses_all_seven_tiers(self):
        module = power_module()
        rates = {reaction.rate for reaction in module.network.reactions}
        assert len(rates) == len(DEFAULT_TIERS.TIERS)

    def test_validation(self):
        with pytest.raises(SpecificationError):
            power_module(input_name="x", exponent_name="x", output_name="y")
        with pytest.raises(SpecificationError):
            power_module(initial_output=0)


class TestIsolationModule:
    @pytest.mark.parametrize("y0, c0", [(5, 5), (20, 3), (1, 1), (50, 10)])
    def test_leaves_exactly_one(self, y0, c0):
        module = isolation_module(initial_output=y0, initial_catalyst=c0)
        result = settle_module(module, seed=10)
        assert result.output("y") == 1
        assert result.final_state.get("c", 0) == 0

    def test_validation(self):
        with pytest.raises(SpecificationError):
            isolation_module(initial_output=0)
        with pytest.raises(SpecificationError):
            isolation_module(output_name="y", catalyst_name="y")


class TestGlueModules:
    def test_fanout_copies_quantity(self):
        module = fanout_module("moi", ["x1", "x2"])
        result = settle_module(module, {"x": 7}, seed=11)
        assert result.outputs == {"x1": 7, "x2": 7}

    def test_fanout_three_way(self):
        module = fanout_module("inp", ["a1", "a2", "a3"])
        result = settle_module(module, {"x": 4}, seed=12)
        assert set(result.outputs.values()) == {4}

    def test_fanout_validation(self):
        with pytest.raises(SpecificationError):
            fanout_module("x", ["only_one"])
        with pytest.raises(SpecificationError):
            fanout_module("x", ["x", "y"])
        with pytest.raises(SpecificationError):
            fanout_module("x", ["y", "y"])

    def test_assimilation_moves_mass(self):
        module = assimilation_module("e_from", "e_to", "y")
        prepared = module.with_input_quantities({"source": 20, "target": 5, "control": 8})
        result = settle_module(prepared, seed=13)
        assert result.final_state.get("e_from", 0) == 12
        assert result.final_state.get("e_to", 0) == 13

    def test_assimilation_limited_by_source(self):
        module = assimilation_module("e_from", "e_to", "y")
        prepared = module.with_input_quantities({"source": 3, "target": 0, "control": 10})
        result = settle_module(prepared, seed=14)
        assert result.final_state.get("e_to", 0) == 3

    def test_assimilation_validation(self):
        with pytest.raises(SpecificationError):
            assimilation_module("e", "e", "y")
        with pytest.raises(SpecificationError):
            assimilation_module("e1", "e2", "e1")


class TestFunctionalModuleInterface:
    def test_namespacing_keeps_ports(self):
        module = exponentiation_module().namespaced("exp1")
        names = {s.name for s in module.network.species}
        assert "exp1.a" in names         # internal loop species namespaced
        assert "x" in names and "y" in names

    def test_renamed_ports(self):
        module = linear_module().renamed_ports({"y": "downstream_in"})
        assert module.output_species("y") == "downstream_in"
        assert module.network.has_species("downstream_in")

    def test_unknown_port_raises(self):
        with pytest.raises(ModuleCompositionError):
            linear_module().input_species("p")

    def test_expected_outputs_requires_function(self):
        module = linear_module()
        module.expected = None
        with pytest.raises(ModuleCompositionError):
            module.expected_outputs({"x": 1})

    def test_port_must_exist_in_network(self):
        from repro.core.modules.base import FunctionalModule
        from repro.crn import parse_network

        with pytest.raises(ModuleCompositionError):
            FunctionalModule(
                name="broken",
                network=parse_network("a ->{1} b"),
                inputs={"x": "missing"},
                outputs={"y": "b"},
            )
