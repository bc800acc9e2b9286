"""Tests for the polynomial composition module (Section 2.2.2 extension)."""

from __future__ import annotations

import pytest

from repro.core import settle_module
from repro.core.modules import polynomial_module
from repro.errors import SpecificationError


class TestPolynomialModule:
    @pytest.mark.parametrize(
        "coefficients, x, expected",
        [
            ([0, 3], 5, 15),            # 3·X
            ([2, 1], 6, 8),             # 2 + X
            ([1, 0, 2], 3, 19),         # 1 + 2·X²
            ([0, 1, 1], 4, 20),         # X + X²
            ([0, 0, 0, 1], 3, 27),      # X³
            ([2, 1, 1], 4, 22),         # 2 + X + X²
        ],
    )
    def test_small_polynomials(self, coefficients, x, expected):
        module = polynomial_module(coefficients)
        result = settle_module(module, {"x": x}, seed=4)
        assert result.output("y") == expected

    def test_zero_input(self):
        module = polynomial_module([3, 1, 1])
        result = settle_module(module, {"x": 0}, seed=5)
        assert result.output("y") == 3

    def test_expected_function(self):
        module = polynomial_module([1, 2, 3])
        assert module.expected_outputs({"x": 2})["y"] == 1 + 4 + 12

    def test_description_lists_terms(self):
        module = polynomial_module([1, 0, 2])
        assert "X^2" in module.description

    @pytest.mark.parametrize(
        "coefficients",
        [[], [-1, 2], [0], [5], [0, 0, 0]],
    )
    def test_validation(self, coefficients):
        with pytest.raises(SpecificationError):
            polynomial_module(coefficients)

    def test_same_input_output_rejected(self):
        with pytest.raises(SpecificationError):
            polynomial_module([0, 1], input_name="x", output_name="x")


class TestMixedRateScaleRegression:
    def test_slow_reaction_statistics_with_extreme_rate_spread(self):
        """Regression test for propensity-total drift in the direct method.

        With reaction rates spanning 24 orders of magnitude, the fast phase
        must not corrupt the statistics of the slow phase: after the burst
        converts ``a`` to ``b``, the two slow reactions drain ``b`` to ``win``
        or ``lose`` with probability 3:1 regardless of the earlier 1e18-rate
        firings.
        """
        from repro.api import Experiment
        from repro.crn import parse_network
        from repro.sim import OutcomeThresholds

        network = parse_network(
            """
            init: a = 20
            a ->{1e18} b
            b ->{3e-6} win
            b ->{1e-6} lose
            """
        )
        result = Experiment.from_network(
            network,
            stopping=OutcomeThresholds({"win": ("win", 1), "lose": ("lose", 1)}),
        ).simulate(trials=600, seed=99).ensemble
        assert result.outcome_distribution()["win"] == pytest.approx(0.75, abs=0.06)
