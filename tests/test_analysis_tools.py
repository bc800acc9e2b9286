"""Tests for curve fitting, tables, ASCII plotting and sensitivity analysis."""

from __future__ import annotations


import numpy as np
import pytest

from repro.analysis import (
    PAPER_EQ14_COEFFICIENTS,
    ascii_chart,
    fit_log_linear,
    format_kv,
    format_table,
    paper_equation_14,
    perturb_initial_quantities,
    perturb_rates,
)
from repro.errors import AnalysisError, FitError


class TestPaperEquation14:
    def test_value_at_one(self):
        """At MOI = 1 the log and linear terms nearly vanish: P ≈ 15.17%."""
        assert paper_equation_14(1) == pytest.approx(15 + 1 / 6)

    def test_value_at_eight(self):
        assert paper_equation_14(8) == pytest.approx(15 + 18 + 8 / 6)

    def test_monotonically_increasing(self):
        values = [paper_equation_14(m) for m in range(1, 11)]
        assert values == sorted(values)

    def test_domain_restriction(self):
        with pytest.raises(FitError):
            paper_equation_14(0.5)

    def test_clipped_to_100(self):
        assert paper_equation_14(10_000) == 100.0


class TestFitLogLinear:
    def test_recovers_paper_coefficients_from_exact_data(self):
        moi = np.arange(1, 11, dtype=float)
        data = 15 + 6 * np.log2(moi) + moi / 6
        fit = fit_log_linear(moi, data)
        assert fit.coefficients == pytest.approx(PAPER_EQ14_COEFFICIENTS, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_coefficients_from_noisy_data(self):
        rng = np.random.default_rng(0)
        moi = np.arange(1, 11, dtype=float)
        data = 15 + 6 * np.log2(moi) + moi / 6 + rng.normal(0, 1.0, moi.size)
        fit = fit_log_linear(moi, data)
        assert fit.intercept == pytest.approx(15, abs=3)
        assert fit.log_coefficient == pytest.approx(6, abs=3)
        assert fit.residual_rms < 2.0

    def test_predict(self):
        fit = fit_log_linear([1, 2, 4, 8], [15.17, 21.33, 27.67, 34.33])
        prediction = fit.predict(4.0)
        assert prediction[0] == pytest.approx(27.67, abs=0.5)
        with pytest.raises(FitError):
            fit.predict(0.0)

    def test_summary_text(self):
        fit = fit_log_linear([1, 2, 4, 8], [15.0, 21.0, 27.0, 33.0])
        assert "log2" in fit.summary()

    @pytest.mark.parametrize(
        "x, y",
        [
            ([1, 2], [1, 2]),                 # too few points
            ([1, 2, 3], [1, 2]),              # length mismatch
            ([0, 1, 2], [1, 2, 3]),           # non-positive MOI
            ([2, 2, 2, 2], [1, 1, 1, 1]),     # rank deficient
        ],
    )
    def test_validation(self, x, y):
        with pytest.raises(FitError):
            fit_log_linear(x, y)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}], title="T")
        assert text.splitlines()[0] == "T"
        assert "0.125" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_kv(self):
        text = format_kv({"gamma": 1000.0, "trials": 5})
        assert "gamma" in text and "1000" in text


class TestAsciiChart:
    def test_chart_contains_series_markers_and_labels(self):
        chart = ascii_chart(
            {"err": [(1, 30.0), (10, 3.0), (100, 0.3)]},
            x_log=True,
            y_log=True,
            x_label="gamma",
            y_label="% err",
            title="Figure 3",
        )
        assert "Figure 3" in chart
        assert "gamma" in chart
        assert "legend: * err" in chart

    def test_multiple_series_get_distinct_markers(self):
        chart = ascii_chart({"a": [(1, 1), (2, 2)], "b": [(1, 2), (2, 1)]})
        assert "* a" in chart and "o b" in chart

    def test_log_axis_rejects_non_positive(self):
        with pytest.raises(AnalysisError):
            ascii_chart({"a": [(0, 1)]}, x_log=True)

    def test_empty_series_rejected(self):
        with pytest.raises(AnalysisError):
            ascii_chart({})


class TestSensitivity:
    def test_perturb_rates_changes_rates_only(self, example1_network):
        perturbed = perturb_rates(example1_network, 0.3, seed=1)
        assert perturbed.size == example1_network.size
        assert perturbed.initial_state == example1_network.initial_state
        changed = [
            perturbed.reaction(i).rate != example1_network.reaction(i).rate
            for i in range(perturbed.size)
        ]
        assert any(changed)

    def test_perturb_rates_category_filter(self, example1_network):
        perturbed = perturb_rates(example1_network, 0.5, seed=2, categories=["working"])
        for i in range(perturbed.size):
            original = example1_network.reaction(i)
            if original.category != "working":
                assert perturbed.reaction(i).rate == original.rate

    def test_perturb_rates_zero_sigma_identity(self, example1_network):
        perturbed = perturb_rates(example1_network, 0.0, seed=3)
        for i in range(perturbed.size):
            assert perturbed.reaction(i).rate == pytest.approx(
                example1_network.reaction(i).rate
            )

    def test_perturb_quantities(self, example1_network):
        perturbed = perturb_initial_quantities(example1_network, 0.3, seed=4)
        originals = example1_network.initial_state.to_dict()
        news = perturbed.initial_state.to_dict()
        assert set(news) <= set(originals) | set(news)
        assert any(news.get(k, 0) != v for k, v in originals.items())

    def test_perturb_quantities_species_filter(self, example1_network):
        perturbed = perturb_initial_quantities(
            example1_network, 0.5, seed=5, species=["e_1"]
        )
        assert perturbed.initial_count("e_2") == example1_network.initial_count("e_2")

    def test_negative_sigma_rejected(self, example1_network):
        with pytest.raises(AnalysisError):
            perturb_rates(example1_network, -0.1)
        with pytest.raises(AnalysisError):
            perturb_initial_quantities(example1_network, -0.1)
