"""Tests for proportions, goodness of fit and distribution distances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import stats

from repro.analysis import (
    hellinger,
    jensen_shannon,
    kl_divergence,
    normalize,
    total_variation,
    wilson_interval,
)
from repro.errors import AnalysisError


class TestWilsonInterval:
    def test_point_estimate(self):
        estimate = wilson_interval(30, 100)
        assert estimate.estimate == pytest.approx(0.3)
        assert estimate.low < 0.3 < estimate.high
        assert estimate.percent == pytest.approx(30.0)

    def test_interval_shrinks_with_trials(self):
        narrow = wilson_interval(300, 1000)
        wide = wilson_interval(30, 100)
        assert narrow.half_width < wide.half_width

    def test_zero_successes_has_positive_upper_bound(self):
        estimate = wilson_interval(0, 50)
        assert estimate.low == pytest.approx(0.0, abs=1e-9)
        assert 0 < estimate.high < 0.15

    def test_all_successes(self):
        estimate = wilson_interval(50, 50)
        assert estimate.high == 1.0
        assert estimate.low > 0.9

    def test_confidence_level_widens_interval(self):
        assert (
            wilson_interval(30, 100, confidence=0.99).half_width
            > wilson_interval(30, 100, confidence=0.9).half_width
        )

    @pytest.mark.parametrize("successes, trials", [(-1, 10), (11, 10), (0, 0)])
    def test_validation(self, successes, trials):
        with pytest.raises(AnalysisError):
            wilson_interval(successes, trials)

    def test_str(self):
        assert "30/100" in str(wilson_interval(30, 100))


def run_of(counts, target):
    """A RunResult holding only outcome counts (no per-trial columns)."""
    from repro.api.results import RunResult
    from repro.sim.ensemble import EnsembleResult

    empty = np.zeros(0)
    ensemble = EnsembleResult(
        n_trials=sum(counts.values()),
        outcome_counts=dict(counts),
        final_counts=np.zeros((0, 0), dtype=np.int64),
        species=(),
        final_times=empty,
        n_firings=empty.astype(np.int64),
    )
    return RunResult(ensemble=ensemble, target=dict(target))


class TestChiSquared:
    """``RunResult.chi_squared`` is the package's goodness-of-fit statistic."""

    CRITICAL_1DOF_999 = stats.chi2.ppf(0.999, 1)

    def test_consistent_counts_stay_below_the_critical_value(self):
        run = run_of({"a": 298, "b": 702}, {"a": 0.3, "b": 0.7})
        assert run.chi_squared() < self.CRITICAL_1DOF_999

    def test_inconsistent_counts_exceed_the_critical_value(self):
        run = run_of({"a": 500, "b": 500}, {"a": 0.3, "b": 0.7})
        assert run.chi_squared() > self.CRITICAL_1DOF_999

    def test_decided_outcome_outside_the_target_is_infinite(self):
        from repro.api import Experiment
        from repro.core import synthesize_distribution
        from repro.sim.events import CategoryFiringCondition

        system = synthesize_distribution({"a": 0.5, "b": 0.5})
        run = (
            Experiment.from_network(
                system.network, stopping=CategoryFiringCondition("working", 10)
            )
            .targeting({"a": 0.5, "b": 0.5})
            .simulate(trials=200, seed=1)
        )
        assert run.ensemble.outcome_counts == {"working[a]": 100, "working[b]": 100}
        assert run.total_variation() == 1.0
        assert run.chi_squared() == math.inf

    def test_undecided_trials_are_not_counted(self):
        run = run_of({"a": 30, "b": 70, "(undecided)": 5}, {"a": 0.3, "b": 0.7})
        assert run.chi_squared() == pytest.approx(0.0, abs=1e-12)


class TestWilsonBounds:
    """The Wilson interval adaptive runs stop on, pinned bit for bit."""

    PINS = {
        (0, 1): (0.0, 0.7934506856227626),
        (3, 10): (0.10779126740630102, 0.6032218525388546),
        (3877, 9728): (0.3888530153939733, 0.4083076752776965),
        (512, 512): (0.9925530242771171, 0.9999999999999999),
    }

    @pytest.mark.parametrize("successes, n", sorted(PINS))
    def test_ci_half_width_target_interval_is_pinned(self, successes, n):
        from repro.adaptive import CiHalfWidthTarget

        target = CiHalfWidthTarget(outcome="x", half_width=0.01)
        assert target.interval(successes, n) == self.PINS[successes, n]

    @pytest.mark.parametrize("confidence", [0.9, 0.95, 0.99])
    @pytest.mark.parametrize("successes, n", sorted(PINS) + [(0, 50)])
    def test_wilson_interval_equals_the_target_interval(self, successes, n, confidence):
        from repro.adaptive import CiHalfWidthTarget

        target = CiHalfWidthTarget(outcome="x", half_width=0.01, confidence=confidence)
        estimate = wilson_interval(successes, n, confidence)
        assert (estimate.low, estimate.high) == target.interval(successes, n)


class TestDistances:
    def test_normalize(self):
        assert normalize({"a": 2, "b": 2}) == {"a": 0.5, "b": 0.5}

    def test_normalize_validation(self):
        with pytest.raises(AnalysisError):
            normalize({})
        with pytest.raises(AnalysisError):
            normalize({"a": 0.0})
        with pytest.raises(AnalysisError):
            normalize({"a": -1.0, "b": 2.0})

    def test_total_variation_identity(self):
        p = {"a": 0.3, "b": 0.7}
        assert total_variation(p, p) == pytest.approx(0.0)

    def test_total_variation_disjoint(self):
        assert total_variation({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)

    def test_total_variation_symmetry(self):
        p, q = {"a": 0.2, "b": 0.8}, {"a": 0.6, "b": 0.4}
        assert total_variation(p, q) == pytest.approx(total_variation(q, p))

    def test_kl_divergence_zero_on_identical(self):
        p = {"a": 0.4, "b": 0.6}
        assert kl_divergence(p, p) == pytest.approx(0.0)

    def test_kl_divergence_infinite_on_missing_support(self):
        assert math.isinf(kl_divergence({"a": 0.5, "b": 0.5}, {"a": 1.0}))

    def test_kl_known_value(self):
        value = kl_divergence({"a": 1.0, "b": 0.0}, {"a": 0.5, "b": 0.5})
        assert value == pytest.approx(math.log(2))

    def test_jensen_shannon_bounded_and_symmetric(self):
        p, q = {"a": 0.9, "b": 0.1}, {"a": 0.1, "b": 0.9}
        js = jensen_shannon(p, q)
        assert 0 <= js <= math.log(2) + 1e-12
        assert js == pytest.approx(jensen_shannon(q, p))

    def test_hellinger_range(self):
        assert hellinger({"a": 1.0}, {"b": 1.0}) == pytest.approx(1.0)
        assert hellinger({"a": 0.5, "b": 0.5}, {"a": 0.5, "b": 0.5}) == pytest.approx(0.0)

    def test_unnormalized_inputs_accepted(self):
        assert total_variation({"a": 3, "b": 7}, {"a": 0.3, "b": 0.7}) == pytest.approx(0.0)
