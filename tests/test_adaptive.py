"""Adaptive-precision ensembles: targets, controller, facade and plumbing.

The adaptive layer's contract has three load-bearing pieces, each pinned
here:

* **stopping rules** (:mod:`repro.adaptive.targets`) are pure functions of
  merged ensemble statistics with exact descriptor round trips;
* the **sequential controller** only ever extends the ensemble layer's
  worker-invariant chunk schedule, so an adaptive run is bit-identical to
  the prefix of a fixed-budget run — and bit-identical across worker
  counts, *including the number of chunks it decides to consume*;
* everything downstream (store fingerprints, campaign cells, the HTTP
  service, the CLI) treats the declared target — never the realized trial
  count — as the run's identity.
"""

from __future__ import annotations

import argparse
import math
from statistics import NormalDist

import numpy as np
import pytest

from repro.adaptive import (
    DEFAULT_MAX_TRIALS,
    AdaptiveResult,
    CiHalfWidthTarget,
    PrecisionTarget,
    RelativeSETarget,
    SplittingConfig,
    SprtTarget,
    TargetStatus,
    target_from_descriptor,
)
from repro.adaptive.controller import AdaptiveController
from repro.adaptive.result import AdaptiveInfo
from repro.api import Experiment
from repro.crn import Species, parse_network
from repro.errors import AdaptiveError, ExperimentError
from repro.sim import OutcomeThresholds
from repro.sim.events import CategoryFiringCondition
from repro.sim.ensemble import EnsembleResult, ParallelEnsembleRunner
from repro.store import ResultStore, experiment_to_payload, fingerprint_payload
from repro.store.fingerprint import canonical_json


# -- workloads --------------------------------------------------------------------


def race_experiment() -> Experiment:
    """A cheap three-way race (the determinism suite's workload)."""
    network = parse_network(
        """
        init: e1 = 30
        init: e2 = 40
        init: e3 = 30
        e1 ->{1} d1
        e2 ->{1} d2
        e3 ->{1} d3
        """,
        name="race-to-3",
    )
    stopping = OutcomeThresholds({"1": ("d1", 3), "2": ("d2", 3), "3": ("d3", 3)})
    return Experiment.from_network(network, stopping=stopping)


@pytest.fixture(scope="module")
def experiment() -> Experiment:
    return race_experiment()


def make_binomial_ensemble(n: int, successes: int, outcome: str = "hit") -> EnsembleResult:
    """A synthetic merged ensemble with a known success count."""
    counts = {outcome: successes}
    if n - successes:
        counts[EnsembleResult.UNDECIDED] = n - successes
    return EnsembleResult(
        n_trials=n,
        outcome_counts=counts,
        final_counts=np.zeros((n, 1), dtype=np.int64),
        species=(Species("x"),),
        final_times=np.zeros(n),
        n_firings=np.zeros(n, dtype=np.int64),
    )


def make_value_ensemble(values) -> EnsembleResult:
    """A synthetic ensemble whose species ``x`` has the given final counts."""
    values = np.asarray(values, dtype=np.int64)
    return EnsembleResult(
        n_trials=len(values),
        outcome_counts={EnsembleResult.UNDECIDED: len(values)},
        final_counts=values.reshape(-1, 1),
        species=(Species("x"),),
        final_times=np.zeros(len(values)),
        n_firings=np.zeros(len(values), dtype=np.int64),
    )


# -- stopping rules ---------------------------------------------------------------


class TestCiHalfWidthTarget:
    def test_wilson_interval_matches_reference(self):
        # Wilson score interval for 30/100 at 95%: the published closed form.
        target = CiHalfWidthTarget(outcome="hit", half_width=0.5)
        low, high = target.interval(30, 100)
        z = NormalDist().inv_cdf(0.975)
        denominator = 1 + z * z / 100
        center = (0.3 + z * z / 200) / denominator
        spread = z * math.sqrt(0.3 * 0.7 / 100 + z * z / 40_000) / denominator
        assert low == pytest.approx(center - spread)
        assert high == pytest.approx(center + spread)
        assert low == pytest.approx(0.2189, abs=2e-4)
        assert high == pytest.approx(0.3958, abs=2e-4)

    def test_wilson_handles_zero_counts(self):
        target = CiHalfWidthTarget(outcome="hit", half_width=0.1)
        low, high = target.interval(0, 50)
        assert low == 0.0
        assert 0.0 < high < 0.15

    def test_clopper_pearson_is_conservative(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        exact = CiHalfWidthTarget(outcome="hit", half_width=0.5, method="clopper-pearson")
        wilson = CiHalfWidthTarget(outcome="hit", half_width=0.5, method="wilson")
        low, high = exact.interval(30, 100)
        assert low == pytest.approx(float(scipy_stats.beta.ppf(0.025, 30, 71)))
        assert high == pytest.approx(float(scipy_stats.beta.ppf(0.975, 31, 70)))
        w_low, w_high = wilson.interval(30, 100)
        assert high - low >= w_high - w_low  # exact interval is never narrower
        assert exact.interval(0, 40)[0] == 0.0
        assert exact.interval(40, 40)[1] == 1.0

    def test_evaluate_counts_undecided_as_failures(self):
        target = CiHalfWidthTarget(outcome="hit", half_width=0.5)
        status = target.evaluate(make_binomial_ensemble(200, 60))
        assert status.achieved["p_hat"] == pytest.approx(0.3)
        assert status.achieved["n"] == 200.0
        assert status.achieved["successes"] == 60.0

    def test_met_iff_half_width_small_enough(self):
        wide = CiHalfWidthTarget(outcome="hit", half_width=0.2)
        narrow = CiHalfWidthTarget(outcome="hit", half_width=0.01)
        ensemble = make_binomial_ensemble(400, 100)
        assert wide.evaluate(ensemble).met
        assert wide.evaluate(ensemble).detail == "met"
        assert not narrow.evaluate(ensemble).met
        assert narrow.evaluate(ensemble).detail == "unmet"

    def test_empty_ensemble_is_unmet(self):
        target = CiHalfWidthTarget(outcome="hit", half_width=0.9)
        assert target.interval(0, 0) == (0.0, 1.0)

    @pytest.mark.parametrize("method", ["wilson", "clopper-pearson"])
    def test_required_trials_is_the_smallest_sufficient_n(self, method):
        target = CiHalfWidthTarget(outcome="hit", half_width=0.02, method=method)
        ensemble = make_binomial_ensemble(512, 205)
        low, high = target.interval(205, 512)
        plan = min(max(0.5, low), high)  # the interval's point nearest 1/2
        needed = target.required_trials(ensemble)

        def half_width(n):
            ci_low, ci_high = target.interval(round(plan * n), n)
            return (ci_high - ci_low) / 2.0

        assert needed > 512
        assert half_width(needed) <= 0.02 < half_width(needed - 1)

    def test_required_trials_plans_past_the_point_estimate(self):
        # The interval, not p_hat, is the margin: planning at its end nearest
        # 1/2 asks for more than the point estimate alone would.
        target = CiHalfWidthTarget(outcome="hit", half_width=0.01)
        needed = target.required_trials(make_binomial_ensemble(512, 205))
        z = NormalDist().inv_cdf(0.975)
        at_p_hat = z * z * 0.4 * 0.6 / 0.01**2
        assert at_p_hat < needed < 1.1 * at_p_hat

    def test_required_trials_clips_to_max_trials(self):
        target = CiHalfWidthTarget(outcome="hit", half_width=0.001, max_trials=5000)
        assert target.required_trials(make_binomial_ensemble(512, 205)) == 5000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(half_width=0.0),
            dict(half_width=1.0),
            dict(half_width=0.1, confidence=1.0),
            dict(half_width=0.1, method="bogus"),
            dict(half_width=0.1, max_trials=0),
            dict(half_width=0.1, min_trials=-1),
            dict(half_width=0.1, max_trials=10, min_trials=11),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(AdaptiveError):
            CiHalfWidthTarget(outcome="hit", **kwargs)


class TestRelativeSETarget:
    def test_rel_se_matches_sample_statistics(self):
        values = [4, 6, 5, 7, 3, 5, 6, 4]
        target = RelativeSETarget(species="x", rel_se=0.5)
        status = target.evaluate(make_value_ensemble(values))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert status.achieved["mean"] == pytest.approx(mean)
        assert status.achieved["se"] == pytest.approx(se)
        assert status.achieved["rel_se"] == pytest.approx(se / mean)
        assert status.met

    def test_mean_zero_keeps_sampling(self):
        target = RelativeSETarget(species="x", rel_se=0.01)
        status = target.evaluate(make_value_ensemble([0, 0, 0, 0]))
        assert not status.met
        assert status.detail == "mean-zero"

    def test_required_trials_scales_with_the_squared_shortfall(self):
        values = [4, 6, 5, 7, 3, 5, 6, 4]
        target = RelativeSETarget(species="x", rel_se=0.01)
        ensemble = make_value_ensemble(values)
        relative = target.evaluate(ensemble).achieved["rel_se"]
        assert target.required_trials(ensemble) == math.ceil(
            len(values) * (relative / 0.01) ** 2
        )

    @pytest.mark.parametrize("values", [[0, 0, 0, 0], [5]])
    def test_required_trials_undefined_keeps_doubling(self, values):
        target = RelativeSETarget(species="x", rel_se=0.01)
        assert target.required_trials(make_value_ensemble(values)) is None

    def test_validation(self):
        with pytest.raises(AdaptiveError):
            RelativeSETarget(species="x", rel_se=0.0)
        with pytest.raises(AdaptiveError):
            RelativeSETarget(species="x", rel_se=0.1, max_trials=-5)


class TestSprtTarget:
    def test_boundaries_are_walds(self):
        target = SprtTarget(outcome="hit", p0=0.1, p1=0.2, alpha=0.05, beta=0.1)
        assert target.upper_boundary == pytest.approx(math.log(0.9 / 0.05))
        assert target.lower_boundary == pytest.approx(math.log(0.1 / 0.95))

    def test_clear_evidence_decides(self):
        target = SprtTarget(outcome="hit", p0=0.1, p1=0.3)
        high = target.evaluate(make_binomial_ensemble(200, 80))  # p_hat 0.4 >> p1
        assert high.met and high.detail == "accept-h1"
        low = target.evaluate(make_binomial_ensemble(200, 4))  # p_hat 0.02 << p0
        assert low.met and low.detail == "accept-h0"
        few = target.evaluate(make_binomial_ensemble(3, 1))
        assert not few.met and few.detail == "undecided"

    def test_llr_value(self):
        target = SprtTarget(outcome="hit", p0=0.2, p1=0.4)
        status = target.evaluate(make_binomial_ensemble(50, 15))
        expected = 15 * math.log(2.0) + 35 * math.log(0.6 / 0.8)
        assert status.achieved["llr"] == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(AdaptiveError, match="p0 < p1"):
            SprtTarget(outcome="hit", p0=0.3, p1=0.2)
        with pytest.raises(AdaptiveError):
            SprtTarget(outcome="hit", p0=0.0, p1=0.2)
        with pytest.raises(AdaptiveError):
            SprtTarget(outcome="hit", p0=0.1, p1=0.2, alpha=1.5)


# -- descriptor round trips -------------------------------------------------------


ROUND_TRIP_TARGETS = [
    CiHalfWidthTarget(outcome="1", half_width=0.02, confidence=0.9,
                      method="clopper-pearson", max_trials=5000, min_trials=100),
    CiHalfWidthTarget(outcome="rare", half_width=0.005),
    RelativeSETarget(species="d1", rel_se=0.05, max_trials=20_000),
    SprtTarget(outcome="2", p0=0.25, p1=0.35, alpha=0.01, beta=0.02),
    SplittingConfig(outcome="rare", trials_per_level=128),
    SplittingConfig(outcome="rare", trials_per_level=64, levels=(2, 4, 8)),
    SplittingConfig(outcome="rare", trials_per_level=64, n_levels=3, confidence=0.99),
]


class TestDescriptors:
    @pytest.mark.parametrize("target", ROUND_TRIP_TARGETS, ids=lambda t: t.rule)
    def test_round_trip_is_exact(self, target):
        descriptor = target.to_descriptor()
        assert target_from_descriptor(descriptor) == target
        # Descriptors are canonical-JSON clean (finite floats, sorted-safe).
        assert canonical_json(descriptor)

    def test_unknown_type_rejected(self):
        with pytest.raises(AdaptiveError, match="unknown adaptive target"):
            target_from_descriptor({"type": "psychic"})

    def test_predicting_targets_carry_the_schedule_version(self):
        # The CI and rel-se rules size rounds by their predicted shortfall,
        # so their store identity names the schedule; the rest do not.
        keyed = {
            target.rule: target.to_descriptor().get("schedule")
            for target in ROUND_TRIP_TARGETS
        }
        assert keyed == {
            "ci-half-width": 2, "rel-se": 2, "sprt": None, "splitting": None,
        }

    @pytest.mark.parametrize("target", ROUND_TRIP_TARGETS[:3], ids=lambda t: t.rule)
    def test_schedule_key_absent_or_current(self, target):
        descriptor = target.to_descriptor()
        del descriptor["schedule"]
        assert target_from_descriptor(descriptor) == target
        for stale in (1, 3, "2"):
            with pytest.raises(AdaptiveError, match="schedule"):
                target_from_descriptor({**descriptor, "schedule": stale})

    @pytest.mark.parametrize(
        "descriptor, field",
        [
            ({"type": "ci-half-width", "half_width": 0.01}, "outcome"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": "abc"}, "half_width"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": 0.01,
              "max_trials": 1.5}, "max_trials"),
            ({"type": "rel-se", "species": "x"}, "rel_se"),
            ({"type": "rel-se", "species": "x", "rel_se": 0.1,
              "min_trials": 2.5}, "min_trials"),
            ({"type": "sprt", "outcome": "1", "p0": 0.1}, "p1"),
            ({"type": "sprt", "outcome": "1", "p0": 0.1, "p1": [0.2]}, "p1"),
            ({"type": "splitting", "trials_per_level": 64}, "outcome"),
            ({"type": "splitting", "outcome": "r", "levels": [2, 4.5]}, "levels"),
            ({"type": "splitting", "outcome": "r", "n_levels": "many"}, "n_levels"),
        ],
    )
    def test_malformed_descriptor_names_the_field(self, descriptor, field):
        with pytest.raises(AdaptiveError, match=repr(field)):
            target_from_descriptor(descriptor)

    def test_non_mapping_descriptor_rejected(self):
        with pytest.raises(AdaptiveError, match="mapping"):
            target_from_descriptor(["ci-half-width"])

    def test_round_trip_property(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=50, deadline=None)
        @given(
            half_width=st.floats(min_value=1e-6, max_value=0.999,
                                 allow_nan=False, allow_infinity=False),
            confidence=st.floats(min_value=0.5, max_value=0.999,
                                 allow_nan=False, allow_infinity=False),
            max_trials=st.integers(min_value=1, max_value=10**6),
            method=st.sampled_from(["wilson", "clopper-pearson"]),
        )
        def round_trips(half_width, confidence, max_trials, method):
            target = CiHalfWidthTarget(
                outcome="hit", half_width=half_width, confidence=confidence,
                max_trials=max_trials, method=method,
            )
            assert target_from_descriptor(target.to_descriptor()) == target

        round_trips()


# -- the sequential controller ----------------------------------------------------


class TestController:
    def runner(self, experiment, workers=1, chunk_size=64, backend=None):
        network, stopping, classifier = experiment._resolved()
        options = experiment.options or experiment._default_options()
        return ParallelEnsembleRunner(
            network,
            engine="direct",
            stopping=stopping,
            outcome_classifier=classifier,
            options=options,
            workers=workers,
            chunk_size=chunk_size,
        )

    def test_requires_seed(self, experiment):
        target = CiHalfWidthTarget(outcome="1", half_width=0.1)
        controller = AdaptiveController(self.runner(experiment), target)
        with pytest.raises(AdaptiveError, match="must be seeded"):
            controller.run(None)

    def test_requires_precision_target(self, experiment):
        with pytest.raises(AdaptiveError, match="PrecisionTarget"):
            AdaptiveController(self.runner(experiment), target="not-a-target")

    @staticmethod
    def round_totals(monkeypatch) -> "list[int]":
        """Record the cumulative chunk count after each controller round."""
        totals: list[int] = []
        run_chunks = ParallelEnsembleRunner.run_chunks

        def recording(runner, bounds, *args, **kwargs):
            totals.append((totals[-1] if totals else 0) + len(bounds))
            return run_chunks(runner, bounds, *args, **kwargs)

        monkeypatch.setattr(ParallelEnsembleRunner, "run_chunks", recording)
        return totals

    def test_example1_rounds_stop_at_the_predicted_shortfall(self, monkeypatch):
        # Example 1 at ±0.01 needs ~9.5k trials planned at the interval's end
        # nearest 1/2: the sixth round stops at 19 chunks where doubling
        # would run 32 (16,384 trials).
        totals = self.round_totals(monkeypatch)
        example1 = Experiment.from_distribution(
            {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
        )
        result = example1.simulate(
            until=CiHalfWidthTarget(outcome="2", half_width=0.01), seed=5,
            engine="batch-direct", chunk_size=512, backend="numpy",
        )
        assert result.met
        assert totals == [1, 2, 4, 8, 16, 19]
        assert (result.chunks_consumed, result.trials, result.rounds) == (19, 9728, 6)

    @pytest.mark.parametrize(
        "target",
        [
            CiHalfWidthTarget(outcome="1", half_width=0.02, max_trials=8192),
            CiHalfWidthTarget(outcome="2", half_width=0.03, method="clopper-pearson",
                              max_trials=8192),
            RelativeSETarget(species="d1", rel_se=0.02, max_trials=8192),
        ],
        ids=["wilson", "clopper-pearson", "rel-se"],
    )
    def test_each_round_grows_by_one_chunk_to_double(self, experiment, monkeypatch, target):
        totals = self.round_totals(monkeypatch)
        merged, info = AdaptiveController(self.runner(experiment), target).run(5)
        assert info.met
        assert len(totals) == info.rounds >= 3
        assert totals[-1] == info.chunks and merged.n_trials == info.chunks * 64
        for before, after in zip(totals, totals[1:]):
            assert before + 1 <= after <= 2 * before

    def test_sprt_rounds_consume_power_of_two_chunks(self, experiment):
        target = SprtTarget(outcome="1", p0=0.25, p1=0.3, max_trials=8192)
        merged, info = AdaptiveController(self.runner(experiment), target).run(5)
        assert info.met
        assert info.chunks & (info.chunks - 1) == 0 and info.chunks >= 4
        assert info.rounds == int(math.log2(info.chunks)) + 1

    def test_target_without_a_prediction_doubles(self, experiment, monkeypatch):
        class AtLeast(PrecisionTarget):
            """Met once 600 trials ran; no ``required_trials`` override."""

            rule = "at-least"
            max_trials = 8192

            def evaluate(self, ensemble):
                met = ensemble.n_trials >= 600
                return TargetStatus(met=met, detail="met" if met else "unmet", achieved={})

            def to_descriptor(self):
                return {"type": self.rule}

        totals = self.round_totals(monkeypatch)
        merged, info = AdaptiveController(self.runner(experiment), AtLeast()).run(5)
        assert totals == [1, 2, 4, 8, 16]
        assert (info.chunks, info.rounds, merged.n_trials) == (16, 5, 1024)

    def test_adaptive_run_is_prefix_of_fixed_run(self, experiment):
        target = CiHalfWidthTarget(outcome="1", half_width=0.05, max_trials=8192)
        runner = self.runner(experiment)
        merged, info = AdaptiveController(runner, target).run(11)
        fixed = runner.run(n_trials=merged.n_trials, seed=11)
        assert merged.outcome_counts == fixed.outcome_counts
        assert np.array_equal(merged.final_counts, fixed.final_counts)
        assert np.array_equal(merged.final_times, fixed.final_times)
        assert np.array_equal(merged.n_firings, fixed.n_firings)

    def test_budget_exhaustion_clips_to_max_trials(self, experiment):
        # half_width 0.001 needs ~1e6 trials; the ceiling (not a chunk
        # multiple, deliberately) must clip the final chunk.
        target = CiHalfWidthTarget(outcome="1", half_width=0.001, max_trials=100)
        merged, info = AdaptiveController(self.runner(experiment), target).run(3)
        assert not info.met
        assert info.detail == "unmet"
        assert merged.n_trials == 100

    def test_min_trials_floor_is_respected(self, experiment):
        target = CiHalfWidthTarget(
            outcome="1", half_width=0.2, max_trials=4096, min_trials=200
        )
        merged, info = AdaptiveController(self.runner(experiment), target).run(5)
        assert merged.n_trials >= 200
        # The floor is revealed in one first round: ceil(200/64) = 4 chunks.
        assert info.chunks >= 4


class TestSequentialCoverage:
    """The sequential CI still covers the exact answer at its nominal rate.

    Stopping on the data's own interval can erode coverage; planning each
    round at the interval's end nearest 1/2 must not make it worse.  The
    oracle is the FSP probability pinned in ``tests/test_fsp_pins.py``.
    """

    EXACT_D1 = 0.2232203895891452  # triple-race, P(d1), FSP

    def test_ci_covers_the_fsp_oracle(self):
        from repro.zoo import load_model

        experiment = load_model("triple-race").experiment()
        target = CiHalfWidthTarget(outcome="d1", half_width=0.03)
        results = [
            experiment.simulate(until=target, seed=seed, engine="batch-direct",
                                chunk_size=64, backend="numpy")
            for seed in range(300)
        ]
        assert all(result.met for result in results)
        covered = [
            result.achieved["ci_low"] <= self.EXACT_D1 <= result.achieved["ci_high"]
            for result in results
        ]
        assert np.mean(covered) >= 0.90
        assert np.mean([result.trials for result in results]) <= 900


# -- the facade: simulate(until=...) ----------------------------------------------


class TestSimulateUntil:
    def test_returns_adaptive_result(self, experiment):
        target = CiHalfWidthTarget(outcome="1", half_width=0.05, max_trials=4096)
        result = experiment.simulate(until=target, seed=7, chunk_size=256)
        assert isinstance(result, AdaptiveResult)
        assert result.stopping_rule == "ci-half-width"
        assert result.met
        assert result.trials == result.chunks_consumed * 256
        assert result.achieved["ci_half_width"] <= 0.05
        assert result.adaptive.until == target.to_descriptor()
        assert "adaptive [ci-half-width]" in result.summary()

    def test_trials_argument_is_ignored(self, experiment):
        target = CiHalfWidthTarget(outcome="1", half_width=0.05, max_trials=4096)
        first = experiment.simulate(until=target, seed=7, chunk_size=256, trials=10)
        second = experiment.simulate(until=target, seed=7, chunk_size=256, trials=9999)
        assert first.to_json() == second.to_json()

    def test_sprt_decides(self, experiment):
        # Outcome "2" has the largest propensity share; is P("2") >= 0.25?
        target = SprtTarget(outcome="2", p0=0.15, p1=0.25, max_trials=8192)
        result = experiment.simulate(until=target, seed=13, chunk_size=256)
        assert result.met
        assert result.adaptive.detail == "accept-h1"

    def test_rel_se_on_species_mean(self, experiment):
        target = RelativeSETarget(species="d1", rel_se=0.05, max_trials=8192)
        result = experiment.simulate(until=target, seed=17, chunk_size=256)
        assert result.met
        assert result.achieved["rel_se"] <= 0.05
        assert result.achieved["mean"] > 0.0


class TestSynthesizedOutcomeAlias:
    """Synthesized designs run without a classifier label outcomes ``working[<label>]``.

    The CLI path (``repro simulate design.json --until-...``) loads a raw
    network, so the ensemble's outcome keys are the stop details
    ``working[a]`` — a bare ``outcome="a"`` must count those trials instead
    of silently estimating p=0 for a key that never occurs.
    """

    def test_bare_label_falls_back_to_working_alias(self):
        ensemble = make_binomial_ensemble(100, 30, outcome="working[a]")
        status = CiHalfWidthTarget(outcome="a", half_width=0.5).evaluate(ensemble)
        assert status.achieved["successes"] == 30
        assert status.achieved["p_hat"] == pytest.approx(0.3)

    def test_exact_label_wins_over_alias(self):
        ensemble = EnsembleResult(
            n_trials=100,
            outcome_counts={"a": 10, "working[a]": 20, EnsembleResult.UNDECIDED: 70},
            final_counts=np.zeros((100, 1), dtype=np.int64),
            species=(Species("x"),),
            final_times=np.zeros(100),
            n_firings=np.zeros(100, dtype=np.int64),
        )
        status = CiHalfWidthTarget(outcome="a", half_width=0.5).evaluate(ensemble)
        assert status.achieved["successes"] == 10

    def test_sprt_uses_the_alias_too(self):
        ensemble = make_binomial_ensemble(512, 170, outcome="working[a]")
        status = SprtTarget(outcome="a", p0=0.1, p1=0.3).evaluate(ensemble)
        assert status.met
        assert status.detail == "accept-h1"

    def test_synthesized_design_estimates_the_programmed_probability(self):
        from repro import synthesize_distribution

        system = synthesize_distribution({"a": 0.3, "b": 0.7}, gamma=100)
        experiment = Experiment.from_network(
            system.network, stopping=CategoryFiringCondition("working", 10)
        )
        target = CiHalfWidthTarget(outcome="a", half_width=0.05, max_trials=4096)
        result = experiment.simulate(until=target, seed=42, chunk_size=256)
        assert result.achieved["successes"] > 0
        assert result.achieved["p_hat"] == pytest.approx(0.3, abs=0.1)


class TestWorkerInvariance:
    """The satellite contract: worker count never changes an adaptive run."""

    TARGET = CiHalfWidthTarget(outcome="1", half_width=0.06, max_trials=2048)

    @pytest.fixture(scope="class")
    def reference(self, request):
        return race_experiment().simulate(
            until=self.TARGET, seed=29, chunk_size=128, workers=1, backend="numpy"
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, reference, workers):
        experiment = race_experiment()
        result = experiment.simulate(
            until=self.TARGET, seed=29, chunk_size=128, workers=workers,
            backend="numpy",
        )
        # Chunk consumption — the controller's *decisions* — must match, not
        # just the merged statistics.
        assert result.chunks_consumed == reference.chunks_consumed
        assert result.rounds == reference.rounds
        expected = reference.to_payload()
        actual = result.to_payload()
        expected.pop("workers")
        actual.pop("workers")
        assert canonical_json(actual) == canonical_json(expected)


# -- hardening: rejected combinations ---------------------------------------------


class TestAdaptiveErrors:
    TARGET = CiHalfWidthTarget(outcome="1", half_width=0.1)

    def test_error_type_is_experiment_error(self):
        assert issubclass(AdaptiveError, ExperimentError)

    def test_rejects_non_target(self, experiment):
        with pytest.raises(AdaptiveError, match="until= must be"):
            experiment.simulate(until=42, seed=1)

    def test_rejects_unseeded(self, experiment):
        with pytest.raises(AdaptiveError, match="must be seeded"):
            experiment.simulate(until=self.TARGET)

    def test_rejects_keep_trajectories(self, experiment):
        with pytest.raises(AdaptiveError, match="keep_trajectories"):
            experiment.simulate(until=self.TARGET, seed=1, keep_trajectories=True)

    @pytest.mark.parametrize("engine", ["fsp", "ode"])
    def test_rejects_non_sampling_engines(self, experiment, engine):
        with pytest.raises(AdaptiveError, match="does not sample"):
            experiment.simulate(until=self.TARGET, seed=1, engine=engine)

    def test_rejects_splitting_on_batched_engine(self, experiment):
        config = SplittingConfig(outcome="1", trials_per_level=16)
        with pytest.raises(AdaptiveError, match="batched engine"):
            experiment.simulate(until=config, seed=1, engine="batch-direct")


# -- store identity and byte-identical caching ------------------------------------


class TestStoreIntegration:
    TARGET = CiHalfWidthTarget(outcome="1", half_width=0.06, max_trials=2048)

    def test_warm_hit_is_bit_identical(self, tmp_path, experiment):
        store = ResultStore(tmp_path / "store")
        cold = experiment.simulate(
            until=self.TARGET, seed=7, chunk_size=256, store=store, workers=1
        )
        # The warm request even asks for a different worker count: the
        # fingerprint ignores it, and the artifact comes back untouched.
        warm = experiment.simulate(
            until=self.TARGET, seed=7, chunk_size=256, store=store, workers=2
        )
        assert isinstance(warm, AdaptiveResult)
        assert canonical_json(warm.to_payload()) == canonical_json(cold.to_payload())
        assert store.stats()["artifacts"] == 1

    def test_store_round_trip_restores_adaptive_record(self, tmp_path, experiment):
        store = ResultStore(tmp_path / "store")
        cold = experiment.simulate(
            until=self.TARGET, seed=7, chunk_size=256, store=store
        )
        payload = experiment_to_payload(
            experiment, trials=1000, engine="direct", seed=7,
            chunk_size=256, until=self.TARGET,
        )
        loaded = store.load_run(fingerprint_payload(payload))
        assert isinstance(loaded, AdaptiveResult)
        assert loaded.adaptive == cold.adaptive
        assert loaded.chunks_consumed == cold.chunks_consumed

    def test_fingerprint_ignores_trial_count(self, experiment):
        payloads = [
            experiment_to_payload(
                experiment, trials=trials, engine="direct", seed=7, until=self.TARGET
            )
            for trials in (10, 100_000)
        ]
        assert payloads[0]["simulate"]["trials"] is None
        assert fingerprint_payload(payloads[0]) == fingerprint_payload(payloads[1])

    def test_fingerprint_tracks_target_parameters(self, experiment):
        narrow = CiHalfWidthTarget(outcome="1", half_width=0.05)
        narrower = CiHalfWidthTarget(outcome="1", half_width=0.01)
        keys = {
            fingerprint_payload(
                experiment_to_payload(
                    experiment, trials=100, engine="direct", seed=7, until=target
                )
            )
            for target in (narrow, narrower)
        }
        assert len(keys) == 2

    def test_equivalent_until_spellings_share_a_key(self, experiment):
        full = experiment_to_payload(
            experiment, trials=100, engine="direct", seed=7,
            until=CiHalfWidthTarget(outcome="1", half_width=0.05),
        )
        assert full["simulate"]["until"]["schedule"] == 2
        spellings = [
            {"type": "ci-half-width", "outcome": "1", "half_width": 0.05},
            {"type": "ci-half-width", "outcome": "1", "half_width": 0.05,
             "max_trials": 100_000.0, "method": "wilson"},
            dict(full["simulate"]["until"]),
        ]
        keys = {fingerprint_payload(full)}
        for until in spellings:
            payload = dict(full)
            payload["simulate"] = {**full["simulate"], "until": until}
            keys.add(fingerprint_payload(payload))
        assert len(keys) == 1

    def test_invalid_until_fails_before_lookup(self, tmp_path, experiment):
        from repro.store.canonical import cached_run

        payload = experiment_to_payload(
            experiment, trials=100, engine="direct", seed=7, until=self.TARGET
        )
        payload["simulate"]["until"] = {"type": "ci-half-width", "half_width": 0.05}
        store = ResultStore(tmp_path / "store")
        with pytest.raises(AdaptiveError, match="'outcome'"):
            cached_run(store, payload)
        assert store.stats()["artifacts"] == 0

    def test_fixed_runs_keep_their_historical_fingerprint(self, experiment):
        # No `until` key at all for fixed-budget payloads — adding one (even
        # as null) would shift every pre-adaptive fingerprint on disk.
        payload = experiment_to_payload(experiment, trials=100, engine="direct", seed=7)
        assert "until" not in payload["simulate"]


# -- campaign cells ---------------------------------------------------------------


class TestCampaignIntegration:
    def test_adaptive_cells_run_and_tabulate(self, tmp_path, experiment):
        from repro.store import Campaign, CampaignRunner

        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        campaign = Campaign.grid(
            "adaptive-grid", experiment, engines=("direct",), seeds=(3, 5),
            chunk_size=256, until=target,
        )
        outcome = CampaignRunner(tmp_path / "store").run(campaign)
        assert not outcome.failures()
        rows = outcome.rows()
        assert [row["trials"] for row in rows] == ["ci-half-width", "ci-half-width"]
        store = ResultStore(tmp_path / "store")
        for cell_outcome in outcome.outcomes:
            loaded = store.load_run(cell_outcome.key)
            assert isinstance(loaded, AdaptiveResult)
            assert loaded.met

    def test_resume_computes_nothing(self, tmp_path, experiment):
        from repro.store import Campaign, CampaignRunner

        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        campaign = Campaign.grid(
            "adaptive-grid", experiment, engines=("direct",), seeds=(3,),
            chunk_size=256, until=target,
        )
        runner = CampaignRunner(tmp_path / "store")
        first = runner.run(campaign)
        second = runner.run(campaign)
        assert [o.status for o in first.outcomes] == ["computed"]
        assert [o.status for o in second.outcomes] == ["cached"]
        assert first.outcomes[0].key == second.outcomes[0].key


# -- parameter sweeps -------------------------------------------------------------


class TestSweepIntegration:
    def test_until_applies_at_every_grid_point(self):
        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        results = [
            race_experiment().simulate(seed=seed, chunk_size=256, until=target)
            for seed in (5, 6)
        ]
        assert all(
            isinstance(result, AdaptiveResult)
            and result.stopping_rule == "ci-half-width"
            and result.met
            for result in results
        )


# -- the HTTP service -------------------------------------------------------------


class TestServiceIntegration:
    @pytest.fixture
    def service(self, tmp_path):
        from repro.service import ResultService

        service = ResultService(tmp_path / "store", port=0, quiet=True).start()
        yield service
        service.stop()

    def test_adaptive_round_trip_over_the_wire(self, service, experiment):
        from repro.client import ServiceClient

        client = ServiceClient(service.url, timeout=120.0)
        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        kwargs = dict(engine="direct", seed=7, chunk_size=256, until=target)
        miss = client.simulate_entry(experiment, **kwargs)
        hit = client.simulate_entry(experiment, **kwargs)
        assert not miss.cached and hit.cached
        assert miss.key == hit.key
        for reply in (miss, hit):
            assert isinstance(reply.result, AdaptiveResult)
            assert reply.result.met
        assert canonical_json(hit.result.to_payload()) == canonical_json(
            miss.result.to_payload()
        )

    def test_reply_flags_adaptive_runs(self, service, experiment):
        from repro.client import ServiceClient

        client = ServiceClient(service.url, timeout=120.0)
        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        payload = experiment_to_payload(
            experiment, trials=100, engine="direct", seed=7,
            chunk_size=256, until=target,
        )
        document = client._request("/simulate", body={"experiment": payload})
        assert document["adaptive"] is True
        fixed = experiment_to_payload(experiment, trials=64, engine="direct", seed=7)
        document = client._request("/simulate", body={"experiment": fixed})
        assert document["adaptive"] is False


# -- result payload round trip ----------------------------------------------------


class TestAdaptiveResultPayload:
    def test_json_round_trip_dispatches_to_adaptive(self, experiment):
        from repro.api import RunResult

        target = CiHalfWidthTarget(outcome="1", half_width=0.08, max_trials=2048)
        result = experiment.simulate(until=target, seed=7, chunk_size=256)
        restored = RunResult.from_json(result.to_json())
        assert isinstance(restored, AdaptiveResult)
        assert restored.to_json() == result.to_json()
        assert restored.adaptive == result.adaptive

    def test_fixed_results_stay_plain(self, experiment):
        from repro.api import RunResult

        result = experiment.simulate(trials=64, seed=7)
        restored = RunResult.from_json(result.to_json())
        assert type(restored) is RunResult

    def test_info_round_trip(self):
        info = AdaptiveInfo(
            rule="sprt", until={"type": "sprt"}, chunks=4, rounds=3,
            met=True, detail="accept-h0", achieved={"n": 256.0},
            rare=None,
        )
        assert AdaptiveInfo.from_payload(info.to_payload()) == info


# -- CLI flags --------------------------------------------------------------------


class TestCliFlags:
    def parse(self, *argv):
        from repro.cli import _until_from, build_parser

        args = build_parser().parse_args(["simulate", "net.json", *argv])
        return _until_from(args)

    def test_no_flags_means_fixed_budget(self):
        assert self.parse() is None

    def test_ci_half_width_flags(self):
        target = self.parse(
            "--until-ci-halfwidth", "0.02", "--until-outcome", "1",
            "--until-confidence", "0.9", "--until-max-trials", "5000",
        )
        assert target == CiHalfWidthTarget(
            outcome="1", half_width=0.02, confidence=0.9, max_trials=5000
        )

    def test_rel_se_flags(self):
        target = self.parse("--until-rel-se", "0.05", "--until-species", "d1")
        assert target == RelativeSETarget(
            species="d1", rel_se=0.05, max_trials=DEFAULT_MAX_TRIALS
        )

    def test_splitting_flags(self):
        target = self.parse(
            "--splitting-trials", "128", "--until-outcome", "rare",
            "--splitting-levels", "4",
        )
        assert target == SplittingConfig(
            outcome="rare", trials_per_level=128, n_levels=4, confidence=0.95
        )

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (
                ["--until-ci-halfwidth", "0.1", "--until-rel-se", "0.1",
                 "--until-outcome", "1", "--until-species", "d1"],
                "mutually exclusive",
            ),
            (["--until-ci-halfwidth", "0.1"], "requires --until-outcome"),
            (["--until-rel-se", "0.1"], "requires --until-species"),
            (["--splitting-trials", "64"], "requires --until-outcome"),
            (["--splitting-levels", "4"], "requires --splitting-trials"),
        ],
    )
    def test_flag_conflicts(self, argv, message):
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            self.parse(*argv)

    def test_example1_runs_adaptively(self, capsys):
        from repro.cli import main

        code = main([
            "example1", "--until-ci-halfwidth", "0.1",
            "--until-outcome", "1", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive [ci-half-width]" in out
