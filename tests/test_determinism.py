"""Determinism regressions: a fixed seed pins every engine bit-for-bit.

Reproducibility is a correctness contract here, not a convenience: the
conformance suite's chi-squared thresholds, the archived benchmark reports
and the JSON result round trips all assume that ``(engine, seed, trials)``
fully determines a run.  These tests re-run each engine with the same seed
and require *identical* results — outcome counts, final-count matrices,
stopping times — including the batched engine under multiprocess sharding,
whose chunk-keyed sub-seeding makes results invariant to the worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.adaptive import CiHalfWidthTarget, SplittingConfig
from repro.api import Experiment
from repro.crn import parse_network
from repro.errors import ReproError
from repro.sim import OutcomeThresholds, make_simulator
from repro.sim import registry


def stochastic_engines() -> list[str]:
    return [
        name for name in registry.names()
        if registry.get(name).kind in registry.SAMPLING_KINDS
    ]


@pytest.fixture(scope="module")
def race_experiment():
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


def assert_identical_ensembles(first, second):
    """Two RunResults must agree bit-for-bit on every recorded quantity."""
    assert first.ensemble.outcome_counts == second.ensemble.outcome_counts
    assert np.array_equal(first.ensemble.final_counts, second.ensemble.final_counts)
    assert np.array_equal(first.ensemble.final_times, second.ensemble.final_times)
    assert np.array_equal(first.ensemble.n_firings, second.ensemble.n_firings)


@pytest.mark.parametrize("engine", stochastic_engines())
def test_same_seed_is_bit_identical(engine, race_experiment):
    first = race_experiment.simulate(trials=120, engine=engine, seed=97)
    second = race_experiment.simulate(trials=120, engine=engine, seed=97)
    assert_identical_ensembles(first, second)
    assert first.to_json() == second.to_json()


@pytest.mark.parametrize("engine", stochastic_engines())
def test_different_seeds_differ(engine, race_experiment):
    """Guard against a seed being silently ignored."""
    first = race_experiment.simulate(trials=120, engine=engine, seed=97)
    second = race_experiment.simulate(trials=120, engine=engine, seed=98)
    assert not np.array_equal(first.ensemble.final_times, second.ensemble.final_times)


def test_batch_direct_worker_count_invariance(race_experiment):
    """batch-direct with 2 workers matches 1 worker exactly (chunk-keyed seeds)."""
    single = race_experiment.simulate(
        trials=256, engine="batch-direct", seed=5, workers=1, chunk_size=64
    )
    sharded = race_experiment.simulate(
        trials=256, engine="batch-direct", seed=5, workers=2, chunk_size=64
    )
    assert_identical_ensembles(single, sharded)


def test_per_trial_engine_worker_count_invariance(race_experiment):
    """Per-trial engines key each trial's stream by its global index."""
    single = race_experiment.simulate(
        trials=150, engine="direct", seed=5, workers=1, chunk_size=50
    )
    sharded = race_experiment.simulate(
        trials=150, engine="direct", seed=5, workers=2, chunk_size=50
    )
    assert_identical_ensembles(single, sharded)


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            lambda experiment: experiment.simulate(trials=10, engine="direct", seed=-1),
            id="per-trial",
        ),
        pytest.param(
            lambda experiment: experiment.simulate(trials=10, engine="batch-direct", seed=-1),
            id="batch-direct",
        ),
        pytest.param(
            lambda experiment: experiment.simulate(
                engine="direct", seed=-1, until=CiHalfWidthTarget(outcome="1", half_width=0.1)
            ),
            id="precision-target",
        ),
        pytest.param(
            lambda experiment: experiment.simulate(
                engine="direct", seed=-1, until=SplittingConfig(outcome="1", trials_per_level=8)
            ),
            id="splitting",
        ),
        pytest.param(
            lambda experiment: make_simulator(experiment.network, seed=-1),
            id="make_simulator",
        ),
    ],
)
def test_negative_seed_is_a_typed_error(run, race_experiment):
    """A seed numpy refuses is a library error naming the seed, on every path."""
    with pytest.raises(ReproError, match=r"seed .*-1"):
        run(race_experiment)


def test_exact_engine_is_seed_free(race_experiment):
    """The fsp engine computes the same distribution regardless of seed."""
    experiment = race_experiment.classify_states(_FirstCatalyst())
    first = experiment.simulate(engine="fsp", seed=1)
    second = experiment.simulate(engine="fsp", seed=2)
    assert first.exact == second.exact
    assert first.to_json() == second.to_json()


class _FirstCatalyst:
    def __call__(self, state):
        for label, marker in (("1", "d1"), ("2", "d2"), ("3", "d3")):
            if state.get(marker, 0) >= 3:
                return label
        return None
