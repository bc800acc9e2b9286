"""Surface tests for analysis utilities the bigger suites only touch in passing.

These exercise the trajectory accessors, the rate-ladder queries, the
robustness report and the ``python -m repro`` entry point — thin but
load-bearing surfaces that the coverage floor (CI ``--cov-fail-under``) keeps
honest.
"""

from __future__ import annotations

import runpy
import sys

import numpy as np
import pytest

from repro.analysis import robustness_report
from repro.core import synthesize_distribution
from repro.core.rates import STOCHASTIC_CATEGORIES, RateLadder
from repro.errors import RateLadderError
from repro.sim import make_simulator
from repro.sim.events import SpeciesThreshold


class TestTrajectoryAccessors:
    @pytest.fixture
    def trajectory(self, birth_death_network):
        simulator = make_simulator(birth_death_network, engine="direct", seed=4)
        return simulator.run(
            stopping=SpeciesThreshold("x", 5),
            record_states=True,
            max_steps=10_000,
        )

    def test_firing_queries(self, trajectory):
        assert trajectory.n_firings > 0
        total = sum(trajectory.count_firings(j) for j in range(2))
        assert total == trajectory.n_firings
        # Reaction 0 is the birth reaction; it must fire first from x=0.
        assert trajectory.first_firing([0, 1]) == 0
        assert trajectory.first_firing([99]) is None

    def test_species_series_and_summary(self, trajectory):
        series = trajectory.species_series("x")
        assert series[-1] == trajectory.final_count("x") == 5
        assert np.all(series >= 0)
        with pytest.raises(ValueError):
            trajectory.species_series("nope")
        assert "stop=condition" in trajectory.summary()
        assert repr(trajectory) == trajectory.summary()

    def test_series_requires_snapshots(self, birth_death_network):
        simulator = make_simulator(birth_death_network, engine="direct", seed=4)
        bare = simulator.run(stopping=SpeciesThreshold("x", 3), max_steps=10_000)
        with pytest.raises(ValueError):
            bare.species_series("x")


class TestRateLadder:
    def test_category_rates_and_dict(self):
        ladder = RateLadder(gamma=10.0, base_rate=2.0)
        assert ladder.initializing == ladder.working == 2.0
        assert ladder.reinforcing == ladder.stabilizing == 20.0
        assert ladder.purifying == 200.0
        as_dict = ladder.as_dict()
        assert set(as_dict) == set(STOCHASTIC_CATEGORIES)
        assert as_dict["purifying"] == 200.0

    def test_paper_example_and_errors(self):
        paper = RateLadder.paper_example()
        assert paper.gamma == 1e3 and paper.purifying == 1e6
        with pytest.raises(RateLadderError):
            RateLadder(gamma=0.5)
        with pytest.raises(RateLadderError):
            RateLadder(gamma=10.0, base_rate=0.0)
        with pytest.raises(RateLadderError):
            paper.rate_for("not-a-category")


class TestRobustnessReport:
    def test_report_shape_and_noise_floor(self):
        system = synthesize_distribution({"a": 0.5, "b": 0.5}, gamma=100.0, scale=10)
        results = robustness_report(
            system, n_trials=30, n_perturbations=1, seed=7
        )
        # Baseline + one rate + one quantity perturbation.
        assert len(results) == 3
        assert results[0].description == "unperturbed"
        for result in results:
            assert 0.0 <= result.tv_from_target <= 1.0
            assert result.distribution


def test_python_dash_m_entry_point(monkeypatch, capsys):
    """``python -m repro engines`` resolves through __main__ and exits 0."""
    monkeypatch.setattr(sys, "argv", ["repro", "engines"])
    with pytest.raises(SystemExit) as excinfo:
        runpy.run_module("repro", run_name="__main__")
    assert excinfo.value.code == 0
    assert "fsp" in capsys.readouterr().out
