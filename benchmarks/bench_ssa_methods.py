"""A2 — Ablation: SSA engine comparison (direct vs first-reaction vs next-reaction).

The paper's methodology is Monte-Carlo stochastic simulation (it cites both
Gillespie's SSA [6] and the Gibson–Bruck next-reaction method [7]).  All exact
engines must produce the same statistics; they differ in cost.  This harness
measures, on the Example-1 stochastic module:

* throughput (trajectories/second) of each engine — this is the actual
  pytest-benchmark timing;
* agreement of the measured outcome distributions across engines;
* the approximate tau-leaping engine is reported for completeness: it is fast
  but is a poor fit for winner-take-all races decided by individual firings
  (documented limitation, not an error).
"""

from __future__ import annotations

import pytest

from _config import report, trials

from repro.analysis import format_table, total_variation
from repro.api import Experiment

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
ENGINES = ("direct", "first-reaction", "next-reaction")


def _sample(engine: str, n_trials: int, seed: int = 7):
    experiment = Experiment.from_distribution(TARGET, gamma=1e3, scale=100)
    return experiment.simulate(trials=n_trials, seed=seed, engine=engine).frequencies


@pytest.mark.parametrize("engine", ENGINES)
def test_ssa_engine_throughput(benchmark, engine):
    n_trials = trials(0.3, minimum=60)
    frequencies = benchmark.pedantic(
        _sample, args=(engine, n_trials), rounds=1, iterations=1
    )
    tv = total_variation(frequencies, TARGET)
    benchmark.extra_info["engine"] = engine
    benchmark.extra_info["tv_vs_target"] = tv
    benchmark.extra_info["trials"] = n_trials
    report(
        f"A2: engine {engine} ({n_trials} trials of the Example-1 module)",
        format_table(
            [{"outcome": k, "target": TARGET[k], "measured": frequencies.get(k, 0.0)}
             for k in TARGET],
            floatfmt="{:.3f}",
        )
        + f"\nTV vs target: {tv:.3f}",
    )
    # Every exact engine reproduces the programmed distribution.
    assert tv < 0.12


def test_ssa_engines_agree(benchmark):
    n_trials = trials(0.4, minimum=80)

    def run_all():
        return {engine: _sample(engine, n_trials, seed=11) for engine in ENGINES}

    distributions = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        {"engine": engine, **{k: distributions[engine].get(k, 0.0) for k in TARGET}}
        for engine in ENGINES
    ]
    report("A2: cross-engine agreement", format_table(rows, floatfmt="{:.3f}"))
    for engine in ENGINES[1:]:
        assert total_variation(distributions[engine], distributions["direct"]) < 0.12
