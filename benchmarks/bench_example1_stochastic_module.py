"""E1 — Example 1 (Section 2.1): the 0.3 / 0.4 / 0.3 stochastic module.

Regenerates the paper's first worked example: synthesize the five-category
reaction set for the distribution (0.3, 0.4, 0.3) with initial quantities
E = (30, 40, 30) and rates 1 / 10³ / 10⁶, then measure the realized outcome
distribution by Monte-Carlo simulation and, independently, compute the exact
outcome distribution of a reduced instance with the FSP absorption solve.

The reproduced quantity: the measured distribution matches the programmed one
(total-variation distance within Monte-Carlo noise).
"""

from __future__ import annotations

from _config import report, trials

from repro.analysis import format_table
from repro.api import Experiment
from repro.core import DistributionSpec, OutcomeSpec, build_stochastic_module, synthesize_distribution
from repro.sim import FspEngine, FspOptions

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}


def run_example1(n_trials: int):
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    sampled = Experiment.from_system(system).simulate(trials=n_trials, seed=2007)
    return system, sampled


def test_example1_distribution(benchmark):
    n_trials = trials(1.0)
    system, sampled = benchmark.pedantic(
        run_example1, args=(n_trials,), rounds=1, iterations=1
    )
    measured = sampled.frequencies
    tv = sampled.total_variation()

    rows = [
        {"outcome": label, "target": TARGET[label], "measured": measured.get(label, 0.0)}
        for label in TARGET
    ]
    report(
        "E1: Example 1 stochastic module",
        format_table(rows, floatfmt="{:.4f}")
        + f"\nTV distance: {tv:.4f}  ({n_trials} trials, gamma=1e3)",
    )
    benchmark.extra_info["tv_distance"] = tv
    benchmark.extra_info["measured"] = measured
    # Reproduction check (shape): the programmed distribution is realized.
    assert tv < 0.08


def test_example1_exact_reduced_instance(benchmark):
    """Exact check of a reduced Example-1 instance (scale 10, no sampling noise)."""
    spec = DistributionSpec(
        [OutcomeSpec("1", target_output=1), OutcomeSpec("2", target_output=1),
         OutcomeSpec("3", target_output=1)],
        [0.3, 0.4, 0.3],
    )
    network = build_stochastic_module(spec, gamma=1e3, scale=10)

    def classify(state):
        if any(state.get(f"e_{i}", 0) > 0 for i in ("1", "2", "3")):
            return None
        alive = [i for i in ("1", "2", "3") if state.get(f"d_{i}", 0) > 0]
        if len(alive) == 1:
            return alive[0]
        if not alive:
            return "tie"
        return None

    options = FspOptions(max_states=150_000)
    result = benchmark.pedantic(
        lambda: FspEngine(network, engine_options=options).outcome_probabilities(
            classify, on_overflow="raise"
        ),
        rounds=1, iterations=1,
    )
    decided = result.decided()
    rows = [
        {"outcome": label, "target": TARGET[label], "exact": decided.get(label, 0.0)}
        for label in TARGET
    ]
    report(
        "E1 (exact): reduced instance, absorption probabilities",
        format_table(rows, floatfmt="{:.4f}") + f"\nstates explored: {result.n_states}",
    )
    benchmark.extra_info["exact"] = decided
    # The exact absorption probabilities sit within the 1/scale quantization of
    # the programmed quantities plus the (tiny, gamma=1e3) winner-take-all error.
    for label in TARGET:
        assert abs(decided.get(label, 0.0) - TARGET[label]) < 0.01
