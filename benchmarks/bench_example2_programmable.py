"""E2 — Example 2 (Section 2.2): the affine programmable response.

Regenerates the paper's second worked example: the pre-processing reactions
``2e3 + x1 → 2e1`` and ``3e1 + x2 → 3e2`` make the outcome probabilities an
affine function of the input quantities X1 and X2::

    p1 = 0.3 + 0.02·X1 − 0.03·X2
    p2 = 0.4 + 0.03·X2
    p3 = 0.3 − 0.02·X1

The harness sweeps (X1, X2), measures the outcome distribution at each point
and reports measured vs target; the reproduced quantity is that the measured
probabilities track the affine target across the sweep.
"""

from __future__ import annotations

from _config import report, trials

from repro.analysis import format_table, total_variation
from repro.api import Experiment
from repro.core import AffineResponseSpec, synthesize_affine_response

SWEEP = [(0, 0), (3, 0), (6, 0), (0, 5), (5, 5), (10, 8)]


def build_system():
    spec = AffineResponseSpec(
        base={"1": 0.3, "2": 0.4, "3": 0.3},
        slopes={"1": {"x1": 0.02, "x2": -0.03}, "2": {"x2": 0.03}, "3": {"x1": -0.02}},
    )
    return synthesize_affine_response(spec, gamma=1e3, scale=100)


def run_sweep(n_trials: int):
    system = build_system()
    rows = []
    worst_tv = 0.0
    for index, (x1, x2) in enumerate(SWEEP):
        sampled = (
            Experiment.from_system(system)
            .program({"x1": x1, "x2": x2})
            .simulate(trials=n_trials, seed=4000 + index)
        )
        tv = total_variation(sampled.frequencies, sampled.target)
        worst_tv = max(worst_tv, tv)
        rows.append(
            {
                "X1": x1,
                "X2": x2,
                "p1 target": sampled.target["1"],
                "p1 meas": sampled.frequencies.get("1", 0.0),
                "p2 target": sampled.target["2"],
                "p2 meas": sampled.frequencies.get("2", 0.0),
                "p3 target": sampled.target["3"],
                "p3 meas": sampled.frequencies.get("3", 0.0),
                "TV": tv,
            }
        )
    return rows, worst_tv


def test_example2_affine_response(benchmark):
    n_trials = trials(1.0)
    rows, worst_tv = benchmark.pedantic(run_sweep, args=(n_trials,), rounds=1, iterations=1)
    report(
        "E2: Example 2 programmable (affine) response",
        format_table(rows, floatfmt="{:.3f}")
        + f"\nworst-case TV distance across sweep: {worst_tv:.3f} ({n_trials} trials/point)",
    )
    benchmark.extra_info["worst_tv"] = worst_tv
    benchmark.extra_info["sweep_points"] = len(rows)
    # Reproduction check: the response follows the programmed affine function.
    assert worst_tv < 0.12
