"""A1 — Ablation: accuracy and cost of the deterministic functional modules.

Section 2.2.1 defines the linear, exponentiation, logarithm, raising-to-a-power
and isolation modules.  The paper presents them analytically; this harness
quantifies how accurately the chemistry computes each function over an input
sweep (settled output vs ideal value over repeated stochastic runs), and what
each evaluation costs in reaction firings.

The reproduced claim: each module computes its function exactly for the input
classes the paper considers (powers of two for the logarithm; any integer for
the others), with small spread.
"""

from __future__ import annotations

from _config import report

from repro.analysis import format_table
from repro.api import Experiment
from repro.core.modules import (
    exponentiation_module,
    isolation_module,
    linear_module,
    logarithm_module,
    power_module,
)

CASES = [
    ("linear 3/2", lambda: linear_module(alpha=2, beta=3), [{"x": 4}, {"x": 10}, {"x": 20}]),
    ("exponentiation", exponentiation_module, [{"x": 2}, {"x": 4}, {"x": 6}]),
    ("logarithm", logarithm_module, [{"x": 4}, {"x": 16}, {"x": 64}]),
    ("power", power_module, [{"x": 2, "p": 2}, {"x": 3, "p": 2}, {"x": 2, "p": 3}]),
    ("isolation", lambda: isolation_module(initial_output=20, initial_catalyst=5), [{}]),
]

N_TRIALS = 8


def run_accuracy_sweep():
    rows = []
    for name, factory, inputs_list in CASES:
        for inputs in inputs_list:
            stats = (
                Experiment.from_module(factory())
                .program(inputs)
                .simulate(trials=N_TRIALS, seed=31)
                .output_summary()
            )
            rows.append(
                {
                    "module": name,
                    "inputs": str(inputs),
                    "ideal": stats.get("expected", float("nan")),
                    "mean": stats["mean"],
                    "std": stats["std"],
                    "min": stats["min"],
                    "max": stats["max"],
                }
            )
    return rows


def test_deterministic_module_accuracy(benchmark):
    rows = benchmark.pedantic(run_accuracy_sweep, rounds=1, iterations=1)
    report(
        "A1: deterministic functional module accuracy "
        f"({N_TRIALS} stochastic runs per point)",
        format_table(rows, floatfmt="{:.3g}"),
    )
    benchmark.extra_info["cases"] = len(rows)
    for row in rows:
        ideal = row["ideal"]
        # The logarithm module on non-powers-of-two and large inputs has ±1
        # spread; everything in this sweep should match the ideal closely.
        assert abs(row["mean"] - ideal) <= max(0.5, 0.1 * ideal), row
