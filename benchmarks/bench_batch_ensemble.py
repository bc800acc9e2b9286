"""A5 — Batched ensemble engine: speedup over the per-trial engine.

Every figure in the paper is estimated from a Monte-Carlo ensemble (100,000
trials per Figure-3 point), so ensemble throughput bounds every experiment.
This harness times a full outcome-classification ensemble of the Example-1
stochastic module (γ = 10³, scale 100, outcome declared after 10 working
firings) through ``ParallelEnsembleRunner`` three ways:

* the per-trial ``direct`` engine, chunks run inline (baseline);
* the vectorized ``batch-direct`` engine, chunks run inline;
* ``batch-direct`` with its chunk groups sharded across worker processes;

and checks that (a) the batched engine is ≥ 2× faster than the per-trial
baseline at the full 10,000-trial size, and (b) all paths reproduce the
programmed (0.3, 0.4, 0.3) distribution within statistical tolerance.
The per-trial baseline sweeps each chunk in lock-step on numpy, one event
per trial per step with every trial on its own stream, so bar (a) compares
two columnar sweeps; it stood at 5× against the interpreted trial-by-trial
loop those chunks ran on before.

Run directly for a wall-clock report (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_batch_ensemble.py [--quick] [--trials N]

or through pytest-benchmark with the other harnesses::

    PYTHONPATH=src python -m pytest benchmarks/bench_batch_ensemble.py -q
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `import _config` under direct run

from _config import report, trials

from repro.analysis import format_table, total_variation
from repro.core import synthesize_distribution
from repro.sim import ParallelEnsembleRunner, SimulationOptions

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
FULL_TRIALS = 10_000
QUICK_TRIALS = 1_000


def _runner(engine: str, workers: int = 1) -> ParallelEnsembleRunner:
    """Build an outcome-classification ensemble runner for the Example-1 module."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    return ParallelEnsembleRunner(
        system.network_with_inputs(None),
        engine=engine,
        stopping=system.stopping_condition(10),
        options=SimulationOptions(record_firings=False),
        outcome_classifier=system.outcome_classifier(),
        workers=workers,
    )


def measure(n_trials: int, seed: int = 2007) -> list[dict[str, object]]:
    """Time each execution path on the same ensemble; one row per path."""
    rows: list[dict[str, object]] = []
    for label, engine, workers in (
        ("sequential direct", "direct", 1),
        ("batch-direct", "batch-direct", 1),
        ("parallel batch-direct", "batch-direct", os.cpu_count() or 2),
    ):
        runner = _runner(engine, workers)
        start = time.perf_counter()
        result = runner.run(n_trials, seed=seed)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "path": label,
                "seconds": elapsed,
                "trials/s": n_trials / elapsed,
                "tv_vs_target": total_variation(result.outcome_distribution(), TARGET),
            }
        )
    baseline = rows[0]["seconds"]
    for row in rows:
        row["speedup"] = baseline / row["seconds"]
    return rows


def run_report(n_trials: int, full_assertions: bool) -> list[dict[str, object]]:
    """Measure, print/record the table, and apply the acceptance checks."""
    rows = measure(n_trials)
    report(
        f"A5: batched ensemble engine ({n_trials} trials of the Example-1 module)",
        format_table(rows, floatfmt="{:.3g}"),
    )
    for row in rows:
        # Every path reproduces the programmed distribution.
        assert row["tv_vs_target"] < 0.1, f"{row['path']}: TV {row['tv_vs_target']:.3f}"
    batch_speedup = rows[1]["speedup"]
    if full_assertions:
        assert batch_speedup >= 2.0, (
            f"batch-direct speedup {batch_speedup:.1f}× < 2× at {n_trials} trials"
        )
    else:
        assert batch_speedup > 1.0, (
            f"batch-direct slower than sequential ({batch_speedup:.2f}×)"
        )
    return rows


def test_batch_ensemble_speedup(benchmark):
    """pytest-benchmark entry point (full-size unless REPRO_TRIALS shrinks it)."""
    n_trials = max(trials(10.0, minimum=FULL_TRIALS // 10), QUICK_TRIALS)
    rows = benchmark.pedantic(
        run_report, args=(n_trials, n_trials >= FULL_TRIALS), rounds=1, iterations=1
    )
    benchmark.extra_info["rows"] = rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=None,
                        help=f"ensemble size (default {FULL_TRIALS})")
    parser.add_argument("--quick", action="store_true",
                        help=f"CI smoke mode: {QUICK_TRIALS} trials, soft speedup check")
    args = parser.parse_args(argv)
    n_trials = args.trials or (QUICK_TRIALS if args.quick else FULL_TRIALS)
    run_report(n_trials, full_assertions=not args.quick and n_trials >= FULL_TRIALS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
