"""A6 — Kernel backend layer: SSA engine throughput across kernel backends.

The kernel layer (:mod:`repro.sim.kernels`) is the only implementation of
each SSA algorithm: preallocated columnar buffers, chunked random blocks and
compiled stopping plans, with no Python object dispatch inside the firing
loop.  This harness times a full outcome-classification ensemble of the
Example-1 stochastic module (γ = 10³, scale 100, outcome declared after 10
working firings) on the ``direct`` engine across backends — the baseline
every row's ``speedup`` is relative to is ``direct`` on numpy:

* ``backend="numpy"``  — the interpreted array-kernel reference;
* ``backend="numba"``  — the JIT backend, when numba is installed;

plus the other array-kernel engines:

* ``next-reaction`` on the numpy (and, when installed, numba) backends —
  the :class:`ArrayHeap` port of the Gibson–Bruck queue;
* ``batch-direct`` on numpy and, when installed, the fully JIT-compiled
  numba lock-step sweep;
* a **wide-chunk** row: one columnar sweep over 10× the ensemble size
  (≥ 10⁵ trials at the full benchmark size) as a single ``chunk_size``
  chunk.

These Example-1 rows classify with the bound method
``SynthesizedSystem.classify_outcome``, which has no ``classify_batch``, so
their per-trial engines still build one trajectory per trial.  A second
section times the per-trial engines (``direct``, ``first-reaction``,
``next-reaction``) on numpy over the 12 corpus models, each through its own
experiment and the default stop-detail classifier — the columnar shard path
— and reports µs and firings per trial, best of 3 runs of 1,000 trials.

The harness checks that

* the JIT batch-direct sweep is ≥ 10× faster than the interpreted numpy
  batch-direct sweep at the full size (the acceptance bar for the
  wide-chunk sweep — asserted only when numba is installed);
* every backend reproduces the programmed (0.3, 0.4, 0.3) distribution;
* seeded runs are bit-identical between the numpy and numba backends (when
  numba is available) and across worker counts, including under a
  non-default chunk width.

Full-size runs append both sections to ``BENCH_kernels.json`` at the
repository root so the perf trajectory of the hot path is recorded across
PRs (smoke runs — one corpus model at 100 trials — skip the file: their
numbers are not comparable and would dirty the tree on every CI-style
invocation).  Each entry records the host it ran on; numba
rows carry ``"ci_only": true`` because only the CI job that installs numba
can produce them.

Run directly for a wall-clock report (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_kernels.py [--smoke] [--trials N]

or through pytest-benchmark with the other harnesses::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernels.py -q
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `import _config` under direct run

import numpy as np

from _config import report, trials

from repro.analysis import format_table, total_variation
from repro.api import Experiment
from repro.core import synthesize_distribution
from repro.sim import (
    EnsembleRunner,
    ParallelEnsembleRunner,
    SimulationOptions,
    numba_available,
)
from repro.zoo.corpus import corpus_entries

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
FULL_TRIALS = 10_000
SMOKE_TRIALS = 1_000
WIDE_FACTOR = 10  # the wide-chunk row sweeps WIDE_FACTOR × n_trials in one pass
PER_TRIAL_ENGINES = ("direct", "first-reaction", "next-reaction")
PER_TRIAL_TRIALS = 1_000
PER_TRIAL_SMOKE_TRIALS = 100
PER_TRIAL_REPEATS = 3
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"


def _runner(backend: str, engine: str = "direct") -> EnsembleRunner:
    """An Example-1 outcome ensemble, pinned to an engine and backend."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    return EnsembleRunner(
        system.network_with_inputs(None),
        engine=engine,
        stopping=system.stopping_condition(10),
        options=SimulationOptions(record_firings=False, backend=backend),
        outcome_classifier=system.classify_outcome,
    )


def _timed_row(engine: str, backend: str, n_trials: int, seed: int) -> dict[str, object]:
    """One warmed, timed ensemble run → a display/record row."""
    runner = _runner(backend, engine=engine)
    runner.run(min(200, n_trials), seed=seed + 1)  # warm caches / JIT
    start = time.perf_counter()
    result = runner.run(n_trials, seed=seed)
    elapsed = time.perf_counter() - start
    return {
        "backend": backend,
        "engine": engine,
        "trials": n_trials,
        "seconds": elapsed,
        "trials/s": n_trials / elapsed,
        "tv_vs_target": total_variation(result.outcome_distribution(), TARGET),
    }


def _wide_chunk_row(backend: str, n_trials: int, seed: int) -> dict[str, object]:
    """One columnar sweep: all trials advance in a single chunk."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    runner = ParallelEnsembleRunner(
        system.network_with_inputs(None),
        engine="batch-direct",
        stopping=system.stopping_condition(10),
        options=SimulationOptions(record_firings=False, backend=backend),
        outcome_classifier=system.classify_outcome,
        workers=1,
        chunk_size=n_trials,
    )
    runner.run(min(512, n_trials), seed=seed + 1)  # warm caches / JIT
    start = time.perf_counter()
    result = runner.run(n_trials, seed=seed)
    elapsed = time.perf_counter() - start
    return {
        "backend": backend,
        "engine": "wide-chunk",
        "trials": n_trials,
        "seconds": elapsed,
        "trials/s": n_trials / elapsed,
        "tv_vs_target": total_variation(result.outcome_distribution(), TARGET),
    }


def measure(n_trials: int, seed: int = 2007) -> list[dict[str, object]]:
    """Time the ensemble once per (engine, backend); one row each.

    The first row — ``direct`` on numpy — is the baseline of every row's
    ``speedup``.  The wide-chunk rows sweep ``WIDE_FACTOR × n_trials``
    trials in a single columnar pass — 10⁵ at the full benchmark size — so
    the row demonstrates the preallocated cross-trial buffers at the scale
    they were built for.
    """
    array_backends = ["numpy"] + (["numba"] if numba_available() else [])
    rows: list[dict[str, object]] = []
    for backend in array_backends:
        rows.append(_timed_row("direct", backend, n_trials, seed))
    # next-reaction joined the array-kernel matrix with the ArrayHeap port.
    for backend in array_backends:
        rows.append(_timed_row("next-reaction", backend, n_trials, seed))
    # batch-direct: the lock-step sweep (numpy reference, JIT when available).
    for backend in array_backends:
        rows.append(_timed_row("batch-direct", backend, n_trials, seed))
    # wide chunk: one columnar sweep over 10× the ensemble size.
    for backend in array_backends:
        rows.append(_wide_chunk_row(backend, WIDE_FACTOR * n_trials, seed))
    baseline = rows[0]["seconds"]
    for row in rows:
        # normalize by throughput so the 10×-sized wide-chunk rows compare
        # fairly against the baseline on the base ensemble size.
        row["speedup"] = (baseline / n_trials) * (row["trials"] / row["seconds"])
    return rows


def measure_per_trial(
    n_trials: int, n_models: "int | None" = None, seed: int = 2007
) -> list[dict[str, object]]:
    """Per-trial engines over the corpus on numpy: one row per (model, engine).

    Each row runs the model's own experiment (its stopping condition, the
    default stop-detail classifier, the default chunk schedule) for
    ``n_trials`` seeded trials :data:`PER_TRIAL_REPEATS` times and keeps the
    fastest run.  ``n_models`` limits the section to the first models.
    """
    rows: list[dict[str, object]] = []
    for entry in corpus_entries()[:n_models]:
        experiment = entry.model.experiment()
        for engine in PER_TRIAL_ENGINES:
            best = math.inf
            for _ in range(PER_TRIAL_REPEATS):
                start = time.perf_counter()
                result = experiment.simulate(
                    trials=n_trials, engine=engine, seed=seed, backend="numpy"
                )
                best = min(best, time.perf_counter() - start)
            rows.append({
                "model": entry.name,
                "engine": engine,
                "trials": n_trials,
                "us_per_trial": 1e6 * best / n_trials,
                "firings_per_trial": float(result.ensemble.n_firings.mean()),
            })
    return rows


def check_determinism(n_trials: int = 400, seed: int = 97) -> dict[str, bool]:
    """Bit-identity of seeded runs across backends and worker counts."""
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    experiment = Experiment.from_system(system)
    checks: dict[str, bool] = {}

    numpy_1w = experiment.simulate(
        trials=n_trials, seed=seed, backend="numpy", workers=1, chunk_size=100
    )
    numpy_2w = experiment.simulate(
        trials=n_trials, seed=seed, backend="numpy", workers=2, chunk_size=100
    )
    checks["workers_invariant"] = bool(
        numpy_1w.ensemble.outcome_counts == numpy_2w.ensemble.outcome_counts
        and np.array_equal(numpy_1w.ensemble.final_counts, numpy_2w.ensemble.final_counts)
        and np.array_equal(numpy_1w.ensemble.final_times, numpy_2w.ensemble.final_times)
    )
    assert checks["workers_invariant"], "numpy backend results depend on worker count"

    if numba_available():
        numba_run = experiment.simulate(
            trials=n_trials, seed=seed, backend="numba", workers=1, chunk_size=100
        )
        checks["numba_bit_identical"] = bool(
            numpy_1w.ensemble.outcome_counts == numba_run.ensemble.outcome_counts
            and np.array_equal(
                numpy_1w.ensemble.final_counts, numba_run.ensemble.final_counts
            )
            and np.array_equal(
                numpy_1w.ensemble.final_times, numba_run.ensemble.final_times
            )
        )
        assert checks["numba_bit_identical"], "numpy and numba backends diverged"

    # a non-default chunk schedule must be as worker-invariant as the default.
    wide_1w = experiment.simulate(
        trials=n_trials, seed=seed, engine="batch-direct", chunk_size=150, workers=1
    )
    wide_2w = experiment.simulate(
        trials=n_trials, seed=seed, engine="batch-direct", chunk_size=150, workers=2
    )
    checks["chunk_size_workers_invariant"] = bool(
        wide_1w.ensemble.outcome_counts == wide_2w.ensemble.outcome_counts
        and np.array_equal(wide_1w.ensemble.final_counts, wide_2w.ensemble.final_counts)
        and np.array_equal(wide_1w.ensemble.final_times, wide_2w.ensemble.final_times)
    )
    assert checks["chunk_size_workers_invariant"], (
        "chunk_size=150 results depend on worker count"
    )
    return checks


def record(rows, per_trial_rows, checks, n_trials: int) -> None:
    """Append this run to BENCH_kernels.json (the hot-path perf trajectory)."""
    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    entry = {
        "benchmark": "bench_kernels",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "trials": n_trials,
        "wide_chunk_trials": WIDE_FACTOR * n_trials,
        "numba_available": numba_available(),
        "baseline": "direct [numpy]",
        "rows": [
            {
                "engine": r["engine"],
                "backend": r["backend"],
                "trials": int(r["trials"]),
                "seconds": round(float(r["seconds"]), 4),
                "trials_per_s": round(float(r["trials/s"]), 1),
                "speedup_vs_numpy_direct": round(float(r["speedup"]), 3),
                "tv_vs_target": round(float(r["tv_vs_target"]), 4),
                **({"ci_only": True} if r["backend"] == "numba" else {}),
            }
            for r in rows
        ],
        "per_trial": {
            "backend": "numpy",
            "trials": PER_TRIAL_TRIALS,
            "timing": f"best of {PER_TRIAL_REPEATS}",
            "rows": [
                {
                    "model": r["model"],
                    "engine": r["engine"],
                    "us_per_trial": round(float(r["us_per_trial"]), 1),
                    "firings_per_trial": round(float(r["firings_per_trial"]), 2),
                }
                for r in per_trial_rows
            ],
        },
        "determinism": checks,
    }
    history.append(entry)
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def run_report(
    n_trials: int, full_assertions: bool, smoke: bool = False
) -> list[dict[str, object]]:
    """Measure, report, record and apply the acceptance checks."""
    rows = measure(n_trials)
    display = [
        {"path": f"{r['engine']} [{r['backend']}]", "trials": r["trials"],
         **{k: r[k] for k in ("seconds", "trials/s", "speedup", "tv_vs_target")}}
        for r in rows
    ]
    report(
        f"A6: kernel backends ({n_trials} trials of the Example-1 module; "
        f"wide-chunk rows sweep {WIDE_FACTOR * n_trials})",
        format_table(display, floatfmt="{:.3g}"),
    )
    for row in rows:
        assert row["tv_vs_target"] < 0.1, (
            f"{row['engine']}[{row['backend']}]: TV {row['tv_vs_target']:.3f}"
        )
    if full_assertions:
        wide_numpy = next(
            r for r in rows if r["engine"] == "wide-chunk" and r["backend"] == "numpy"
        )
        assert wide_numpy["trials"] >= 100_000, (
            f"wide-chunk row swept only {wide_numpy['trials']} trials; the "
            f"full benchmark must include a >= 1e5-trial columnar sweep"
        )
    if numba_available():
        # the acceptance bar for the JIT lock-step sweep: >= 10x over the
        # interpreted numpy batch-direct sweep on the same ensemble.
        bd_numpy = next(
            r for r in rows if r["engine"] == "batch-direct" and r["backend"] == "numpy"
        )
        bd_numba = next(
            r for r in rows if r["engine"] == "batch-direct" and r["backend"] == "numba"
        )
        jit_speedup = bd_numpy["seconds"] / bd_numba["seconds"]
        if full_assertions:
            assert jit_speedup >= 10.0, (
                f"JIT batch-direct speedup {jit_speedup:.2f}x < 10x over the "
                f"interpreted numpy sweep at {n_trials} trials"
            )
        else:
            assert jit_speedup > 1.0, (
                f"JIT batch-direct slower than the interpreted numpy sweep "
                f"({jit_speedup:.2f}x)"
            )
    per_trial_rows = (
        measure_per_trial(PER_TRIAL_SMOKE_TRIALS, n_models=1)
        if smoke else measure_per_trial(PER_TRIAL_TRIALS)
    )
    report(
        f"A6: per-trial engines on the corpus (numpy, best of {PER_TRIAL_REPEATS})",
        format_table(per_trial_rows, floatfmt="{:.3g}"),
    )
    checks = check_determinism()
    if full_assertions:
        record(rows, per_trial_rows, checks, n_trials)
    return rows


def test_kernel_backend_speedup(benchmark):
    """pytest-benchmark entry point (full-size unless REPRO_TRIALS shrinks it)."""
    n_trials = max(trials(10.0, minimum=FULL_TRIALS // 10), SMOKE_TRIALS)
    full = n_trials >= FULL_TRIALS
    rows = benchmark.pedantic(
        run_report, args=(n_trials, full, not full), rounds=1, iterations=1
    )
    benchmark.extra_info["rows"] = rows


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=None,
                        help=f"ensemble size (default {FULL_TRIALS})")
    parser.add_argument("--smoke", "--quick", dest="smoke", action="store_true",
                        help=f"CI smoke mode: {SMOKE_TRIALS} trials, soft speedup checks")
    args = parser.parse_args(argv)
    n_trials = args.trials or (SMOKE_TRIALS if args.smoke else FULL_TRIALS)
    run_report(
        n_trials, full_assertions=not args.smoke and n_trials >= FULL_TRIALS,
        smoke=args.smoke,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
