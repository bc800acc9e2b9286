"""A8 — Adaptive precision and rare events: declared targets vs fixed budgets.

Two workloads the fixed-budget ensemble handles badly, measured against the
adaptive layer introduced with ``Experiment.simulate(until=...)``:

* **Precision-targeted sampling** — "estimate P(outcome 1) to a declared
  half-width" on the race workload, plus the paper's Example 1 (P(2) = 0.4)
  to ±0.01 on ``batch-direct``.  A fixed-budget user must guess a trial
  count (and guess conservatively); the sequential controller extends the
  worker-invariant chunk schedule until the Wilson interval is narrow
  enough.  Each round goes as far as the target's predicted requirement
  (planned at the current interval's end nearest 1/2) but never past
  doubling, so a run ends within a chunk or two of the Wilson requirement at
  its final estimate.  The SPRT row answers the cheaper verification-style
  question ("is P >= 0.25?") in far fewer trials than any fixed-width
  estimate.
* **Importance splitting** — the ``rare-race`` zoo model's deep tail
  (exact probability ~3.1e-7 by the FSP oracle).  A naive estimate needs
  ~1/p ≈ 3 million trials per observed event; multilevel splitting resolves
  it in a few thousand trajectories and its reported confidence interval
  must cover the oracle.

Assertions (every run): every adaptive run meets its declared target; the
adaptive budget never exceeds the declared ceiling; the splitting CI covers
the FSP exact probability at a fraction of the naive cost.  ``--smoke`` (CI)
also asserts that every multi-round CI row used at most its Wilson
requirement at the final ``p_hat`` plus two chunks, and records nothing; a
full run appends one entry to ``BENCH_adaptive.json`` at the repository root
(the precision rows, the Example-1 row and the splitting estimate).

Run directly for a wall-clock report (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_adaptive.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `import _config` under direct run

from _config import report

from repro.adaptive import CiHalfWidthTarget, SplittingConfig, SprtTarget
from repro.analysis import format_table
from repro.api import Experiment
from repro.crn import parse_network
from repro.sim import OutcomeThresholds
from repro.zoo import load_model

SEED = 2007
CHUNK = 512
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"


def race() -> Experiment:
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


def wilson_requirement(target: CiHalfWidthTarget, p_hat: float) -> int:
    """Smallest n whose interval at ``p_hat`` meets ``target.half_width``."""
    low, high = 1, int(target.max_trials)
    while low < high:
        middle = (low + high) // 2
        ci_low, ci_high = target.interval(round(p_hat * middle), middle)
        if (ci_high - ci_low) / 2.0 <= target.half_width:
            high = middle
        else:
            low = middle + 1
    return low


def estimate(experiment: Experiment, target, label: str, **kwargs) -> dict:
    """One adaptive run as a report row (asserts it met its target)."""
    start = time.perf_counter()
    result = experiment.simulate(until=target, seed=SEED, chunk_size=CHUNK, **kwargs)
    elapsed = time.perf_counter() - start
    assert result.met, f"{label} unmet at ceiling {target.max_trials}"
    assert result.trials <= target.max_trials
    row = {
        "rule": label,
        "trials": result.trials,
        "rounds": result.rounds,
        "p_hat": round(result.achieved["p_hat"], 4),
    }
    if isinstance(target, CiHalfWidthTarget):
        row["achieved"] = round(result.achieved["ci_half_width"], 5)
        row["wilson n"] = wilson_requirement(target, result.achieved["p_hat"])
    else:
        row["achieved"] = result.adaptive.detail
    row["seconds"] = round(elapsed, 2)
    return row


def bench_precision(smoke: bool) -> "list[dict]":
    """Adaptive half-width targets vs the fixed budgets they replace."""
    experiment = race()
    widths = [0.05, 0.02] if smoke else [0.05, 0.02, 0.01, 0.005]
    ceiling = 50_000 if smoke else 500_000
    rows = [
        estimate(
            experiment,
            CiHalfWidthTarget(outcome="1", half_width=width, max_trials=ceiling),
            f"ci<= {width}",
        )
        for width in widths
    ]
    verdict = estimate(
        experiment, SprtTarget(outcome="1", p0=0.2, p1=0.3, max_trials=ceiling),
        "sprt p>=0.25?",
    )
    # The verification query must be cheaper than the tightest estimate.
    assert verdict["trials"] <= rows[-1]["trials"]
    rows.append(verdict)
    return rows


def bench_example1() -> dict:
    """The paper's Example 1, P(2) to ±0.01 on the batched engine."""
    example1 = Experiment.from_distribution(
        {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
    )
    return estimate(
        example1, CiHalfWidthTarget(outcome="2", half_width=0.01),
        "example1 ci<= 0.01", engine="batch-direct", backend="numpy",
    )


def assert_near_requirement(rows: "list[dict]") -> None:
    """Multi-round CI runs end within two chunks of the Wilson requirement."""
    for row in rows:
        if "wilson n" in row and row["rounds"] > 1:
            assert row["trials"] <= row["wilson n"] + 2 * CHUNK, (
                f"{row['rule']}: {row['trials']} trials, Wilson needs "
                f"{row['wilson n']} at p_hat={row['p_hat']}"
            )


def bench_splitting(smoke: bool) -> dict:
    """Deep-tail estimation on rare-race, cross-validated against FSP."""
    model = load_model("rare-race")
    experiment = model.experiment()
    exact = float(
        experiment.simulate(engine="fsp", engine_options=model.fsp_options()).exact[
            "rare"
        ]
    )
    effort = 400 if smoke else 2000
    config = SplittingConfig(outcome="rare", trials_per_level=effort)
    start = time.perf_counter()
    result = experiment.simulate(until=config, seed=11, engine="direct")
    elapsed = time.perf_counter() - start
    low, high = result.rare_interval
    naive = 1.0 / exact
    assert low <= exact <= high, "splitting CI misses the FSP oracle"
    assert result.trials < 1e-2 * naive, "splitting cost not far below naive"
    return {
        "exact": exact,
        "estimate": result.rare_probability,
        "ci_low": low,
        "ci_high": high,
        "trajectories": result.trials,
        "seconds": round(elapsed, 2),
    }


def splitting_table(row: dict) -> str:
    return format_table(
        [
            {"quantity": "FSP exact P(rare)", "value": f"{row['exact']:.3e}"},
            {"quantity": "splitting estimate", "value": f"{row['estimate']:.3e}"},
            {"quantity": "95% interval",
             "value": f"[{row['ci_low']:.3e}, {row['ci_high']:.3e}]"},
            {"quantity": "trajectories", "value": f"{row['trajectories']}"},
            {"quantity": "naive trials per event", "value": f"{1.0 / row['exact']:.1e}"},
            {"quantity": "seconds", "value": f"{row['seconds']:.2f}"},
        ]
    )


def record(precision: "list[dict]", example1: dict, splitting: dict) -> None:
    """Append this full run to BENCH_adaptive.json."""
    import numpy as np

    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(
        {
            "benchmark": "bench_adaptive",
            "host": {
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
            "seed": SEED,
            "chunk_size": CHUNK,
            "precision": precision,
            "example1": {
                key: example1[key] for key in ("trials", "rounds", "p_hat", "seconds")
            },
            "splitting": {
                key: float(f"{value:.4g}") if isinstance(value, float) else value
                for key, value in splitting.items()
            },
        }
    )
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small budgets + assertions, records nothing (CI mode)",
    )
    args = parser.parse_args(argv)

    precision = bench_precision(args.smoke)
    example1 = bench_example1()
    if args.smoke:
        assert_near_requirement(precision + [example1])
    report("A8 adaptive precision targets", format_table(precision + [example1]))
    splitting = bench_splitting(args.smoke)
    report("A8 importance splitting vs FSP oracle", splitting_table(splitting))
    if not args.smoke:
        record(precision, example1, splitting)
    print("bench_adaptive: all assertions passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
