"""A7 — Content-addressed result store: warm cache vs re-simulation.

PRs 3–4 made every engine bit-identical across worker counts and backends,
so a simulation is a pure function of its canonical fingerprint — and the
result store (``repro.store``) can answer a repeated experiment from disk
instead of re-running it.  This harness quantifies that trade on the paper's
Example-1 module at 10,000 trials:

* **cold** — ``Experiment.simulate(store=...)`` on an empty store (simulates
  and persists the artifact);
* **warm** — the identical call again (fingerprint → cache hit → the stored
  result, byte-identical to the cold run).

The smoke assertion (CI): the warm-cache lookup is **≥ 100× faster** than
re-simulating the ensemble, and the returned JSON is byte-identical.  A
second section demonstrates campaign resume: an engine × seed grid run
through ``CampaignRunner``, then re-run — the resumed campaign computes
nothing and finishes in milliseconds.

Two further sections exercise PR 8's canonical fingerprints and store
tiers:

* **renamed warm hit** — a species-renamed, reaction-permuted copy of the
  toggle-switch zoo model addresses the *same* artifact as the original
  (asserted: one artifact, and the witness-translated payload equals
  recomputing the variant from scratch);
* **hot vs cold reads** — repeated envelope reads served by the in-process
  hot LRU vs forced cold reads (``hot_capacity=0``: disk + gunzip + JSON
  parse every time), asserted ≥ 2× apart.

Run directly for a wall-clock report (CI uses ``--smoke``)::

    PYTHONPATH=src python benchmarks/bench_store.py [--smoke]

A full run appends one entry to ``BENCH_store.json`` at the repository root
(host, per-engine cold/warm times and artifact size, the renamed warm hit,
hot/cold envelope reads); ``--smoke`` records nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))  # for `import _config` under direct run

from _config import report

from repro.analysis import format_table
from repro.api import Experiment
from repro.store import Campaign, CampaignRunner, ResultStore

#: The Example-1 workload: 10k trials of the (0.3, 0.4, 0.3) module.
TRIALS = 10_000
SEED = 2007
ENGINE = "direct"

#: CI assertion: serving the warm cache must beat re-simulating by this much.
MIN_SPEEDUP = 100.0

#: CI assertion: hot-LRU reads must beat cold (disk+gunzip+parse) reads.
MIN_TIER_RATIO = 2.0

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_store.json"


def example1() -> Experiment:
    return Experiment.from_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3)


def toggle_variant(base: Experiment) -> Experiment:
    """A species-renamed, reaction-permuted copy of the toggle switch."""
    import dataclasses

    from repro.crn import ReactionNetwork

    renamed = base.renamed({"u": "activator", "v": "repressor", "p": "precursor"})
    network = renamed.network
    permuted = ReactionNetwork(
        list(reversed(list(network.reactions))),
        initial_state={sp.name: c for sp, c in network.initial_state.items()},
        name=network.name,
        species=[sp.name for sp in network.species],
    )
    return dataclasses.replace(renamed, network=permuted)


def bench_renamed(root: Path) -> dict:
    """A renamed+permuted model warm-hits the original's artifact."""
    from repro.store import canonical_json

    store = ResultStore(root / "renamed-store")
    base = Experiment.from_zoo("toggle-switch")
    kwargs = dict(trials=2_000, engine=ENGINE, seed=SEED)

    start = time.perf_counter()
    base.simulate(store=store, **kwargs)
    cold_s = time.perf_counter() - start

    variant = toggle_variant(base)
    warm_s = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        warm = variant.simulate(store=store, **kwargs)
        warm_s = min(warm_s, time.perf_counter() - start)
    assert store.stats()["artifacts"] == 1, "renamed variant missed the cache"

    recomputed = variant.simulate(store=ResultStore(root / "renamed-fresh"), **kwargs)
    assert canonical_json(warm.to_payload()) == canonical_json(
        recomputed.to_payload()
    ), "translated warm hit differs from recomputing the variant"
    return {
        "scenario": "renamed+permuted toggle-switch",
        "cold (s)": cold_s,
        "warm translated (s)": warm_s,
        "speedup": cold_s / warm_s,
        "artifacts": store.stats()["artifacts"],
    }


def bench_tiers(root: Path, reads: int = 200) -> dict:
    """Hot-LRU envelope reads vs forced cold (disk + gunzip + parse) reads."""
    hot_store = ResultStore(root / "tier-store")
    experiment = example1()
    experiment.simulate(trials=TRIALS, engine=ENGINE, seed=SEED, store=hot_store)
    [key] = hot_store.keys()
    cold_store = ResultStore(hot_store.root, hot_capacity=0)

    def best_of(store: ResultStore, repeats: int = 3) -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(reads):
                store.get_envelope(key)
            best = min(best, time.perf_counter() - start)
        return best / reads

    hot_store.get_envelope(key)  # populate the hot tier
    hot_s, cold_s = best_of(hot_store), best_of(cold_store)
    ratio = cold_s / hot_s
    assert ratio >= MIN_TIER_RATIO, (
        f"hot tier only {ratio:.1f}x faster than cold reads "
        f"(threshold: {MIN_TIER_RATIO:.0f}x)"
    )
    return {
        "scenario": f"envelope read x{reads}",
        "hot (us)": hot_s * 1e6,
        "cold (us)": cold_s * 1e6,
        "ratio": ratio,
    }


def bench_cache(root: Path, engine: str = ENGINE) -> dict:
    """Time one cold miss and the steady-state warm hit for one engine."""
    store = ResultStore(root / f"store-{engine}")
    experiment = example1()
    kwargs = dict(trials=TRIALS, engine=engine, seed=SEED, store=store)

    start = time.perf_counter()
    cold = experiment.simulate(**kwargs)
    cold_s = time.perf_counter() - start

    warm_s = float("inf")
    for _ in range(3):  # steady state: ignore first-read filesystem effects
        start = time.perf_counter()
        warm = experiment.simulate(**kwargs)
        warm_s = min(warm_s, time.perf_counter() - start)

    assert cold.to_json() == warm.to_json(), "cache hit is not byte-identical"
    return {
        "engine": engine,
        "trials": TRIALS,
        "cold (s)": cold_s,
        "warm (s)": warm_s,
        "speedup": cold_s / warm_s,
        "artifact (KB)": store.stats()["bytes"] / 1024.0,
    }


def bench_campaign(root: Path) -> list[dict]:
    """Time a fresh campaign vs resuming it against the same store."""
    store = ResultStore(root / "campaign-store")
    campaign = Campaign.grid(
        "bench",
        example1(),
        trials=2_000,
        engines=("direct", "batch-direct"),
        seeds=(1, 2),
    )
    runner = CampaignRunner(store)

    start = time.perf_counter()
    first = runner.run(campaign)
    first_s = time.perf_counter() - start

    start = time.perf_counter()
    resumed = runner.run(campaign)
    resumed_s = time.perf_counter() - start

    assert len(first.computed_keys()) == 4 and resumed.computed_keys() == []
    return [
        {"run": "fresh", "cells": 4, "computed": 4, "time (s)": first_s},
        {"run": "resumed", "cells": 4, "computed": 0, "time (s)": resumed_s},
    ]


def record(cache_rows: list[dict], renamed_row: dict, tier_row: dict) -> None:
    """Append this full run to BENCH_store.json (the store's perf trajectory)."""
    import numpy as np

    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    entry = {
        "benchmark": "bench_store",
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "trials": TRIALS,
        "engines": [
            {
                "engine": row["engine"],
                "cold_s": round(row["cold (s)"], 4),
                "warm_ms": round(row["warm (s)"] * 1e3, 3),
                "speedup": round(row["speedup"], 1),
                "artifact_kib": round(row["artifact (KB)"], 1),
            }
            for row in cache_rows
        ],
        "renamed_warm_ms": round(renamed_row["warm translated (s)"] * 1e3, 3),
        "hot_read_us": round(tier_row["hot (us)"], 2),
        "cold_read_us": round(tier_row["cold (us)"], 1),
    }
    history.append(entry)
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", "--quick", action="store_true", dest="smoke",
        help="CI mode: cache benchmark + ≥100x assertion only",
    )
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        rows = [bench_cache(root)]
        if not args.smoke:
            rows.append(bench_cache(root, engine="batch-direct"))
        body = format_table(rows, floatfmt="{:.4g}")

        renamed_row = bench_renamed(root)
        tier_row = bench_tiers(root)
        body += "\n\n" + format_table([renamed_row], floatfmt="{:.4g}")
        body += "\n\n" + format_table([tier_row], floatfmt="{:.4g}")

        row = rows[0]
        verdict = (
            f"\nwarm-cache lookup is {row['speedup']:.0f}x faster than "
            f"re-simulating the {TRIALS}-trial Example-1 ensemble "
            f"(threshold: {MIN_SPEEDUP:.0f}x)"
            f"\nrenamed+permuted variant warm-hit the original's artifact; "
            f"hot reads {tier_row['ratio']:.0f}x faster than cold "
            f"(threshold: {MIN_TIER_RATIO:.0f}x)"
        )
        if not args.smoke:
            campaign_rows = bench_campaign(root)
            body += "\n\n" + format_table(campaign_rows, floatfmt="{:.4g}")
            verdict += "\ncampaign resume recomputed nothing"
            record(rows, renamed_row, tier_row)
        report("Result store: warm cache vs re-simulation", body + verdict)

        if row["speedup"] < MIN_SPEEDUP:
            print(
                f"FAIL: speedup {row['speedup']:.1f}x below the "
                f"{MIN_SPEEDUP:.0f}x threshold",
                file=sys.stderr,
            )
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
