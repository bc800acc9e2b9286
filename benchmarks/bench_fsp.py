"""A6 — Finite-state-projection solver: exact distributions at 10⁴⁺ states.

The exact CTMC machinery used to top out at a few hundred states (dense
per-state Python loops); the sparse FSP solver (``repro.sim.fsp``) assembles
the CME generator in CSR form from a vectorized breadth-first enumeration and
advances ``p(t)`` with ``expm_multiply``.  This harness demonstrates the new
scale on a two-stage gene-expression cascade (mRNA/protein birth–death, the
canonical FSP workload) truncated at ≥ 10,000 states, reporting the rigorous
truncation-error bound alongside the wall clock, and cross-checks the
solution against the analytically known transient mRNA distribution
(Poisson) and mean.

A second section reproduces the exact-oracle acceptance check: the ``fsp``
engine's outcome probabilities for the paper's Example 1 module must be the
programmed (0.3, 0.4, 0.3) to ≤ 1e-12, over 4 states (the start state and
one absorbing state per outcome: the first catalyst produced decides).

A third section times the exact oracles of the 12 conformance-corpus models,
which every conformance pass solves: per model the enumerated and transient
state counts, the enumeration and absorption-solve times (best of
``CORPUS_REPEATS``), and the pass total.  Every oracle must leave at most
1e-9 undecided mass.

Run directly for a wall-clock report (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_fsp.py [--quick]

A full run appends one entry to ``BENCH_fsp.json`` at the repository root
(host, the cascade solve, the per-model corpus oracle times and the pass
total); ``--quick`` records nothing.

or through pytest-benchmark with the other harnesses::

    PYTHONPATH=src python -m pytest benchmarks/bench_fsp.py -q
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

from _config import report

from repro.analysis import format_table
from repro.api import Experiment
from repro.crn import parse_network
from repro.sim import FspEngine, FspOptions
from repro.sim.fsp import UNDECIDED, absorption_probabilities

#: Two-stage expression cascade: mRNA (m) bursts proteins (p).
#: Stationary means: m ~ Poisson(50), E[p] = 50 — the caps put the boundary
#: many standard deviations out, so the truncation bound is tiny.
CASCADE = """
init: gene = 1
gene ->{10} gene + m
m ->{0.2} 0
m ->{0.2} m + p
p ->{0.2} 0
"""

#: Truncation caps giving a 111 × 121 = 13,431-state projection (≥ 10⁴).
CAPS = {"m": 110, "p": 120}
T_FINAL = 12.0
QUICK_CAPS = {"m": 90, "p": 110}

#: Timed passes over the corpus oracles; each phase reports its best.
CORPUS_REPEATS = 7
QUICK_CORPUS_REPEATS = 1

#: Largest undecided mass a corpus oracle may leave (all are complete spaces).
MAX_UNDECIDED = 1e-9

#: Example 1's programmed distribution, which its exact oracle must return.
EXAMPLE1_TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
EXAMPLE1_STATES = 4
EXAMPLE1_TOLERANCE = 1e-12

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fsp.json"


def solve_cascade(caps: dict[str, int], t_final: float) -> list[dict[str, object]]:
    """Solve the cascade's CME and report scale, accuracy and the error bound."""
    network = parse_network(CASCADE, name="expression-cascade")
    engine = FspEngine(
        network,
        engine_options=FspOptions(
            count_caps=dict(caps), tolerance=1e-6, expand=False, checkpoints=13
        ),
    )
    start = time.perf_counter()
    result = engine.solve(t_final)
    elapsed = time.perf_counter() - start

    # mRNA is a linear birth–death process: m(t) ~ Poisson(λ(t)) exactly.
    birth, decay = 10.0, 0.2
    lam = (birth / decay) * (1.0 - math.exp(-decay * t_final))
    marginal = result.marginal("m")
    tv_poisson = 0.5 * sum(
        abs(marginal.get(k, 0.0) - math.exp(-lam) * lam**k / math.factorial(k))
        for k in range(0, max(marginal) + 1)
    )
    rows = [
        {
            "states": result.space.n_states,
            "checkpoints": len(result.times),
            "seconds": elapsed,
            "error_bound": result.error_bound(),
            "mean_m": result.mean("m"),
            "analytic_mean_m": lam,
            "tv_m_vs_poisson": tv_poisson,
        }
    ]
    return rows


def example1_target() -> list[dict[str, object]]:
    """The fsp engine's Example-1 outcome probabilities against the target."""
    experiment = Experiment.from_distribution(EXAMPLE1_TARGET, gamma=1e3, scale=100)
    start = time.perf_counter()
    result = experiment.simulate(engine="fsp")
    milliseconds = 1e3 * (time.perf_counter() - start)
    return [
        {
            "outcome": label,
            "target": target,
            "fsp": result.exact.get(label, 0.0),
            "abs_diff": abs(result.exact.get(label, 0.0) - target),
            "states": int(result.exact_info["n_states"]),
            "solve_ms": milliseconds,
        }
        for label, target in EXAMPLE1_TARGET.items()
    ]


def corpus_oracles(repeats: int) -> list[dict[str, object]]:
    """Enumerate and solve every corpus oracle; one row per model plus a total.

    The oracles run as a conformance pass runs them (``FspEngine`` under the
    model's classifier and ``fsp_options()``), split into the enumeration and
    the absorption solve.  Times are the best of ``repeats`` passes, in ms.
    """
    from repro.zoo.corpus import corpus_entries

    rows: list[dict[str, object]] = []
    for entry in corpus_entries():
        model = entry.model
        engine = FspEngine(model.network(), engine_options=model.fsp_options())
        classify = model.state_classifier()
        enumerate_s = solve_s = math.inf
        for _ in range(repeats):
            start = time.perf_counter()
            space = engine.enumerate(classify=classify)
            middle = time.perf_counter()
            result = absorption_probabilities(space)
            enumerate_s = min(enumerate_s, middle - start)
            solve_s = min(solve_s, time.perf_counter() - middle)
        rows.append(
            {
                "model": entry.name,
                "states": result.n_states,
                "transient": result.n_transient,
                "enumerate_ms": 1e3 * enumerate_s,
                "solve_ms": 1e3 * solve_s,
                "undecided": result.probability(UNDECIDED),
            }
        )
    rows.append(
        {
            "model": "(pass total)",
            "states": sum(row["states"] for row in rows),
            "transient": sum(row["transient"] for row in rows),
            "enumerate_ms": sum(row["enumerate_ms"] for row in rows),
            "solve_ms": sum(row["solve_ms"] for row in rows),
            "undecided": max(row["undecided"] for row in rows),
        }
    )
    return rows


def record(tables: dict[str, list[dict[str, object]]]) -> None:
    """Append this full run to BENCH_fsp.json (the FSP solver's perf trajectory)."""
    import numpy as np
    import scipy

    history = []
    if RESULT_PATH.exists():
        try:
            history = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            history = []
    cascade = tables["cascade"][0]
    *models, total = tables["corpus"]
    history.append(
        {
            "benchmark": "bench_fsp",
            "host": {
                "cpus": os.cpu_count(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "cascade": {
                "states": cascade["states"],
                "seconds": round(cascade["seconds"], 3),
                "error_bound": cascade["error_bound"],
            },
            "corpus_repeats": CORPUS_REPEATS,
            "corpus": [
                {
                    "model": row["model"],
                    "states": row["states"],
                    "transient": row["transient"],
                    "enumerate_ms": round(row["enumerate_ms"], 2),
                    "solve_ms": round(row["solve_ms"], 2),
                }
                for row in models
            ],
            "pass_ms": round(total["enumerate_ms"] + total["solve_ms"], 1),
            "pass_enumerate_ms": round(total["enumerate_ms"], 1),
            "pass_solve_ms": round(total["solve_ms"], 1),
        }
    )
    RESULT_PATH.write_text(json.dumps(history, indent=2) + "\n", encoding="utf-8")


def run_report(quick: bool) -> dict[str, list[dict[str, object]]]:
    """Measure every section, print/record the tables, apply acceptance checks."""
    caps = QUICK_CAPS if quick else CAPS
    cascade_rows = solve_cascade(caps, T_FINAL)
    example1_rows = example1_target()
    corpus_rows = corpus_oracles(QUICK_CORPUS_REPEATS if quick else CORPUS_REPEATS)
    report(
        "A6: sparse FSP transient solve (expression cascade)",
        format_table(cascade_rows, floatfmt="{:.4g}"),
    )
    report(
        "A6: fsp engine vs the programmed distribution on Example 1",
        format_table(example1_rows, floatfmt="{:.3g}"),
    )
    report(
        "A6: corpus FSP oracles (enumeration + absorption solve)",
        format_table(corpus_rows, floatfmt="{:.4g}"),
    )

    row = cascade_rows[0]
    if not quick:
        assert row["states"] >= 10_000, (
            f"projection only reached {row['states']} states (< 10,000)"
        )
    assert row["error_bound"] <= 1e-6, (
        f"truncation error bound {row['error_bound']:.3e} exceeds 1e-6"
    )
    assert abs(row["mean_m"] - row["analytic_mean_m"]) < 1e-3
    assert row["tv_m_vs_poisson"] < 1e-4

    for outcome_row in example1_rows:
        assert outcome_row["states"] == EXAMPLE1_STATES, (
            f"Example-1 oracle enumerated {outcome_row['states']} states, "
            f"expected {EXAMPLE1_STATES}"
        )
        assert outcome_row["abs_diff"] <= EXAMPLE1_TOLERANCE, (
            f"Example-1 oracle is {outcome_row['abs_diff']:.2e} off the programmed "
            f"probability of outcome {outcome_row['outcome']}"
        )
    for model_row in corpus_rows[:-1]:
        assert model_row["undecided"] <= MAX_UNDECIDED, (
            f"corpus oracle {model_row['model']} leaves "
            f"{model_row['undecided']:.2e} undecided mass"
        )
    return {"cascade": cascade_rows, "example1": example1_rows, "corpus": corpus_rows}


def test_fsp_scale(benchmark):
    """pytest-benchmark entry point: full ≥ 10⁴-state projection."""
    tables = benchmark.pedantic(run_report, args=(False,), rounds=1, iterations=1)
    benchmark.extra_info["states"] = tables["cascade"][0]["states"]
    benchmark.extra_info["error_bound"] = tables["cascade"][0]["error_bound"]


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: smaller truncation box, one corpus pass, "
                        "nothing recorded")
    args = parser.parse_args(argv)
    tables = run_report(quick=args.quick)
    if not args.quick:
        record(tables)
    return 0


if __name__ == "__main__":
    sys.exit(main())
