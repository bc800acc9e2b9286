#!/usr/bin/env python
"""Engineered stochastic dosing: the paper's motivating scenario (Section 1.2).

Bacteria are engineered to invade a tumour and produce a drug, but only a
*fraction* m/n of the (identical) population should respond, so the total dose
is correct.  Each bacterium runs the same synthesized circuit and makes an
independent probabilistic choice: respond (produce the drug) or stay inert.

This script:

1. synthesizes a two-outcome circuit with P(respond) = m/n;
2. simulates a population of bacteria, each running the circuit independently,
   and checks that the responding fraction concentrates around m/n;
3. shows the *programmable* version: the response probability depends
   logarithmically on the quantity of an injected compound, built by composing
   a logarithm module with the stochastic module — so the clinician can adjust
   the dose by changing the injected amount.

Run:  python examples/drug_dosage.py
"""

from __future__ import annotations

import math
import os

from repro.analysis import format_table, wilson_interval
from repro.api import Experiment
from repro.core import (
    DistributionSpec,
    OutcomeSpec,
    SystemComposer,
    build_stochastic_module,
    synthesize_distribution,
)
from repro.core.modules import assimilation_module, linear_module, logarithm_module
from repro.core.rates import TierScheme
from repro.sim import CategoryFiringCondition

POPULATION = int(os.environ.get("REPRO_TRIALS", "400"))


def fixed_fraction_demo(m: int = 30, n: int = 100) -> None:
    """Each bacterium responds with probability m/n."""
    print(f"--- Fixed dosing: target respond fraction {m}/{n} = {m / n:.2f} ---")
    system = synthesize_distribution(
        {"respond": m / n, "inert": 1 - m / n}, gamma=1e3, scale=n
    )
    sampled = Experiment.from_system(system).simulate(trials=POPULATION, seed=7)
    responders = round(sampled.frequencies.get("respond", 0.0) * POPULATION)
    interval = wilson_interval(responders, POPULATION)
    print(
        f"population of {POPULATION} bacteria -> {responders} responded "
        f"({interval.percent:.1f}% , 95% CI ±{interval.half_width * 100:.1f}%)"
    )
    print()


def programmable_dose_demo() -> None:
    """P(respond) = (10 + 10·log2(C))% for an injected compound quantity C.

    A logarithm module computes log2(C); an assimilation stage moves 10
    molecules of the inert input type to the respond input type per unit of
    the computed value, on a base of 10/90.
    """
    print("--- Programmable dosing: P(respond) = 10% + 10%·log2(compound) ---")
    det_tiers = TierScheme(separation=1e3, base_rate=1e-3)
    rows = []
    for compound in (1, 2, 4, 8, 16):
        composer = SystemComposer("dosing")
        composer.add_module(
            "log", logarithm_module(input_name="compound", output_name="ylog",
                                    tiers=det_tiers)
        )
        # gain of 10: each unit of log2(C) moves 10 molecules of probability.
        composer.add_module(
            "gain",
            linear_module(alpha=1, beta=10, input_name="ylog", output_name="shift",
                          tiers=det_tiers),
        )
        spec = DistributionSpec(
            [OutcomeSpec("respond", outputs={"drug": 1}, target_output=20),
             OutcomeSpec("inert", outputs={"idle": 1}, target_output=20)],
            [0.10, 0.90],
        )
        stochastic = build_stochastic_module(spec, gamma=1e3, scale=100, base_rate=1e-1)
        composer.add_network(stochastic)
        composer.add_module(
            "assim", assimilation_module("e_inert", "e_respond", "shift", tiers=det_tiers)
        )
        network = composer.build(initial={"compound": compound})

        counts = (
            Experiment.from_network(network, stopping=CategoryFiringCondition("working", 10))
            .simulate(trials=POPULATION // 2, seed=11 + compound)
            .ensemble.outcome_counts
        )
        responded = counts.get("working[respond]", 0)
        decided = responded + counts.get("working[inert]", 0)
        rows.append(
            {
                "compound": compound,
                "target %": 10 + 10 * math.log2(compound),
                "measured %": 100.0 * responded / max(decided, 1),
                "trials": decided,
            }
        )
    print(format_table(rows, floatfmt="{:.1f}"))
    print()


def main() -> None:
    fixed_fraction_demo()
    programmable_dose_demo()


if __name__ == "__main__":
    main()
