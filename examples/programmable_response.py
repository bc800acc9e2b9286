#!/usr/bin/env python
"""Programmable response (Example 2): probabilities as functions of inputs.

The paper's Example 2 asks for

    p1 = 0.3 + 0.02·X1 − 0.03·X2
    p2 = 0.4 + 0.03·X2
    p3 = 0.3 − 0.02·X1

realized by adding "pre-processing" reactions (2·e3 + x1 → 2·e1 and
3·e1 + x2 → 3·e2) ahead of the stochastic module.  This script synthesizes
that design, sweeps the input quantities X1 and X2, and compares the measured
outcome frequencies against the affine target at every sweep point.

Run:  python examples/programmable_response.py
"""

from __future__ import annotations

import os

from repro.analysis import format_table, total_variation
from repro.api import Experiment
from repro.core import AffineResponseSpec, synthesize_affine_response

TRIALS = int(os.environ.get("REPRO_TRIALS", "400"))


def main() -> None:
    spec = AffineResponseSpec(
        base={"1": 0.3, "2": 0.4, "3": 0.3},
        slopes={
            "1": {"x1": 0.02, "x2": -0.03},
            "2": {"x2": 0.03},
            "3": {"x1": -0.02},
        },
    )
    system = synthesize_affine_response(spec, gamma=1e3, scale=100)

    print("=== Synthesized programmable design ===")
    print(system.describe())
    print()
    print("pre-processing reactions:")
    for _, reaction in system.network.reactions_in_category("preprocessing"):
        print(f"  {reaction}")
    print()

    rows = []
    for x1, x2 in [(0, 0), (3, 0), (6, 0), (0, 5), (5, 5), (10, 8)]:
        inputs = {"x1": x1, "x2": x2}
        sampled = (
            Experiment.from_system(system)
            .program(inputs)
            .simulate(trials=TRIALS, seed=100 + 7 * x1 + x2)
        )
        target = sampled.target
        measured = sampled.frequencies
        rows.append(
            {
                "X1": x1,
                "X2": x2,
                "p1 target": target["1"],
                "p1 measured": measured.get("1", 0.0),
                "p2 target": target["2"],
                "p2 measured": measured.get("2", 0.0),
                "p3 target": target["3"],
                "p3 measured": measured.get("3", 0.0),
                "TV": total_variation(measured, target),
            }
        )

    print(f"=== Input sweep ({TRIALS} trials per point) ===")
    print(format_table(rows, floatfmt="{:.3f}"))


if __name__ == "__main__":
    main()
