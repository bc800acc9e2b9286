#!/usr/bin/env python
"""Exact absorption probabilities vs Monte-Carlo simulation of a small module.

For small instances the outcome probabilities of a synthesized design can be
computed *exactly* by treating the network as a continuous-time Markov chain
and solving for its absorption probabilities — no sampling noise.  The
finite-state-projection engine (``FspEngine.outcome_probabilities``) does
this over the complete reachable space.  This script builds a two-outcome
module with a handful of molecules, computes the exact outcome distribution,
and shows Monte-Carlo estimates converging to it as the trial count grows.  It also shows how the exact winner-take-all "tie" mass
(both catalysts annihilated) shrinks as the rate separation γ increases — the
same effect Figure 3 measures by sampling.

Run:  python examples/exact_vs_simulated.py
"""

from __future__ import annotations

from repro.analysis import format_table
from repro.api import Experiment
from repro.core import DistributionSpec, OutcomeSpec, build_stochastic_module
from repro.sim import CategoryFiringCondition, FspEngine


def classify(state: dict) -> "str | None":
    """Outcome = the sole surviving catalyst once the inputs are consumed."""
    if state.get("e_A", 0) == 0 and state.get("e_B", 0) == 0:
        a, b = state.get("d_A", 0), state.get("d_B", 0)
        if a > 0 and b == 0:
            return "A"
        if b > 0 and a == 0:
            return "B"
        if a == 0 and b == 0:
            return "tie"
    return None


def build(gamma: float):
    spec = DistributionSpec(
        [OutcomeSpec("A", target_output=3), OutcomeSpec("B", target_output=3)],
        [0.25, 0.75],
    )
    return build_stochastic_module(spec, gamma=gamma, scale=4)


def exact(network):
    """Absorption probabilities over the complete reachable space."""
    return FspEngine(network).outcome_probabilities(classify, on_overflow="raise")


def main() -> None:
    print("=== Exact outcome probabilities (2-outcome module, 4 input molecules) ===")
    rows = []
    for gamma in (10.0, 100.0, 1000.0):
        result = exact(build(gamma))
        rows.append(
            {
                "gamma": gamma,
                "P(A)": result.probability("A"),
                "P(B)": result.probability("B"),
                "P(tie)": result.probability("tie"),
                "states": result.n_states,
            }
        )
    print(format_table(rows, floatfmt="{:.5f}"))
    print("(programmed target: P(A)=0.25, P(B)=0.75; the tie mass is the module's")
    print(" winner-take-all error and shrinks as gamma grows — the Figure-3 effect)")
    print()

    print("=== Monte-Carlo estimates converging to the exact answer (gamma=100) ===")
    network = build(100.0)
    decided = exact(network).decided()
    rows = []
    for trials in (100, 400, 1600):
        ensemble = Experiment.from_network(
            network, stopping=CategoryFiringCondition("working", 3)
        ).simulate(trials=trials, seed=9).ensemble
        measured = ensemble.outcome_distribution()
        rows.append(
            {
                "trials": trials,
                "P(A) sampled": measured.get("working[A]", 0.0),
                "P(A) exact": decided["A"],
                "abs error": abs(measured.get("working[A]", 0.0) - decided["A"]),
            }
        )
    print(format_table(rows, floatfmt="{:.4f}"))


if __name__ == "__main__":
    main()
