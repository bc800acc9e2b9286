"""Robustness analysis: how much does the response move under perturbations?

The paper claims the synthesized response is "precise and robust to
perturbations".  This module quantifies that claim for a synthesized system by
perturbing (a) the initial input quantities and (b) the reaction rates, and
measuring how far the outcome distribution drifts (total-variation distance to
the unperturbed target).  The expectation from the construction is:

* perturbing *all* input quantities by a common factor changes nothing (only
  ratios matter);
* perturbing rates *within* a category changes little (only the ratio of
  initializing rates enters the programmed distribution);
* perturbing the *ratio* of the initializing quantities moves the distribution
  by exactly the ratio change — that is the programming knob, not a fragility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.distance import total_variation
from repro.api.experiment import Experiment
from repro.core.synthesizer import SynthesizedSystem
from repro.crn.network import ReactionNetwork
from repro.errors import AnalysisError
from repro.sim.rng import make_rng

__all__ = ["PerturbationResult", "perturb_rates", "perturb_initial_quantities", "robustness_report"]


@dataclass(frozen=True)
class PerturbationResult:
    """Outcome distribution under one perturbation.

    Attributes
    ----------
    description:
        What was perturbed.
    distribution:
        The measured outcome distribution.
    tv_from_target:
        Total-variation distance from the unperturbed target distribution.
    """

    description: str
    distribution: dict[str, float]
    tv_from_target: float


def perturb_rates(
    network: ReactionNetwork,
    relative_sigma: float,
    seed: "int | None" = None,
    categories: "Sequence[str] | None" = None,
) -> ReactionNetwork:
    """Return a copy of ``network`` with rates jittered by a lognormal factor.

    Each selected reaction's rate is multiplied by ``exp(N(0, sigma))`` — a
    crude model of uncertainty in engineered rate constants.
    """
    if relative_sigma < 0:
        raise AnalysisError(f"relative_sigma must be non-negative, got {relative_sigma}")
    rng = make_rng(seed)
    perturbed = []
    for reaction in network.reactions:
        if categories is not None and reaction.category not in categories:
            perturbed.append(reaction)
            continue
        factor = float(np.exp(rng.normal(0.0, relative_sigma)))
        perturbed.append(reaction.scaled(factor))
    return ReactionNetwork(
        perturbed,
        initial_state=network.initial_state,
        name=f"{network.name}[rates~{relative_sigma:g}]",
        metadata=dict(network.metadata),
    )


def perturb_initial_quantities(
    network: ReactionNetwork,
    relative_sigma: float,
    seed: "int | None" = None,
    species: "Sequence[str] | None" = None,
) -> ReactionNetwork:
    """Return a copy with initial quantities jittered (rounded, floored at 0)."""
    if relative_sigma < 0:
        raise AnalysisError(f"relative_sigma must be non-negative, got {relative_sigma}")
    rng = make_rng(seed)
    copy = network.copy(name=f"{network.name}[init~{relative_sigma:g}]")
    selected = set(species) if species is not None else None
    for sp, count in network.initial_state.items():
        if selected is not None and sp.name not in selected:
            continue
        factor = float(np.exp(rng.normal(0.0, relative_sigma)))
        copy.set_initial(sp, max(0, int(round(count * factor))))
    return copy


def robustness_report(
    system: SynthesizedSystem,
    rate_sigma: float = 0.2,
    quantity_sigma: float = 0.2,
    n_trials: int = 400,
    n_perturbations: int = 5,
    seed: "int | None" = None,
    working_firings: int = 10,
) -> list[PerturbationResult]:
    """Measure distribution drift under rate and initial-quantity perturbations.

    Returns one :class:`PerturbationResult` for the unperturbed system (as a
    Monte-Carlo noise floor) followed by ``n_perturbations`` random rate
    perturbations and ``n_perturbations`` random quantity perturbations.
    """
    target = system.target_distribution()
    results: list[PerturbationResult] = []

    def measure(network: ReactionNetwork, description: str, run_seed: int) -> None:
        distribution = (
            Experiment.from_network(
                network,
                stopping=system.stopping_condition(working_firings),
                classifier=system.outcome_classifier(),
            )
            .simulate(trials=n_trials, seed=run_seed)
            .frequencies
        )
        results.append(
            PerturbationResult(
                description=description,
                distribution=distribution,
                tv_from_target=total_variation(distribution, target),
            )
        )

    base_seed = 0 if seed is None else seed
    measure(system.network, "unperturbed", base_seed)
    for i in range(n_perturbations):
        perturbed = perturb_rates(system.network, rate_sigma, seed=base_seed + 100 + i)
        measure(perturbed, f"rates lognormal sigma={rate_sigma:g} [{i}]", base_seed + 200 + i)
    for i in range(n_perturbations):
        perturbed = perturb_initial_quantities(
            system.network, quantity_sigma, seed=base_seed + 300 + i
        )
        measure(
            perturbed,
            f"initial quantities lognormal sigma={quantity_sigma:g} [{i}]",
            base_seed + 400 + i,
        )
    return results
