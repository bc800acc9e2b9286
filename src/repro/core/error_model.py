"""Error analysis of the stochastic module (Section 2.1.3, Figure 3).

The paper defines an *error* as "the case where the first initializing
reaction to fire does not determine the final outcome; instead, a different
catalyst type wins out", and characterizes the error probability as a function
of the rate-separation factor γ by Monte-Carlo simulation:

* three outcomes, every initializing rate ``k_i = 1``;
* the other categories' rates set from γ via Equation 1;
* every input quantity ``E_i = 100``;
* an outcome is declared once a working reaction has fired 10 times;
* 100,000 trials per γ, γ swept from 1 to 10⁵ (Figure 3).

Each trial is split at its first event, which only chooses a start state
(the strong Markov property): P(error) = Σ_i π_i · P(outcome ≠ i | start_i)
over the :func:`first_events` branches.  Each branch is one ordinary
``Experiment.simulate`` ensemble on any sampling engine, and the ``fsp``
engine solves the same branches exactly at reduced size (docs/testing.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from repro.core.spec import DistributionSpec, OutcomeSpec
from repro.core.stochastic_module import build_stochastic_module
from repro.crn.network import ReactionNetwork
from repro.errors import SynthesisError
from repro.sim import registry
from repro.sim.events import CategoryFiringCondition
from repro.sim.outcomes import UNDECIDED, apportion
from repro.sim.propensity import reaction_propensity
from repro.sim.rng import derive_seed

__all__ = [
    "ErrorEstimate",
    "GammaSweepPoint",
    "build_error_experiment_network",
    "estimate_error_rate",
    "first_events",
    "gamma_sweep",
    "PAPER_GAMMA_VALUES",
]


#: The γ grid of Figure 3 (1 to 10⁵, one point per decade).
PAPER_GAMMA_VALUES = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)


@dataclass(frozen=True)
class ErrorEstimate:
    """Monte-Carlo estimate of the stochastic-module error at one γ.

    Attributes
    ----------
    gamma:
        Rate-separation factor.
    n_trials / n_errors / n_undecided:
        Trial counts; undecided trials (no outcome declared before the step
        limit) are excluded from the error rate.
    error_rate:
        Fraction of decided trials in error.
    """

    gamma: float
    n_trials: int
    n_errors: int
    n_undecided: int

    @property
    def error_rate(self) -> float:
        decided = self.n_trials - self.n_undecided
        if decided <= 0:
            return 0.0
        return self.n_errors / decided

    @property
    def error_percent(self) -> float:
        """Error rate as a percentage (the unit of Figure 3's y-axis)."""
        return 100.0 * self.error_rate


@dataclass(frozen=True)
class GammaSweepPoint:
    """One point of the Figure-3 sweep."""

    gamma: float
    estimate: ErrorEstimate


def build_error_experiment_network(
    gamma: float,
    n_outcomes: int = 3,
    input_quantity: int = 100,
    base_rate: float = 1.0,
) -> ReactionNetwork:
    """The network of the Figure-3 experiment.

    ``n_outcomes`` outcomes with equal probabilities, each input type starting
    at ``input_quantity`` molecules (the paper: 3 outcomes, 100 each), rates
    derived from γ via Equation 1.
    """
    if n_outcomes < 2:
        raise SynthesisError("the error experiment needs at least two outcomes")
    labels = [str(i + 1) for i in range(n_outcomes)]
    outcomes = [OutcomeSpec(label, target_output=input_quantity) for label in labels]
    spec = DistributionSpec(outcomes, [1.0 / n_outcomes] * n_outcomes)
    return build_stochastic_module(
        spec,
        gamma=gamma,
        scale=n_outcomes * input_quantity,
        base_rate=base_rate,
        name=f"error-experiment[gamma={gamma:g}]",
    )


def first_events(network: ReactionNetwork) -> "list[tuple[str, float, dict[str, int]]]":
    """``(label, π_i, start_i)`` for each reaction that can fire first.

    ``π_i = a_i / Σ_j a_j`` over the initial propensities; ``start_i`` is the
    initial state after reaction ``i``, by species name, zeros included.  An
    enabled reaction that is not ``initializing[<label>]`` is an error.
    """
    state = network.initial_state
    enabled = []
    for reaction in network.reactions:
        propensity = reaction_propensity(reaction, state)
        if propensity <= 0:
            continue
        match = re.fullmatch(r"initializing\[(.+)\]", reaction.name)
        if match is None:
            raise SynthesisError(
                f"reaction {reaction.name or str(reaction)!r} can fire at the initial "
                "state but is not an initializing[<label>] reaction"
            )
        enabled.append((match.group(1), propensity, state.applied(reaction)))
    if not enabled:
        raise SynthesisError("no reaction can fire at the network's initial state")
    total = sum(propensity for _, propensity, _ in enabled)
    species = network.species_order
    return [
        (label, propensity / total, {s.name: after[s] for s in species})
        for label, propensity, after in enabled
    ]


def estimate_error_rate(
    gamma: float,
    n_trials: int = 2000,
    seed: "int | None" = None,
    n_outcomes: int = 3,
    input_quantity: int = 100,
    declare_after: int = 10,
    engine: str = "direct",
    max_steps: int = 200_000,
    engine_options=None,
    backend: str = "auto",
) -> ErrorEstimate:
    """Estimate the stochastic-module error probability at one γ.

    ``n_trials`` are shared over the :func:`first_events` branches by
    :func:`~repro.sim.outcomes.apportion`; branch ``i`` runs its share from
    ``start_i``, seeded by ``derive_seed(seed, i)``.  A decided trial is in
    error when another branch's working reaction declares the outcome.
    """
    from repro.api.experiment import Experiment

    if n_trials <= 0:
        raise SynthesisError(f"n_trials must be positive, got {n_trials}")
    if registry.get(engine).kind not in registry.SAMPLING_KINDS:
        raise SynthesisError(
            f"the error experiment samples trials; {engine!r} is deterministic"
        )
    network = build_error_experiment_network(
        gamma, n_outcomes=n_outcomes, input_quantity=input_quantity
    )
    experiment = Experiment.from_network(
        network, stopping=CategoryFiringCondition("working", declare_after)
    ).configure(max_steps=max_steps)
    branches = first_events(network)
    shares = apportion({label: p for label, p, _ in branches}, n_trials)

    n_errors = 0
    n_undecided = 0
    for index, (label, _, start) in enumerate(branches):
        share = shares.get(label, 0)
        if share == 0:
            continue
        counts = experiment.program(start).simulate(
            trials=share,
            engine=engine,
            seed=None if seed is None else derive_seed(seed, index),
            engine_options=engine_options,
            backend=backend,
        ).ensemble.outcome_counts
        undecided = counts.get(UNDECIDED, 0)
        n_undecided += undecided
        n_errors += share - undecided - counts.get(f"working[{label}]", 0)
    return ErrorEstimate(
        gamma=gamma, n_trials=n_trials, n_errors=n_errors, n_undecided=n_undecided
    )


def gamma_sweep(
    gammas: Sequence[float] = PAPER_GAMMA_VALUES,
    n_trials: int = 2000,
    seed: "int | None" = None,
    **kwargs,
) -> list[GammaSweepPoint]:
    """Sweep γ and estimate the error at each value (the Figure-3 series)."""
    points = []
    for offset, gamma in enumerate(gammas):
        estimate = estimate_error_rate(
            gamma,
            n_trials=n_trials,
            seed=None if seed is None else seed + offset,
            **kwargs,
        )
        points.append(GammaSweepPoint(gamma=gamma, estimate=estimate))
    return points
