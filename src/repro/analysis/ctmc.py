"""Exact continuous-time Markov chain analysis of reaction networks.

The paper analyzes its constructions by Monte-Carlo simulation.  The outcome
probabilities can, however, be computed exactly: the network is a CTMC over
molecular-count states, outcome events ("catalyst ``d_1`` was produced
first", "``cro2`` reached its threshold") define absorbing classes, and the
absorption probabilities solve a sparse linear system over the transient
states.

This gives the test suite assertions with *no sampling noise* — e.g. the
3-outcome stochastic module with tiny input quantities must hit the programmed
distribution exactly (up to the γ-dependent error that can itself be computed
exactly here).

The heavy lifting — breadth-first reachable-state enumeration and the sparse
CSR absorption solve — is shared with the finite-state-projection engine
(:mod:`repro.sim.fsp`), whose vectorized frontier expansion replaced the
original dense per-state Python loop here, pushing exact analysis from
hundreds of states to 10⁴⁺.  Enumeration still aborts if it exceeds
``max_states`` (absorption analysis needs the *complete* reachable space; use
the ``fsp`` engine's truncated transient solve when that is out of reach).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.errors import CTMCError, FspError
from repro.sim.fsp import UNDECIDED, absorption_probabilities, enumerate_states
from repro.sim.propensity import CompiledNetwork

__all__ = ["ExactOutcomeResult", "outcome_probabilities", "expected_outcome_counts"]


@dataclass(frozen=True)
class ExactOutcomeResult:
    """Result of an exact outcome-probability computation.

    Attributes
    ----------
    probabilities:
        ``{label: probability}`` of absorption into each outcome class, plus
        ``"(undecided)"`` for dead-end states that the classifier left
        unlabeled and for states trapped where no outcome is reachable
        (probability mass that never produces an outcome).
    n_states:
        Number of states enumerated (transient + absorbing representatives).
    n_transient:
        Number of transient states in the linear system.
    """

    probabilities: dict[str, float]
    n_states: int
    n_transient: int

    def probability(self, label: str) -> float:
        """Probability of one outcome (0.0 if never reached)."""
        return self.probabilities.get(label, 0.0)

    def decided(self) -> dict[str, float]:
        """The distribution conditioned on an outcome being produced."""
        decided = {k: v for k, v in self.probabilities.items() if k != UNDECIDED}
        total = sum(decided.values())
        if total <= 0:
            raise CTMCError("no probability mass reaches any outcome")
        return {k: v / total for k, v in decided.items()}


def outcome_probabilities(
    network: ReactionNetwork,
    classify: Callable[[Mapping[str, int]], "str | None"],
    initial_state: "Mapping[str, int] | None" = None,
    max_states: int = 200_000,
) -> ExactOutcomeResult:
    """Compute exact outcome probabilities of a reaction network.

    Parameters
    ----------
    network:
        The network to analyze.
    classify:
        Callable receiving a ``{species name: count}`` dictionary and
        returning an outcome label, or ``None`` if the state is not (yet) an
        outcome.  Classified states are treated as absorbing.
    initial_state:
        Optional override of the network's initial state.
    max_states:
        Enumeration limit; exceeding it raises :class:`CTMCError`.

    Notes
    -----
    Because absorption probabilities of a CTMC depend only on the *jump
    chain*, the linear system is built from transition probabilities
    ``rate / exit_rate`` rather than raw rates, which keeps the matrix well
    conditioned even with the huge rate separations this paper uses.
    Enumeration and the sparse solve delegate to :mod:`repro.sim.fsp`.
    """
    compiled = CompiledNetwork.compile(network)
    species_names = [s.name for s in compiled.species]

    if initial_state is None:
        start = compiled.initial_counts().astype(np.int64)
    else:
        counts = dict(initial_state)
        start = np.array(
            [int(counts.get(name, network.initial_count(name))) for name in species_names],
            dtype=np.int64,
        )

    try:
        space = enumerate_states(
            compiled, start, classify=classify, max_states=max_states,
            on_overflow="raise",
        )
    except FspError as exc:
        raise CTMCError(
            f"state space exceeds max_states={max_states}; "
            "exact absorption analysis needs the complete reachable space — "
            "use the truncated 'fsp' transient solver for larger systems"
        ) from exc
    absorption = absorption_probabilities(space)
    return ExactOutcomeResult(
        probabilities=absorption.probabilities,
        n_states=absorption.n_states,
        n_transient=absorption.n_transient,
    )


def expected_outcome_counts(
    result: "ExactOutcomeResult | Mapping[str, float]", n_trials: int
) -> dict[str, float]:
    """Expected outcome counts over ``n_trials`` i.i.d. runs (for test tolerances).

    Accepts an :class:`ExactOutcomeResult`, any object with a
    ``probabilities`` mapping (e.g. the FSP engine's
    :class:`~repro.sim.fsp.AbsorptionResult`), or a bare ``{label:
    probability}`` mapping — the exact-oracle shapes the conformance suite
    derives its chi-squared expectations from.
    """
    if n_trials <= 0:
        raise CTMCError(f"n_trials must be positive, got {n_trials}")
    probabilities = result if isinstance(result, Mapping) else result.probabilities
    return {label: probability * n_trials for label, probability in probabilities.items()}
