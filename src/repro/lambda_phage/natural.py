"""Surrogate for the natural lambda-phage model (substitution; see DESIGN.md).

The paper's "natural model" is the Arkin–Ross–McAdams stochastic kinetic model
of phage λ infection — 117 reactions over 61 species, whose parameters are not
reproduced in the paper and are not available offline.  The paper uses that
model only as a *black-box source of data points*: for each MOI it estimates,
by Monte-Carlo simulation, the probability that the cI2 threshold is reached,
and fits Equation 14 to those points.

The surrogate here preserves exactly that role while exercising the same
simulation code path:

* for a given MOI, the target probability comes from Equation 14 (the paper's
  own summary of the natural model's response);
* a small two-outcome decision network (a winner-take-all race between a
  lysogeny branch producing ``ci2`` and a lysis branch producing ``cro2``) is
  *programmed by a per-MOI lookup table* of initial quantities to hit that
  probability, and is simulated trial-by-trial with the SSA;
* the per-trial outcome is therefore a Bernoulli draw with the natural model's
  success probability plus the same kind of Monte-Carlo sampling noise the
  paper's data points carry.

Crucially, unlike the synthetic model of Section 3.2, the surrogate does *not*
compute the MOI dependence chemically — each MOI gets its own table entry —
so comparing it against the synthetic model still tests what the paper tests:
whether one fixed set of reactions can reproduce the whole response curve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.curvefit import paper_equation_14
from repro.analysis.empirical import ProportionEstimate, wilson_interval
from repro.api.experiment import Experiment
from repro.api.results import RunResult
from repro.core.spec import DistributionSpec, OutcomeSpec
from repro.core.stochastic_module import build_stochastic_module
from repro.crn.network import ReactionNetwork
from repro.errors import SpecificationError
from repro.sim.events import OutcomeThresholds

__all__ = ["LYSIS", "LYSOGENY", "CRO2_THRESHOLD", "CI2_THRESHOLD", "NaturalLambdaSurrogate",
           "lysogeny_estimate"]


#: Outcome labels used throughout the lambda-phage application.
LYSIS = "lysis"
LYSOGENY = "lysogeny"

#: The outcome thresholds of Section 3.1: 55 molecules of cro2, 145 of ci2.
CRO2_THRESHOLD = 55
CI2_THRESHOLD = 145


def lysogeny_estimate(result: RunResult) -> ProportionEstimate:
    """The fraction of a run's decided trials that reached lysogeny (with CI)."""
    successes = result.ensemble.outcome_counts.get(LYSOGENY, 0)
    decided = successes + result.ensemble.outcome_counts.get(LYSIS, 0)
    return wilson_interval(successes, max(decided, 1))


@dataclass
class NaturalLambdaSurrogate:
    """Monte-Carlo source of "natural model" data points.

    Parameters
    ----------
    scale:
        Total budget of decision molecules; the probability granularity of the
        lookup table is ``1/scale`` (default 200, i.e. 0.5%).
    gamma:
        Rate separation of the internal decision race.
    """

    scale: int = 200
    gamma: float = 1e3

    def lysogeny_probability(self, moi: float) -> float:
        """The target P(cI2 threshold reached) for one MOI (Equation 14, as a fraction)."""
        return paper_equation_14(moi) / 100.0

    def network_for_moi(self, moi: float) -> ReactionNetwork:
        """The per-MOI decision network (programmed from the lookup table)."""
        probability = self.lysogeny_probability(moi)
        if not 0.0 < probability < 1.0:
            raise SpecificationError(
                f"MOI {moi} maps to a degenerate probability {probability}"
            )
        spec = DistributionSpec(
            [
                OutcomeSpec(LYSOGENY, outputs={"ci2": 1}, target_output=CI2_THRESHOLD + 20),
                OutcomeSpec(LYSIS, outputs={"cro2": 1}, target_output=CRO2_THRESHOLD + 20),
            ],
            [probability, 1.0 - probability],
        )
        network = build_stochastic_module(
            spec, gamma=self.gamma, scale=self.scale,
            name=f"natural-surrogate[moi={moi:g}]",
        )
        network.metadata["moi"] = float(moi)
        return network

    def threshold_condition(self) -> OutcomeThresholds:
        """Stop a run when either output crosses its Section-3.1 threshold."""
        return OutcomeThresholds(
            {LYSOGENY: ("ci2", CI2_THRESHOLD), LYSIS: ("cro2", CRO2_THRESHOLD)}
        )

    def simulate_moi(
        self,
        moi: float,
        n_trials: int = 200,
        seed: "int | None" = None,
        engine: str = "direct",
        engine_options=None,
        backend: str = "auto",
    ) -> ProportionEstimate:
        """Fraction of trials reaching the cI2 threshold at one MOI (with CI)."""
        result = Experiment.from_network(
            self.network_for_moi(moi), stopping=self.threshold_condition()
        ).simulate(
            trials=n_trials,
            engine=engine,
            seed=seed,
            engine_options=engine_options,
            backend=backend,
        )
        return lysogeny_estimate(result)

    def response_curve(
        self,
        moi_values,
        n_trials: int = 200,
        seed: "int | None" = None,
        engine: str = "direct",
    ) -> dict[float, ProportionEstimate]:
        """Simulated ``{moi: estimate}`` data points across an MOI grid."""
        curve = {}
        for offset, moi in enumerate(moi_values):
            curve[float(moi)] = self.simulate_moi(
                moi,
                n_trials=n_trials,
                seed=None if seed is None else seed + offset,
                engine=engine,
            )
        return curve
