"""Top-level synthesis API.

This is the library's main entry point, mirroring the paper's computational
framework (Figure 1): given a target probability distribution over discrete
outcomes — optionally programmable as an affine function of input quantities —
produce a set of biochemical reactions realizing it.

* :func:`synthesize_distribution` builds a plain stochastic module
  (Example 1);
* :func:`synthesize_affine_response` additionally compiles pre-processing
  reactions (Example 2);
* :class:`SynthesizedSystem` wraps the resulting network with the metadata
  needed to run it: how to detect that an outcome has been produced, how to
  program inputs, and what the target distribution is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.core.modules.preprocessing import PreprocessingPlan, compile_affine_response
from repro.core.rates import RateLadder
from repro.core.spec import AffineResponseSpec, DistributionSpec, OutcomeSpec
from repro.core.stochastic_module import StochasticModuleLayout, build_stochastic_module
from repro.crn.network import ReactionNetwork
from repro.errors import SpecificationError, SynthesisError
from repro.sim.events import CategoryFiringCondition, StoppingCondition
from repro.sim.outcomes import WorkingOutcomeClassifier
from repro.sim.trajectory import Trajectory

__all__ = ["SynthesizedSystem", "synthesize_distribution", "synthesize_affine_response"]


@dataclass
class SynthesizedSystem:
    """A synthesized design: the network plus everything needed to exercise it.

    Attributes
    ----------
    network:
        The complete reaction network (stochastic module plus any
        pre-processing / deterministic modules).
    spec:
        The target :class:`DistributionSpec` (base distribution for affine
        responses).
    gamma / scale:
        Rate-separation factor and input-quantity budget used.
    layout:
        The species naming convention of the stochastic module.
    affine:
        The affine response spec, when the system was synthesized with one.
    preprocessing:
        The compiled pre-processing plan, when present.
    """

    network: ReactionNetwork
    spec: DistributionSpec
    gamma: float
    scale: int
    layout: StochasticModuleLayout = field(default_factory=StochasticModuleLayout)
    affine: "AffineResponseSpec | None" = None
    preprocessing: "PreprocessingPlan | None" = None

    # -- structure ------------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """Outcome labels."""
        return self.spec.labels

    def input_species(self, label: str) -> str:
        """The stochastic-module input type ``e`` for an outcome."""
        return self.layout.input_species(label)

    def catalyst_species(self, label: str) -> str:
        """The catalyst type ``d`` for an outcome."""
        return self.layout.catalyst_species(label)

    def working_reaction_name(self, label: str) -> str:
        """The name of the working reaction that signals an outcome."""
        return f"working[{label}]"

    def rate_ladder(self) -> RateLadder:
        """The rate ladder used by the stochastic module."""
        return RateLadder(gamma=self.gamma)

    # -- running ---------------------------------------------------------------------

    def stopping_condition(self, working_firings: int = 10) -> StoppingCondition:
        """Stop a run once any working reaction has fired ``working_firings`` times.

        The paper's convention (Section 2.1.3): "a working reaction needs to
        fire 10 times for us to declare an outcome"; the stop detail is the
        working reaction's name, which :meth:`outcome_classifier` maps back
        to the outcome label.
        """
        return CategoryFiringCondition("working", working_firings)

    def catalyst_map(self) -> dict[str, str]:
        """``{outcome label: catalyst species name}`` under this layout."""
        return {label: self.catalyst_species(label) for label in self.labels}

    def state_classifier(self):
        """State → outcome classifier for exact (CTMC / FSP) analysis.

        A state is an outcome as soon as one catalyst type uniquely dominates
        — starting from a catalyst-free state, the first catalyst molecule
        produced marks the module's decision, so absorption probabilities
        under this classifier are the exact programmed distribution
        (``p_i = E_i k_i / Σ_j E_j k_j`` plus any pre-processing dynamics).
        """
        from repro.sim.fsp import DominantSpeciesClassifier

        return DominantSpeciesClassifier(self.catalyst_map())

    def outcome_classifier(self) -> WorkingOutcomeClassifier:
        """This design's trajectory → outcome rule as a serializable classifier.

        The working reaction that declared the stop names the outcome; a run
        that ended another way falls back to the dominant catalyst.  It also
        labels whole batched sweeps at once (``classify_batch``).
        """
        return WorkingOutcomeClassifier(
            self.labels,
            {label: self.working_reaction_name(label) for label in self.labels},
            self.catalyst_map(),
        )

    def classify_outcome(self, trajectory: Trajectory) -> "str | None":
        """Map a finished trajectory to an outcome label (or None if undecided)."""
        return self.outcome_classifier()(trajectory)

    def network_with_inputs(self, inputs: "Mapping[str, int] | None" = None) -> ReactionNetwork:
        """A copy of the network with programmable input quantities applied.

        ``inputs`` maps *external* input names (the ``x_j`` of an affine
        response, or any species name) to initial quantities.
        """
        network = self.network.copy()
        if inputs:
            for species, count in inputs.items():
                if not network.has_species(species):
                    raise SynthesisError(
                        f"input species {species!r} is not part of the synthesized network"
                    )
                network.set_initial(species, int(count))
        return network

    def experiment(self) -> "object":
        """This design as a fluent :class:`repro.api.Experiment`."""
        from repro.api.experiment import Experiment

        return Experiment.from_system(self)

    def target_distribution(self, inputs: "Mapping[str, int] | None" = None) -> dict[str, float]:
        """The distribution the design is programmed to produce.

        For a plain distribution this is the spec; for an affine response it
        is the affine function evaluated at ``inputs`` (zero when omitted).
        """
        if self.affine is not None:
            return self.affine.evaluate(dict(inputs or {}))
        return self.spec.as_dict()

    def describe(self) -> str:
        """Multi-line description of the synthesized design."""
        lines = [
            f"SynthesizedSystem: {self.network.name}",
            f"  outcomes : {', '.join(self.labels)}",
            f"  target   : {self.spec.as_dict()}",
            f"  gamma    : {self.gamma:g}   scale: {self.scale}",
            f"  reactions: {self.network.size}  species: {len(self.network.species)}",
        ]
        if self.affine is not None:
            lines.append(f"  affine inputs: {', '.join(self.affine.input_names)}")
        return "\n".join(lines)


def _as_spec(
    distribution: "DistributionSpec | Mapping[str, float] | Sequence[float]",
    outcomes: "Sequence[OutcomeSpec | str] | None" = None,
) -> DistributionSpec:
    """Coerce the accepted distribution forms into a :class:`DistributionSpec`."""
    if isinstance(distribution, DistributionSpec):
        return distribution
    if isinstance(distribution, Mapping):
        labels = list(distribution)
        return DistributionSpec(
            list(outcomes) if outcomes else labels,
            [float(distribution[label]) for label in labels],
        )
    values = [float(p) for p in distribution]
    if outcomes is None:
        outcomes = [str(i + 1) for i in range(len(values))]
    return DistributionSpec(list(outcomes), values)


def synthesize_distribution(
    distribution: "DistributionSpec | Mapping[str, float] | Sequence[float]",
    gamma: float = 1e3,
    scale: int = 100,
    outcomes: "Sequence[OutcomeSpec | str] | None" = None,
    layout: "StochasticModuleLayout | None" = None,
    base_rate: float = 1.0,
    name: str = "synthesized-distribution",
) -> SynthesizedSystem:
    """Synthesize reactions producing outcomes with a fixed probability distribution.

    Parameters
    ----------
    distribution:
        The target distribution: a :class:`DistributionSpec`, a
        ``{label: probability}`` mapping, or a bare probability sequence
        (labels default to ``"1"``, ``"2"``, ...).
    gamma:
        Rate-separation factor γ (Equation 1); larger γ → lower error
        (Figure 3).
    scale:
        Total budget of input molecules; the probability granularity is
        ``1/scale``.
    outcomes:
        Optional outcome specs (output species, food sizes) overriding the
        defaults.
    layout:
        Species naming convention.
    base_rate:
        Rate of the initializing/working tier.
    """
    spec = _as_spec(distribution, outcomes)
    layout = layout or StochasticModuleLayout()
    network = build_stochastic_module(
        spec, gamma=gamma, scale=scale, base_rate=base_rate, layout=layout, name=name
    )
    return SynthesizedSystem(
        network=network, spec=spec, gamma=gamma, scale=scale, layout=layout
    )


def synthesize_affine_response(
    affine: AffineResponseSpec,
    gamma: float = 1e3,
    scale: int = 100,
    outcomes: "Sequence[OutcomeSpec] | None" = None,
    layout: "StochasticModuleLayout | None" = None,
    base_rate: float = 1.0,
    preprocessing_rate_tier: str = "fast",
    name: str = "synthesized-affine-response",
) -> SynthesizedSystem:
    """Synthesize a programmable response ``p_i = base_i + Σ_j slope_ij·X_j``.

    The base probabilities are realized through the initial quantities of the
    stochastic module's input types; the slopes through pre-processing
    reactions that convert input types into one another, one batch per
    molecule of the controlling external input (Example 2).

    The external inputs start at zero; program them per run via
    ``Experiment.from_system(system).program({"x1": 5, "x2": 3})`` or
    ``system.network_with_inputs(...)``.
    """
    layout = layout or StochasticModuleLayout()
    if outcomes is not None:
        outcome_specs = list(outcomes)
        if [o.label for o in outcome_specs] != list(affine.labels):
            raise SpecificationError(
                "outcome specs must match the affine response's labels, in order"
            )
    else:
        outcome_specs = [OutcomeSpec(label) for label in affine.labels]

    base_spec = DistributionSpec(outcome_specs, [affine.base[l] for l in affine.labels])
    network = build_stochastic_module(
        base_spec, gamma=gamma, scale=scale, base_rate=base_rate, layout=layout, name=name
    )
    input_species = {label: layout.input_species(label) for label in affine.labels}
    plan = compile_affine_response(
        affine, input_species, scale=scale, tier=preprocessing_rate_tier
    )
    merged = network.merged(plan.network, name=name)
    for external_input in affine.input_names:
        merged.declare_species(external_input)
        merged.set_initial(external_input, 0)
    merged.metadata["affine_response"] = {
        "base": dict(affine.base),
        "slopes": {k: dict(v) for k, v in affine.slopes.items()},
        "transfers": list(plan.transfers),
    }
    return SynthesizedSystem(
        network=merged,
        spec=base_spec,
        gamma=gamma,
        scale=scale,
        layout=layout,
        affine=affine,
        preprocessing=plan,
    )
