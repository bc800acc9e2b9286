"""Importance splitting: deep-tail outcome probabilities by level crossing.

A fixed-trial ensemble cannot see an outcome whose probability is far below
``1/trials`` — the regime the paper's error analysis cares about (a
well-separated design mis-decides with probability ``~1/gamma`` per firing,
so tail estimates at gamma = 1e6 need ~1e8 naive trials).  *Multilevel
splitting* estimates such tails as a product of conditional probabilities:

1. pick a discrete **score** — here the count of the rare outcome's species,
   whose declared threshold (from the experiment's
   :class:`~repro.sim.events.OutcomeThresholds` stopping condition or its
   :class:`~repro.sim.fsp.ThresholdStateClassifier`) defines the final
   level;
2. split the climb to the threshold into intermediate levels
   ``L_1 < L_2 < ... < L_m = threshold``;
3. per stage, run a fixed effort of ``N`` trajectories from the entry
   states of the previous stage, and record the fraction ``p_k`` that
   reach the next level before any terminal outcome absorbs them;
4. estimate ``P(rare) = Π p_k``.

Restarting a trajectory from a recorded level-entry state is exact for a
CTMC (the Markov property: the future depends only on the current counts),
so every stage estimates a genuine conditional probability.  Entry states
are recycled round-robin when a stage needs more starts than it has — the
standard fixed-effort scheme.  Stage estimates are treated as independent
when reporting the confidence interval (the classical approximation; the
interval is approximate, which the FSP cross-validation tests account for
by asserting coverage, not width).

Everything is seeded per ``(stage, trial)`` via
:func:`~repro.sim.rng.derive_seed`, so a splitting run is deterministic for
a given seed — the property the store-cacheability contract requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.adaptive.targets import descriptor_field, integral
from repro.errors import AdaptiveError
from repro.sim.base import SimulationOptions
from repro.sim.ensemble import make_simulator
from repro.sim.events import (
    AnyCondition,
    OutcomeThresholds,
    SpeciesThreshold,
    StoppingCondition,
)
from repro.sim.propensity import CompiledNetwork
from repro.sim.rng import derive_seed
from repro.sim.stats import normal_quantile

__all__ = [
    "LEVEL_LABEL",
    "SplittingConfig",
    "SplittingEstimate",
    "resolve_outcome_threshold",
    "run_splitting",
]

#: Stop detail reported when a stage trajectory reaches its next level.
LEVEL_LABEL = "(level)"


@dataclass(frozen=True)
class SplittingConfig:
    """Declarative importance-splitting estimator configuration.

    Parameters
    ----------
    outcome:
        Label of the rare outcome; must be declared by the experiment with a
        ``">="`` species threshold (the score function is the count of that
        species, the distance-to-outcome the thresholds define).
    trials_per_level:
        Fixed effort per stage (default 512).
    levels:
        Explicit ascending score levels ending exactly at the outcome's
        threshold.  Default: every integer step from the initial score to
        the threshold — the most robust choice for the small molecule
        thresholds zoo models declare.
    n_levels:
        Alternative to ``levels``: evenly space this many levels between the
        initial score and the threshold.
    confidence:
        Coverage of the reported (approximate) confidence interval.
    """

    outcome: str
    trials_per_level: int = 512
    levels: "tuple[int, ...] | None" = None
    n_levels: "int | None" = None
    confidence: float = 0.95

    rule = "splitting"

    def __post_init__(self) -> None:
        if not str(self.outcome):
            raise AdaptiveError("splitting needs a non-empty outcome label")
        if self.trials_per_level < 2:
            raise AdaptiveError(
                f"trials_per_level must be at least 2, got {self.trials_per_level}"
            )
        if not 0.0 < float(self.confidence) < 1.0:
            raise AdaptiveError(
                f"confidence must lie in (0, 1), got {self.confidence!r}"
            )
        if self.levels is not None and self.n_levels is not None:
            raise AdaptiveError("pass either levels or n_levels, not both")
        if self.levels is not None:
            levels = tuple(int(level) for level in self.levels)
            if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
                raise AdaptiveError(
                    f"levels must be non-empty and strictly increasing, got {self.levels!r}"
                )
            object.__setattr__(self, "levels", levels)
        if self.n_levels is not None and self.n_levels < 1:
            raise AdaptiveError(f"n_levels must be positive, got {self.n_levels}")

    def resolved_levels(self, start_score: int, threshold: int) -> "list[int]":
        """The stage levels for a concrete (initial score, threshold) pair."""
        if threshold <= start_score:
            raise AdaptiveError(
                f"outcome {self.outcome!r} is already satisfied at the initial "
                f"state (score {start_score} >= threshold {threshold}); it is "
                "not a rare event"
            )
        if self.levels is not None:
            if self.levels[-1] != threshold or self.levels[0] <= start_score:
                raise AdaptiveError(
                    f"explicit levels must climb from above the initial score "
                    f"({start_score}) to exactly the outcome threshold "
                    f"({threshold}); got {self.levels!r}"
                )
            return list(self.levels)
        steps = list(range(start_score + 1, threshold + 1))
        if self.n_levels is None or self.n_levels >= len(steps):
            return steps
        span = threshold - start_score
        picked = sorted(
            {
                start_score + max(1, round(span * (k + 1) / self.n_levels))
                for k in range(self.n_levels)
            }
        )
        if picked[-1] != threshold:
            picked.append(threshold)
        return picked

    def to_descriptor(self) -> dict:
        return {
            "type": self.rule,
            "outcome": self.outcome,
            "trials_per_level": int(self.trials_per_level),
            "levels": list(self.levels) if self.levels is not None else None,
            "n_levels": None if self.n_levels is None else int(self.n_levels),
            "confidence": float(self.confidence),
        }

    @classmethod
    def from_descriptor(cls, data: Mapping) -> "SplittingConfig":
        if data.get("type") != cls.rule:
            raise AdaptiveError(
                f"expected a splitting descriptor, got type {data.get('type')!r}"
            )
        return cls(
            outcome=descriptor_field(data, "outcome", str),
            trials_per_level=descriptor_field(data, "trials_per_level", integral, 512),
            levels=(
                None
                if data.get("levels") is None
                else descriptor_field(data, "levels", lambda values: tuple(map(integral, values)))
            ),
            n_levels=(
                None
                if data.get("n_levels") is None
                else descriptor_field(data, "n_levels", integral)
            ),
            confidence=descriptor_field(data, "confidence", float, 0.95),
        )


@dataclass(frozen=True)
class SplittingEstimate:
    """The product-of-stages estimate and everything that went into it."""

    estimate: float
    ci_low: float
    ci_high: float
    confidence: float
    outcome: str
    species: str
    threshold: int
    levels: tuple[int, ...]
    stage_probabilities: tuple[float, ...]
    trials_per_level: int

    @property
    def total_trials(self) -> int:
        """Trajectories simulated across all stages (the run's cost)."""
        return self.trials_per_level * len(self.stage_probabilities)

    def covers(self, probability: float) -> bool:
        """Whether the reported interval contains ``probability``."""
        return self.ci_low <= probability <= self.ci_high

    def rare_payload(self) -> dict:
        """JSON-compatible record for :attr:`AdaptiveInfo.rare`."""
        return {
            "estimate": float(self.estimate),
            "ci_low": float(self.ci_low),
            "ci_high": float(self.ci_high),
            "confidence": float(self.confidence),
            "outcome": self.outcome,
            "species": self.species,
            "threshold": int(self.threshold),
            "levels": [int(level) for level in self.levels],
            "stage_probabilities": [float(p) for p in self.stage_probabilities],
            "trials_per_level": int(self.trials_per_level),
        }


def resolve_outcome_threshold(
    outcome: str,
    stopping: "StoppingCondition | None",
    state_classifier=None,
) -> "tuple[str, int]":
    """Find the ``(species, threshold)`` the score function climbs toward.

    Resolution mirrors how experiments declare outcomes: an
    :class:`OutcomeThresholds` stopping condition, labelled ``">="``
    :class:`SpeciesThreshold` conditions (possibly inside an
    :class:`AnyCondition`), or a
    :class:`~repro.sim.fsp.ThresholdStateClassifier`.  ``"<="`` outcomes
    have no increasing score and are rejected.
    """
    from repro.sim.fsp import ThresholdStateClassifier

    available: list[str] = []

    def from_condition(condition) -> "tuple[str, int] | None":
        if isinstance(condition, OutcomeThresholds):
            for label, (species, level) in condition.thresholds.items():
                available.append(label)
                if label == outcome:
                    return (species.name, int(level))
        if isinstance(condition, SpeciesThreshold):
            available.append(condition.label)
            if condition.label == outcome:
                if condition.comparison != ">=":
                    raise AdaptiveError(
                        f"outcome {outcome!r} uses comparison "
                        f"{condition.comparison!r}; importance splitting needs "
                        "an increasing '>=' score"
                    )
                return (condition.species.name, int(condition.threshold))
        if isinstance(condition, AnyCondition):
            for child in condition.conditions:
                found = from_condition(child)
                if found is not None:
                    return found
        return None

    if stopping is not None:
        found = from_condition(stopping)
        if found is not None:
            return found
    if isinstance(state_classifier, ThresholdStateClassifier):
        for label, (species, count, comparison) in state_classifier.thresholds.items():
            available.append(label)
            if label == outcome:
                if comparison != ">=":
                    raise AdaptiveError(
                        f"outcome {outcome!r} uses comparison {comparison!r}; "
                        "importance splitting needs an increasing '>=' score"
                    )
                return (species, int(count))
    known = sorted(set(available))
    raise AdaptiveError(
        f"cannot resolve a '>=' species threshold for outcome {outcome!r}; "
        f"declared outcomes: {known or '(none)'} — splitting needs the "
        "experiment's stopping condition (OutcomeThresholds / labelled "
        "SpeciesThreshold) or ThresholdStateClassifier to name it"
    )


def run_splitting(
    network,
    *,
    config: SplittingConfig,
    species: str,
    threshold: int,
    stopping: "StoppingCondition | None",
    seed: int,
    engine: str = "direct",
    options: "SimulationOptions | None" = None,
    engine_options=None,
) -> SplittingEstimate:
    """Execute the fixed-effort multilevel splitting estimator.

    ``network`` may be a :class:`~repro.crn.network.ReactionNetwork` or an
    already-compiled one; ``stopping`` is the experiment's *terminal*
    condition (every competing outcome absorbs a stage trajectory as a
    failure).  The run is sequential and deterministic for a given ``seed``.
    """
    compiled = CompiledNetwork.coerce(network)
    simulator = make_simulator(compiled, engine=engine, engine_options=engine_options)
    options = options or SimulationOptions(record_firings=False)

    start_score = int(compiled.network.initial_state[species])
    levels = config.resolved_levels(start_score, int(threshold))
    effort = int(config.trials_per_level)

    starts: "list[dict[str, int] | None]" = [None]  # None = network initial state
    stage_probabilities: list[float] = []
    estimate = 1.0

    for stage, level in enumerate(levels):
        level_condition = SpeciesThreshold(species, level, ">=", label=LEVEL_LABEL)
        stage_stopping = (
            level_condition
            if stopping is None
            else AnyCondition([level_condition, stopping])
        )
        hits: list[dict[str, int]] = []
        for trial in range(effort):
            trajectory = simulator.run(
                initial_state=starts[trial % len(starts)],
                stopping=stage_stopping,
                options=options,
                seed=derive_seed(seed, "split", stage, trial),
            )
            detail = trajectory.stop_detail
            if trajectory.stop_reason == "condition" and detail in (
                LEVEL_LABEL,
                config.outcome,
            ):
                vector = trajectory.final_state.to_vector(compiled.species)
                hits.append(
                    {s.name: int(v) for s, v in zip(compiled.species, vector)}
                )
        probability = len(hits) / effort
        stage_probabilities.append(probability)
        estimate *= probability
        if not hits:
            # The chain went extinct at this stage: pad the remaining stages
            # with zero so the record shows where, and report estimate 0.
            stage_probabilities.extend(0.0 for _ in levels[stage + 1 :])
            estimate = 0.0
            break
        starts = hits

    if estimate > 0.0:
        # Log-normal interval from the independent-stages variance
        # approximation: Var(log Π p̂_k) ≈ Σ (1 - p_k) / (N p_k).
        relative_variance = sum(
            (1.0 - p) / (effort * p) for p in stage_probabilities
        )
        z = normal_quantile(config.confidence)
        sigma = math.sqrt(relative_variance)
        ci_low = estimate * math.exp(-z * sigma)
        ci_high = estimate * math.exp(z * sigma)
    else:
        ci_low = 0.0
        ci_high = 0.0

    return SplittingEstimate(
        estimate=estimate,
        ci_low=ci_low,
        ci_high=ci_high,
        confidence=float(config.confidence),
        outcome=config.outcome,
        species=str(species),
        threshold=int(threshold),
        levels=tuple(levels),
        stage_probabilities=tuple(stage_probabilities),
        trials_per_level=effort,
    )
