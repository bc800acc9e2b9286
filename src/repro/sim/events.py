"""Stopping conditions for stochastic simulation runs.

The experiments in the paper stop runs on domain events rather than on a time
limit:

* the stochastic-module error analysis (Figure 3) declares an outcome once a
  *working* reaction has fired 10 times;
* the lambda-phage model (Figure 5) declares lysis/lysogeny once ``cro2`` or
  ``ci2`` crosses its threshold (55 / 145 molecules).

A stopping condition is an object with a ``check`` method that receives the
current simulation time, the count vector, the compiled network and the
per-reaction firing counts, and returns ``None`` (keep going) or a short
detail string (stop, recorded as ``Trajectory.stop_detail``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.crn.species import Species, as_species
from repro.errors import StoppingConditionError
from repro.sim.propensity import CompiledNetwork

__all__ = [
    "StoppingCondition",
    "SpeciesThreshold",
    "OutcomeThresholds",
    "FiringCountCondition",
    "CategoryFiringCondition",
    "PredicateCondition",
    "AnyCondition",
    "AllCondition",
    "condition_from_descriptor",
]


class StoppingCondition:
    """Base class for stopping conditions.

    Subclasses implement :meth:`check`; :meth:`reset` is called once at the
    start of every run so a single condition instance can be reused across an
    ensemble.
    """

    def reset(self, compiled: CompiledNetwork) -> None:
        """Prepare for a new run (resolve species/reaction indices, clear caches)."""

    def check(
        self,
        time: float,
        counts: np.ndarray,
        compiled: CompiledNetwork,
        firing_counts: np.ndarray,
    ) -> "str | None":
        """Return a detail string to stop the run, or ``None`` to continue."""
        raise NotImplementedError

    def to_descriptor(self) -> dict:
        """A canonical JSON-compatible description of this condition.

        The result store (:mod:`repro.store`) hashes descriptors into
        experiment fingerprints and the experiment service ships them over
        the wire; :func:`condition_from_descriptor` rebuilds the condition.
        Conditions wrapping arbitrary callables (``PredicateCondition``, and
        third-party subclasses that do not override this method) have no
        stable serialized form and raise.
        """
        raise StoppingConditionError(
            f"{type(self).__name__} has no canonical descriptor; implement "
            "to_descriptor() to make it fingerprintable/servable"
        )


class SpeciesThreshold(StoppingCondition):
    """Stop when a species count reaches a threshold.

    Parameters
    ----------
    species:
        The species to watch.
    threshold:
        The count to compare against.
    comparison:
        ``">="`` (default) or ``"<="``.
    label:
        Detail string reported when the condition triggers; defaults to
        ``"<species><comparison><threshold>"``.
    """

    def __init__(
        self,
        species: "Species | str",
        threshold: int,
        comparison: str = ">=",
        label: str = "",
    ) -> None:
        if comparison not in (">=", "<="):
            raise StoppingConditionError(
                f"comparison must be '>=' or '<=', got {comparison!r}"
            )
        self.species = as_species(species)
        self.threshold = int(threshold)
        self.comparison = comparison
        self.label = label or f"{self.species.name}{comparison}{threshold}"
        self._index: "int | None" = None

    def reset(self, compiled: CompiledNetwork) -> None:
        index = compiled.species_index()
        if self.species not in index:
            raise StoppingConditionError(
                f"species {self.species.name!r} is not part of the simulated network"
            )
        self._index = index[self.species]

    def check(self, time, counts, compiled, firing_counts):
        if self._index is None:
            self.reset(compiled)
        value = int(counts[self._index])
        if self.comparison == ">=" and value >= self.threshold:
            return self.label
        if self.comparison == "<=" and value <= self.threshold:
            return self.label
        return None

    def to_descriptor(self) -> dict:
        return {
            "type": "species-threshold",
            "species": self.species.name,
            "threshold": self.threshold,
            "comparison": self.comparison,
            "label": self.label,
        }


class OutcomeThresholds(StoppingCondition):
    """Stop when any of several labelled species thresholds is reached.

    The detail string is the *label* of the winning outcome, which the
    ensemble runner aggregates into an outcome distribution.  This is the
    condition used for the lambda-phage experiment
    (``{"lysis": ("cro2", 55), "lysogeny": ("ci2", 145)}``).
    """

    def __init__(self, thresholds: dict[str, tuple["Species | str", int]]) -> None:
        if not thresholds:
            raise StoppingConditionError("thresholds mapping must not be empty")
        self.thresholds = {
            str(label): (as_species(species), int(level))
            for label, (species, level) in thresholds.items()
        }
        self._resolved: list[tuple[str, int, int]] = []

    def reset(self, compiled: CompiledNetwork) -> None:
        index = compiled.species_index()
        self._resolved = []
        for label, (species, level) in self.thresholds.items():
            if species not in index:
                raise StoppingConditionError(
                    f"species {species.name!r} (outcome {label!r}) is not in the network"
                )
            self._resolved.append((label, index[species], level))

    def check(self, time, counts, compiled, firing_counts):
        if not self._resolved:
            self.reset(compiled)
        for label, column, level in self._resolved:
            if counts[column] >= level:
                return label
        return None

    def to_descriptor(self) -> dict:
        return {
            "type": "outcome-thresholds",
            "thresholds": {
                label: [species.name, level]
                for label, (species, level) in self.thresholds.items()
            },
        }


class FiringCountCondition(StoppingCondition):
    """Stop when specific reactions have fired a total of ``count`` times.

    Parameters
    ----------
    reaction_indices:
        Indices of the reactions to count (combined total).
    count:
        Firing total that triggers the stop.
    label:
        Detail string; defaults to ``"firings>=<count>"``.
    """

    def __init__(self, reaction_indices: Iterable[int], count: int, label: str = "") -> None:
        self.reaction_indices = tuple(int(i) for i in reaction_indices)
        if not self.reaction_indices:
            raise StoppingConditionError("reaction_indices must not be empty")
        if count <= 0:
            raise StoppingConditionError(f"count must be positive, got {count}")
        self.count = int(count)
        self.label = label or f"firings>={count}"

    def reset(self, compiled: CompiledNetwork) -> None:
        outside = [i for i in self.reaction_indices if not 0 <= i < compiled.n_reactions]
        if outside:
            raise StoppingConditionError(
                f"reaction indices {outside} are outside the network's "
                f"{compiled.n_reactions} reactions"
            )

    def check(self, time, counts, compiled, firing_counts):
        total = int(sum(firing_counts[i] for i in self.reaction_indices))
        if total >= self.count:
            return self.label
        return None

    def to_descriptor(self) -> dict:
        return {
            "type": "firing-count",
            "reaction_indices": list(self.reaction_indices),
            "count": self.count,
            "label": self.label,
        }


class CategoryFiringCondition(StoppingCondition):
    """Stop when any single reaction in a category has fired ``count`` times.

    The detail string is the *name* of the reaction that reached the count.
    This is how the Figure-3 experiment declares an outcome: "a working
    reaction needs to fire 10 times for us to declare an outcome" — the first
    working reaction to reach 10 firings names the winning outcome.
    """

    def __init__(self, category: str, count: int) -> None:
        if count <= 0:
            raise StoppingConditionError(f"count must be positive, got {count}")
        self.category = str(category)
        self.count = int(count)
        self._members: list[tuple[int, str]] = []

    def reset(self, compiled: CompiledNetwork) -> None:
        self._members = [
            (index, reaction.name or f"{self.category}[{index}]")
            for index, reaction in enumerate(compiled.network.reactions)
            if reaction.category == self.category
        ]
        if not self._members:
            raise StoppingConditionError(
                f"network has no reactions in category {self.category!r}"
            )

    def check(self, time, counts, compiled, firing_counts):
        if not self._members:
            self.reset(compiled)
        for index, name in self._members:
            if firing_counts[index] >= self.count:
                return name
        return None

    def to_descriptor(self) -> dict:
        return {
            "type": "category-firing",
            "category": self.category,
            "count": self.count,
        }


class PredicateCondition(StoppingCondition):
    """Adapt an arbitrary callable ``f(time, state_dict) -> str | None``.

    The callable receives the current time and a ``{name: count}`` dictionary.
    Convenient for ad-hoc experiment scripts; the dict conversion makes it the
    slowest condition, so prefer the dedicated classes in hot loops.
    """

    def __init__(self, predicate: Callable[[float, dict[str, int]], "str | None"]) -> None:
        self.predicate = predicate

    def check(self, time, counts, compiled, firing_counts):
        state = {s.name: int(c) for s, c in zip(compiled.species, counts)}
        return self.predicate(time, state)


class AnyCondition(StoppingCondition):
    """Stop as soon as any child condition triggers (logical OR)."""

    def __init__(self, conditions: Sequence[StoppingCondition]) -> None:
        if not conditions:
            raise StoppingConditionError("AnyCondition requires at least one child")
        self.conditions = list(conditions)

    def reset(self, compiled: CompiledNetwork) -> None:
        for condition in self.conditions:
            condition.reset(compiled)

    def check(self, time, counts, compiled, firing_counts):
        for condition in self.conditions:
            detail = condition.check(time, counts, compiled, firing_counts)
            if detail is not None:
                return detail
        return None

    def to_descriptor(self) -> dict:
        return {
            "type": "any",
            "conditions": [c.to_descriptor() for c in self.conditions],
        }


class AllCondition(StoppingCondition):
    """Stop only when every child condition triggers simultaneously (logical AND)."""

    def __init__(self, conditions: Sequence[StoppingCondition]) -> None:
        if not conditions:
            raise StoppingConditionError("AllCondition requires at least one child")
        self.conditions = list(conditions)

    def reset(self, compiled: CompiledNetwork) -> None:
        for condition in self.conditions:
            condition.reset(compiled)

    def check(self, time, counts, compiled, firing_counts):
        details = []
        for condition in self.conditions:
            detail = condition.check(time, counts, compiled, firing_counts)
            if detail is None:
                return None
            details.append(detail)
        return " & ".join(details)

    def to_descriptor(self) -> dict:
        return {
            "type": "all",
            "conditions": [c.to_descriptor() for c in self.conditions],
        }


def condition_from_descriptor(data: "dict | None") -> "StoppingCondition | None":
    """Rebuild a stopping condition from a :meth:`~StoppingCondition.to_descriptor`.

    ``None`` passes through (no stopping condition).  Unknown ``type`` tags
    raise :class:`StoppingConditionError` — the inverse of the descriptor
    protocol only covers the built-in serializable conditions.
    """
    if data is None:
        return None
    kind = data.get("type")
    if kind == "species-threshold":
        return SpeciesThreshold(
            data["species"],
            int(data["threshold"]),
            comparison=str(data.get("comparison", ">=")),
            label=str(data.get("label", "")),
        )
    if kind == "outcome-thresholds":
        return OutcomeThresholds(
            {
                str(label): (str(species), int(level))
                for label, (species, level) in data["thresholds"].items()
            }
        )
    if kind == "firing-count":
        return FiringCountCondition(
            [int(i) for i in data["reaction_indices"]],
            int(data["count"]),
            label=str(data.get("label", "")),
        )
    if kind == "category-firing":
        return CategoryFiringCondition(str(data["category"]), int(data["count"]))
    if kind == "any":
        return AnyCondition(
            [condition_from_descriptor(c) for c in data["conditions"]]
        )
    if kind == "all":
        return AllCondition(
            [condition_from_descriptor(c) for c in data["conditions"]]
        )
    raise StoppingConditionError(
        f"unknown stopping-condition descriptor type {kind!r}"
    )
