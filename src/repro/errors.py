"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so a
caller can catch a single base class.  Subclasses are grouped by the layer
that raises them: the CRN data model, the simulation engines, the synthesis
method and the analysis toolkit.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "CRNError",
    "SpeciesError",
    "ReactionError",
    "NetworkError",
    "NetworkValidationError",
    "ParseError",
    "SerializationError",
    "ModelSchemaError",
    "GeneratorError",
    "SimulationError",
    "PropensityError",
    "StoppingConditionError",
    "EnsembleError",
    "EmptyMergeError",
    "FspError",
    "SynthesisError",
    "SpecificationError",
    "ModuleCompositionError",
    "RateLadderError",
    "AnalysisError",
    "FitError",
    "ExperimentError",
    "AdaptiveError",
    "StoreError",
    "FingerprintError",
    "CampaignError",
    "ServiceError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


# ---------------------------------------------------------------------------
# CRN data-model errors
# ---------------------------------------------------------------------------


class CRNError(ReproError):
    """Base class for errors raised by the :mod:`repro.crn` data model."""


class SpeciesError(CRNError):
    """An invalid species definition (bad name, duplicate, unknown species)."""


class ReactionError(CRNError):
    """An invalid reaction definition (negative rate, bad stoichiometry, ...)."""


class NetworkError(CRNError):
    """An invalid network-level operation.

    Raised by :meth:`~repro.crn.network.ReactionNetwork.renamed` when a
    non-injective species mapping would silently merge species (pass
    ``allow_merge=True`` to opt into merging), and by the canonicalization
    pass (:mod:`repro.crn.canonical`) on malformed inputs.
    """


class NetworkValidationError(CRNError):
    """A reaction network failed structural validation."""


class ParseError(CRNError):
    """The reaction text DSL could not be parsed."""


class SerializationError(CRNError):
    """A network could not be serialized or deserialized."""


class ModelSchemaError(SerializationError):
    """A declarative model description violates the import schema.

    Raised by :mod:`repro.crn.importer` with :attr:`field` naming the
    offending schema location (e.g. ``"reactions[2].rate"``), so callers and
    error messages can point at the exact line of a model file.
    """

    def __init__(self, field: str, message: str) -> None:
        self.field = str(field)
        super().__init__(f"{self.field}: {message}")


class GeneratorError(CRNError):
    """A random-CRN generator configuration is invalid."""


# ---------------------------------------------------------------------------
# Simulation errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """Base class for errors raised by the :mod:`repro.sim` engines."""


class PropensityError(SimulationError):
    """A propensity could not be evaluated (negative counts, unknown kinetics)."""


class StoppingConditionError(SimulationError):
    """A stopping condition was mis-specified."""


class EnsembleError(SimulationError):
    """An ensemble (Monte-Carlo) run was mis-configured."""


class EmptyMergeError(EnsembleError, ValueError):
    """Merging an empty collection of ensemble shards was requested.

    Inherits :class:`ValueError` so generic callers (campaign aggregation,
    user code validating its own shard lists) can catch the conventional
    built-in type, while ``except ReproError`` continues to work.
    """


class FspError(SimulationError):
    """Finite-state-projection analysis failed (state budget, truncation bound)."""


# ---------------------------------------------------------------------------
# Synthesis errors
# ---------------------------------------------------------------------------


class SynthesisError(ReproError):
    """Base class for errors raised by the :mod:`repro.core` synthesis method."""


class SpecificationError(SynthesisError):
    """A target distribution or functional-response specification is invalid."""


class ModuleCompositionError(SynthesisError):
    """Deterministic/stochastic modules could not be composed."""


class RateLadderError(SynthesisError):
    """A rate-separation ladder was mis-specified."""


# ---------------------------------------------------------------------------
# Analysis errors
# ---------------------------------------------------------------------------


class AnalysisError(ReproError):
    """Base class for errors raised by the :mod:`repro.analysis` toolkit."""


class FitError(AnalysisError):
    """A curve fit failed or was mis-specified."""


# ---------------------------------------------------------------------------
# Facade (repro.api) errors
# ---------------------------------------------------------------------------


class ExperimentError(ReproError):
    """The fluent experiment facade (:mod:`repro.api`) was misused."""


class AdaptiveError(ExperimentError):
    """An adaptive run (:mod:`repro.adaptive`) was mis-specified.

    Raised for invalid precision targets / splitting configurations and for
    ``simulate(until=...)`` argument combinations the estimators cannot
    honor (unseeded runs, ``keep_trajectories``, distribution engines) —
    the same contract the result store enforces, surfaced before any trial
    runs.
    """


# ---------------------------------------------------------------------------
# Store & service errors
# ---------------------------------------------------------------------------


class StoreError(ReproError):
    """The content-addressed result store (:mod:`repro.store`) failed.

    Raised for malformed or incompatible artifacts (schema/version mismatch),
    broken indexes and invalid store operations.
    """


class FingerprintError(StoreError):
    """An experiment could not be canonically fingerprinted.

    Typically a component has no stable serialized form — a lambda
    classifier, a :class:`~repro.sim.events.PredicateCondition`, or a
    third-party stopping condition without a ``to_descriptor`` method.
    """


class CampaignError(StoreError):
    """A campaign (:mod:`repro.store.campaign`) was mis-configured."""


class ServiceError(ReproError):
    """The experiment service (:mod:`repro.service` / :mod:`repro.client`) failed."""
