"""Serialized experiments: the store's canonical payload and its inverse.

An :class:`~repro.api.experiment.Experiment` resolves to a reaction network,
a stopping condition, an outcome classifier and simulation options; together
with the ``simulate()`` arguments these determine a run bit-for-bit.  This
module converts that resolved form to a JSON-compatible **payload** — the
unit the fingerprint hashes (:mod:`repro.store.fingerprint`), the campaign
runner ships to worker processes, and ``POST /simulate`` accepts over the
wire — and back into a runnable experiment.

Not every experiment serializes: lambdas and closures (classifier or
``PredicateCondition``) have no canonical form and raise
:class:`~repro.errors.FingerprintError` with guidance.  Module-level
callables are referenced by ``"module:qualname"`` and re-imported on the
other side.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
from typing import Any, Mapping

from repro.errors import FingerprintError
from repro.sim.base import SimulationOptions
from repro.sim.events import condition_from_descriptor
from repro.sim.outcomes import WorkingOutcomeClassifier

__all__ = [
    "EXPERIMENT_SCHEMA",
    "WorkingOutcomeClassifier",
    "experiment_to_payload",
    "experiment_from_payload",
    "is_experiment_schema",
    "compute_payload",
]

#: Schema tag of serialized-experiment payloads.  v2 marks the switch to
#: isomorphism-aware canonical fingerprints (species naming and reaction
#: order are no longer identity); the payload *shape* is unchanged from v1.
EXPERIMENT_SCHEMA = "repro.experiment/v2"

#: Schema tags accepted on input.  v1 payloads execute unchanged and — since
#: every fingerprint is computed over the canonicalized v2 form — address the
#: same cache entries as their v2 equivalents.
_ACCEPTED_SCHEMAS = ("repro.experiment/v1", "repro.experiment/v2")


def is_experiment_schema(tag: Any) -> bool:
    """Whether ``tag`` names a supported serialized-experiment schema."""
    return tag in _ACCEPTED_SCHEMAS


# ---------------------------------------------------------------------------
# callables <-> descriptors
# ---------------------------------------------------------------------------


def _callable_ref(fn: Any) -> str:
    """A stable ``"module:qualname"`` reference to a module-level callable."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise FingerprintError(
            f"classifier {fn!r} cannot be serialized: only module-level "
            "functions and classes have a stable reference (lambdas, closures "
            "and bound methods do not) — define it at module scope, or use "
            "the default stop-detail classifier"
        )
    return f"{module}:{qualname}"


def _resolve_callable_ref(ref: str) -> Any:
    module_name, _, qualname = ref.partition(":")
    try:
        target: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            target = getattr(target, part)
    except (ImportError, AttributeError) as exc:
        raise FingerprintError(f"cannot resolve callable reference {ref!r}: {exc}") from exc
    return target


def _classifier_descriptor(experiment) -> dict:
    """Canonical descriptor of the trajectory → outcome classifier."""
    classifier = experiment.classifier
    if classifier is None and experiment.system is not None:
        classifier = experiment.system.outcome_classifier()
    if classifier is None:
        return {"type": "stop-detail"}
    if isinstance(classifier, WorkingOutcomeClassifier):
        return {
            "type": "working-outcome",
            "labels": list(classifier.labels),
            "working": dict(classifier.working),
            "catalysts": dict(classifier.catalysts),
        }
    return {"type": "callable", "ref": _callable_ref(classifier)}


def _reject_untrusted_ref(data: Mapping) -> None:
    raise FingerprintError(
        f"callable reference {data.get('ref')!r} rejected: this payload comes "
        "from an untrusted source (the HTTP service), and resolving it would "
        "import and execute arbitrary installed code — only the declarative "
        "descriptor types (stop-detail / working-outcome / dominant-species / "
        "threshold-race) are accepted over the wire"
    )


def _classifier_from_descriptor(data: "Mapping | None", trusted: bool = True):
    if data is None or data.get("type") == "stop-detail":
        return None
    kind = data.get("type")
    if kind == "working-outcome":
        return WorkingOutcomeClassifier(
            data["labels"], data["working"], data["catalysts"]
        )
    if kind == "callable":
        if not trusted:
            _reject_untrusted_ref(data)
        return _resolve_callable_ref(data["ref"])
    raise FingerprintError(f"unknown classifier descriptor type {kind!r}")


def _state_classifier_descriptor(experiment, network) -> "dict | None":
    """Descriptor of the state classifier used by distribution engines."""
    from repro.sim.fsp import DominantSpeciesClassifier, ThresholdStateClassifier

    classifier = experiment._resolved_state_classifier(network)
    if isinstance(classifier, DominantSpeciesClassifier):
        return {
            "type": "dominant-species",
            "catalysts": dict(classifier.species_by_label),
        }
    if isinstance(classifier, ThresholdStateClassifier):
        return {
            "type": "threshold-race",
            "thresholds": {
                label: [species, count, comparison]
                for label, (species, count, comparison) in classifier.thresholds.items()
            },
        }
    return {"type": "callable", "ref": _callable_ref(classifier)}


def _state_classifier_from_descriptor(data: "Mapping | None", trusted: bool = True):
    if data is None:
        return None
    kind = data.get("type")
    if kind == "dominant-species":
        from repro.sim.fsp import DominantSpeciesClassifier

        return DominantSpeciesClassifier(data["catalysts"])
    if kind == "threshold-race":
        from repro.sim.fsp import ThresholdStateClassifier

        return ThresholdStateClassifier(data["thresholds"])
    if kind == "callable":
        if not trusted:
            _reject_untrusted_ref(data)
        return _resolve_callable_ref(data["ref"])
    raise FingerprintError(f"unknown state-classifier descriptor type {kind!r}")


# ---------------------------------------------------------------------------
# options <-> payloads
# ---------------------------------------------------------------------------


#: The keys an options payload may carry: the SimulationOptions fields.
_OPTION_FIELDS = frozenset(field.name for field in dataclasses.fields(SimulationOptions))


def _options_payload(options: SimulationOptions) -> dict:
    """Encode options; an unbounded ``max_time`` becomes ``None`` (JSON-safe)."""
    return {
        "max_time": None if math.isinf(options.max_time) else float(options.max_time),
        "max_steps": int(options.max_steps),
        "record_firings": bool(options.record_firings),
        "record_states": bool(options.record_states),
        "snapshot_stride": int(options.snapshot_stride),
        "backend": str(options.backend),
    }


def _check_option_keys(data: Mapping) -> None:
    """Reject an options payload carrying a key no option field reads.

    The payload is hashed whole, so a key the options would drop names a
    run that executing it could not reproduce.
    """
    unknown = sorted(set(data) - _OPTION_FIELDS)
    if unknown:
        raise FingerprintError(
            f"unknown simulation option(s) {unknown} in the experiment "
            f"payload; valid fields: {sorted(_OPTION_FIELDS)}"
        )


def _options_from_payload(data: Mapping) -> SimulationOptions:
    _check_option_keys(data)
    max_time = data.get("max_time")
    return SimulationOptions(
        max_time=math.inf if max_time is None else float(max_time),
        max_steps=int(data["max_steps"]),
        record_firings=bool(data["record_firings"]),
        record_states=bool(data["record_states"]),
        snapshot_stride=int(data["snapshot_stride"]),
        backend=str(data["backend"]),
    )


def _engine_options_payload(engine_options: Any) -> "dict | None":
    if engine_options is None:
        return None
    if not dataclasses.is_dataclass(engine_options):
        raise FingerprintError(
            f"engine_options {engine_options!r} is not a dataclass; only typed "
            "engine-option dataclasses serialize canonically"
        )
    fields = dataclasses.asdict(engine_options)
    for name, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise FingerprintError(
                f"engine option {name}={value!r} has no canonical JSON form"
            )
    return {"type": type(engine_options).__name__, "fields": fields}


def _engine_options_from_payload(data: "Mapping | None", engine: str) -> Any:
    if data is None:
        return None
    from repro.sim.registry import registry

    options_type = registry.get(engine).options_type
    if options_type is None or options_type.__name__ != data.get("type"):
        raise FingerprintError(
            f"engine {engine!r} does not accept engine options of type "
            f"{data.get('type')!r}"
        )
    return options_type(**data["fields"])


# ---------------------------------------------------------------------------
# experiments <-> payloads
# ---------------------------------------------------------------------------


def experiment_to_payload(
    experiment,
    *,
    trials: int,
    engine: str,
    seed: "int | None" = None,
    chunk_size: int = 512,
    backend: str = "auto",
    engine_options: Any = None,
    until: Any = None,
) -> dict:
    """Serialize a resolved experiment + simulate arguments into a payload.

    The payload is the experiment's *content identity*: hashing it
    (:func:`~repro.store.fingerprint.fingerprint_payload`) yields the store
    key, and :func:`experiment_from_payload` / :func:`compute_payload`
    rebuild and execute it anywhere — another process, another machine, the
    ``repro serve`` service.  ``workers`` is deliberately absent: results are
    worker-count invariant, so sharding is an execution choice, not identity.

    ``until`` (an adaptive precision target or splitting configuration)
    replaces the trial count in the identity: the payload records the
    target's declarative descriptor under ``simulate.until`` with
    ``simulate.trials = None``, so a run's fingerprint depends on *what
    precision was asked for*, never on how many trials the stopping rule
    happened to consume.  Fixed-budget payloads carry no ``until`` key at
    all, keeping their fingerprints identical to prior releases.
    """
    from repro import __version__
    from repro.crn.serialize import network_to_dict
    from repro.sim.registry import registry

    network, stopping, _classifier = experiment._resolved()
    info = registry.get(engine)
    if seed is None and not info.computes_distribution:
        raise FingerprintError(
            "cannot fingerprint an unseeded sampling run: with seed=None every "
            "run draws fresh OS entropy, so repeated runs are *distinct* random "
            "samples and caching would silently alias them all to the first "
            "result — pass an explicit seed (exact distribution engines like "
            "'fsp' take no seed and are exempt)"
        )

    stopping_descriptor = None
    if stopping is not None:
        try:
            stopping_descriptor = stopping.to_descriptor()
        except Exception as exc:
            raise FingerprintError(
                f"stopping condition {type(stopping).__name__} cannot be "
                f"serialized for the result store: {exc}"
            ) from exc

    state_classifier = None
    if info.computes_distribution:
        state_classifier = _state_classifier_descriptor(experiment, network)

    outputs, expected_outputs = experiment._output_ports()
    simulate: dict = {
        "trials": int(trials),
        "engine": str(engine),
        "seed": None if seed is None else int(seed),
        "chunk_size": int(chunk_size),
        "backend": str(backend),
        "engine_options": _engine_options_payload(engine_options),
    }
    if until is not None:
        try:
            descriptor = until.to_descriptor()
        except AttributeError as exc:
            raise FingerprintError(
                f"until={until!r} cannot be serialized for the result store: "
                "adaptive targets need a to_descriptor() method (use "
                "CiHalfWidthTarget / RelativeSETarget / SprtTarget / "
                "SplittingConfig)"
            ) from exc
        simulate["until"] = descriptor
        # The realized trial count is an *output* of an adaptive run, not an
        # input; null it out so the declared target alone is the identity.
        simulate["trials"] = None

    return {
        "schema": EXPERIMENT_SCHEMA,
        "version": __version__,
        "kind": (
            "system"
            if experiment.system is not None
            else "module" if experiment.module is not None else "network"
        ),
        "label": experiment.label,
        "network": network_to_dict(network),
        "stopping": stopping_descriptor,
        "classifier": _classifier_descriptor(experiment),
        "state_classifier": state_classifier,
        "inputs": {str(k): int(v) for k, v in experiment.inputs},
        "target": experiment._resolved_target(),
        "outputs": outputs,
        "expected_outputs": expected_outputs,
        "options": _options_payload(experiment._resolved_options()),
        "simulate": simulate,
    }


def experiment_from_payload(payload: Mapping, trusted: bool = True):
    """Rebuild a runnable :class:`~repro.api.experiment.Experiment`.

    The reconstructed experiment is always network-kind (the payload carries
    the *resolved* network, inputs already applied); identity metadata the
    resolution discarded (label, programmed inputs, module output ports) is
    restored onto the result by :func:`compute_payload`.

    ``trusted=False`` (the HTTP service) refuses ``callable`` descriptors —
    resolving a ``"module:qualname"`` reference imports and executes
    arbitrary installed code, which must never be reachable from the wire.
    """
    from repro.api.experiment import Experiment
    from repro.crn.serialize import network_from_dict

    if not is_experiment_schema(payload.get("schema")):
        raise FingerprintError(
            f"unrecognized experiment schema {payload.get('schema')!r}; "
            f"expected one of {list(_ACCEPTED_SCHEMAS)}"
        )
    return Experiment(
        network=network_from_dict(payload["network"]),
        stopping=condition_from_descriptor(payload.get("stopping")),
        classifier=_classifier_from_descriptor(payload.get("classifier"), trusted),
        state_classifier=_state_classifier_from_descriptor(
            payload.get("state_classifier"), trusted
        ),
        options=_options_from_payload(payload["options"]),
        target=payload.get("target"),
        label=str(payload.get("label", "experiment")),
    )


def compute_payload(payload: Mapping, workers: int = 1, trusted: bool = True):
    """Execute a serialized experiment and return its :class:`RunResult`.

    This is the single compute path behind cache misses everywhere a payload
    travels — campaign worker processes and the ``POST /simulate`` service
    route — so a given payload produces byte-identical results no matter
    where it runs.  ``workers`` shards the ensemble locally (results are
    invariant to it); ``trusted=False`` applies the wire-safety rules of
    :func:`experiment_from_payload`.
    """
    experiment = experiment_from_payload(payload, trusted=trusted)
    sim = payload["simulate"]
    until = None
    if sim.get("until") is not None:
        # Adaptive descriptors are fully declarative (plain numbers and
        # labels), so reconstructing one is wire-safe even with trusted=False.
        from repro.adaptive import target_from_descriptor

        until = target_from_descriptor(sim["until"])
    result = experiment.simulate(
        trials=1 if sim.get("trials") is None else int(sim["trials"]),
        engine=str(sim["engine"]),
        workers=workers,
        seed=sim.get("seed"),
        engine_options=_engine_options_from_payload(
            sim.get("engine_options"), str(sim["engine"])
        ),
        chunk_size=int(sim.get("chunk_size", 512)),
        backend=str(sim.get("backend", "auto")),
        until=until,
    )
    # Restore the identity metadata that resolving the experiment discarded,
    # so served results match locally-computed ones field for field.
    result.label = str(payload.get("label", result.label))
    result.inputs = {str(k): int(v) for k, v in payload.get("inputs", {}).items()}
    result.outputs = payload.get("outputs")
    result.expected_outputs = payload.get("expected_outputs")
    return result
