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
from collections.abc import Mapping
from typing import Any

from repro.crn.network import ReactionNetwork
from repro.errors import FingerprintError, ReproError
from repro.sim import registry
from repro.sim.base import SimulationOptions
from repro.sim.descriptors import integral, mapping, number, read_count
from repro.sim.events import condition_from_descriptor
from repro.sim.fsp import state_classifier_from_descriptor
from repro.sim.kernels.backend import validate_backend_request
from repro.sim.outcomes import WorkingOutcomeClassifier, classifier_from_descriptor
from repro.sim.rng import _checked_seed

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


def _classifier_descriptor(classifier) -> dict:
    """A classifier's own descriptor, or a reference to it as a callable;
    ``None`` is the ensemble's stop-detail default."""
    if classifier is None:
        return {"type": "stop-detail"}
    if hasattr(classifier, "to_descriptor"):
        return classifier.to_descriptor()
    return {"type": "callable", "ref": _callable_ref(classifier)}


def _or_callable(read, trusted: bool, resolve: bool):
    """A classifier section's reader: ``read``, except that a ``callable``
    reference is checked for form, resolved only with ``resolve`` (it is
    ``None`` while canonicalizing) and refused when not ``trusted``."""

    def parse(data):
        if data is None or data.get("type") != "callable":
            return read(data)
        if not isinstance(data["ref"], str):
            raise TypeError(f"callable reference must be a string, got {data['ref']!r}")
        if not resolve:
            return None
        if not trusted:
            raise FingerprintError(
                f"callable reference {data['ref']!r} rejected: this payload comes "
                "from an untrusted source (the HTTP service), and resolving it would "
                "import and execute arbitrary installed code — only the declarative "
                "descriptor types (stop-detail / working-outcome / dominant-species / "
                "threshold-race) are accepted over the wire"
            )
        return _resolve_callable_ref(data["ref"])

    return parse


# ---------------------------------------------------------------------------
# network and descriptor sections <- payloads
# ---------------------------------------------------------------------------


def _section(name: str, parse, value):
    """``parse(value)`` for the experiment payload's section ``name``.

    Whatever ``parse`` refuses — a non-mapping, a missing key, a value of
    the wrong type or an unknown descriptor type — raises
    :class:`~repro.errors.FingerprintError` naming the section.
    """
    try:
        return parse(value)
    except KeyError as exc:
        raise FingerprintError(f"experiment section {name!r} is missing key {exc}") from None
    except (ReproError, TypeError, ValueError, AttributeError) as exc:
        raise FingerprintError(f"experiment section {name!r}: {exc}") from exc


def _network_section(value) -> ReactionNetwork:
    """Parse the payload's ``network`` section (see :func:`_section`)."""
    from repro.crn.serialize import network_from_dict

    return _section("network", lambda data: network_from_dict(mapping(data)), value)


def _descriptor_sections(
    payload: Mapping, trusted: bool = True, resolve: bool = True
) -> dict:
    """Parse the ``stopping``, ``classifier`` and ``state_classifier`` sections.

    The one reader of these sections: executing a payload builds them, and
    canonicalizing it builds them with ``resolve=False``, so a ``callable``
    reference is checked but never imported.  Returns the
    :class:`~repro.api.experiment.Experiment` fields they set.
    """
    parsers = {
        "stopping": condition_from_descriptor,
        "classifier": _or_callable(classifier_from_descriptor, trusted, resolve),
        "state_classifier": _or_callable(state_classifier_from_descriptor, trusted, resolve),
    }
    return {  # each section is a mapping or null
        name: _section(
            name, lambda data: parse(None if data is None else mapping(data)), payload.get(name)
        )
        for name, parse in parsers.items()
    }


# ---------------------------------------------------------------------------
# options and run arguments <-> payloads
# ---------------------------------------------------------------------------


#: The keys an options payload may carry: the SimulationOptions fields.
_OPTION_FIELDS = frozenset(field.name for field in dataclasses.fields(SimulationOptions))

_REQUIRED = object()


def _field(data: Mapping, section: str, name: str, parse, default=_REQUIRED):
    """``parse(data[name])``, or ``default`` when the field is absent.

    A field whose default is ``None`` may also be null.  A missing required
    field or a value ``parse`` refuses raises
    :class:`~repro.errors.FingerprintError` naming the field.
    """
    value = data.get(name, _REQUIRED)
    if value is _REQUIRED or (value is None and default is None):
        if default is _REQUIRED:
            raise FingerprintError(f"{section!r} is missing field {name!r}")
        return default
    try:
        return parse(value)
    except (TypeError, ValueError) as exc:
        raise FingerprintError(f"{section!r} field {name!r}: {exc}") from exc


def _seed(value) -> int:
    seed = integral(value)
    if seed < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return seed


def _flag(value) -> bool:
    """A boolean; ``1`` or ``"false"`` is refused, not read by truthiness."""
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


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


def _options_from_payload(payload: Mapping) -> SimulationOptions:
    """Parse the payload's ``options``: the one reader of that section.

    A non-mapping, a key that is not a :class:`SimulationOptions` field, a
    missing field, a ``max_time`` that is neither a number nor null, a flag
    that is not a boolean or a count that is not an integer (a fractional
    one, a bool or a string included) raises
    :class:`~repro.errors.FingerprintError` naming it.  The payload is
    hashed whole, so a value the options would drop or round names a run
    that executing it could not reproduce.
    """
    data = _field(payload, "experiment", "options", mapping)
    unknown = sorted(set(data) - _OPTION_FIELDS)
    if unknown:
        raise FingerprintError(
            f"unknown simulation option(s) {unknown} in the experiment "
            f"payload; valid fields: {sorted(_OPTION_FIELDS)}"
        )
    max_time = _field(data, "options", "max_time", number, None)
    return SimulationOptions(
        max_time=math.inf if max_time is None else max_time,
        max_steps=_field(data, "options", "max_steps", integral),
        record_firings=_field(data, "options", "record_firings", _flag),
        record_states=_field(data, "options", "record_states", _flag),
        snapshot_stride=_field(data, "options", "snapshot_stride", integral),
        backend=_field(data, "options", "backend", str),
    )


def _checked_engine(
    engine: str, seed: "int | None", backend: str, options_backend: str
) -> "registry.EngineInfo":
    """The table row of ``engine``, if one stored run of it can be named.

    The rule both payload directions apply, before any lookup: the engine
    must exist (an unknown name gets the closest match) and not be
    ``mean-field`` (ensembles refuse it), the backend must be one it
    declares, and only a ``distribution`` engine, which draws nothing, may
    go unseeded: with ``seed=None`` every sampling run draws fresh OS
    entropy, so caching would alias distinct samples to the first result.
    The backend is ``simulate.backend``, or the options' ``backend``
    (``options_backend``) when that is ``"auto"``, except on a
    ``distribution`` engine, which runs no kernel.  A refusal raises
    :class:`~repro.errors.FingerprintError` naming ``simulate.engine``,
    ``simulate.backend``, ``options.backend`` or ``simulate.seed``.
    """
    try:
        info = registry.get(engine)
    except ReproError as exc:
        raise FingerprintError(f"'simulate' field 'engine': {exc}") from None
    if info.kind == "mean-field":
        raise FingerprintError(
            f"'simulate' field 'engine': engine {engine!r} is a deterministic "
            "mean field, which ensembles refuse; run it once with run_once()"
        )
    try:
        validate_backend_request(backend, info.backends, engine)
    except ReproError as exc:
        raise FingerprintError(f"'simulate' field 'backend': {exc}") from None
    if backend == "auto" and info.kind != "distribution":
        try:
            validate_backend_request(options_backend, info.backends, engine)
        except ReproError as exc:
            raise FingerprintError(f"'options' field 'backend': {exc}") from None
    if seed is None and info.kind != "distribution":
        raise FingerprintError(
            "'simulate' field 'seed': cannot fingerprint an unseeded sampling "
            "run: with seed=None every run draws fresh OS entropy, so repeated "
            "runs are *distinct* random samples and caching would silently "
            "alias them all to the first result — pass an explicit seed (exact "
            "distribution engines like 'fsp' take no seed and are exempt)"
        )
    return info


def _run_from_payload(payload: Mapping, options: SimulationOptions) -> dict:
    """Parse the payload's ``simulate`` section into ``Experiment.simulate``
    arguments (``until`` aside).

    ``trials`` is an integer or null, ``seed`` a non-negative integer (null
    only for a ``distribution`` engine), ``chunk_size`` an integer (an
    integral float is one; a fractional number, a bool or a string is
    refused), ``engine`` and ``backend`` a run :func:`_checked_engine` accepts
    with the payload's parsed ``options``,
    and ``engine_options`` null or the engine's typed options, rebuilt
    through their dataclass; a malformed one raises
    :class:`~repro.errors.FingerprintError` naming it.  Other range checks
    are left to ``simulate``.
    """
    data = _field(payload, "experiment", "simulate", mapping)
    run = {
        "trials": _field(data, "simulate", "trials", integral, None),
        "engine": _field(data, "simulate", "engine", str),
        "seed": _field(data, "simulate", "seed", _seed, None),
        "chunk_size": _field(data, "simulate", "chunk_size", integral, 512),
        "backend": _field(data, "simulate", "backend", str, "auto"),
    }
    info = _checked_engine(run["engine"], run["seed"], run["backend"], options.backend)
    run["engine_options"] = _field(
        data, "simulate", "engine_options",
        lambda value: _engine_options_from_payload(value, info), None,
    )
    return run


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


def _engine_options_from_payload(data, info: "registry.EngineInfo") -> Any:
    """The engine's typed options from their ``{"type", "fields"}`` payload.

    The fields go through the engine's options dataclass, whose own checks
    apply; every refusal is a ``TypeError`` / ``ValueError``.
    """
    data = mapping(data)
    options_type = info.options_type
    if options_type is None or options_type.__name__ != data.get("type"):
        raise ValueError(
            f"engine {info.name!r} does not accept engine options of type "
            f"{data.get('type')!r}"
        )
    try:
        return options_type(**mapping(data.get("fields")))
    except ReproError as exc:
        raise ValueError(str(exc)) from exc


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

    network, stopping, classifier = experiment._resolved()
    options = experiment._resolved_options()
    info = _checked_engine(engine, seed, backend, options.backend)

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
    if info.kind == "distribution":
        state_classifier = _classifier_descriptor(
            experiment._resolved_state_classifier(network)
        )

    outputs, expected_outputs = experiment._output_ports()
    simulate: dict = {
        "trials": read_count("trials", trials, FingerprintError),
        "engine": str(engine),
        "seed": None if seed is None else int(_checked_seed(seed)),
        "chunk_size": read_count("chunk_size", chunk_size, FingerprintError),
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
        "classifier": _classifier_descriptor(classifier),
        "state_classifier": state_classifier,
        "inputs": {str(k): int(v) for k, v in experiment.inputs},
        "target": experiment._resolved_target(),
        "outputs": outputs,
        "expected_outputs": expected_outputs,
        "options": _options_payload(options),
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

    if not is_experiment_schema(payload.get("schema")):
        raise FingerprintError(
            f"unrecognized experiment schema {payload.get('schema')!r}; "
            f"expected one of {list(_ACCEPTED_SCHEMAS)}"
        )
    return Experiment(
        network=_network_section(payload.get("network")),
        **_descriptor_sections(payload, trusted=trusted),
        options=_options_from_payload(payload),
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
    run = _run_from_payload(payload, experiment._resolved_options())
    sim = payload["simulate"]
    until = None
    if sim.get("until") is not None:
        # Adaptive descriptors are fully declarative (plain numbers and
        # labels), so reconstructing one is wire-safe even with trusted=False.
        from repro.adaptive import target_from_descriptor

        until = target_from_descriptor(sim["until"])
    result = experiment.simulate(
        trials=1 if run["trials"] is None else run["trials"],
        engine=run["engine"],
        workers=workers,
        seed=run["seed"],
        engine_options=run["engine_options"],
        chunk_size=run["chunk_size"],
        backend=run["backend"],
        until=until,
    )
    # Restore the identity metadata that resolving the experiment discarded,
    # so served results match locally-computed ones field for field.
    result.label = str(payload.get("label", result.label))
    result.inputs = {str(k): int(v) for k, v in payload.get("inputs", {}).items()}
    result.outputs = payload.get("outputs")
    result.expected_outputs = payload.get("expected_outputs")
    return result
