"""Payload-level canonicalization: isomorphism-aware store identity.

:mod:`repro.crn.canonical` maps a network to its canonical representative
plus a species witness.  This module threads that through the serialized
experiment payload (:mod:`repro.store.serialize`): every species reference a
payload carries — the network itself, stopping-condition descriptors,
classifier catalyst maps, state-classifier thresholds, adaptive ``rel-se``
targets, ``firing-count`` reaction indices — is rewritten into canonical
terms, and the store key is the fingerprint of that canonical identity.

The contract this buys:

* **Identity is the isomorphism class.**  Two experiments that differ only
  in species naming, reaction order, network name/metadata, or caller-side
  presentation (``label`` / ``inputs`` / ``outputs`` / ``expected_outputs``
  / ``target``) share one store key.  Outcome *labels* are semantic and stay
  identity: a stopping condition labeled ``"x>=10"`` is a different
  experiment from one labeled ``"y>=10"`` even on isomorphic networks,
  because results key outcome counts by label.
* **Misses execute the canonical representative.**  Reaction order feeds the
  SSA random stream, so only a canonical-order execution gives every member
  of the class the same realization.  The computed result is *localized*
  (species translated back through the witness) before it is returned and
  stored, so the artifact reads naturally under the first writer's naming.
* **Hits translate through composed witnesses.**  The envelope records the
  writer's witness; a reader composes ``writer name -> canonical -> reader
  name`` and localizes the stored payload, byte-identical to what the
  reader's own cold run would have produced.

Experiments that reference opaque callables (classifier / state-classifier
``"callable"`` descriptors) cannot be relabeled — the callable reads raw
species names — and fall back to identity canonicalization: the payload is
hashed as-is (everything except ``version``), exactly the
pre-canonicalization behavior, and a miss executes that payload like any
other.  Canonicalizing never resolves a callable reference (that would
import code); it only checks its form.

The canonical labeling search is the expensive step, and a payload's network
dict determines its outcome, so :func:`canonicalize_payload` keeps what it
derives from a form in a bounded, thread-safe cache keyed by the network
dict's JSON text (128 entries, least recently used evicted first).
Repeated payloads over one network — every ``simulate(store=)`` call of an
experiment, every ``repro serve`` request for it — label it once per
process.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

from repro.errors import ExperimentError, FingerprintError, StoreError

__all__ = [
    "EXPERIMENT_UNHASHED_KEYS",
    "CanonicalPayload",
    "canonicalize_payload",
    "canonical_identity",
    "localize_run_payload",
    "compose_translation",
    "store_computed",
    "cached_run",
]

#: Experiment-payload keys that are caller-side presentation, not identity.
#: A cache hit restores them from the *caller's* payload.
EXPERIMENT_UNHASHED_KEYS = (
    "version",
    "label",
    "inputs",
    "outputs",
    "expected_outputs",
    "target",
)

#: Network forms :func:`canonicalize_payload` keeps, least recently used
#: evicted first; the store's hot tier holds as many envelopes.
_NETWORK_FORM_CAPACITY = 128

@dataclass(frozen=True)
class CanonicalPayload:
    """A payload's canonical identity, executable form, and witness.

    Attributes
    ----------
    key:
        The store key — ``fingerprint_payload`` of the caller payload equals
        this by construction.
    payload:
        The canonical *executable* payload (schema ``repro.experiment/v2``):
        canonical network and descriptors, but the caller's unhashed
        metadata, so :func:`~repro.store.serialize.compute_payload` restores
        caller-facing fields.  When ``exact`` is ``False`` this is the
        caller payload itself (schema-normalized).
    witness:
        ``{canonical species name: caller species name}`` — identity when
        ``exact`` is ``False``.
    exact:
        Whether true canonicalization applied.  ``False`` means the payload
        references opaque callables and was hashed as-is.
    """

    key: str
    payload: dict
    witness: "dict[str, str]"
    exact: bool


# ---------------------------------------------------------------------------
# descriptor renaming
# ---------------------------------------------------------------------------


def _rename_stopping(
    descriptor: "Mapping | None",
    rename: Mapping[str, str],
    reaction_position: "Mapping[int, int] | None" = None,
) -> "dict | None":
    """Rewrite species / reaction references in a stopping descriptor.

    Labels are preserved verbatim (they are semantic identity).
    ``reaction_position`` maps original reaction indices to canonical
    positions (identity when ``None``).
    """
    if descriptor is None:
        return None
    kind = descriptor.get("type")
    data = dict(descriptor)
    if kind == "species-threshold":
        data["species"] = rename.get(data["species"], data["species"])
        return data
    if kind == "outcome-thresholds":
        data["thresholds"] = {
            label: [rename.get(species, species), level]
            for label, (species, level) in descriptor["thresholds"].items()
        }
        return data
    if kind == "firing-count":
        indices = [int(i) for i in descriptor["reaction_indices"]]
        if reaction_position is not None:
            unknown = sorted(set(indices) - set(reaction_position))
            if unknown:
                raise FingerprintError(
                    f"experiment section 'stopping' counts reaction indices "
                    f"{unknown}, which the network does not have"
                )
            indices = [reaction_position[i] for i in indices]
        data["reaction_indices"] = sorted(indices)
        return data
    if kind == "category-firing":
        return data
    if kind in ("any", "all"):
        data["conditions"] = [
            _rename_stopping(child, rename, reaction_position)
            for child in descriptor["conditions"]
        ]
        return data
    raise FingerprintError(
        f"cannot canonicalize stopping descriptor of type {kind!r}"
    )


def _rename_classifier(
    descriptor: "Mapping | None", rename: Mapping[str, str]
) -> "dict | None":
    if descriptor is None or descriptor.get("type") == "stop-detail":
        return dict(descriptor) if descriptor is not None else None
    if descriptor.get("type") == "working-outcome":
        data = dict(descriptor)
        data["catalysts"] = {
            label: rename.get(species, species)
            for label, species in descriptor["catalysts"].items()
        }
        return data
    raise FingerprintError(
        f"cannot canonicalize classifier descriptor of type "
        f"{descriptor.get('type')!r}"
    )


def _rename_state_classifier(
    descriptor: "Mapping | None", rename: Mapping[str, str]
) -> "dict | None":
    if descriptor is None:
        return None
    kind = descriptor.get("type")
    data = dict(descriptor)
    if kind == "dominant-species":
        data["catalysts"] = {
            label: rename.get(species, species)
            for label, species in descriptor["catalysts"].items()
        }
        return data
    if kind == "threshold-race":
        data["thresholds"] = {
            label: [rename.get(species, species), count, comparison]
            for label, (species, count, comparison) in descriptor["thresholds"].items()
        }
        return data
    raise FingerprintError(
        f"cannot canonicalize state-classifier descriptor of type {kind!r}"
    )


def _rename_until(descriptor: "Mapping | None", rename: Mapping[str, str]) -> "dict | None":
    if descriptor is None:
        return None
    data = dict(descriptor)
    if data.get("type") == "rel-se" and "species" in data:
        data["species"] = rename.get(data["species"], data["species"])
    return data


def _is_relabelable(payload: Mapping) -> bool:
    """Whether every species reference in ``payload`` is declarative."""
    return not any(
        (payload.get(field) or {}).get("type") == "callable"
        for field in ("classifier", "state_classifier")
    )


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def _identity_of(payload: Mapping, exact: bool) -> dict:
    """The hashed identity dict of a (canonicalized) payload.

    ``exact=True`` strips the caller-presentation keys and the network's
    ``name`` / ``metadata``; identity-fallback payloads (``exact=False``)
    strip ``version`` only, preserving the legacy hashing behavior for
    callable-bearing experiments.
    """
    if not exact:
        return {k: v for k, v in dict(payload).items() if k != "version"}
    identity = {
        k: v for k, v in dict(payload).items() if k not in EXPERIMENT_UNHASHED_KEYS
    }
    network = dict(identity.get("network") or {})
    network.pop("name", None)
    network.pop("metadata", None)
    identity["network"] = network
    return identity


@dataclass(frozen=True)
class _NetworkForm:
    """What payload canonicalization derives from one network's canonical form.

    Shared by every payload over the network, so each field is immutable:
    the canonical network dict is held as JSON text and parsed per use.
    """

    network_json: str
    witness: "Mapping[str, str]"  # canonical name -> caller name
    rename: "Mapping[str, str]"  # caller name -> canonical name
    reaction_position: "Mapping[int, int]"  # caller index -> canonical index


_NETWORK_FORMS: "OrderedDict[str, _NetworkForm]" = OrderedDict()
_NETWORK_FORMS_LOCK = threading.Lock()


def _derive_network_form(network_data: Mapping) -> _NetworkForm:
    # Looked up at call time, so a wrapped ``canonical_form`` sees each search.
    from repro.crn import canonical
    from repro.crn.serialize import network_to_dict
    from repro.store.serialize import _network_section

    form = canonical.canonical_form(_network_section(network_data))
    return _NetworkForm(
        network_json=json.dumps(network_to_dict(form.network)),
        witness=MappingProxyType(dict(form.witness)),
        rename=MappingProxyType(form.inverse_witness),
        reaction_position=MappingProxyType(
            {original: position for position, original in enumerate(form.reaction_order)}
        ),
    )


def _network_form(network_data: Mapping) -> _NetworkForm:
    """The cached :class:`_NetworkForm` of a payload's network dict.

    Keyed by the dict's JSON text with insertion order kept, so equal keys
    mean equal parsed networks; a dict that is not JSON text is labeled
    without caching.
    """
    try:
        text = json.dumps(network_data)
    except (TypeError, ValueError):
        return _derive_network_form(network_data)
    with _NETWORK_FORMS_LOCK:
        cached = _NETWORK_FORMS.get(text)
        if cached is not None:
            _NETWORK_FORMS.move_to_end(text)
            return cached
    derived = _derive_network_form(network_data)
    with _NETWORK_FORMS_LOCK:
        _NETWORK_FORMS[text] = derived
        while len(_NETWORK_FORMS) > _NETWORK_FORM_CAPACITY:
            _NETWORK_FORMS.popitem(last=False)
    return derived


def _fingerprint_identity(identity: Mapping) -> str:
    from repro.store.fingerprint import canonical_json

    digest = hashlib.sha256(canonical_json(identity, normalize=True).encode("utf-8"))
    return digest.hexdigest()


def canonicalize_payload(payload: Mapping) -> CanonicalPayload:
    """Canonicalize a serialized experiment payload.

    Parses the payload's network, computes its canonical form
    (:func:`repro.crn.canonical.canonical_form`), rewrites every species /
    reaction-index reference in the descriptors, and fingerprints the
    result.  Payloads referencing opaque callables fall back to identity
    canonicalization (``exact=False``).  An adaptive ``simulate.until``
    descriptor is first rebuilt through
    :func:`~repro.adaptive.targets.target_from_descriptor`, which raises
    :class:`~repro.errors.AdaptiveError` for an invalid one.

    What the form yields is cached under the network dict's JSON text (128
    entries), so a network already seen in this process skips the labeling
    search.  Each call returns its own
    canonical network dict and witness: mutating them leaves the cache and
    later calls untouched.  Every section is parsed first, as executing the
    payload parses it: a non-mapping section, an unknown or missing option,
    a non-numeric ``max_time``, a non-integer count (``max_steps``,
    ``snapshot_stride``, ``trials``, ``chunk_size``), a negative or
    non-integer ``seed``, ``engine_options`` that do not build the
    engine's options dataclass, or a ``network``, ``stopping``,
    ``classifier`` or ``state_classifier`` section that does not parse
    raises :class:`~repro.errors.FingerprintError` naming it, before any
    lookup.  Engine options are rebuilt through their dataclass, so every
    spelling of one options object shares a key.
    """
    from repro.store.serialize import (
        EXPERIMENT_SCHEMA,
        _descriptor_sections,
        _engine_options_payload,
        _network_section,
        _options_from_payload,
        _run_from_payload,
        is_experiment_schema,
    )

    if not isinstance(payload, Mapping) or not is_experiment_schema(
        payload.get("schema")
    ):
        raise FingerprintError(
            f"expected a serialized experiment payload, got schema "
            f"{payload.get('schema') if isinstance(payload, Mapping) else payload!r}"
        )
    data = dict(payload)
    data["schema"] = EXPERIMENT_SCHEMA  # v1 payloads hash (and execute) as v2
    # A value the run would drop or round is hashed but never executed:
    # reject it before it names a store entry.
    _options_from_payload(data)
    run = _run_from_payload(data)
    _descriptor_sections(data, resolve=False)
    simulate = data["simulate"]
    if simulate.get("engine_options") is not None:
        simulate = data["simulate"] = {
            **simulate, "engine_options": _engine_options_payload(run["engine_options"])
        }
    if simulate.get("until") is not None:
        # Rebuilt through the target, so every spelling of one target (absent
        # defaults included) shares a key and an invalid one fails here.
        from repro.adaptive import target_from_descriptor

        until = target_from_descriptor(simulate["until"]).to_descriptor()
        data["simulate"] = {**simulate, "until": until}

    if not _is_relabelable(data):
        # Labelled networks are parsed (once) by the form cache below.
        _network_section(data.get("network"))
        witness = {name: name for name in data["network"].get("species", ())}
        key = _fingerprint_identity(_identity_of(data, exact=False))
        return CanonicalPayload(key=key, payload=data, witness=witness, exact=False)

    form = _network_form(data.get("network"))
    rename = form.rename

    canonical = dict(data)
    canonical["network"] = json.loads(form.network_json)
    canonical["stopping"] = _rename_stopping(
        data.get("stopping"), rename, form.reaction_position
    )
    canonical["classifier"] = _rename_classifier(data.get("classifier"), rename)
    canonical["state_classifier"] = _rename_state_classifier(
        data.get("state_classifier"), rename
    )
    simulate = dict(data["simulate"])
    if simulate.get("until") is not None:
        simulate["until"] = _rename_until(simulate["until"], rename)
    canonical["simulate"] = simulate

    key = _fingerprint_identity(_identity_of(canonical, exact=True))
    return CanonicalPayload(
        key=key, payload=canonical, witness=dict(form.witness), exact=True
    )


def canonical_identity(payload: Mapping) -> dict:
    """The exact dict :func:`~repro.store.fingerprint.fingerprint_payload` hashes."""
    canon = canonicalize_payload(payload)
    return _identity_of(canon.payload, exact=canon.exact)


# ---------------------------------------------------------------------------
# localization (canonical/stored naming -> caller naming)
# ---------------------------------------------------------------------------


def compose_translation(
    stored_witness: "Mapping[str, str] | None", caller_witness: Mapping[str, str]
) -> "dict[str, str]":
    """``{stored name: caller name}`` through the shared canonical naming.

    A missing / empty stored witness (legacy artifact) composes as identity.
    """
    if not stored_witness:
        return {}
    return {
        stored: caller_witness.get(canonical, stored)
        for canonical, stored in stored_witness.items()
    }


def localize_run_payload(
    run_payload: Mapping,
    translate: Mapping[str, str],
    caller_payload: Mapping,
) -> dict:
    """Rewrite a stored/computed run payload into the caller's terms.

    Species names in the ensemble (and the species-sorted final-count
    columns), the adaptive ``rel-se`` target, and the importance-splitting
    record translate through ``translate``; the caller-presentation fields
    (``label`` / ``inputs`` / ``outputs`` / ``expected_outputs`` /
    ``target``) are restored from ``caller_payload``.  Outcome labels are
    never touched.  The input payload is not mutated; untouched sections
    (outcome counts, an unpermuted final-count column) are shared with it
    rather than copied, so warm hits under the writer's naming stay
    O(species), not O(trials).  A permuted ``final_counts`` keeps its form:
    a typed column stays one at its stored dtype, and a v1 payload keeps its
    lists.  Permuting species keeps the column's range, so a v3 column stays
    at the narrowest width that holds it and a v2 column at ``"<i8"``.
    """
    from repro.api.results import encode_column, ensemble_column

    localized = dict(run_payload)
    localized["label"] = str(caller_payload.get("label", localized.get("label")))
    localized["inputs"] = {
        str(k): int(v) for k, v in (caller_payload.get("inputs") or {}).items()
    }
    localized["target"] = caller_payload.get("target")
    localized["outputs"] = caller_payload.get("outputs")
    localized["expected_outputs"] = caller_payload.get("expected_outputs")

    ensemble = localized.get("ensemble")
    if isinstance(ensemble, Mapping) and isinstance(ensemble.get("species"), list):
        ensemble = dict(ensemble)
        localized["ensemble"] = ensemble
        names = [translate.get(name, name) for name in ensemble["species"]]
        order = sorted(range(len(names)), key=lambda i: names[i])
        ensemble["species"] = [names[i] for i in order]
        if order != list(range(len(names))):  # identity translations skip the
            counts = ensemble_column(ensemble, "final_counts")  # column shuffle
            # A misshapen column is left as it is, for from_payload to refuse.
            if counts.ndim == 2 and counts.shape[1] == len(order):
                permuted = counts[:, order]
                ensemble["final_counts"] = (
                    permuted.tolist()
                    if isinstance(ensemble["final_counts"], list)
                    else encode_column(permuted, ensemble["final_counts"]["dtype"])
                )

    adaptive = localized.get("adaptive")
    if isinstance(adaptive, Mapping):
        adaptive = dict(adaptive)
        localized["adaptive"] = adaptive
        until = adaptive.get("until")
        if isinstance(until, Mapping) and until.get("type") == "rel-se" and "species" in until:
            until = dict(until)
            until["species"] = translate.get(until["species"], until["species"])
            adaptive["until"] = until
        rare = adaptive.get("rare")
        if isinstance(rare, Mapping) and "species" in rare:
            rare = dict(rare)
            rare["species"] = translate.get(rare["species"], rare["species"])
            adaptive["rare"] = rare
    return localized


def localize_envelope(
    envelope: Mapping, canon: CanonicalPayload, caller_payload: Mapping
) -> "tuple[Any, dict]":
    """Localize a stored artifact envelope for a caller.

    Returns ``(RunResult, reply envelope)``.  The reply envelope carries the
    localized payload and the caller's witness; the stored artifact is not
    modified.
    """
    from repro.api.results import OBJECT, RunResult, check_fields

    if envelope.get("kind") != "run-result":
        raise StoreError(
            f"artifact {str(envelope.get('key'))[:12]}… holds a "
            f"{envelope.get('kind')!r}, not a run-result"
        )
    try:
        check_fields(envelope, {"payload": OBJECT})
        if not canon.exact:
            return RunResult.from_payload(envelope["payload"]), dict(envelope)
        translate = compose_translation(envelope.get("witness"), canon.witness)
        localized = localize_run_payload(envelope["payload"], translate, caller_payload)
        result = RunResult.from_payload(localized)
    except ExperimentError as exc:
        raise StoreError(
            f"corrupt artifact {str(envelope.get('key'))[:12]}…: {exc}"
        ) from exc
    reply = dict(envelope)
    reply["payload"] = localized
    reply["witness"] = dict(canon.witness)
    reply["label"] = localized.get("label")
    return result, reply


def store_computed(
    store: Any, canon: CanonicalPayload, caller_payload: Mapping, computed: Any
) -> "tuple[Any, dict]":
    """Put a run computed from ``canon.payload``: the miss tail of every caller.

    An exactly canonicalized run is localized into ``caller_payload``'s
    naming first (an identity-canonical one already is in it); the artifact
    is stored with the caller's witness.  Returns ``(result, envelope)``.
    """
    if canon.exact:
        from repro.api.results import RunResult

        localized = localize_run_payload(
            computed.to_payload(), canon.witness, caller_payload
        )
        computed = RunResult.from_payload(localized)
    envelope = store.put(
        canon.key, computed, descriptor=caller_payload, witness=canon.witness
    )
    return computed, envelope


def cached_run(
    store: Any,
    payload: Mapping,
    *,
    workers: int = 1,
    trusted: bool = True,
) -> "tuple[Any, bool, CanonicalPayload, dict]":
    """The canonical store path: fingerprint, cache-lookup, compute, localize.

    Returns ``(result, cached, canonical, envelope)``.  On a hit the stored
    payload is localized into the caller's naming (:func:`localize_envelope`);
    on a miss the *canonical* payload executes through
    :func:`~repro.store.serialize.compute_payload` and
    :func:`store_computed` localizes and stores the result.
    ``Experiment.simulate(store=)`` and the HTTP service call this, and the
    campaign runner settles its misses through :func:`store_computed`, so
    all three agree byte-for-byte on what a key holds.
    """
    canon = canonicalize_payload(payload)
    envelope = store.get_envelope(canon.key)
    if envelope is not None:
        result, reply = localize_envelope(envelope, canon, payload)
        return result, True, canon, reply

    from repro.store.serialize import compute_payload

    computed = compute_payload(canon.payload, workers=workers, trusted=trusted)
    result, envelope = store_computed(store, canon, payload, computed)
    return result, False, canon, envelope
