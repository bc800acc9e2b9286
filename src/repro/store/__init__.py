"""Content-addressed result store + campaign orchestration.

Determinism (worker-count and backend bit-identity, PRs 3–4) makes every
simulation a pure function of its serialized inputs, so results are
*content-addressable*:

* :mod:`repro.store.fingerprint` — canonical JSON + SHA-256 content keys;
* :mod:`repro.store.canonical` — isomorphism-aware identity: payloads are
  canonically relabeled before hashing, so experiments that differ only in
  species naming / reaction order share one cache entry, translated back to
  each caller's naming through a recorded witness;
* :mod:`repro.store.serialize` — experiments ⇄ JSON payloads (the unit that
  is hashed, shipped to workers, and POSTed to the service);
* :mod:`repro.store.store` — :class:`ResultStore`, the tiered on-disk
  store of run-result artifacts (in-process hot LRU over gzip-compressed
  cold JSON files, which are its only record) with cache lookup,
  eviction/GC and campaign manifests;
* :mod:`repro.store.campaign` — :class:`Campaign` grids scheduled by the
  cache-aware, resumable :class:`CampaignRunner`.

Quickstart::

    from repro import Experiment
    from repro.store import ResultStore

    store = ResultStore("results/")
    exp = Experiment.from_distribution({"a": 0.5, "b": 0.5})
    cold = exp.simulate(trials=1000, seed=1, store=store)   # computes + stores
    warm = exp.simulate(trials=1000, seed=1, store=store)   # cache hit
    assert cold.to_json() == warm.to_json()                 # bit-identical
"""

from repro.store.campaign import (
    Campaign,
    CampaignCell,
    CampaignProgress,
    CampaignResult,
    CampaignRunner,
    CellOutcome,
)
from repro.store.canonical import (
    CanonicalPayload,
    canonicalize_payload,
    compose_translation,
    localize_run_payload,
)
from repro.store.fingerprint import canonical_json, fingerprint_payload, normalize_numbers
from repro.store.serialize import (
    compute_payload,
    experiment_from_payload,
    experiment_to_payload,
    is_experiment_schema,
)
from repro.store.store import ResultStore

__all__ = [
    "ResultStore",
    "Campaign",
    "CampaignCell",
    "CampaignProgress",
    "CampaignResult",
    "CampaignRunner",
    "CellOutcome",
    "CanonicalPayload",
    "canonical_json",
    "canonicalize_payload",
    "compose_translation",
    "fingerprint_payload",
    "normalize_numbers",
    "localize_run_payload",
    "experiment_to_payload",
    "experiment_from_payload",
    "is_experiment_schema",
    "compute_payload",
]
