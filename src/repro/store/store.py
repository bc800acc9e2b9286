"""Content-addressed on-disk store for simulation results.

Every artifact is addressed by the SHA-256 fingerprint of the experiment
payload that produced it (:mod:`repro.store.fingerprint`), so the store is a
*memo table for the simulator*: ask for a key, get back the exact result a
previous run persisted — bit-identically, because engines are deterministic
in their payload and the payload JSON is stored verbatim.

Layout (JSON envelopes, gzip-compressed at rest; per-trial arrays inside a
payload are typed base64 columns, integers at their narrowest width, see
:mod:`repro.api.results`)::

    <root>/
      index.json                        # key -> {kind, label, engine, size, ...}
      artifacts/<k[:2]>/<key>.json.gz   # artifact envelopes, sharded by prefix
      campaigns/<id>.json               # campaign manifests

The store is **tiered**: a bounded in-process LRU of deserialized envelopes
(the *hot* tier, ``hot_capacity`` entries, shared across threads) fronts the
gzip-compressed JSON files (the *cold* tier).  Repeated reads of the same
key skip both the disk and the JSON parse.  Uncompressed legacy
``<key>.json`` artifacts remain readable; new writes are compressed (gzip
level 6) unless ``compress=False``.  Gzip headers are written with
``mtime=0`` so identical envelopes produce identical files.

Artifact envelopes carry ``schema`` and ``version`` fields; artifacts whose
schema does not match the store's raise :class:`~repro.errors.StoreError`
(the version in the message says which library wrote them), and so do
artifacts that do not inflate, decode or parse to an envelope (the message
names the key) and payloads whose columns fail validation (the message names
the field).  Payloads are stored verbatim: a ``v1`` or ``v2`` result payload
already in a store is served as it was written.  Canonical-store
writers also record a ``witness`` (canonical → writer species naming, see
:mod:`repro.store.canonical`) so readers with different naming can translate
the payload.  Writes are atomic (temp file + ``os.replace``) and serialized
through an internal lock, so the threaded HTTP service can share one store
instance; the index self-heals from the artifact files when an entry is
missing.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import threading
import time
import zlib
from collections import OrderedDict
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import ExperimentError, StoreError

__all__ = [
    "ARTIFACT_SCHEMA",
    "INDEX_SCHEMA",
    "CAMPAIGN_SCHEMA",
    "ResultStore",
]

#: Schema tags of the store's on-disk documents.  Bump on incompatible
#: changes; artifacts written under a different tag are rejected on read.
ARTIFACT_SCHEMA = "repro.store.artifact/v1"
INDEX_SCHEMA = "repro.store.index/v1"
CAMPAIGN_SCHEMA = "repro.store.campaign/v1"

#: Schema tag of bare-ensemble payloads (RunResult/FspResult carry their own);
#: v3 holds typed columns with narrow integers, v2 (still read) typed columns
#: with ``"<i8"`` integers, v1 (still read) JSON lists.
ENSEMBLE_SCHEMA = "repro.ensemble-result/v3"
_ENSEMBLE_SCHEMAS = (
    "repro.ensemble-result/v1",
    "repro.ensemble-result/v2",
    ENSEMBLE_SCHEMA,
)

#: Gzip level of new artifacts.  On the 1.49 MB 10^4-trial Example-1
#: envelope of ``"<i8"`` columns (2-vCPU Xeon host), level 9 took 52 ms for
#: 92 KB and level 6 took 13 ms for 102 KB.
_GZIP_LEVEL = 6


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (same-directory temp + replace)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _atomic_write(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


class ResultStore:
    """Content-addressed artifact store with an index, cache API and GC.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).
    max_artifacts / max_bytes:
        Optional standing limits applied by :meth:`gc` when called without
        arguments (and by :meth:`put` after every write when set), evicting
        least-recently-used artifacts first.
    hot_capacity:
        Size of the in-process hot tier — a bounded LRU of deserialized
        envelopes fronting the compressed files.  ``0`` disables it (every
        read hits the disk).  Hot entries are returned by reference; callers
        must treat envelopes as read-only (the store's own paths copy before
        rewriting).
    compress:
        Whether new artifacts are written gzip-compressed
        (``<key>.json.gz``).  Reads always accept both compressed and legacy
        uncompressed files, so stores created before compression (or with it
        disabled) stay fully usable.
    """

    def __init__(
        self,
        root: "str | Path",
        max_artifacts: "int | None" = None,
        max_bytes: "int | None" = None,
        hot_capacity: int = 128,
        compress: bool = True,
    ) -> None:
        self.root = Path(root)
        self.max_artifacts = max_artifacts
        self.max_bytes = max_bytes
        self.hot_capacity = int(hot_capacity)
        self.compress = compress
        self._lock = threading.RLock()
        # LRU stamps recorded by reads; folded into the index by put()/gc()
        # so the hot read path never rewrites index.json.
        self._recent_access: dict[str, float] = {}
        # Hot tier: key -> deserialized envelope, most recent last.
        self._hot: "OrderedDict[str, dict]" = OrderedDict()
        self.root.mkdir(parents=True, exist_ok=True)

    # The lock cannot pickle; campaign/sweep workers get a fresh one.  The
    # hot tier is per-process state and restarts empty on the other side.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        del state["_hot"]
        state["_recent_access"] = {}
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()
        self._hot = OrderedDict()

    @classmethod
    def coerce(cls, store: "ResultStore | str | Path") -> "ResultStore":
        """Accept a store instance or a directory path."""
        if isinstance(store, cls):
            return store
        if isinstance(store, (str, Path)):
            return cls(store)
        raise StoreError(
            f"expected a ResultStore or a directory path, got {type(store).__name__}"
        )

    # -- paths -------------------------------------------------------------------

    @property
    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _artifact_dir(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed artifact key {key!r} (expected hex digest)")
        return self.root / "artifacts" / key[:2]

    def _artifact_path(self, key: str) -> Path:
        """The *write* path for ``key`` under the current compression setting."""
        suffix = ".json.gz" if self.compress else ".json"
        return self._artifact_dir(key) / f"{key}{suffix}"

    def _artifact_candidates(self, key: str) -> "tuple[Path, Path]":
        """Both possible on-disk paths for ``key`` (compressed first)."""
        directory = self._artifact_dir(key)
        return directory / f"{key}.json.gz", directory / f"{key}.json"

    @staticmethod
    def _key_of_path(path: Path) -> str:
        # Keys are hex digests (no dots), so everything before the first dot
        # is the key regardless of which extension the artifact carries.
        return path.name.split(".", 1)[0]

    def _read_artifact_text(self, key: str) -> "str | None":
        for path in self._artifact_candidates(key):
            try:
                raw = path.read_bytes()
            except FileNotFoundError:
                continue
            except OSError as exc:
                raise StoreError(f"corrupt artifact {path}: {exc}") from exc
            try:
                if path.suffix == ".gz":
                    raw = gzip.decompress(raw)
                return raw.decode("utf-8")
            except (OSError, EOFError, zlib.error, UnicodeDecodeError) as exc:
                raise StoreError(f"corrupt artifact {path}: {exc}") from exc
        return None

    # -- hot tier ----------------------------------------------------------------

    def _hot_get(self, key: str) -> "dict | None":
        if self.hot_capacity <= 0:
            return None
        with self._lock:
            envelope = self._hot.get(key)
            if envelope is not None:
                self._hot.move_to_end(key)
                self._recent_access[key] = time.time()
            return envelope

    def _hot_put_locked(self, key: str, envelope: dict) -> None:
        if self.hot_capacity <= 0:
            return
        self._hot[key] = envelope
        self._hot.move_to_end(key)
        while len(self._hot) > self.hot_capacity:
            self._hot.popitem(last=False)

    def _campaign_path(self, campaign_id: str) -> Path:
        safe = str(campaign_id)
        if not safe or any(c not in "0123456789abcdef-" for c in safe):
            raise StoreError(f"malformed campaign id {campaign_id!r}")
        return self.root / "campaigns" / f"{safe}.json"

    # -- index -------------------------------------------------------------------

    def _load_index(self) -> dict:
        try:
            raw = json.loads(self._index_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return {"schema": INDEX_SCHEMA, "artifacts": {}}
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt store index {self._index_path}: {exc}") from exc
        if raw.get("schema") != INDEX_SCHEMA:
            raise StoreError(
                f"store index schema {raw.get('schema')!r} is incompatible with "
                f"{INDEX_SCHEMA!r} (written by version {raw.get('version')!r})"
            )
        return raw

    def _merge_access_locked(self, index: dict) -> None:
        """Fold read-side LRU stamps into the index (caller holds the lock)."""
        artifacts = index["artifacts"]
        for key, stamp in self._recent_access.items():
            entry = artifacts.get(key)
            if entry is not None:
                entry["access"] = max(float(entry.get("access", 0.0)), stamp)
        self._recent_access.clear()

    def _reconcile_locked(self, index: dict) -> None:
        """Register artifact files a lost index update dropped (self-heal)."""
        artifacts = index["artifacts"]
        artifacts_dir = self.root / "artifacts"
        if not artifacts_dir.is_dir():
            return
        for pattern in ("*/*.json", "*/*.json.gz"):
            for path in artifacts_dir.glob(pattern):
                key = self._key_of_path(path)
                if key not in artifacts:
                    stat = path.stat()
                    artifacts[key] = {
                        "kind": None,
                        "label": None,
                        "engine": None,
                        "size": stat.st_size,
                        "created": stat.st_mtime,
                        "access": stat.st_mtime,
                    }

    def _write_index(self, index: dict) -> None:
        from repro import __version__

        index["schema"] = INDEX_SCHEMA
        index["version"] = __version__
        _atomic_write(self._index_path, json.dumps(index, indent=2, sort_keys=True))

    # -- artifact API ------------------------------------------------------------

    def put(
        self,
        key: str,
        result: Any,
        descriptor: "Mapping | None" = None,
        witness: "Mapping[str, str] | None" = None,
    ) -> dict:
        """Persist a result under ``key`` and return its envelope.

        ``result`` may be a :class:`~repro.api.results.RunResult`, a bare
        :class:`~repro.sim.ensemble.EnsembleResult` or an
        :class:`~repro.sim.fsp.FspResult`; the envelope records which, plus
        the library version and the experiment ``descriptor`` (provenance).
        ``witness`` maps canonical species names to the writer's naming
        (:mod:`repro.store.canonical`) so readers that address the same
        isomorphism class under different naming can translate the payload.
        Re-putting an existing key overwrites idempotently.
        """
        from repro import __version__

        kind, payload = _result_to_payload(result)
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "version": __version__,
            "key": key,
            "kind": kind,
            "label": _label_of(result),
            "engine": getattr(result, "engine", None),
            "descriptor": dict(descriptor) if descriptor is not None else None,
            "witness": dict(witness) if witness is not None else None,
            "payload": payload,
        }
        data = json.dumps(envelope, indent=2).encode("utf-8")
        if self.compress:
            # mtime=0 keeps the compressed bytes a pure function of content.
            data = gzip.compress(data, compresslevel=_GZIP_LEVEL, mtime=0)
        with self._lock:
            path = self._artifact_path(key)
            _atomic_write_bytes(path, data)
            # Drop a stale artifact under the other extension so reads (which
            # prefer .json.gz) and size accounting never see two copies.
            for candidate in self._artifact_candidates(key):
                if candidate != path and candidate.exists():
                    candidate.unlink()
            self._hot_put_locked(key, envelope)
            index = self._load_index()
            self._merge_access_locked(index)
            now = time.time()
            index["artifacts"][key] = {
                "kind": kind,
                "label": envelope["label"],
                "engine": envelope["engine"],
                "size": len(data),
                "created": now,
                "access": now,
            }
            self._write_index(index)
            if self.max_artifacts is not None or self.max_bytes is not None:
                self._gc_locked(index, self.max_artifacts, self.max_bytes)
        return envelope

    def get_envelope(self, key: str) -> "dict | None":
        """The artifact envelope for ``key``, or ``None`` on a miss.

        The hot tier answers first (no disk, no JSON parse); cold reads try
        the compressed file, then the legacy uncompressed one, validate the
        envelope schema (rejecting artifacts written by an incompatible
        library with a :class:`StoreError` naming the writing version), and
        promote the envelope into the hot tier.  The index is not touched on
        this path — concurrent readers only contend on the in-memory LRU
        stamp (folded into ``index.json`` by the next :meth:`put` /
        :meth:`gc`).  Returned envelopes must be treated as read-only.
        """
        hot = self._hot_get(key)
        if hot is not None:
            return hot
        text = self._read_artifact_text(key)
        if text is None:
            return None
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt artifact {key[:12]}…: {exc}") from exc
        if not isinstance(envelope, dict):
            raise StoreError(
                f"corrupt artifact {key[:12]}…: holds a JSON "
                f"{type(envelope).__name__}, not an envelope object"
            )
        if envelope.get("schema") != ARTIFACT_SCHEMA:
            raise StoreError(
                f"artifact {key[:12]}… has schema {envelope.get('schema')!r}, "
                f"incompatible with {ARTIFACT_SCHEMA!r} (written by repro "
                f"version {envelope.get('version')!r}); evict it or migrate "
                "the store"
            )
        with self._lock:
            self._recent_access[key] = time.time()
            self._hot_put_locked(key, envelope)
        return envelope

    def get(self, key: str) -> Any:
        """Load and reconstruct the result stored under ``key`` (or ``None``)."""
        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        return _decode(key, envelope.get("kind"), envelope["payload"])

    def load_run(self, key: str):
        """A cached :class:`~repro.api.results.RunResult`, or ``None`` on a miss.

        Raises :class:`StoreError` when the key holds a different artifact
        kind — a fingerprint collision between result kinds means the caller
        mixed key namespaces, which should never pass silently.
        """
        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        if envelope.get("kind") != "run-result":
            raise StoreError(
                f"artifact {key[:12]}… holds a {envelope.get('kind')!r}, "
                "not a run-result"
            )
        return _decode(key, "run-result", envelope["payload"])

    def has(self, key: str) -> bool:
        """Whether ``key`` is present (no access-stamp update, no validation)."""
        if self.hot_capacity > 0:
            with self._lock:
                if key in self._hot:
                    return True
        return any(path.exists() for path in self._artifact_candidates(key))

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and self.has(key)

    def keys(self) -> list[str]:
        """All stored artifact keys (sorted)."""
        with self._lock:
            index = self._load_index()
            known = set(index["artifacts"])
        artifacts_dir = self.root / "artifacts"
        if artifacts_dir.is_dir():
            for pattern in ("*/*.json", "*/*.json.gz"):
                for path in artifacts_dir.glob(pattern):
                    known.add(self._key_of_path(path))
        return sorted(known)

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def evict(self, key: str) -> bool:
        """Remove one artifact; returns whether anything was deleted.

        "Anything" covers the artifact file *and* its index entry: an
        artifact whose file was deleted externally still has index state to
        clean up, and evicting it returns ``True`` (it did mutate the store).
        The index is reconciled against the disk first so the decision is
        made on consistent state.
        """
        with self._lock:
            removed = False
            for path in self._artifact_candidates(key):
                if path.exists():
                    path.unlink()
                    removed = True
            self._hot.pop(key, None)
            self._recent_access.pop(key, None)
            index = self._load_index()
            self._reconcile_locked(index)
            if key in index["artifacts"]:
                del index["artifacts"][key]
                removed = True
                self._write_index(index)
        return removed

    def gc(
        self,
        max_artifacts: "int | None" = None,
        max_bytes: "int | None" = None,
    ) -> list[str]:
        """Evict least-recently-used artifacts down to the given limits.

        Limits default to the store's standing ``max_artifacts``/``max_bytes``;
        with neither set anywhere, nothing is evicted.  Returns the evicted
        keys, oldest first.
        """
        with self._lock:
            index = self._load_index()
            return self._gc_locked(
                index,
                self.max_artifacts if max_artifacts is None else max_artifacts,
                self.max_bytes if max_bytes is None else max_bytes,
            )

    def _gc_locked(
        self, index: dict, max_artifacts: "int | None", max_bytes: "int | None"
    ) -> list[str]:
        self._reconcile_locked(index)
        self._merge_access_locked(index)
        artifacts = index["artifacts"]
        ordered = sorted(artifacts, key=lambda k: artifacts[k].get("access", 0))
        evicted: list[str] = []
        total_bytes = sum(int(e.get("size", 0)) for e in artifacts.values())
        while ordered and (
            (max_artifacts is not None and len(ordered) > max_artifacts)
            or (max_bytes is not None and total_bytes > max_bytes)
        ):
            key = ordered.pop(0)
            total_bytes -= int(artifacts[key].get("size", 0))
            del artifacts[key]
            self._hot.pop(key, None)
            for path in self._artifact_candidates(key):
                if path.exists():
                    path.unlink()
            evicted.append(key)
        if evicted:
            self._write_index(index)
        return evicted

    def stats(self) -> dict:
        """Aggregate store statistics (artifact count, bytes, campaigns)."""
        with self._lock:
            index = self._load_index()
            self._reconcile_locked(index)
            artifacts = index["artifacts"]
            return {
                "root": str(self.root),
                "artifacts": len(artifacts),
                "bytes": sum(int(e.get("size", 0)) for e in artifacts.values()),
                "campaigns": len(self.campaign_ids()),
            }

    # -- campaign manifests ------------------------------------------------------

    def save_campaign(self, manifest: Mapping) -> dict:
        """Persist a campaign manifest (keyed by its ``id`` field)."""
        from repro import __version__

        document = dict(manifest)
        if not document.get("id"):
            raise StoreError("campaign manifest has no 'id' field")
        document["schema"] = CAMPAIGN_SCHEMA
        document["version"] = __version__
        with self._lock:
            _atomic_write(
                self._campaign_path(document["id"]),
                json.dumps(document, indent=2, sort_keys=True),
            )
        return document

    def load_campaign(self, campaign_id: str) -> "dict | None":
        """Load a campaign manifest by id, or ``None`` when absent."""
        path = self._campaign_path(campaign_id)
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(f"corrupt campaign manifest {path}: {exc}") from exc
        if manifest.get("schema") != CAMPAIGN_SCHEMA:
            raise StoreError(
                f"campaign manifest {campaign_id!r} has schema "
                f"{manifest.get('schema')!r}, incompatible with "
                f"{CAMPAIGN_SCHEMA!r} (written by repro version "
                f"{manifest.get('version')!r})"
            )
        return manifest

    def campaign_ids(self) -> list[str]:
        """Ids of all persisted campaign manifests (sorted)."""
        campaigns_dir = self.root / "campaigns"
        if not campaigns_dir.is_dir():
            return []
        return sorted(path.stem for path in campaigns_dir.glob("*.json"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r})"


# ---------------------------------------------------------------------------
# result object <-> (kind, payload)
# ---------------------------------------------------------------------------


def _result_to_payload(result: Any) -> "tuple[str, dict]":
    from repro.api.results import RunResult, ensemble_to_payload
    from repro.sim.ensemble import EnsembleResult
    from repro.sim.fsp import FspResult

    if isinstance(result, RunResult):
        return "run-result", result.to_payload()
    if isinstance(result, FspResult):
        return "fsp-result", result.to_payload()
    if isinstance(result, EnsembleResult):
        from repro import __version__

        payload = {"schema": ENSEMBLE_SCHEMA, "version": __version__}
        payload.update(ensemble_to_payload(result))
        return "ensemble-result", payload
    raise StoreError(
        f"cannot store a {type(result).__name__}; expected RunResult, "
        "EnsembleResult or FspResult"
    )


def _result_from_payload(kind: "str | None", payload: Mapping) -> Any:
    from repro.api.results import RunResult, ensemble_from_payload
    from repro.sim.fsp import FspResult

    if kind == "run-result":
        return RunResult.from_payload(payload)
    if kind == "fsp-result":
        return FspResult.from_payload(payload)
    if kind == "ensemble-result":
        if payload.get("schema") not in _ENSEMBLE_SCHEMAS:
            raise StoreError(
                f"unrecognized ensemble payload schema {payload.get('schema')!r}; "
                f"expected one of {list(_ENSEMBLE_SCHEMAS)}"
            )
        return ensemble_from_payload(payload)
    raise StoreError(f"unknown artifact kind {kind!r}")


def _decode(key: str, kind: "str | None", payload: Mapping) -> Any:
    """:func:`_result_from_payload`, a malformed payload raising :class:`StoreError`."""
    try:
        return _result_from_payload(kind, payload)
    except ExperimentError as exc:
        raise StoreError(f"corrupt artifact {key[:12]}…: {exc}") from exc


def _label_of(result: Any) -> "str | None":
    label = getattr(result, "label", None)
    return str(label) if label is not None else None
