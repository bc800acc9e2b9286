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
      artifacts/<k[:2]>/<key>.json.gz   # run-result envelopes, sharded by prefix
      campaigns/<id>.json               # campaign manifests

The artifact files are the store's only record: keys, sizes and the
eviction order are read from them, and an artifact file's mtime is its last
use.  An ``index.json`` left by an older store is ignored.

The store is **tiered**: a bounded in-process LRU of deserialized envelopes
(the *hot* tier, ``hot_capacity`` entries, shared across threads) fronts the
gzip-compressed JSON files (the *cold* tier).  Repeated reads of the same
key skip both the disk and the JSON parse.  New artifacts are gzip level 6,
with ``mtime=0`` in the gzip header so identical envelopes produce identical
files; uncompressed legacy ``<key>.json`` artifacts remain readable.

Every artifact the store writes holds a :class:`~repro.api.results.RunResult`
(kind ``"run-result"``).  Artifact envelopes carry ``schema`` and ``version``
fields; artifacts whose schema does not match the store's raise
:class:`~repro.errors.StoreError` (the version in the message says which
library wrote them), and so do artifacts that do not inflate, decode or
parse to an envelope (the message names the key), payloads whose columns
fail validation (the message names the field) and, on typed reads, an
artifact of another kind.  Payloads are stored verbatim: a ``v1`` or ``v2``
result payload already in a store is served as it was written.
Canonical-store writers also record a ``witness`` (canonical → writer
species naming, see :mod:`repro.store.canonical`) so readers with different
naming can translate the payload.  Writes are atomic (temp file +
``os.replace``) and serialized through an internal lock, so the threaded
HTTP service can share one store instance.
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
    "CAMPAIGN_SCHEMA",
    "ResultStore",
]

#: Schema tags of the store's on-disk documents.  Bump on incompatible
#: changes; artifacts written under a different tag are rejected on read.
ARTIFACT_SCHEMA = "repro.store.artifact/v1"
CAMPAIGN_SCHEMA = "repro.store.campaign/v1"

#: Gzip level of new artifacts.  On the 1.49 MB 10^4-trial Example-1
#: envelope of ``"<i8"`` columns (2-vCPU Xeon host), level 9 took 52 ms for
#: 92 KB and level 6 took 13 ms for 102 KB.
_GZIP_LEVEL = 6


def _atomic_write(path: Path, data: bytes) -> None:
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


class ResultStore:
    """Content-addressed directory of run-result artifacts, with LRU eviction.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).
    hot_capacity:
        Size of the in-process hot tier — a bounded LRU of deserialized
        envelopes fronting the compressed files.  ``0`` disables it (every
        read hits the disk).  Hot entries are returned by reference; callers
        must treat envelopes as read-only (the store's own paths copy before
        rewriting).
    """

    def __init__(self, root: "str | Path", hot_capacity: int = 128) -> None:
        self.root = Path(root)
        self.hot_capacity = int(hot_capacity)
        self._lock = threading.RLock()
        # Last-use stamps (ns) recorded by reads and puts; written onto the
        # artifact files by put()/gc() so the hot read path touches no file.
        self._recent_access: dict[str, int] = {}
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

    def _artifact_candidates(self, key: str) -> "tuple[Path, Path]":
        """Both possible on-disk paths for ``key`` (compressed first)."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise StoreError(f"malformed artifact key {key!r} (expected hex digest)")
        directory = self.root / "artifacts" / key[:2]
        return directory / f"{key}.json.gz", directory / f"{key}.json"

    def _artifact_path(self, key: str) -> Path:
        """The path ``put`` writes ``key`` to."""
        return self._artifact_candidates(key)[0]

    def _artifact_files(self) -> list[Path]:
        """Every artifact file: compressed, then legacy uncompressed."""
        artifacts = self.root / "artifacts"
        return [*artifacts.glob("*/*.json.gz"), *artifacts.glob("*/*.json")]

    @staticmethod
    def _key_of_path(path: Path) -> str:
        # Keys are hex digests (no dots), so everything before the first dot
        # is the key regardless of which extension the artifact carries.
        return path.name.split(".", 1)[0]

    def _artifact_stats(self) -> "dict[str, tuple[int, int]]":
        """``{key: (last use in ns, bytes)}``, read from the artifact files.

        A file that disappears between the listing and its ``stat`` (another
        process evicted it) is skipped.
        """
        stats: dict[str, tuple[int, int]] = {}
        for path in self._artifact_files():
            try:
                info = path.stat()
            except FileNotFoundError:
                continue
            key = self._key_of_path(path)
            used, size = stats.get(key, (0, 0))
            stats[key] = (max(used, info.st_mtime_ns), size + info.st_size)
        return stats

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

    def _unlink(self, key: str) -> bool:
        """Delete ``key``'s files; returns whether one was there."""
        removed = False
        for path in self._artifact_candidates(key):
            try:
                path.unlink()
                removed = True
            except FileNotFoundError:
                pass
        return removed

    # -- last use ----------------------------------------------------------------

    def _flush_access_locked(self) -> None:
        """Write the recorded last-use stamps onto their artifact files.

        The stamps are explicit nanosecond values: file times come from a
        coarse clock, so artifacts used within one tick would otherwise tie.
        """
        for key, stamp in self._recent_access.items():
            for path in self._artifact_candidates(key):
                try:
                    os.utime(path, ns=(stamp, stamp))
                except FileNotFoundError:
                    pass
        self._recent_access.clear()

    # -- hot tier ----------------------------------------------------------------

    def _hot_get(self, key: str) -> "dict | None":
        if self.hot_capacity <= 0:
            return None
        with self._lock:
            envelope = self._hot.get(key)
            if envelope is not None:
                self._hot.move_to_end(key)
                self._recent_access[key] = time.time_ns()
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

    # -- artifact API ------------------------------------------------------------

    def put(
        self,
        key: str,
        result: Any,
        descriptor: "Mapping | None" = None,
        witness: "Mapping[str, str] | None" = None,
    ) -> dict:
        """Persist a :class:`~repro.api.results.RunResult` under ``key``.

        Returns the envelope, which records the result's label and engine,
        the library version and the experiment ``descriptor`` (provenance).
        ``witness`` maps canonical species names to the writer's naming
        (:mod:`repro.store.canonical`) so readers that address the same
        isomorphism class under different naming can translate the payload.
        Re-putting an existing key overwrites idempotently.  Anything but a
        ``RunResult`` raises :class:`StoreError`.
        """
        from repro import __version__
        from repro.api.results import RunResult

        if not isinstance(result, RunResult):
            raise StoreError(
                f"cannot store a {type(result).__name__}; expected a RunResult"
            )
        envelope = {
            "schema": ARTIFACT_SCHEMA,
            "version": __version__,
            "key": key,
            "kind": "run-result",
            "label": None if result.label is None else str(result.label),
            "engine": result.engine,
            "descriptor": dict(descriptor) if descriptor is not None else None,
            "witness": dict(witness) if witness is not None else None,
            "payload": result.to_payload(),
        }
        # mtime=0 keeps the compressed bytes a pure function of content.
        data = gzip.compress(
            json.dumps(envelope, indent=2).encode("utf-8"),
            compresslevel=_GZIP_LEVEL,
            mtime=0,
        )
        path, legacy = self._artifact_candidates(key)
        with self._lock:
            _atomic_write(path, data)
            # Drop a legacy uncompressed copy so reads (which prefer .json.gz)
            # and size accounting never see two.
            try:
                legacy.unlink()
            except FileNotFoundError:
                pass
            self._hot_put_locked(key, envelope)
            self._recent_access[key] = time.time_ns()
            self._flush_access_locked()
        return envelope

    def get_envelope(self, key: str) -> "dict | None":
        """The artifact envelope for ``key``, or ``None`` on a miss.

        The hot tier answers first (no disk, no JSON parse); cold reads try
        the compressed file, then the legacy uncompressed one, validate the
        envelope schema (rejecting artifacts written by an incompatible
        library with a :class:`StoreError` naming the writing version), and
        promote the envelope into the hot tier.  Reads touch no file: the
        last-use stamp they record is written onto the artifact by the next
        :meth:`put` or :meth:`gc`.  Returned envelopes must be treated as
        read-only.
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
            self._recent_access[key] = time.time_ns()
            self._hot_put_locked(key, envelope)
        return envelope

    def load_run(self, key: str):
        """A cached :class:`~repro.api.results.RunResult`, or ``None`` on a miss.

        Raises :class:`StoreError` when the key holds another artifact kind
        (an older store may hold bare ensembles or FSP solutions), no payload
        object or a malformed payload.
        """
        from repro.api.results import OBJECT, RunResult, check_fields

        envelope = self.get_envelope(key)
        if envelope is None:
            return None
        if envelope.get("kind") != "run-result":
            raise StoreError(
                f"artifact {key[:12]}… holds a {envelope.get('kind')!r}, "
                "not a run-result"
            )
        try:
            check_fields(envelope, {"payload": OBJECT})
            return RunResult.from_payload(envelope["payload"])
        except ExperimentError as exc:
            raise StoreError(f"corrupt artifact {key[:12]}…: {exc}") from exc

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
        """All stored artifact keys (sorted), listed from the artifact files."""
        return sorted({self._key_of_path(path) for path in self._artifact_files()})

    def __len__(self) -> int:
        return len(self.keys())

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def evict(self, key: str) -> bool:
        """Remove one artifact; returns whether a file was deleted."""
        with self._lock:
            self._hot.pop(key, None)
            self._recent_access.pop(key, None)
            return self._unlink(key)

    def gc(
        self,
        max_artifacts: "int | None" = None,
        max_bytes: "int | None" = None,
    ) -> list[str]:
        """Evict least-recently-used artifacts down to the given limits.

        Last use is an artifact file's mtime, after this handle's recorded
        reads are written onto the files; ties go to the smaller key.  With
        neither limit, nothing is evicted.  Returns the evicted keys, oldest
        first.
        """
        with self._lock:
            self._flush_access_locked()
            artifacts = self._artifact_stats()
            count = len(artifacts)
            total_bytes = sum(size for _, size in artifacts.values())
            evicted: list[str] = []
            for key in sorted(artifacts, key=lambda k: (artifacts[k][0], k)):
                if not (
                    (max_artifacts is not None and count > max_artifacts)
                    or (max_bytes is not None and total_bytes > max_bytes)
                ):
                    break
                self._hot.pop(key, None)
                self._unlink(key)
                count -= 1
                total_bytes -= artifacts[key][1]
                evicted.append(key)
        return evicted

    def stats(self) -> dict:
        """Aggregate store statistics (artifact count, bytes, campaigns)."""
        artifacts = self._artifact_stats()
        return {
            "root": str(self.root),
            "artifacts": len(artifacts),
            "bytes": sum(size for _, size in artifacts.values()),
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
                json.dumps(document, indent=2, sort_keys=True).encode("utf-8"),
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
        if not isinstance(manifest, dict):
            raise StoreError(
                f"corrupt campaign manifest {path}: holds a JSON "
                f"{type(manifest).__name__}, not a manifest object"
            )
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
