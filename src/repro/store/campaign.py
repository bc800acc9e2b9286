"""Campaigns: grids of experiments scheduled against a result store.

A *campaign* is a named batch of simulation cells — typically the product of
a parameter grid with engine × backend × seed matrices — executed through a
:class:`~repro.store.store.ResultStore` so that

* cells whose fingerprint is already stored are **served from cache**,
* duplicate cells (same fingerprint from different grid corners) are
  **computed once**,
* progress is **persisted incrementally** in a campaign manifest, so an
  interrupted campaign resumed against the same store computes only the
  missing cells, and
* missing cells run **concurrently** on a process pool (each worker receives
  the serialized payload and executes :func:`~repro.store.serialize.compute_payload`,
  the same compute path the HTTP service uses), and each result is stored
  through :func:`~repro.store.canonical.store_computed`, the miss tail of
  :func:`~repro.store.canonical.cached_run`.

The runner streams :class:`CampaignProgress` events to an optional callback
as cells finish, and :meth:`CampaignRunner.arun` exposes the same run as a
coroutine for asyncio callers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import CampaignError
from repro.store.canonical import (
    CanonicalPayload,
    canonicalize_payload,
    localize_envelope,
    store_computed,
)
from repro.store.fingerprint import canonical_json
from repro.store.serialize import compute_payload, experiment_to_payload
from repro.store.store import ResultStore

__all__ = [
    "CampaignCell",
    "Campaign",
    "CampaignProgress",
    "CellOutcome",
    "CampaignResult",
    "CampaignRunner",
]


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: an experiment plus its simulate() arguments.

    ``workers`` is intentionally absent — it is not part of a run's identity
    (results are worker-count invariant); the runner decides execution
    placement.
    """

    name: str
    experiment: Any
    trials: int = 1000
    engine: str = "direct"
    seed: "int | None" = None
    backend: str = "auto"
    chunk_size: int = 512
    engine_options: Any = None
    until: Any = None

    def payload(self) -> dict:
        """The cell's canonical serialized form (see :mod:`repro.store.serialize`).

        With ``until`` set (an adaptive precision target or splitting
        config), the payload's identity is the declared target, not
        ``trials`` — the cell runs adaptively wherever it computes.
        """
        return experiment_to_payload(
            self.experiment,
            trials=self.trials,
            engine=self.engine,
            seed=self.seed,
            chunk_size=self.chunk_size,
            backend=self.backend,
            engine_options=self.engine_options,
            until=self.until,
        )


class Campaign:
    """A named, ordered collection of :class:`CampaignCell` grid points."""

    def __init__(self, name: str, cells: Sequence[CampaignCell]) -> None:
        self.name = str(name)
        self.cells = list(cells)
        if not self.name:
            raise CampaignError("campaign name must not be empty")
        if not self.cells:
            raise CampaignError(
                f"campaign {self.name!r} has no cells; build it from a "
                "non-empty grid"
            )
        seen: set[str] = set()
        for cell in self.cells:
            if cell.name in seen:
                raise CampaignError(
                    f"campaign {self.name!r} has duplicate cell name {cell.name!r}"
                )
            seen.add(cell.name)

    @classmethod
    def grid(
        cls,
        name: str,
        experiment: Any,
        *,
        trials: int = 1000,
        engines: Iterable[str] = ("direct",),
        backends: Iterable[str] = ("auto",),
        seeds: Iterable["int | None"] = (None,),
        programs: "Iterable[Mapping[str, int] | None]" = (None,),
        chunk_size: int = 512,
        engine_options: Any = None,
        until: Any = None,
    ) -> "Campaign":
        """Build the engine × backend × seed × program product grid.

        ``programs`` is an iterable of input dictionaries applied via
        :meth:`Experiment.program` (``None`` leaves the experiment as built),
        so one base experiment sweeps input settings alongside execution
        matrices.  Cell names encode their grid coordinates
        (``"engine=direct/backend=numpy/seed=1"`` …).  Sampling engines need
        explicit ``seeds`` — unseeded cells cannot be fingerprinted (the
        default ``(None,)`` only suits exact engines like ``"fsp"``).
        ``until`` makes every cell adaptive (a shared precision target or
        splitting config instead of the fixed ``trials`` budget).
        """
        cells: list[CampaignCell] = []
        for program in programs:
            programmed = (
                experiment if program is None else experiment.program(program)
            )
            program_tag = (
                ""
                if program is None
                else "/" + ",".join(f"{k}={v}" for k, v in sorted(program.items()))
            )
            for engine in engines:
                for backend in backends:
                    for seed in seeds:
                        cells.append(
                            CampaignCell(
                                name=(
                                    f"engine={engine}/backend={backend}/"
                                    f"seed={seed}{program_tag}"
                                ),
                                experiment=programmed,
                                trials=trials,
                                engine=str(engine),
                                seed=seed,
                                backend=str(backend),
                                chunk_size=chunk_size,
                                engine_options=engine_options,
                                until=until,
                            )
                        )
        return cls(name, cells)

    def resolve(self) -> "list[tuple[CampaignCell, dict, str]]":
        """Each cell with its payload and fingerprint key (payload built once)."""
        return [
            (cell, payload, canon.key)
            for cell, payload, canon in self.resolve_canonical()
        ]

    def resolve_canonical(
        self,
    ) -> "list[tuple[CampaignCell, dict, CanonicalPayload]]":
        """Each cell with its payload and full canonicalization record.

        The canonical key is isomorphism-invariant (see
        :mod:`repro.store.canonical`), so cells that differ only in species
        naming or reaction order deduplicate onto one computation.
        """
        resolved = []
        for cell in self.cells:
            payload = cell.payload()
            resolved.append((cell, payload, canonicalize_payload(payload)))
        return resolved

    def campaign_id(self, keys: "Sequence[str] | None" = None) -> str:
        """Deterministic id: hash of the name and the sorted cell keys.

        Re-building the same campaign (same name, same cells) yields the same
        id, which is what makes resuming against a store automatic.
        """
        if keys is None:
            keys = [key for _, _, key in self.resolve()]
        digest = hashlib.sha256(
            canonical_json({"name": self.name, "cells": sorted(keys)}).encode()
        )
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class CampaignProgress:
    """One streamed progress event: a cell settled (cached/computed/failed)."""

    campaign: str
    cell: str
    key: str
    status: str
    completed: int
    total: int

    def __str__(self) -> str:
        return (
            f"[{self.completed}/{self.total}] {self.cell}: {self.status} "
            f"({self.key[:12]})"
        )


@dataclass(frozen=True)
class CellOutcome:
    """Final state of one campaign cell after a run."""

    cell: CampaignCell
    key: str
    status: str  # "cached" | "computed" | "failed"
    result: Any = None
    error: "str | None" = None


@dataclass
class CampaignResult:
    """Everything a finished (or partially failed) campaign run produced."""

    campaign_id: str
    name: str
    outcomes: list[CellOutcome] = field(default_factory=list)

    @property
    def results(self) -> dict[str, Any]:
        """``{cell name: RunResult}`` for every cell that has a result."""
        return {
            outcome.cell.name: outcome.result
            for outcome in self.outcomes
            if outcome.result is not None
        }

    def computed_keys(self) -> list[str]:
        """Keys freshly computed by this run (deduplicated, in order)."""
        seen: list[str] = []
        for outcome in self.outcomes:
            if outcome.status == "computed" and outcome.key not in seen:
                seen.append(outcome.key)
        return seen

    def cached_keys(self) -> list[str]:
        """Keys served from the store without recomputation."""
        seen: list[str] = []
        for outcome in self.outcomes:
            if outcome.status == "cached" and outcome.key not in seen:
                seen.append(outcome.key)
        return seen

    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == "failed"]

    def rows(self) -> list[dict[str, object]]:
        """Tabular summary (``repro.analysis.tables.format_table``-ready)."""
        return [
            {
                "cell": outcome.cell.name,
                "engine": outcome.cell.engine,
                "backend": outcome.cell.backend,
                "seed": outcome.cell.seed,
                "trials": (
                    getattr(outcome.cell.until, "rule", "adaptive")
                    if outcome.cell.until is not None
                    else outcome.cell.trials
                ),
                "status": outcome.status,
                "key": outcome.key[:12],
            }
            for outcome in self.outcomes
        ]


class CampaignRunner:
    """Cache-aware campaign orchestrator over a :class:`ResultStore`.

    Parameters
    ----------
    store:
        The result store (or its directory path) backing the campaign.
    workers:
        Process-pool width for cache-miss cells.  ``workers=1`` computes
        inline (deterministic order — also the patchable path for tests).
        Cells themselves always simulate with ``workers=1``; campaign-level
        parallelism replaces ensemble-level sharding.
    """

    def __init__(self, store: "ResultStore | str", workers: int = 1) -> None:
        self.store = ResultStore.coerce(store)
        if workers < 1:
            raise CampaignError(f"workers must be positive, got {workers}")
        self.workers = workers

    # Overridable seam: tests spy on this to assert resume-only-missing.
    # Both execution paths go through it — inline calls it directly, and the
    # process pool submits the bound method (so with workers > 1 a subclass
    # must be picklable: module-level class, picklable attributes; overrides
    # then run in the worker processes, where in-memory spy state is lost).
    def _compute(self, payload: Mapping):
        """Compute one cache-miss payload."""
        return compute_payload(payload)

    def run(
        self,
        campaign: Campaign,
        progress: "Callable[[CampaignProgress], None] | None" = None,
    ) -> CampaignResult:
        """Execute the campaign; cached cells load, missing cells compute.

        The campaign manifest in the store is updated after *every* cell, so
        an interrupted run leaves a resumable record; re-running the same
        campaign serves finished cells from cache and computes only the rest.
        Cells that fail are recorded (``status="failed"``) and reported via
        :class:`CampaignError` after the remaining cells have run — the
        successful cells' artifacts stay in the store.
        """
        canonical = campaign.resolve_canonical()
        resolved = [(cell, payload, canon.key) for cell, payload, canon in canonical]
        keys = [key for _, _, key in resolved]
        campaign_id = campaign.campaign_id(keys)
        total = len(resolved)

        manifest = self.store.load_campaign(campaign_id) or {
            "id": campaign_id,
            "name": campaign.name,
            "cells": [],
        }
        manifest["name"] = campaign.name
        manifest["cells"] = [
            {"name": cell.name, "key": key, "status": "pending"}
            for cell, _, key in resolved
        ]
        statuses = {entry["name"]: entry for entry in manifest["cells"]}

        # Deduplicate: every unique canonical fingerprint is loaded or
        # computed once, then settled onto all the cells that share it —
        # including cells that address the same isomorphism class under
        # different species naming, each of which receives the result
        # translated into its own naming.
        cells_by_key: dict[str, list[CampaignCell]] = {}
        payloads: dict[str, dict] = {}  # key -> canonical executable payload
        cell_payloads: dict[str, dict] = {}  # cell name -> caller payload
        canons: dict[str, CanonicalPayload] = {}  # cell name -> canonicalization
        for cell, payload, canon in canonical:
            cells_by_key.setdefault(canon.key, []).append(cell)
            payloads.setdefault(canon.key, canon.payload)
            cell_payloads[cell.name] = payload
            canons[cell.name] = canon

        outcome_by_cell: dict[str, CellOutcome] = {}
        completed = 0

        def settle_key(
            key: str,
            status: str,
            envelope: "Mapping | None" = None,
            error: "str | None" = None,
        ) -> None:
            nonlocal completed
            for cell in cells_by_key[key]:
                completed += 1
                result = None
                if envelope is not None:
                    result, _ = localize_envelope(
                        envelope, canons[cell.name], cell_payloads[cell.name]
                    )
                outcome_by_cell[cell.name] = CellOutcome(
                    cell, key, status, result=result, error=error
                )
                statuses[cell.name]["status"] = status
                self.store.save_campaign(manifest)
                if progress is not None:
                    progress(
                        CampaignProgress(
                            campaign=campaign.name,
                            cell=cell.name,
                            key=key,
                            status=status,
                            completed=completed,
                            total=total,
                        )
                    )

        def settle_computed(key: str, computed: Any) -> None:
            # The first cell sharing the key names the stored artifact.
            writer = cells_by_key[key][0].name
            _, envelope = store_computed(
                self.store, canons[writer], cell_payloads[writer], computed
            )
            settle_key(key, "computed", envelope=envelope)

        pending: list[str] = []
        for key in cells_by_key:
            envelope = self.store.get_envelope(key)
            if envelope is not None:
                settle_key(key, "cached", envelope=envelope)
            else:
                pending.append(key)

        if pending:
            if self.workers == 1 or len(pending) == 1:
                for key in pending:
                    try:
                        computed = self._compute(payloads[key])
                    except Exception as exc:  # noqa: BLE001 - recorded, re-raised below
                        settle_key(key, "failed", error=f"{type(exc).__name__}: {exc}")
                    else:
                        settle_computed(key, computed)
            else:
                self._run_pool(pending, payloads, settle_key, settle_computed)

        outcomes = [outcome_by_cell[cell.name] for cell, _, _ in resolved]
        result = CampaignResult(campaign_id=campaign_id, name=campaign.name, outcomes=outcomes)
        failures = result.failures()
        if failures:
            details = "; ".join(
                f"{outcome.cell.name}: {outcome.error}" for outcome in failures[:3]
            )
            raise CampaignError(
                f"campaign {campaign.name!r}: {len(failures)}/{total} cells failed "
                f"({details}); successful cells are stored — re-run to resume"
            )
        return result

    async def arun(
        self,
        campaign: Campaign,
        progress: "Callable[[CampaignProgress], None] | None" = None,
    ) -> CampaignResult:
        """Asyncio-friendly :meth:`run` (executes in a worker thread)."""
        import asyncio

        return await asyncio.to_thread(self.run, campaign, progress)

    # -- pool execution ----------------------------------------------------------

    def _run_pool(
        self,
        pending: Sequence[str],
        payloads: Mapping[str, Mapping],
        settle_key: "Callable[..., None]",
        settle_computed: "Callable[[str, Any], None]",
    ) -> None:
        """Compute cache-miss payloads on a process pool, settling as they land."""
        from concurrent.futures import ProcessPoolExecutor, as_completed

        from repro.sim.ensemble import pool_context

        with ProcessPoolExecutor(
            max_workers=min(self.workers, len(pending)),
            mp_context=pool_context(),
        ) as pool:
            futures = {
                pool.submit(self._compute, dict(payloads[key])): key
                for key in pending
            }
            for future in as_completed(futures):
                key = futures[future]
                try:
                    computed = future.result()
                except Exception as exc:  # noqa: BLE001 - recorded, re-raised by run()
                    settle_key(key, "failed", error=f"{type(exc).__name__}: {exc}")
                else:
                    settle_computed(key, computed)
