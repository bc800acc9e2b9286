"""Monte-Carlo ensembles: many independent stochastic runs plus statistics.

Every experiment in the paper is an ensemble: run the network many times,
classify each trajectory into an outcome (which threshold was reached, which
working reaction won, did an error occur), and report outcome frequencies —
the Figure-3 error estimates used 100,000 trials per γ point.  This module
runs that loop through one runner, :class:`ParallelEnsembleRunner`: trials
are split into fixed-size chunks, each chunk runs with a per-trial engine
(one simulator running the chunk as one slice,
:meth:`~repro.sim.base.StochasticSimulator.run_slice`, per-trial
independent random streams) or with ``engine="batch-direct"`` (the
vectorized :class:`~repro.sim.batch.BatchDirectEngine`, which advances the
chunk in lock-step NumPy operations), and the per-chunk
:class:`EnsembleResult` shards merge in chunk order.  ``workers=1`` runs the
chunks inline; more workers pull them from a ``multiprocessing`` pool.

Chunking and random-stream spawning are keyed by global trial index, so a
given ``(seed, n_trials, chunk_size)`` produces identical results whether the
chunks run sequentially, on 2 workers or on 32.  The chunk is the seeding
unit; for the batched engine, consecutive chunks are grouped into one fused
sweep (:func:`~repro.sim.kernels.batch.group_trials` caps a group), and each
chunk still yields its own shard.

Both engine kinds deliver a chunk's trials as the columns of one
:class:`~repro.sim.trajectory.BatchResult`, which one shard path labels and
splits.  Trials are labelled by an outcome classifier
(:mod:`repro.sim.outcomes`); one with a ``classify_batch`` method labels the
columns, without a per-trial :class:`~repro.sim.trajectory.Trajectory`.
Trajectories are built only when kept (``keep_trajectories=True``) or for a
classifier without ``classify_batch``, and on every engine they are
log-free views of the columns
(:meth:`~repro.sim.trajectory.BatchResult.trajectory`).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.species import Species, as_species
from repro.errors import EmptyMergeError, EnsembleError
from repro.sim import registry
from repro.sim.base import SimulationOptions
from repro.sim.descriptors import read_count
from repro.sim.events import StoppingCondition
from repro.sim.kernels.backend import validate_backend_request
from repro.sim.kernels.batch import group_trials
from repro.sim.outcomes import UNDECIDED, StopDetailClassifier, count_outcomes
from repro.sim.propensity import CompiledNetwork
from repro.sim.rng import child_streams, derive_seed
from repro.sim.stats import RunningMoments
from repro.sim.trajectory import BatchResult, Trajectory

__all__ = [
    "pool_context",
    "EnsembleResult",
    "ParallelEnsembleRunner",
]


def pool_context():
    """The ``multiprocessing`` context shared by every parallel path.

    Prefers ``fork`` where available (cheap worker startup, workers inherit
    the parent's imported modules); falls back to ``spawn`` on platforms
    without it.  Centralized so the ensemble runner's and ``CampaignRunner``'s
    process pools cannot silently diverge in start-method policy.
    """
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )


@dataclass
class EnsembleResult:
    """Aggregated results of a Monte-Carlo ensemble.

    Attributes
    ----------
    n_trials:
        Number of trajectories simulated.
    outcome_counts:
        Mapping from outcome label to the number of trials that produced it.
        Trials whose classifier returned ``None`` are counted under
        ``"(undecided)"``.
    final_counts:
        Array of final molecular counts, shape ``(n_trials, n_species)``.
    species:
        Column labels for ``final_counts``.
    final_times / n_firings:
        Per-trial stopping time and number of firings.
    trajectories:
        The raw trajectories, only if ``keep_trajectories=True`` was requested.
    """

    n_trials: int
    outcome_counts: dict[str, int]
    final_counts: np.ndarray
    species: tuple[Species, ...]
    final_times: np.ndarray
    n_firings: np.ndarray
    trajectories: list[Trajectory] = field(default_factory=list)
    _moments: "RunningMoments | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    UNDECIDED = UNDECIDED

    @property
    def moments(self) -> "RunningMoments | None":
        """Per-species mean/variance of the final counts, ``None`` without samples.

        A :class:`~repro.sim.stats.RunningMoments` over ``final_counts``,
        computed in one pass on first read and cached on the instance.
        """
        if self._moments is None and self.final_counts.size:
            self._moments = RunningMoments.from_samples(self.final_counts)
        return self._moments

    # -- shard merging -----------------------------------------------------------

    @classmethod
    def merge(cls, shards: Sequence["EnsembleResult"]) -> "EnsembleResult":
        """Combine per-shard results into one ensemble-wide result.

        Outcome counts add and the per-trial arrays concatenate in shard
        order; the merged result's :attr:`moments` are computed from its
        concatenated final counts when first read.
        """
        shards = list(shards)
        if not shards:
            raise EmptyMergeError(
                "cannot merge an empty list of ensemble shards; run at least "
                "one trial (or one campaign cell) before aggregating"
            )
        species = shards[0].species
        if any(shard.species != species for shard in shards):
            raise EnsembleError("cannot merge ensembles over different species orders")
        outcome_counts: dict[str, int] = {}
        for shard in shards:
            for label, count in shard.outcome_counts.items():
                outcome_counts[label] = outcome_counts.get(label, 0) + count
        trajectories: list[Trajectory] = []
        for shard in shards:
            trajectories.extend(shard.trajectories)
        return cls(
            n_trials=sum(shard.n_trials for shard in shards),
            outcome_counts=outcome_counts,
            final_counts=np.concatenate([shard.final_counts for shard in shards]),
            species=species,
            final_times=np.concatenate([shard.final_times for shard in shards]),
            n_firings=np.concatenate([shard.n_firings for shard in shards]),
            trajectories=trajectories,
        )

    # -- outcome statistics -------------------------------------------------------

    def outcome_frequency(self, label: str) -> float:
        """Fraction of trials whose outcome is ``label``."""
        if self.n_trials == 0:
            return 0.0
        return self.outcome_counts.get(label, 0) / self.n_trials

    def outcome_distribution(self, include_undecided: bool = False) -> dict[str, float]:
        """Outcome frequencies as a dictionary summing to one over counted trials.

        This is the ensemble estimate of the synthesized distribution — the
        quantity the paper's method programs (Section 2.1) and its
        experiments measure.
        """
        counts = dict(self.outcome_counts)
        if not include_undecided:
            counts.pop(self.UNDECIDED, None)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {label: count / total for label, count in sorted(counts.items())}

    def decided_fraction(self) -> float:
        """Fraction of trials that produced a definite outcome."""
        if self.n_trials == 0:
            return 0.0
        undecided = self.outcome_counts.get(self.UNDECIDED, 0)
        return (self.n_trials - undecided) / self.n_trials

    # -- species statistics ---------------------------------------------------------

    def _column(self, species: "Species | str") -> int:
        sp = as_species(species)
        try:
            return list(self.species).index(sp)
        except ValueError as exc:
            raise EnsembleError(f"species {sp.name!r} not part of the ensemble") from exc

    def final_values(self, species: "Species | str") -> np.ndarray:
        """Per-trial final counts of one species (a column of ``final_counts``)."""
        return self.final_counts[:, self._column(species)]

    def mean_final(self, species: "Species | str") -> float:
        """Mean final count of one species across trials."""
        return float(self.final_counts[:, self._column(species)].mean())

    def std_final(self, species: "Species | str") -> float:
        """Standard deviation of the final count of one species."""
        return float(self.final_counts[:, self._column(species)].std(ddof=1))

    def final_histogram(self, species: "Species | str") -> dict[int, int]:
        """Histogram of the final counts of one species."""
        values, counts = np.unique(
            self.final_counts[:, self._column(species)], return_counts=True
        )
        return {int(v): int(c) for v, c in zip(values, counts)}

    def threshold_fraction(self, species: "Species | str", threshold: int) -> float:
        """Fraction of trials whose final count of ``species`` is ≥ ``threshold``.

        This is the quantity plotted in Figure 5 of the paper ("cI2 threshold
        reached (%)").
        """
        column = self._column(species)
        return float(np.mean(self.final_counts[:, column] >= threshold))

    def summary(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"Ensemble of {self.n_trials} trials"]
        for label, count in sorted(self.outcome_counts.items()):
            lines.append(f"  {label:<20s}: {count:6d}  ({count / self.n_trials:6.2%})")
        if self.n_firings.size:
            lines.append(
                f"  firings: mean {self.n_firings.mean():.1f}  max {int(self.n_firings.max())}"
            )
        return "\n".join(lines)


class ParallelEnsembleRunner:
    """Run many independent trajectories of one network and aggregate them.

    Trials are split into fixed-size chunks of the global trial index space,
    and every chunk derives its randomness from the indices it covers: with
    a per-trial engine each trial runs on its own spawned child stream
    (:func:`~repro.sim.rng.child_streams`, keyed by the trial's global
    index and derived for the whole chunk in one pass), and
    ``engine="batch-direct"`` advances each chunk in lock-step
    vectorized steps from a sub-seed derived from the chunk's bounds.
    Results are therefore *identical* for a given ``(seed, n_trials,
    chunk_size)`` regardless of ``workers``: ``workers=1`` runs the chunks
    inline, more workers pull them from a ``multiprocessing`` pool.  Shards
    merge through :meth:`EnsembleResult.merge`.

    With ``workers > 1`` the network, stopping condition and outcome
    classifier are pickled to the workers, so all three must be picklable:
    module-level classes/functions and bound methods of picklable objects
    work; lambdas and closures do not (run those with ``workers=1``, or
    define the classifier at module level).

    Parameters
    ----------
    network:
        The network (or compiled network) to simulate.
    engine:
        Engine name from the engine table (:mod:`repro.sim.registry`),
        default ``"direct"``.  Only the sampling kinds (``per-trial`` and
        ``batched``) are accepted: repeating a deterministic run (``"ode"``,
        ``"fsp"``) estimates nothing.
    stopping:
        Stopping condition applied to every trial.
    options:
        Simulation options applied to every trial (default: no firing log).
        Ensembles keep per-reaction totals only: a kept or classified
        trajectory is a log-free view of its trial's columns, with no firing
        log or snapshots, whatever ``record_firings`` / ``record_states``
        say (a single ``run()`` of a per-trial engine records them).
    outcome_classifier:
        Callable mapping a :class:`Trajectory` to an outcome label (or
        ``None`` for undecided).  Default:
        :class:`~repro.sim.outcomes.StopDetailClassifier`, the trajectory's
        ``stop_detail`` when it stopped on a condition.  A classifier with a
        ``classify_batch(batch)`` method labels every chunk from its columns
        (see :mod:`repro.sim.outcomes`).
    workers:
        Worker process count (default 1, which runs the chunks inline,
        without spawning processes).
    chunk_size:
        Trials per shard (default 512): the seeding unit, so it is part of a
        run's identity — results depend on it, never on ``workers``.  The
        batched engine sweeps consecutive chunks together, up to
        :func:`~repro.sim.kernels.batch.group_trials` trials of the network
        at a time, so small chunks cost it no sweep efficiency; each group
        is also the unit handed to a worker; a chunk wider than a group is
        swept alone.  It and :meth:`run`'s ``n_trials`` are integers (an
        integral float is one): a bool, a string or a fraction raises
        :class:`~repro.errors.EnsembleError` naming it.
    engine_options:
        Typed options dataclass for the selected engine (e.g.
        :class:`~repro.sim.tau_leaping.TauLeapOptions`), validated against
        the engine's registered options type.
    """

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        engine: str = "direct",
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        outcome_classifier: "Callable[[Trajectory], str | None] | None" = None,
        workers: int = 1,
        chunk_size: int = 512,
        engine_options=None,
    ) -> None:
        self.compiled = CompiledNetwork.coerce(network)
        info = registry.get(engine)
        if info.kind not in registry.SAMPLING_KINDS:
            raise EnsembleError(
                f"engine {engine!r} is deterministic; every ensemble trial would be "
                "identical — run it once via make_simulator() or simulate_ode()"
            )
        info.validate_options(engine_options)
        self.engine = engine
        options = options or SimulationOptions(record_firings=False)
        # Fail fast on a backend the engine does not support (the same check
        # the per-run dispatch performs, surfaced before any trials run).
        validate_backend_request(options.backend, info.backends, engine)
        if workers <= 0:
            raise EnsembleError(f"workers must be positive, got {workers}")
        chunk_size = read_count("chunk_size", chunk_size, EnsembleError)
        if chunk_size <= 0:
            raise EnsembleError(f"chunk_size must be positive, got {chunk_size}")
        self.engine_info = info
        self.engine_options = engine_options
        self.stopping = stopping
        self.options = options
        self.outcome_classifier = outcome_classifier or StopDetailClassifier()
        self.workers = workers
        self.chunk_size = chunk_size
        # The engine instance, built on first use and kept for the runner's
        # lifetime: the batched engine's columnar sweep buffers are allocated
        # once and reused across chunks and adaptive rounds (see BatchBuffers
        # in kernels/batch.py), and a per-trial simulator's kernel buffers
        # across slices.
        self._engine = None
        # A batched group holds whole chunks up to the sweep's cell cap; the
        # engine's buffers are sized for the widest such group on first use,
        # so the adaptive controller's growing rounds never reallocate.
        self._group_trials = group_trials(self.compiled.n_species, self.compiled.n_reactions)
        self._reserve_trials = (
            self._group_trials // chunk_size * chunk_size if info.kind == "batched" else 0
        )

    def run(
        self,
        n_trials: int,
        seed: "int | None" = None,
        initial_state: "Mapping | None" = None,
        keep_trajectories: bool = False,
    ) -> EnsembleResult:
        """Simulate ``n_trials`` trajectories, chunk by chunk, and merge them."""
        n_trials = read_count("n_trials", n_trials, EnsembleError)
        if n_trials <= 0:
            raise EnsembleError(f"n_trials must be positive, got {n_trials}")
        bounds = [
            (start, min(start + self.chunk_size, n_trials))
            for start in range(0, n_trials, self.chunk_size)
        ]
        shards = self.run_chunks(
            bounds,
            seed=seed,
            initial_state=initial_state,
            keep_trajectories=keep_trajectories,
        )
        return EnsembleResult.merge(shards)

    def run_chunks(
        self,
        bounds: "Sequence[tuple[int, int]]",
        seed: "int | None" = None,
        initial_state: "Mapping | None" = None,
        keep_trajectories: bool = False,
    ) -> "list[EnsembleResult]":
        """Simulate explicit trial slices of the global schedule, unmerged.

        Each ``(start, stop)`` pair names a slice of the same global trial
        index space :meth:`run` uses, and draws the same random streams: the
        per-trial stream of trial ``i`` is keyed by ``i`` alone, and a
        batched chunk's sub-seed by its bounds — never by how many trials
        the full ensemble will eventually hold.  The adaptive controller
        relies on exactly this to *extend* an ensemble chunk by chunk while
        staying bit-identical to a fixed-budget run's prefix at any worker
        count.  Returns one shard per bound, in order.
        """
        bounds = [(int(start), int(stop)) for start, stop in bounds]
        for start, stop in bounds:
            if start < 0 or stop <= start:
                raise EnsembleError(
                    f"chunk bounds must satisfy 0 <= start < stop, got ({start}, {stop})"
                )
        if not bounds:
            return []
        initial = None if initial_state is None else dict(initial_state)
        groups = self._groups(bounds)

        if self.workers == 1 or len(groups) == 1:
            return [
                shard
                for group in groups
                for shard in self._run_group(seed, group, initial, keep_trajectories)
            ]

        payloads = [
            (
                self.compiled.network,
                self.engine,
                self.stopping,
                self.options,
                self.outcome_classifier,
                self.engine_options,
                seed,
                group,
                initial,
                keep_trajectories,
            )
            for group in groups
        ]
        context = pool_context()
        processes = min(self.workers, len(groups))
        with context.Pool(processes=processes) as pool:
            results = pool.map(_ensemble_group, payloads)
        return [shard for shards in results for shard in shards]

    def _groups(
        self, bounds: "list[tuple[int, int]]"
    ) -> "list[list[tuple[int, int]]]":
        """Consecutive slices grouped into execution units.

        A batched group holds whole slices while their trials fit the
        sweep's cap (at least one slice); per-trial engines run each slice
        on its own.
        """
        if self.engine_info.kind != "batched":
            return [[bound] for bound in bounds]
        groups: list[list[tuple[int, int]]] = []
        width = 0
        for start, stop in bounds:
            if groups and width + (stop - start) <= self._group_trials:
                groups[-1].append((start, stop))
                width += stop - start
            else:
                groups.append([(start, stop)])
                width = stop - start
        return groups

    # -- execution ---------------------------------------------------------------

    def _run_group(
        self,
        seed: "int | None",
        bounds: "Sequence[tuple[int, int]]",
        initial_state: "Mapping | None",
        keep_trajectories: bool,
    ) -> "list[EnsembleResult]":
        """Simulate trial slices of the global schedule, one shard each.

        The slice abstraction is what :meth:`run_chunks` shards: per-trial
        engines derive each trial's random stream from its global index, and
        the batched engine derives one sub-seed per slice, so results depend
        only on ``(seed, slicing)`` — never on which process runs
        which slice, or which slices share a sweep.  The batched engine
        sweeps the slices together; per-trial engines run them one after
        another.  Either way each run yields the slices' columns as one
        :class:`~repro.sim.trajectory.BatchResult`, which
        :meth:`_shards` labels and splits.
        """
        initial = None if initial_state is None else dict(initial_state)
        if self.engine_info.kind == "batched":
            return self._shards(
                bounds, self._run_batched(seed, bounds, initial), keep_trajectories
            )
        return [
            shard
            for start, stop in bounds
            for shard in self._shards(
                [(start, stop)],
                self._run_slice(seed, start, stop, initial),
                keep_trajectories,
            )
        ]

    def _instance(self):
        """The runner's engine instance (see ``__init__``), built on first use."""
        if self._engine is None:
            self._engine = registry.make_simulator(
                self.compiled, self.engine, engine_options=self.engine_options
            )
            if self._reserve_trials:
                self._engine.reserve(self._reserve_trials)
        return self._engine

    def _run_slice(
        self,
        seed: "int | None",
        start: int,
        stop: int,
        initial_state: "dict | None",
    ) -> BatchResult:
        """Simulate the trial slice ``[start, stop)`` with a per-trial engine,
        through :meth:`~repro.sim.base.StochasticSimulator.run_slice`, on the
        slice's :func:`~repro.sim.rng.child_streams`."""
        return self._instance().run_slice(
            child_streams(seed, start, stop), initial_state, self.stopping, self.options
        )

    def _run_batched(
        self,
        seed: "int | None",
        bounds: "Sequence[tuple[int, int]]",
        initial_state: "dict | None",
    ) -> BatchResult:
        """Run the trial slices ``bounds`` as one fused sweep."""
        # The batch shares one generator per slice, so each slice (not each
        # trial) gets a deterministic sub-seed from its bounds; fixed
        # chunking then keeps results invariant to the worker count and to
        # how slices are grouped into sweeps.
        chunks = [
            (stop - start, None if seed is None else derive_seed(seed, "batch", start, stop))
            for start, stop in bounds
        ]
        return self._instance().run_group(
            chunks,
            initial_state=initial_state,
            stopping=self.stopping,
            options=self.options,
        )

    def _shards(
        self,
        bounds: "Sequence[tuple[int, int]]",
        batch: BatchResult,
        keep_trajectories: bool,
    ) -> "list[EnsembleResult]":
        """Label the rows of ``batch`` and split them into one shard per bound.

        The classifier's ``classify_batch`` labels the columns.  Trajectory
        views (:meth:`~repro.sim.trajectory.BatchResult.trajectory`) are
        built only where something reads them, when they are kept or the
        classifier has no ``classify_batch``; the classifier itself then
        labels them one by one.
        """
        trajectories = None
        if keep_trajectories or getattr(self.outcome_classifier, "classify_batch", None) is None:
            trajectories = [batch.trajectory(trial) for trial in range(batch.n_trials)]
            labels = [self.outcome_classifier(t) for t in trajectories]
        else:
            labels = self.outcome_classifier.classify_batch(batch).tolist()
        n_firings = batch.firing_counts.sum(axis=1)
        shards = []
        row = 0
        for start, stop in bounds:
            rows = slice(row, row + stop - start)
            shards.append(
                EnsembleResult(
                    n_trials=stop - start,
                    outcome_counts=count_outcomes(labels[rows]),
                    final_counts=batch.final_counts[rows],
                    species=self.compiled.species,
                    final_times=batch.final_times[rows],
                    n_firings=n_firings[rows],
                    trajectories=trajectories[rows] if keep_trajectories else [],
                )
            )
            row = rows.stop
        return shards


def _ensemble_group(payload: tuple) -> "list[EnsembleResult]":
    """Worker entry point: simulate one group of trial slices in a child process.

    Receives plain picklable pieces (the uncompiled network is shipped and
    recompiled here — compilation is cheap relative to any ensemble worth
    parallelizing) and returns one :class:`EnsembleResult` shard per slice.
    """
    (
        network,
        engine,
        stopping,
        options,
        classifier,
        engine_options,
        seed,
        bounds,
        initial_state,
        keep_trajectories,
    ) = payload
    runner = ParallelEnsembleRunner(
        network,
        engine=engine,
        stopping=stopping,
        options=options,
        outcome_classifier=classifier,
        engine_options=engine_options,
    )
    return runner._run_group(seed, bounds, initial_state, keep_trajectories)
