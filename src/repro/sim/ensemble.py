"""Monte-Carlo ensembles: many independent stochastic runs plus statistics.

Every experiment in the paper is an ensemble: run the network many times,
classify each trajectory into an outcome (which threshold was reached, which
working reaction won, did an error occur), and report outcome frequencies —
the Figure-3 error estimates used 100,000 trials per γ point.  This module
packages that loop at three execution scales:

* :class:`EnsembleRunner` — the sequential baseline: one simulator running
  each chunk of trials as one slice
  (:meth:`~repro.sim.base.StochasticSimulator.run_slice`), per-trial
  independent random streams;
* ``engine="batch-direct"`` — the same runner dispatching to the vectorized
  :class:`~repro.sim.batch.BatchDirectEngine`, which advances the whole
  ensemble in lock-step NumPy operations;
* :class:`ParallelEnsembleRunner` — trials sharded across ``multiprocessing``
  workers in fixed-size chunks, with per-shard :class:`EnsembleResult`
  outcome counts and per-trial arrays merged in chunk order.

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
Trajectories are built only when kept (``keep_trajectories=True``), for a
classifier without ``classify_batch``, and by engines with no kernel
(tau-leaping).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.species import Species, as_species
from repro.errors import EmptyMergeError, EnsembleError
from repro.sim.base import SimulationOptions
from repro.sim.events import StoppingCondition
from repro.sim.kernels.backend import validate_backend_request
from repro.sim.kernels.batch import group_trials
from repro.sim.outcomes import UNDECIDED, StopDetailClassifier, count_outcomes
from repro.sim.propensity import CompiledNetwork
from repro.sim.registry import registry
from repro.sim.rng import derive_seed, spawn_children_range
from repro.sim.stats import RunningMoments
from repro.sim.trajectory import BatchResult, Trajectory

__all__ = [
    "engine_names",
    "pool_context",
    "make_simulator",
    "EnsembleResult",
    "EnsembleRunner",
    "ParallelEnsembleRunner",
]


def engine_names() -> list[str]:
    """All selectable engine names (per-trial and batched), sorted.

    Thin alias for :meth:`repro.sim.registry.EngineRegistry.names` on the
    default registry, kept because it predates the registry.
    """
    return registry.names()


def pool_context():
    """The ``multiprocessing`` context shared by every parallel path.

    Prefers ``fork`` where available (cheap worker startup, workers inherit
    the parent's imported modules); falls back to ``spawn`` on platforms
    without it.  Centralized so the ensemble runner and the parameter sweep
    cannot silently diverge in start-method policy.
    """
    return multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )


def make_simulator(
    network: "ReactionNetwork | CompiledNetwork",
    engine: str = "direct",
    seed=None,
    engine_options=None,
):
    """Instantiate a simulation engine by name from the default registry.

    Any registered engine is accepted — per-trial, batched (their ``run()``
    simulates a batch of one, so the returned object is a drop-in for
    single-trajectory use, minus firing logs and state snapshots) or
    deterministic.  Unknown names raise with the live engine list and the
    closest-matching name.  ``engine_options`` delivers the engine's typed
    options dataclass (e.g. :class:`~repro.sim.tau_leaping.TauLeapOptions`
    for ``"tau-leaping"``).
    """
    return registry.create(network, engine, seed=seed, engine_options=engine_options)


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


class EnsembleRunner:
    """Run many independent trajectories of one network and aggregate them.

    With a per-trial engine the trials run one after another, each on its own
    spawned child random stream (keyed by global trial index, so results are
    independent of execution order).  With ``engine="batch-direct"`` the
    whole ensemble advances in lock-step vectorized steps instead — same
    exact SSA statistics, typically an order of magnitude faster for the
    ensemble sizes the paper uses.

    Parameters
    ----------
    network:
        The network (or compiled network) to simulate.
    engine:
        Engine name from the default :data:`~repro.sim.registry.registry`
        (default ``"direct"``).  Deterministic engines (``"ode"``) are
        rejected — repeating a deterministic run estimates nothing.
    stopping:
        Stopping condition applied to every trial.
    options:
        Simulation options applied to every trial.  The firing log is disabled
        by default inside ensembles (per-reaction totals are always recorded),
        pass ``options=SimulationOptions(record_firings=True)`` to keep it
        (per-trial engines only; the batched engine records totals only).
    outcome_classifier:
        Callable mapping a :class:`Trajectory` to an outcome label (or
        ``None`` for undecided).  Default:
        :class:`~repro.sim.outcomes.StopDetailClassifier`, the trajectory's
        ``stop_detail`` when it stopped on a condition.  A classifier with a
        ``classify_batch(batch)`` method labels every chunk from its columns
        (see :mod:`repro.sim.outcomes`).
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
        engine_options=None,
    ) -> None:
        self.compiled = (
            network
            if isinstance(network, CompiledNetwork)
            else CompiledNetwork.compile(network)
        )
        info = registry.get(engine)
        if info.deterministic:
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
        self.engine_info = info
        self.engine_options = engine_options
        self.stopping = stopping
        self.options = options
        self.outcome_classifier = outcome_classifier or StopDetailClassifier()
        # Lazily-created engine instances, kept for the runner's lifetime: the
        # batched engine's columnar sweep buffers are allocated once and
        # reused across chunks and adaptive rounds (see BatchBuffers
        # in kernels/batch.py), and a per-trial simulator's kernel buffers
        # across slices.
        self._batch_engine = None
        self._simulator = None
        # Trials the batched engine's buffers are sized for on first use.
        self._reserve_trials = 0

    def run(
        self,
        n_trials: int,
        seed: "int | None" = None,
        initial_state: "Mapping | None" = None,
        keep_trajectories: bool = False,
    ) -> EnsembleResult:
        """Simulate ``n_trials`` independent trajectories and aggregate them."""
        if n_trials <= 0:
            raise EnsembleError(f"n_trials must be positive, got {n_trials}")
        return self._run_group(
            n_trials, seed, [(0, n_trials)], initial_state, keep_trajectories
        )[0]

    # -- execution ---------------------------------------------------------------

    def _run_group(
        self,
        n_trials: int,
        seed: "int | None",
        bounds: "Sequence[tuple[int, int]]",
        initial_state: "Mapping | None",
        keep_trajectories: bool,
    ) -> "list[EnsembleResult]":
        """Simulate trial slices of an ``n_trials`` ensemble, one shard each.

        The slice abstraction is what the parallel runner shards: per-trial
        engines derive each trial's random stream from its global index, and
        the batched engine derives one sub-seed per slice, so results depend
        only on ``(seed, n_trials, slicing)`` — never on which process runs
        which slice, or which slices share a sweep.  The batched engine
        sweeps the slices together; per-trial engines run them one after
        another.  Either way each run yields the slices' columns as one
        :class:`~repro.sim.trajectory.BatchResult`, which
        :meth:`_shards` labels and splits.
        """
        initial = None if initial_state is None else dict(initial_state)
        # Trajectory objects are built only where something reads them.
        with_trajectories = keep_trajectories or getattr(
            self.outcome_classifier, "classify_batch", None
        ) is None
        if self.engine_info.batched:
            return self._shards(
                bounds,
                *self._run_batched(seed, bounds, initial, with_trajectories),
                keep_trajectories,
            )
        return [
            shard
            for start, stop in bounds
            for shard in self._shards(
                [(start, stop)],
                *self._run_slice(n_trials, seed, start, stop, initial, with_trajectories),
                keep_trajectories,
            )
        ]

    def _run_slice(
        self,
        n_trials: int,
        seed: "int | None",
        start: int,
        stop: int,
        initial_state: "dict | None",
        with_trajectories: bool,
    ) -> "tuple[BatchResult, list[Trajectory] | None]":
        """Simulate the trial slice ``[start, stop)`` with a per-trial engine.

        A kernel engine runs the slice through
        :meth:`~repro.sim.base.StochasticSimulator.run_slice`.  Trajectories
        needed by the caller, and engines with no kernel (tau-leaping), run
        one ``run`` per trial instead, and their columns are read off the
        trajectories.
        """
        if self._simulator is None:
            self._simulator = self.engine_info.create(
                self.compiled, engine_options=self.engine_options
            )
        simulator = self._simulator
        streams = spawn_children_range(seed, n_trials, start, stop)
        if not with_trajectories and getattr(simulator, "kernel_name", None) is not None:
            return simulator.run_slice(streams, initial_state, self.stopping, self.options), None
        trajectories = [
            simulator.run(
                initial_state=initial_state,
                stopping=self.stopping,
                options=self.options,
                seed=rng,
            )
            for rng in streams
        ]
        return BatchResult.from_trajectories(trajectories, self.compiled.species), trajectories

    def _run_batched(
        self,
        seed: "int | None",
        bounds: "Sequence[tuple[int, int]]",
        initial_state: "dict | None",
        with_trajectories: bool,
    ) -> "tuple[BatchResult, list[Trajectory] | None]":
        """Run the trial slices ``bounds`` as one fused sweep."""
        # The batch shares one generator per slice, so each slice (not each
        # trial) gets a deterministic sub-seed from its bounds; fixed
        # chunking then keeps results invariant to the worker count and to
        # how slices are grouped into sweeps.
        chunks = [
            (stop - start, None if seed is None else derive_seed(seed, "batch", start, stop))
            for start, stop in bounds
        ]
        if self._batch_engine is None:
            self._batch_engine = self.engine_info.create(
                self.compiled, engine_options=self.engine_options
            )
            if self._reserve_trials:
                self._batch_engine.reserve(self._reserve_trials)
        batch = self._batch_engine.run_group(
            chunks,
            initial_state=initial_state,
            stopping=self.stopping,
            options=self.options,
        )
        if not with_trajectories:
            return batch, None
        return batch, [batch.trajectory(trial) for trial in range(batch.n_trials)]

    def _shards(
        self,
        bounds: "Sequence[tuple[int, int]]",
        batch: BatchResult,
        trajectories: "list[Trajectory] | None",
        keep_trajectories: bool,
    ) -> "list[EnsembleResult]":
        """Label the rows of ``batch`` and split them into one shard per bound.

        The classifier's ``classify_batch`` labels the columns; trials that
        were built as trajectories anyway are labelled one by one, by the
        classifier itself.
        """
        if trajectories is None:
            labels = self.outcome_classifier.classify_batch(batch).tolist()
        else:
            labels = [self.outcome_classifier(t) for t in trajectories]
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
        n_trials,
        bounds,
        initial_state,
        keep_trajectories,
    ) = payload
    runner = EnsembleRunner(
        network,
        engine=engine,
        stopping=stopping,
        options=options,
        outcome_classifier=classifier,
        engine_options=engine_options,
    )
    return runner._run_group(n_trials, seed, bounds, initial_state, keep_trajectories)


class ParallelEnsembleRunner(EnsembleRunner):
    """Ensemble runner that shards trials across ``multiprocessing`` workers.

    Trials are split into fixed-size chunks; workers pull chunks from a pool
    and each chunk derives its randomness from the global trial indices it
    covers (:func:`~repro.sim.rng.spawn_children_range` for per-trial
    engines, a per-slice sub-seed for the batched engine).  Results are
    therefore *identical* for a given ``(seed, n_trials, chunk_size)``
    regardless of ``workers`` — and, for per-trial engines, identical to the
    sequential :class:`EnsembleRunner` too.  Shards merge through
    :meth:`EnsembleResult.merge`.

    The network, stopping condition and outcome classifier are pickled to the
    workers, so all three must be picklable: module-level classes/functions
    and bound methods of picklable objects work; lambdas and closures do not
    (use the sequential runner for those, or define the classifier at module
    level).

    Parameters
    ----------
    workers:
        Worker process count (default: ``os.cpu_count()``).  ``workers=1``
        runs the same chunked schedule inline, without spawning processes.
    chunk_size:
        Trials per shard (default 512): the seeding unit, so it is part of a
        run's identity — results depend on it, never on ``workers``.  The
        batched engine sweeps consecutive chunks together, up to
        :func:`~repro.sim.kernels.batch.group_trials` trials of the network
        at a time, so small chunks cost it no sweep efficiency; each group
        is also the unit handed to a worker; a chunk wider than a group is
        swept alone.
    """

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        engine: str = "direct",
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        outcome_classifier: "Callable[[Trajectory], str | None] | None" = None,
        workers: "int | None" = None,
        chunk_size: int = 512,
        engine_options=None,
    ) -> None:
        super().__init__(
            network,
            engine=engine,
            stopping=stopping,
            options=options,
            outcome_classifier=outcome_classifier,
            engine_options=engine_options,
        )
        if chunk_size <= 0:
            raise EnsembleError(f"chunk_size must be positive, got {chunk_size}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers <= 0:
            raise EnsembleError(f"workers must be positive, got {self.workers}")
        self.chunk_size = chunk_size
        # A batched group holds whole chunks up to the sweep's cell cap; the
        # engine's buffers are sized for the widest such group on first use,
        # so the adaptive controller's growing rounds never reallocate.
        self._group_trials = group_trials(self.compiled.n_species, self.compiled.n_reactions)
        if self.engine_info.batched:
            self._reserve_trials = self._group_trials // chunk_size * chunk_size

    def run(
        self,
        n_trials: int,
        seed: "int | None" = None,
        initial_state: "Mapping | None" = None,
        keep_trajectories: bool = False,
    ) -> EnsembleResult:
        """Simulate ``n_trials`` trajectories across the worker pool and merge."""
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
        # The sequence length forwarded to the shards: per-trial RNG ignores
        # it beyond bounds checking, the batched engine never reads it.
        total = max(stop for _, stop in bounds)
        initial = None if initial_state is None else dict(initial_state)
        groups = self._groups(bounds)

        if self.workers == 1 or len(groups) == 1:
            return [
                shard
                for group in groups
                for shard in self._run_group(total, seed, group, initial, keep_trajectories)
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
                total,
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
        if not self.engine_info.batched:
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
