"""Trajectory recording: what happened during one stochastic simulation run.

A :class:`Trajectory` records the firing history of a run (which reaction
fired at which time), the final state, why the run stopped, and — optionally —
sampled state snapshots.  Recording every intermediate state is expensive and
rarely needed, so snapshotting is opt-in via ``record_states`` or a sampling
interval on the simulator.

Storage is *columnar*: the firing log is the pair of parallel ndarrays
``times`` / ``reaction_indices`` (filled straight from the kernel layer's
preallocated buffers — see :mod:`repro.sim.kernels.buffers`), never a list
of event objects.  Record-style access is still available as lightweight
views: :attr:`Trajectory.firings` is a sequence over the columns whose items
are :class:`FiringRecord` values built on demand.

A :class:`BatchResult` holds many trials the same way, one row each: the
final counts, times, firing totals and stop reasons of a batched sweep or a
per-trial slice, with no firing log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.crn.species import Species, as_species
from repro.crn.state import State

__all__ = ["StopReason", "FiringRecord", "FiringLog", "Trajectory", "BatchResult"]


class StopReason:
    """Why a simulation run ended (string constants, not an enum, for easy reporting)."""

    EXHAUSTED = "exhausted"          # total propensity reached zero; nothing can fire
    MAX_TIME = "max_time"            # simulated time limit reached
    MAX_STEPS = "max_steps"          # firing-count limit reached
    CONDITION = "condition"          # a user stopping condition triggered
    ALL = (EXHAUSTED, MAX_TIME, MAX_STEPS, CONDITION)


@dataclass(frozen=True)
class FiringRecord:
    """One reaction firing: the time of the event and the reaction index."""

    time: float
    reaction_index: int


class FiringLog:
    """Record-style *view* over a trajectory's columnar firing log.

    Supports ``len``, iteration, integer indexing (negative indices
    included) and slicing; items are :class:`FiringRecord` values
    materialized on demand, so keeping the log columnar costs nothing for
    callers that still want per-event objects.
    """

    __slots__ = ("_times", "_reactions")

    def __init__(self, times: np.ndarray, reactions: np.ndarray) -> None:
        self._times = times
        self._reactions = reactions

    def __len__(self) -> int:
        return int(len(self._reactions))

    def __iter__(self) -> Iterator[FiringRecord]:
        for t, r in zip(self._times, self._reactions):
            yield FiringRecord(float(t), int(r))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return FiringLog(self._times[index], self._reactions[index])
        return FiringRecord(float(self._times[index]), int(self._reactions[index]))

    def __repr__(self) -> str:
        return f"FiringLog(n={len(self)})"


@dataclass
class Trajectory:
    """The result of a single stochastic simulation run.

    Attributes
    ----------
    times / reaction_indices:
        Parallel arrays of firing times and fired-reaction indices (the
        columnar firing log; :attr:`firings` wraps them as records).
    final_state:
        Molecular counts when the run stopped.
    final_time:
        Simulated time when the run stopped.
    stop_reason:
        One of the :class:`StopReason` constants.
    stop_detail:
        Free-form text from the stopping condition (e.g. the outcome label).
    species_order:
        Species order used for ``state_snapshots`` vectors.
    snapshot_times / state_snapshots:
        Optional sampled states (only if the simulator was asked to record them).
    firing_counts:
        Per-reaction firing totals (length = number of reactions).
    """

    times: np.ndarray
    reaction_indices: np.ndarray
    final_state: State
    final_time: float
    stop_reason: str
    stop_detail: str = ""
    species_order: tuple[Species, ...] = ()
    snapshot_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    state_snapshots: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    firing_counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    # -- queries ---------------------------------------------------------------

    @property
    def n_firings(self) -> int:
        """Total number of reaction firings in the run.

        Read from the per-reaction totals, which every run keeps, so a run
        or ensemble view without a firing log reports its firings too.
        """
        if self.firing_counts.size:
            return int(self.firing_counts.sum())
        return int(len(self.reaction_indices))

    @property
    def firings(self) -> FiringLog:
        """The firing log as a sequence of :class:`FiringRecord` views."""
        return FiringLog(self.times, self.reaction_indices)

    def firing(self, index: int) -> FiringRecord:
        """One firing of the log as a :class:`FiringRecord`."""
        return self.firings[index]

    def count_firings(self, reaction_index: int) -> int:
        """How many times reaction ``reaction_index`` fired."""
        if self.firing_counts.size > reaction_index:
            return int(self.firing_counts[reaction_index])
        return int(np.sum(self.reaction_indices == reaction_index))

    def first_firing(self, reaction_indices: Sequence[int]) -> "int | None":
        """The first reaction among ``reaction_indices`` to fire, or None.

        Used by the error analysis of Section 2.1.3: "the first initializing
        reaction to fire" determines the intended outcome.
        """
        wanted = set(int(i) for i in reaction_indices)
        for index in self.reaction_indices:
            if int(index) in wanted:
                return int(index)
        return None

    def final_count(self, species: "Species | str") -> int:
        """Final count of one species."""
        return self.final_state[as_species(species)]

    def species_series(self, species: "Species | str") -> np.ndarray:
        """Snapshot time-series of one species (requires state recording)."""
        if self.state_snapshots.size == 0:
            raise ValueError(
                "this trajectory was recorded without state snapshots; "
                "run the simulator with record_states=True"
            )
        sp = as_species(species)
        try:
            column = list(self.species_order).index(sp)
        except ValueError as exc:
            raise ValueError(f"species {sp.name!r} not in trajectory order") from exc
        return self.state_snapshots[:, column]

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Trajectory(firings={self.n_firings}, t_final={self.final_time:.4g}, "
            f"stop={self.stop_reason}{':' + self.stop_detail if self.stop_detail else ''})"
        )

    def __repr__(self) -> str:
        return self.summary()


@dataclass
class BatchResult:
    """Raw per-trial results of many trials, one row each.

    This is the vector-native counterpart of a list of :class:`Trajectory`
    objects: everything an ensemble aggregates, kept as flat arrays.  Both
    the batched engine (:meth:`repro.sim.batch.BatchDirectEngine.run_group`)
    and the per-trial engines
    (:meth:`repro.sim.base.StochasticSimulator.run_slice`) return one.
    Individual trials can still be viewed as (log-free) trajectories via
    :meth:`trajectory`.

    Attributes
    ----------
    species:
        Column labels for ``final_counts``.
    final_counts:
        Final molecular counts, shape ``(n_trials, n_species)``.
    final_times:
        Simulated stop time per trial.
    firing_counts:
        Per-reaction firing totals, shape ``(n_trials, n_reactions)``.
    stop_reasons / stop_details:
        Why each trial stopped (:class:`StopReason` constants) and the
        stopping condition's detail (outcome label; ``""`` for trials that
        stopped another way).
    """

    species: tuple
    final_counts: np.ndarray
    final_times: np.ndarray
    firing_counts: np.ndarray
    stop_reasons: np.ndarray
    stop_details: np.ndarray

    @property
    def n_trials(self) -> int:
        """Number of trials in the batch."""
        return self.final_counts.shape[0]

    def trajectory(self, trial: int) -> Trajectory:
        """View one trial as a :class:`Trajectory` (no firing log, totals only)."""
        return Trajectory(
            times=np.empty(0, dtype=float),
            reaction_indices=np.empty(0, dtype=np.int64),
            final_state=State.from_vector(
                [int(c) for c in self.final_counts[trial]], self.species
            ),
            final_time=float(self.final_times[trial]),
            stop_reason=str(self.stop_reasons[trial]),
            stop_detail=str(self.stop_details[trial]),
            species_order=self.species,
            firing_counts=self.firing_counts[trial].copy(),
        )
