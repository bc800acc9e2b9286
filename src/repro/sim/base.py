"""Shared machinery for the stochastic simulation engines.

The paper's experimental methodology is Monte-Carlo stochastic simulation —
it cites Gillespie's SSA as [6] and the Gibson–Bruck next-reaction method as
[7].  Every per-trial exact engine here (direct, first-reaction,
next-reaction) runs the same way: resolve the starting counts, compile the
stopping condition into a :class:`~repro.sim.kernels.plan.StoppingPlan`,
check it once at t=0, and hand the whole firing loop to a pluggable
:class:`~repro.sim.kernels.backend.KernelBackend` (``numpy`` reference or
optional ``numba`` JIT), which runs the engine's kernel over preallocated
columnar buffers and chunked random blocks.

:meth:`StochasticSimulator.run` simulates one trial and returns a
:class:`~repro.sim.trajectory.Trajectory`.
:meth:`StochasticSimulator.run_slice` simulates one trial per given random
stream — an ensemble chunk — and returns their final states as the columns
of a :class:`~repro.sim.trajectory.BatchResult`: the setup is paid once per
slice, and each trial gets only its own random blocks and kernel call.

Backend selection flows through :attr:`SimulationOptions.backend`
(``"auto"`` prefers the fastest available kernel backend the engine
supports).  The batched engine (:mod:`repro.sim.batch`) replaces the
per-event loop with a lock-step columnar sweep but reuses the options and
initial-state semantics defined here; tau-leaping (:mod:`repro.sim
.tau_leaping`) overrides :meth:`StochasticSimulator.run` with its own leap
loop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.state import State
from repro.errors import SimulationError
from repro.sim.events import StoppingCondition
from repro.sim.kernels.backend import (
    BACKEND_NAMES,
    KernelBackend,
    KernelJob,
    resolve_run_backend,
)
from repro.sim.kernels.blocks import RandomBlocks
from repro.sim.kernels.buffers import TrajectoryBuffers
from repro.sim.kernels.network import KernelNetwork
from repro.sim.kernels.plan import StoppingPlan, compile_stopping_plan
from repro.sim.propensity import CompiledNetwork
from repro.sim.rng import make_rng
from repro.sim.trajectory import BatchResult, StopReason, Trajectory

__all__ = [
    "SimulationOptions",
    "StochasticSimulator",
    "merge_options",
    "resolve_initial_counts",
]


def resolve_initial_counts(
    compiled: CompiledNetwork, initial_state: "State | dict | None"
) -> np.ndarray:
    """Resolve a run's starting count vector.

    ``None`` means the network's own initial state; otherwise ``initial_state``
    (a :class:`State` or ``{species: count}`` mapping) replaces it wholesale,
    with unmentioned species defaulting to zero.  Shared by every engine
    (:meth:`StochasticSimulator.run`, the batched
    :class:`repro.sim.batch.BatchDirectEngine` and tau-leaping), so all of
    them validate species membership identically.
    """
    if initial_state is None:
        return compiled.initial_counts().astype(np.int64)
    state = initial_state if isinstance(initial_state, State) else State(initial_state)
    unknown = state.species() - set(compiled.species)
    if unknown:
        names = ", ".join(sorted(s.name for s in unknown))
        raise SimulationError(
            f"initial state mentions species not in the network: {names}"
        )
    return state.to_vector(compiled.species).astype(np.int64)


@dataclass
class SimulationOptions:
    """Options controlling a single run.

    Attributes
    ----------
    max_time:
        Simulated-time limit (default: unbounded).
    max_steps:
        Firing-count limit; a guard against runaway simulations (default 10⁶).
    record_firings:
        Keep the full (time, reaction) firing log in the trajectory.  Turn off
        in large ensembles to save memory; per-reaction totals are always kept.
    record_states:
        Keep sampled state snapshots.
    snapshot_stride:
        Record every ``snapshot_stride``-th state when ``record_states`` is on.
    backend:
        Simulation-kernel backend: ``"auto"`` (default — the fastest
        available backend the engine supports), ``"numpy"`` (array-kernel
        reference) or ``"numba"`` (JIT; auto-falls back to numpy when numba
        is not installed).  A stopping condition with no clause encoding
        runs on numpy only: ``auto`` resolves to numpy for it and an
        explicit ``"numba"`` request raises.
    """

    max_time: float = math.inf
    max_steps: int = 1_000_000
    record_firings: bool = True
    record_states: bool = False
    snapshot_stride: int = 1
    backend: str = "auto"

    def __post_init__(self) -> None:
        if not isinstance(self.max_steps, (int, np.integer)) or isinstance(
            self.max_steps, bool
        ):
            raise SimulationError(
                f"max_steps must be an integer, got {self.max_steps!r}"
            )
        if self.max_steps <= 0:
            raise SimulationError(f"max_steps must be positive, got {self.max_steps}")
        if math.isnan(self.max_time) or self.max_time <= 0:
            raise SimulationError(f"max_time must be positive, got {self.max_time}")
        if not isinstance(self.snapshot_stride, (int, np.integer)) or isinstance(
            self.snapshot_stride, bool
        ):
            raise SimulationError(
                f"snapshot_stride must be an integer, got {self.snapshot_stride!r}"
            )
        if self.snapshot_stride <= 0:
            raise SimulationError(
                f"snapshot_stride must be positive, got {self.snapshot_stride}"
            )
        if self.backend != "auto" and self.backend not in BACKEND_NAMES:
            raise SimulationError(
                f"unknown kernel backend {self.backend!r}; "
                f"expected 'auto' or one of {list(BACKEND_NAMES)}"
            )


def merge_options(
    options: "SimulationOptions | None", overrides: dict
) -> SimulationOptions:
    """Overlay keyword overrides onto a base :class:`SimulationOptions`.

    Unknown keys raise a :class:`SimulationError` naming the valid fields
    (they used to be swallowed silently by a ``**{**opts.__dict__, ...}``
    merge); the merged object re-runs field validation via
    :func:`dataclasses.replace`.
    """
    base = options or SimulationOptions()
    if not overrides:
        return base
    valid = {f.name for f in dataclasses.fields(SimulationOptions)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise SimulationError(
            f"unknown simulation option(s) {unknown}; valid fields: {sorted(valid)}"
        )
    return dataclasses.replace(base, **overrides)


class StochasticSimulator:
    """Base class for exact per-trial stochastic simulation engines.

    Parameters
    ----------
    network:
        Either a :class:`~repro.crn.network.ReactionNetwork` or an already
        compiled :class:`~repro.sim.propensity.CompiledNetwork` (sharing a
        compiled network across engines and ensembles avoids recompilation).
    seed:
        Default random seed / generator for :meth:`run` calls that do not pass
        their own.
    """

    #: human-readable algorithm name, overridden by engines
    method_name = "base"
    #: kernel this engine dispatches to (engines without one override :meth:`run`)
    kernel_name: "str | None" = None
    #: backends this engine supports (mirrored into the registry's EngineInfo)
    supported_backends: tuple = ()

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        if isinstance(network, CompiledNetwork):
            self.compiled = network
        elif isinstance(network, ReactionNetwork):
            self.compiled = CompiledNetwork.compile(network)
        else:
            raise SimulationError(
                f"expected a ReactionNetwork or CompiledNetwork, got {type(network).__name__}"
            )
        self._default_rng = make_rng(seed)
        self._kernel_buffers: "TrajectoryBuffers | None" = None

    @property
    def network(self) -> ReactionNetwork:
        """The underlying reaction network."""
        return self.compiled.network

    def run(
        self,
        initial_state: "State | dict | None" = None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        seed: "int | np.random.Generator | None" = None,
        **option_overrides,
    ) -> Trajectory:
        """Simulate one trajectory.

        Parameters
        ----------
        initial_state:
            Overrides the network's initial state for this run (a
            :class:`State` or a ``{species: count}`` mapping).  Species not
            mentioned default to zero.
        stopping:
            Optional domain stopping condition (see :mod:`repro.sim.events`).
        options:
            A :class:`SimulationOptions`; individual fields can also be passed
            as keyword arguments (``max_time=...``, ``record_states=True``,
            ``backend="numpy"`` ...).  Unknown keywords raise.
        seed:
            Random seed or generator for this run; defaults to the simulator's
            own stream.
        """
        setup = self._setup(initial_state, stopping, options, option_overrides)
        rng = self._default_rng if seed is None else make_rng(seed)
        counts = setup.start.copy()
        buffers = setup.buffers
        buffers.reset()
        stop_reason, stop_detail, final_time, firing_counts = self._trial(
            setup, stopping, rng, counts, record=True
        )
        times, fired = buffers.finalize_events()
        snapshot_times, snapshots = buffers.finalize_snapshots()
        return Trajectory(
            times=times,
            reaction_indices=fired,
            final_state=self.compiled.counts_to_state(counts),
            final_time=final_time,
            stop_reason=stop_reason,
            stop_detail=stop_detail,
            species_order=self.compiled.species,
            snapshot_times=snapshot_times,
            state_snapshots=snapshots,
            firing_counts=firing_counts,
        )

    def run_slice(
        self,
        streams: "Sequence[np.random.Generator]",
        initial_state: "State | dict | None" = None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
    ) -> BatchResult:
        """Simulate one trial per random stream, as the rows of a batch.

        Trial ``i`` draws only from ``streams[i]``, exactly as
        ``run(initial_state, stopping, options, seed=streams[i])`` would, so
        every row equals that run's final state, time, firing totals and
        stop.  The options, starting counts, stopping plan and backend are
        resolved once for the whole slice; no firing log or snapshots are
        recorded.
        """
        setup = self._setup(initial_state, stopping, options, {})
        n = len(streams)
        final_counts = np.tile(setup.start, (n, 1))
        final_times = np.zeros(n, dtype=np.float64)
        firing_counts = np.zeros((n, self.compiled.n_reactions), dtype=np.int64)
        stop_reasons = np.empty(n, dtype=object)
        stop_details = np.empty(n, dtype=object)
        for trial, rng in enumerate(streams):
            reason, detail, time, firings = self._trial(
                setup, stopping, rng, final_counts[trial], record=False
            )
            stop_reasons[trial] = reason
            stop_details[trial] = detail
            final_times[trial] = time
            firing_counts[trial] = firings
        return BatchResult(
            species=self.compiled.species,
            final_counts=final_counts,
            final_times=final_times,
            firing_counts=firing_counts,
            stop_reasons=stop_reasons,
            stop_details=stop_details,
        )

    # -- shared by run and run_slice ---------------------------------------------

    def _setup(
        self,
        initial_state: "State | dict | None",
        stopping: "StoppingCondition | None",
        options: "SimulationOptions | None",
        option_overrides: dict,
    ) -> "_KernelSetup":
        """Resolve what every trial of one call shares."""
        if self.kernel_name is None:
            raise NotImplementedError(
                f"{type(self).__name__} declares no kernel; override run()"
            )
        opts = merge_options(options, option_overrides)
        compiled = self.compiled
        start = resolve_initial_counts(compiled, initial_state)
        if stopping is not None:
            stopping.reset(compiled)
        # Compiled on every call: the condition's fields (a threshold, say)
        # may have changed since the last one.
        plan = compile_stopping_plan(stopping, compiled)
        backend = resolve_run_backend(
            opts.backend, self.supported_backends, plan, self.method_name
        )
        knet = compiled.kernel_network()
        # A condition with a clause encoding keeps no per-run state, so its
        # t=0 check, which reads only the starting counts, holds for every
        # trial.
        start_detail = None
        if stopping is not None and plan.callback is None:
            start_detail = stopping.check(
                0.0, start, compiled, np.zeros(compiled.n_reactions, dtype=np.int64)
            )
        if self._kernel_buffers is None:
            self._kernel_buffers = TrajectoryBuffers(compiled.n_species)
        return _KernelSetup(
            opts=opts,
            start=start,
            plan=plan,
            backend=backend,
            knet=knet,
            buffers=self._kernel_buffers,
            start_detail=start_detail,
            block_size=max(64, min(2 * knet.n_reactions, 4096)),
        )

    def _trial(
        self,
        setup: "_KernelSetup",
        stopping: "StoppingCondition | None",
        rng: np.random.Generator,
        counts: np.ndarray,
        record: bool,
    ) -> "tuple[str, str, float, np.ndarray]":
        """Run one trial from ``counts``, which it leaves at the final state.

        Returns the stop reason and detail, the final time and the firing
        totals.  The kernels check the condition only after each firing, so
        it is checked here at t=0 first; a trial it already stops draws no
        randomness.  ``record`` keeps the firing log and snapshots the
        options ask for.
        """
        plan = setup.plan
        compiled = self.compiled
        if plan.callback is None:
            detail = setup.start_detail
        else:
            # A user condition may hold per-run state: reset it for every trial.
            stopping.reset(compiled)
            detail = stopping.check(
                0.0, counts, compiled, np.zeros(compiled.n_reactions, dtype=np.int64)
            )
        if detail is not None:
            return (
                StopReason.CONDITION, detail, 0.0,
                np.zeros(compiled.n_reactions, dtype=np.int64),
            )
        opts = setup.opts
        outcome = setup.backend.run(
            self.kernel_name,
            KernelJob(
                knet=setup.knet,
                counts=counts,
                plan=plan,
                buffers=setup.buffers,
                blocks=RandomBlocks(rng, initial=setup.block_size),
                max_time=opts.max_time,
                max_steps=opts.max_steps,
                record_firings=record and opts.record_firings,
                record_states=record and opts.record_states,
                snapshot_stride=opts.snapshot_stride,
            ),
        )
        stop_reason, stop_detail = outcome.stop_reason(plan, self.method_name)
        return stop_reason, stop_detail, float(outcome.final_time), outcome.firing_counts


@dataclass
class _KernelSetup:
    """Everything the trials of one :meth:`StochasticSimulator.run` or
    :meth:`~StochasticSimulator.run_slice` call share."""

    opts: SimulationOptions
    start: np.ndarray
    plan: StoppingPlan
    backend: KernelBackend
    knet: KernelNetwork
    buffers: TrajectoryBuffers
    #: the clause plan's detail when it already holds at the start
    start_detail: "str | None"
    block_size: int
