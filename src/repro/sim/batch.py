"""Vectorized direct-method SSA: a whole batch of trajectories in lock-step.

Every experiment in the paper is a Monte-Carlo ensemble of *independent*
trials (Section 3 runs 100,000 trials per Figure-3 point), which makes the
ensemble embarrassingly data-parallel: instead of running one Python-level
Gillespie loop per trial, :class:`BatchDirectEngine` advances all unfinished
trials together, one reaction event per trial per step.

The stopping condition compiles into a kernel
:class:`~repro.sim.kernels.plan.StoppingPlan`, and the whole
advance-until-stopped loop runs as one columnar sweep in the kernel layer
(:mod:`repro.sim.kernels.batch`): propensity matrix rebuilds, exponential
waits, CDF inversion, delta application, plan evaluation and active-set
compaction over preallocated cross-trial buffers, consuming pre-drawn
:class:`~repro.sim.kernels.blocks.RandomBlocks`.  The numpy reference sweep
and the fused numba kernel consume the same stream in the same op order, so
seeded batches are bit-identical across backends — and the buffers are
reused across runs that fit them, which is what makes 10⁵–10⁶-trial
chunks and the adaptive controller's adaptive rounds allocation-free after
the first round.  :meth:`BatchDirectEngine.run_group` sweeps several
independently seeded chunks in one pass; :meth:`BatchDirectEngine.run_batch`
is its one-chunk case.  A condition with no clause encoding
(a callback plan) runs on the numpy sweep, which calls its ``check()`` for
each active trial after every step.

The per-trial random *sequences* differ from the sequential
:class:`~repro.sim.direct.DirectMethodSimulator` (draws are interleaved
across the batch), so individual trajectories are not bit-identical between
engines — but the sampled process is the same exact SSA, and the test suite
checks statistical agreement (chi-squared) between the two.

The engine quacks like a :class:`~repro.sim.base.StochasticSimulator` for
single runs (:meth:`BatchDirectEngine.run` simulates a batch of one), so it
is registered as a ``batched`` engine and selected with
``engine="batch-direct"`` anywhere the sequential engines are accepted.
Firing *logs* and state snapshots are not supported — only per-reaction
totals are kept, which is what ensembles consume.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.state import State
from repro.errors import SimulationError
from repro.sim.base import SimulationOptions, merge_options, resolve_initial_counts
from repro.sim.kernels.backend import (
    STOP_CONDITION,
    STOP_MAX_STEPS,
    STOP_MAX_TIME,
    resolve_run_backend,
)
from repro.sim.kernels.batch import (
    BatchBuffers,
    BatchSegment,
    BatchSweepJob,
    batch_random_blocks,
    callback_hits,
    plan_clause_hits,
)
from repro.sim.kernels.plan import compile_stopping_plan
from repro.sim.events import StoppingCondition
from repro.sim.propensity import CompiledNetwork
from repro.sim.registry import register_engine
from repro.sim.rng import make_rng
from repro.sim.trajectory import BatchResult, StopReason, Trajectory

__all__ = ["BatchResult", "BatchDirectEngine"]


@register_engine(
    "batch-direct",
    kind="batched",
    exact=True,
    summary="vectorized direct method advancing a whole ensemble in lock-step",
)
class BatchDirectEngine:
    """Gillespie's direct method, vectorized across a batch of trials.

    Parameters
    ----------
    network:
        A :class:`~repro.crn.network.ReactionNetwork` or pre-compiled
        :class:`~repro.sim.propensity.CompiledNetwork`.
    seed:
        Default random seed / generator for runs that do not pass their own.
        The whole batch shares one generator: per-step draws are vectors over
        the active trials, which is what makes the engine fast, at the cost
        of per-trial streams not being independently reseedable.
    """

    method_name = "batch-direct"
    #: backends this engine supports (read by its EngineInfo.backends)
    supported_backends = ("numpy", "numba")

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.compiled = CompiledNetwork.coerce(network)
        self._default_rng = make_rng(seed)
        # Cross-trial sweep buffers, allocated once per chunk width and
        # reused across run_batch calls on this engine (the ensemble runner
        # keeps one engine per runner, so the adaptive controller's adaptive
        # rounds share these arrays round after round).
        self._sweep_buffers = BatchBuffers()

    @property
    def network(self) -> ReactionNetwork:
        """The underlying reaction network."""
        return self.compiled.network

    # -- batched simulation --------------------------------------------------------

    def reserve(self, n_trials: int) -> None:
        """Size the sweep buffers for batches of up to ``n_trials`` trials.

        The ensemble runner reserves its widest group on first use, so
        later, wider calls (the adaptive controller's adaptive rounds) reuse
        the same arrays.
        """
        self._sweep_buffers.ensure(
            n_trials, self.compiled.n_species, self.compiled.n_reactions
        )

    def run_batch(
        self,
        n_trials: int,
        initial_state: "State | dict | None" = None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        seed: "int | np.random.Generator | None" = None,
        **option_overrides,
    ) -> BatchResult:
        """Simulate ``n_trials`` independent trajectories in lock-step.

        Parameters mirror :meth:`repro.sim.base.StochasticSimulator.run`,
        applied uniformly to every trial.  ``record_firings`` /
        ``record_states`` must be off: the batched engine keeps per-reaction
        firing totals but no event log (raising keeps a mistaken
        ``engine="batch-direct"`` in log-dependent analyses loud instead of
        silently returning empty logs).  This is :meth:`run_group` with one
        chunk.
        """
        return self.run_group(
            [(n_trials, seed)],
            initial_state=initial_state,
            stopping=stopping,
            options=options,
            **option_overrides,
        )

    def run_group(
        self,
        chunks: "Sequence[tuple[int, int | np.random.Generator | None]]",
        initial_state: "State | dict | None" = None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        **option_overrides,
    ) -> BatchResult:
        """Simulate a group of chunks in one fused sweep.

        ``chunks`` lists ``(n_trials, seed)`` pairs.  Each chunk draws only
        from its own generator (``seed=None`` uses the engine's default
        generator), in the order a :meth:`run_batch` of that chunk alone
        would, so with distinct seeds the result is bit-identical to one
        :meth:`run_batch` per chunk: its rows are the chunks' trials, in
        order.  The chunk is the seeding unit; the group only shares the
        per-step cost of the sweep.  Other parameters as in
        :meth:`run_batch`.
        """
        chunks = [(int(n), seed) for n, seed in chunks]
        if not chunks:
            raise SimulationError("run_group needs at least one chunk")
        for n, _ in chunks:
            if n <= 0:
                raise SimulationError(f"n_trials must be positive, got {n}")
        opts = merge_options(options or SimulationOptions(record_firings=False),
                             option_overrides)
        if opts.record_firings or opts.record_states:
            raise SimulationError(
                "batch-direct keeps per-reaction totals only; pass "
                "SimulationOptions(record_firings=False) (and record_states=False) "
                "or use a per-trial engine for full firing logs"
            )
        compiled = self.compiled
        start = resolve_initial_counts(compiled, initial_state)
        if stopping is not None:
            stopping.reset(compiled)
        plan = compile_stopping_plan(stopping, compiled)
        backend = resolve_run_backend(
            opts.backend, self.supported_backends, plan, self.method_name
        )

        n_trials = sum(n for n, _ in chunks)
        buffers = self._sweep_buffers
        buffers.ensure(n_trials, compiled.n_species, compiled.n_reactions)
        buffers.reset(n_trials, start)

        # t=0 stopping pre-pass (no randomness consumed; shared by both
        # backends, like the per-trial engines' Python-side t=0 check).
        details = None
        if plan.callback is not None:
            details = np.full(n_trials, None, dtype=object)
            hit0 = callback_hits(
                plan.callback, buffers.counts[:n_trials],
                buffers.firings[:n_trials], buffers.times[:n_trials], details,
            )
        else:
            hits = plan_clause_hits(
                plan, buffers.counts[:n_trials].T, buffers.firings[:n_trials].T
            )
            hit0 = hits >= 0
            buffers.clauses[:n_trials][hit0] = hits[hit0]
        buffers.stop_codes[:n_trials][hit0] = STOP_CONDITION

        segments = []
        row = 0
        for n, seed in chunks:
            running = row + np.flatnonzero(~hit0[row : row + n])
            buffers.active[row : row + running.size] = running
            rng = self._default_rng if seed is None else make_rng(seed)
            segments.append(
                BatchSegment(row, row + n, batch_random_blocks(rng, n), running.size)
            )
            row += n

        # The whole lock-step loop runs as one columnar sweep inside the
        # kernel backend (numpy reference or fused numba kernel;
        # bit-identical across the two).
        backend.run_batch(
            BatchSweepJob(
                compiled=compiled,
                plan=plan,
                buffers=buffers,
                segments=tuple(segments),
                n_trials=n_trials,
                max_time=opts.max_time,
                max_steps=opts.max_steps,
                details=details,
            )
        )

        # Package copies: the buffers are reused by the next sweep.
        codes = buffers.stop_codes[:n_trials]
        stop_reasons = np.full(n_trials, StopReason.EXHAUSTED, dtype=object)
        stop_details = np.full(n_trials, "", dtype=object)
        stop_reasons[codes == STOP_MAX_TIME] = StopReason.MAX_TIME
        stop_reasons[codes == STOP_MAX_STEPS] = StopReason.MAX_STEPS
        condition = codes == STOP_CONDITION
        if condition.any():
            stop_reasons[condition] = StopReason.CONDITION
            if details is not None:
                stop_details[condition] = np.array(
                    [str(detail) for detail in details[condition]], dtype=object
                )
            else:
                labels = np.array([str(label) for label in plan.labels], dtype=object)
                stop_details[condition] = labels[buffers.clauses[:n_trials][condition]]
        return BatchResult(
            species=compiled.species,
            final_counts=buffers.counts[:n_trials].copy(),
            final_times=buffers.times[:n_trials].copy(),
            firing_counts=buffers.firings[:n_trials].copy(),
            stop_reasons=stop_reasons,
            stop_details=stop_details,
        )

    def run(
        self,
        initial_state: "State | dict | None" = None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        seed: "int | np.random.Generator | None" = None,
        **option_overrides,
    ) -> Trajectory:
        """Simulate one trajectory (a batch of one); drop-in for the per-trial engines.

        The returned trajectory has no firing log (``times`` /
        ``reaction_indices`` empty) but carries full per-reaction totals in
        ``firing_counts``, which is all the ensemble, settling and
        decision-time paths consume.
        """
        batch = self.run_batch(
            1,
            initial_state=initial_state,
            stopping=stopping,
            options=options,
            seed=seed,
            **option_overrides,
        )
        return batch.trajectory(0)
