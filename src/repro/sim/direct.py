"""Gillespie's direct method (the standard SSA).

At each step the algorithm draws the waiting time to the next reaction from an
exponential distribution with rate equal to the total propensity, and selects
which reaction fires with probability proportional to its propensity
(Gillespie 1977, cited as [6] in the paper).

The ``direct`` kernel keeps the propensity vector incrementally up to date:
after a firing, only the propensities of reactions that share a species with
the fired reaction are recomputed (using the dependency lists prepared by
:class:`~repro.sim.propensity.CompiledNetwork`).  For the networks in this
paper (tens of reactions) that is the dominant cost of a run.

An ensemble chunk on the numpy backend runs as one lock-step slice
(:meth:`~repro.sim.kernels.numpy_backend.NumpyKernelBackend.run_direct_slice`):
its trials advance together, one event each per step, every trial on its
own random stream with the scalar kernel's arithmetic, and the last few
finish on the scalar kernel.  Each row is bit-identical to the trial run
alone.
"""

from __future__ import annotations

from repro.sim.base import StochasticSimulator
from repro.sim.kernels.backend import stop_columns
from repro.sim.registry import register_engine
from repro.sim.rng import ChildStreams
from repro.sim.trajectory import BatchResult

__all__ = ["DirectMethodSimulator"]


@register_engine(
    "direct",
    kind="per-trial",
    exact=True,
    summary="Gillespie direct method with incremental propensity updates",
)
class DirectMethodSimulator(StochasticSimulator):
    """Exact SSA via Gillespie's direct method with incremental propensity updates.

    Runs the ``direct`` kernel on the numpy/numba backends (see
    :mod:`repro.sim.kernels`): incremental dependent updates, a full re-sum
    of the propensity vector after every firing, and CDF-inversion
    selection with the largest-propensity fallback, over preallocated
    buffers and chunked random draws.

    The kernel re-sums the propensity vector rather than updating the total
    incrementally: the synthesis method deliberately mixes rates that differ
    by many orders of magnitude (γ² separations, tier ladders up to 10^18),
    and an incrementally-maintained total accumulates floating-point drift
    large enough to corrupt event selection once only slow reactions remain.
    The vector is short, so the exact sum costs little.
    """

    method_name = "direct"
    kernel_name = "direct"
    supported_backends = ("numpy", "numba")

    def _slice(self, setup, stopping, streams) -> BatchResult:
        """Advance the slice in lock-step on numpy, else trial by trial.

        The lock-step sweep takes slices of at least
        :data:`~repro.sim.kernels.numpy_backend.LOCKSTEP_TRIALS` trials
        whose stopping plan has clauses and does not hold at t=0, and whose
        streams are a :class:`~repro.sim.rng.ChildStreams` or distinct
        generators.  A callback plan stays on the loop: its condition may
        hold per-run state, reset before every trial.  Either way every
        row is bit-identical.
        """
        plan = setup.plan
        held_at_start = setup.start_detail is not None
        if setup.backend.name != "numpy" or not plan.n_clauses or held_at_start:
            return super()._slice(setup, stopping, streams)
        # Loaded with the backend, which resolving it to numpy did.
        from repro.sim.kernels.numpy_backend import LOCKSTEP_TRIALS

        if len(streams) < LOCKSTEP_TRIALS:
            return super()._slice(setup, stopping, streams)
        if not isinstance(streams, ChildStreams):
            streams = list(streams)
            if len(set(map(id, streams))) < len(streams):
                # A generator listed twice continues from its earlier trial.
                return super()._slice(setup, stopping, streams)
        compiled = self.compiled
        final_counts, times, firings, codes, clauses = setup.backend.run_direct_slice(
            compiled, plan, streams, setup.start, setup.buffers,
            setup.opts.max_time, setup.opts.max_steps, setup.block_size,
        )
        stop_reasons, stop_details = stop_columns(codes, clauses, plan, self.method_name)
        return BatchResult(
            species=compiled.species,
            final_counts=final_counts,
            final_times=times,
            firing_counts=firings,
            stop_reasons=stop_reasons,
            stop_details=stop_details,
        )
