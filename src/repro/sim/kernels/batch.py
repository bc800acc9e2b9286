"""Columnar batch sweep: the whole-ensemble lock-step loop as one kernel.

The batched direct-method engine advances every unfinished trial together,
one reaction event per trial per step.  This module supplies the pieces that
turn that loop into a *kernel* in the same sense as the per-trial kernels in
this package:

* :class:`BatchBuffers` — every cross-trial array the sweep touches (count
  matrix, propensity matrix, per-trial clocks, step counters, firing totals,
  stop flags, the active-trial index list), allocated once per ensemble
  chunk and reused across runs of the same width — including the adaptive
  controller's doubling rounds, which re-enter ``run_batch`` on the same
  engine object many times;
* :class:`BatchSweepJob` — the argument bundle handed to a backend's
  ``run_batch`` (the batch analogue of :class:`~repro.sim.kernels.backend
  .KernelJob`);
* :func:`run_batch_sweep` — the numpy reference implementation of the
  sweep, consuming pre-drawn :class:`~repro.sim.kernels.blocks.RandomBlocks`
  and evaluating the compiled :class:`~repro.sim.kernels.plan.StoppingPlan`
  as vectorized masks;
* :func:`plan_clause_hits` — the vectorized clause-table check shared by the
  t=0 pre-pass and the reference sweep;
* :func:`callback_hits` — the per-row check of a callback plan (a stopping
  condition with no clause encoding), run by the t=0 pre-pass and the numpy
  sweep only; backend resolution never hands the numba sweep such a plan.

Determinism contract (mirrored by the numba batch kernel)
---------------------------------------------------------
Both backends consume the same :class:`RandomBlocks` stream in the same
order, so a seeded batch is bit-identical across numpy and numba:

1. per step, propensity rows are rebuilt for the active trials in ascending
   trial order, with row totals accumulated left to right over the natural
   reaction order (``0 + p₀ + p₁ + …`` — *not* ``np.sum``, whose pairwise
   summation orders the additions differently);
2. trials whose total is non-positive stop (``EXHAUSTED``) and are compacted
   out *before* any randomness is consumed;
3. both block refills are checked up front (exp first, then uniform, each
   with ``need = n_active``), so a numba ``NEED_*`` exit always re-enters at
   a point where no randomness has been consumed this step;
4. one exponential is consumed per active trial in order (``wait = exp /
   total``); trials pushed past ``max_time`` stop *after* consuming their
   draw (the over-horizon event never fires) and are compacted out;
5. one uniform is consumed per surviving trial in order (``threshold = uni ·
   total``); the fired reaction inverts the row CDF in natural reaction
   order (the count of ``threshold >= cdf`` entries equals the first index
   with ``threshold < cdf`` because the CDF is non-decreasing), with the
   same largest-propensity fallback as the per-trial kernels;
6. the stopping plan is evaluated first-satisfied-clause-wins, then the
   ``max_steps`` guard — condition beats the step cap on ties, exactly like
   the per-trial kernels.  (A callback plan is evaluated per active row in
   the same place; only the numpy sweep runs callback plans.)

Any arithmetic change here must be mirrored in the ``batch-direct`` step of
:mod:`repro.sim.kernels.numba_backend`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.kernels.blocks import MAX_BLOCK, RandomBlocks
from repro.sim.kernels.network import KernelNetwork
from repro.sim.kernels.plan import StoppingPlan

__all__ = [
    "BatchBuffers",
    "BatchSweepJob",
    "batch_random_blocks",
    "callback_hits",
    "plan_clause_hits",
    "run_batch_sweep",
]

#: stop_codes value for a trial that is still running.
RUNNING = -1


class BatchBuffers:
    """Preallocated cross-trial state for the columnar batch sweep.

    One instance lives on the batch engine and is resized monotonically:
    :meth:`ensure` reallocates only when the requested capacity or network
    shape exceeds what is already held, so the adaptive controller's
    doubling rounds (many ``run_batch`` calls of the same chunk width on one
    engine) reuse the same arrays round after round.  ``allocations`` counts
    the reallocation events — regression tests assert it stays at one across
    rounds.
    """

    def __init__(self) -> None:
        self.capacity = 0
        self.n_species = -1
        self.n_reactions = -1
        #: number of (re)allocation events (for buffer-reuse regression tests).
        self.allocations = 0
        self.counts: "np.ndarray | None" = None
        self.times: "np.ndarray | None" = None
        self.steps: "np.ndarray | None" = None
        self.firings: "np.ndarray | None" = None
        self.stop_codes: "np.ndarray | None" = None
        self.clauses: "np.ndarray | None" = None
        self.active: "np.ndarray | None" = None
        self.propensities: "np.ndarray | None" = None
        self.totals: "np.ndarray | None" = None

    def ensure(self, capacity: int, n_species: int, n_reactions: int) -> None:
        """Guarantee room for ``capacity`` trials of the given network shape."""
        if (
            self.counts is not None
            and capacity <= self.capacity
            and n_species == self.n_species
            and n_reactions == self.n_reactions
        ):
            return
        self.capacity = int(capacity)
        self.n_species = int(n_species)
        self.n_reactions = int(n_reactions)
        self.allocations += 1
        self.counts = np.zeros((capacity, n_species), dtype=np.int64)
        self.times = np.zeros(capacity, dtype=np.float64)
        self.steps = np.zeros(capacity, dtype=np.int64)
        self.firings = np.zeros((capacity, n_reactions), dtype=np.int64)
        self.stop_codes = np.full(capacity, RUNNING, dtype=np.int64)
        self.clauses = np.full(capacity, -1, dtype=np.int64)
        self.active = np.zeros(capacity, dtype=np.int64)
        self.propensities = np.zeros((capacity, n_reactions), dtype=np.float64)
        self.totals = np.zeros(capacity, dtype=np.float64)

    def reset(self, n: int, start: np.ndarray) -> None:
        """Reinitialize the first ``n`` rows for a fresh batch."""
        self.counts[:n] = start
        self.times[:n] = 0.0
        self.steps[:n] = 0
        self.firings[:n] = 0
        self.stop_codes[:n] = RUNNING
        self.clauses[:n] = -1


@dataclass
class BatchSweepJob:
    """Everything one batch-sweep invocation needs, bundled.

    The buffers carry the results out (stop codes, clause indices, final
    counts/times/firings in their first ``n_trials`` rows); ``n_active`` is
    the number of still-running trials listed in ``buffers.active`` after
    the shared t=0 stopping pre-pass.  For a callback plan, ``details`` (an
    object array of ``n_trials``) receives each condition stop's detail.
    """

    knet: KernelNetwork
    plan: StoppingPlan
    buffers: BatchBuffers
    blocks: RandomBlocks
    n_trials: int
    n_active: int
    max_time: float
    max_steps: int
    details: "np.ndarray | None" = None


def batch_random_blocks(rng: np.random.Generator, n_trials: int) -> RandomBlocks:
    """The pre-drawn random blocks for one batch run.

    The first sweep step needs up to one exponential and one uniform per
    trial, so the blocks start at batch width (bounded, for the mega-batch
    sizes, by a few MiB per block) and may grow to a small multiple of it.
    The sizing is a pure function of ``n_trials``, and both backends share
    the one instance created here, so refill points — and therefore the
    exact values drawn — are identical across backends and runs.
    """
    initial = max(64, min(2 * n_trials, 1 << 21))
    maximum = max(MAX_BLOCK, min(4 * n_trials, 1 << 22))
    return RandomBlocks(rng, initial=initial, maximum=maximum)


def plan_clause_hits(
    plan: StoppingPlan, counts: np.ndarray, firings: np.ndarray
) -> np.ndarray:
    """First satisfied clause index per row, or -1 (vectorized ``plan_hit``).

    Clauses are applied in order over an ``undecided`` mask, so the first
    satisfied clause wins per trial — the same order the per-trial kernels'
    scalar ``plan_hit`` walks.  All comparisons are integer-exact.
    """
    k = counts.shape[0]
    hits = np.full(k, -1, dtype=np.int64)
    if plan.n_clauses == 0 or k == 0:
        return hits
    undecided = np.ones(k, dtype=bool)
    for ci, (kind, target, level, members) in enumerate(plan.py_clauses()):
        if kind == 0:
            mask = counts[:, target] >= level
        elif kind == 1:
            mask = counts[:, target] <= level
        elif kind == 3:
            mask = firings[:, target] >= level
        else:
            if members:
                mask = firings[:, list(members)].sum(axis=1) >= level
            else:
                mask = np.zeros(k, dtype=bool)
        mask &= undecided
        hits[mask] = ci
        undecided &= ~mask
        if not undecided.any():
            break
    return hits


def callback_hits(
    callback, counts: np.ndarray, firings: np.ndarray, times: np.ndarray,
    rows: np.ndarray, details: np.ndarray,
) -> np.ndarray:
    """Mask over ``rows`` of the trials whose callback-plan check fires.

    Calls ``callback(time, counts, firing_counts)`` once per listed trial, in
    ``rows`` order, on views of that trial's buffer rows; each returned
    detail string is stored in ``details[trial]``.
    """
    hit = np.zeros(rows.size, dtype=bool)
    for r, t in enumerate(rows.tolist()):
        detail = callback(float(times[t]), counts[t], firings[t])
        if detail is not None:
            hit[r] = True
            details[t] = detail
    return hit


def run_batch_sweep(job: BatchSweepJob) -> None:
    """Advance every active trial to its stop: the numpy reference sweep.

    Mutates ``job.buffers`` in place; when it returns, every trial in the
    batch has a stop code.  See the module docstring for the op-order
    contract the numba batch kernel mirrors.
    """
    knet = job.knet
    plan = job.plan
    buffers = job.buffers
    blocks = job.blocks
    nr = knet.n_reactions
    max_time = job.max_time
    max_steps = job.max_steps

    counts = buffers.counts
    times = buffers.times
    steps = buffers.steps
    firings = buffers.firings
    stop_codes = buffers.stop_codes
    clauses = buffers.clauses
    active = buffers.active
    n_clauses = plan.n_clauses
    callback = plan.callback
    delta_matrix = knet.delta_matrix

    # Stop codes (values shared with backend.py; imported locally to avoid a
    # circular import at module load).
    from repro.sim.kernels.backend import (
        STOP_CONDITION,
        STOP_EXHAUSTED,
        STOP_MAX_STEPS,
        STOP_MAX_TIME,
    )

    exp = blocks.exponential
    exp_pos, exp_len = 0, exp.shape[0]
    uni = blocks.uniform
    uni_pos, uni_len = 0, uni.shape[0]

    n_active = job.n_active
    while n_active:
        idx = active[:n_active]
        prop = knet.propensity_matrix(counts[idx])
        # Left-to-right column accumulation: matches the numba kernel's
        # sequential per-row sum bit for bit (np.sum is pairwise).
        totals = np.zeros(n_active, dtype=np.float64)
        for j in range(nr):
            totals += prop[:, j]

        alive = totals > 0.0
        if not alive.all():
            dead_idx = idx[~alive]
            stop_codes[dead_idx] = STOP_EXHAUSTED
            idx = idx[alive]
            n_active = idx.size
            if n_active == 0:
                break
            prop = prop[alive]
            totals = totals[alive]
            active[:n_active] = idx
            idx = active[:n_active]

        # Both refills checked before any consumption (numba NEED_* exits
        # re-enter at the top of the step, so nothing may be consumed yet).
        if exp_len - exp_pos < n_active:
            exp = blocks.refill_exponential(exp_pos, need=n_active)
            exp_pos, exp_len = 0, exp.shape[0]
        if uni_len - uni_pos < n_active:
            uni = blocks.refill_uniform(uni_pos, need=n_active)
            uni_pos, uni_len = 0, uni.shape[0]

        waits = exp[exp_pos : exp_pos + n_active] / totals
        exp_pos += n_active
        new_times = times[idx] + waits
        overtime = new_times > max_time
        if overtime.any():
            over_idx = idx[overtime]
            times[over_idx] = max_time
            stop_codes[over_idx] = STOP_MAX_TIME
            keep = ~overtime
            idx = idx[keep]
            n_active = idx.size
            if n_active == 0:
                continue
            prop = prop[keep]
            totals = totals[keep]
            new_times = new_times[keep]
            active[:n_active] = idx
            idx = active[:n_active]

        thresholds = uni[uni_pos : uni_pos + n_active] * totals
        uni_pos += n_active

        # CDF inversion in natural reaction order; the count of entries the
        # threshold clears equals the first index it does not (the CDF is
        # non-decreasing), which is what the numba kernel's scan computes.
        cdf = np.cumsum(prop, axis=1)
        chosen = np.minimum((thresholds[:, None] >= cdf).sum(axis=1), nr - 1)
        picked = prop[np.arange(n_active), chosen]
        zero_picked = picked <= 0.0
        if zero_picked.any():
            # Floating point placed a threshold past the last positive entry;
            # fall back to the largest-propensity reaction (first max).
            chosen[zero_picked] = np.argmax(prop[zero_picked], axis=1)

        times[idx] = new_times
        counts[idx] += delta_matrix[chosen]
        firings[idx, chosen] += 1
        steps[idx] += 1

        if n_clauses:
            hits = plan_clause_hits(plan, counts[idx], firings[idx])
            hit_mask = hits >= 0
            if hit_mask.any():
                hit_idx = idx[hit_mask]
                stop_codes[hit_idx] = STOP_CONDITION
                clauses[hit_idx] = hits[hit_mask]
                idx = idx[~hit_mask]
        elif callback is not None:
            hit_mask = callback_hits(callback, counts, firings, times, idx, job.details)
            if hit_mask.any():
                stop_codes[idx[hit_mask]] = STOP_CONDITION
                idx = idx[~hit_mask]

        capped = steps[idx] >= max_steps
        if capped.any():
            cap_idx = idx[capped]
            stop_codes[cap_idx] = STOP_MAX_STEPS
            idx = idx[~capped]

        n_active = idx.size
        active[:n_active] = idx
