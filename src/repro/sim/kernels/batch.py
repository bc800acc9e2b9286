"""Columnar batch sweep: the whole-ensemble lock-step loop as one kernel.

The batched direct-method engine advances every unfinished trial together,
one reaction event per trial per step.  This module supplies the pieces that
turn that loop into a *kernel* in the same sense as the per-trial kernels in
this package:

* :class:`BatchBuffers` — every cross-trial array the sweep touches (count
  matrix, propensity matrix, per-trial clocks, step counters, firing totals,
  stop flags, the active-trial index list), allocated once per engine and
  reused across runs that fit — including the adaptive controller's
  doubling rounds, which re-enter the engine many times;
* :class:`BatchSegment` / :class:`BatchSweepJob` — the argument bundle
  handed to a backend's ``run_batch`` (the batch analogue of
  :class:`~repro.sim.kernels.backend.KernelJob`): one segment per chunk of
  a *group* of chunks swept together;
* :func:`run_batch_sweep` — the numpy reference implementation of the
  sweep, consuming pre-drawn :class:`~repro.sim.kernels.blocks.RandomBlocks`
  and evaluating the compiled :class:`~repro.sim.kernels.plan.StoppingPlan`
  as vectorized masks;
* :func:`plan_clause_hits` — the vectorized clause-table check shared by the
  t=0 pre-pass and the reference sweep;
* :func:`callback_hits` — the per-row check of a callback plan (a stopping
  condition with no clause encoding), run by the t=0 pre-pass and the numpy
  sweep only; backend resolution never hands the numba sweep such a plan;
* :func:`group_trials` — how many trials one fused sweep may hold.

Chunks and groups
-----------------
The *chunk* is the seeding unit: each chunk of an ensemble draws from its
own generator, sub-seeded from its bounds, so results do not depend on how
chunks are scheduled.  The *group* is the execution unit: the numpy sweep
advances a group of consecutive chunks in one pass (one segment of buffer
rows per chunk), paying the per-step fixed cost of a sweep once per group
instead of once per chunk.  Each segment consumes its own chunk's blocks in
exactly the order a sweep of that chunk alone would, so grouping changes no
seeded result; a single chunk is the one-segment case.  Groups are capped
at :data:`GROUP_CELLS` cross-trial matrix cells, which bounds the sweep's
memory.

Determinism contract (mirrored by the numba batch kernel)
---------------------------------------------------------
Every chunk consumes its own :class:`RandomBlocks` stream, and both backends
consume it in the same order, so a seeded batch is bit-identical across
numpy and numba and across groupings.  Per chunk:

1. per step, propensity rows are rebuilt for the active trials in ascending
   trial order, with row totals accumulated left to right over the natural
   reaction order (``0 + p₀ + p₁ + …`` — *not* ``np.sum``, whose pairwise
   summation orders the additions differently);
2. trials whose total is non-positive stop (``EXHAUSTED``) and are compacted
   out *before* any randomness is consumed;
3. both block refills are checked up front (exp first, then uniform, each
   with ``need`` = the chunk's active count), so a numba ``NEED_*`` exit
   always re-enters at a point where no randomness has been consumed this
   step;
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

The order in which different chunks take their draws does not matter:
their generators are independent.  Any arithmetic change here must be
mirrored in the ``batch-direct`` step of
:mod:`repro.sim.kernels.numba_backend`, which sweeps a group one segment at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.kernels.blocks import MAX_BLOCK, RandomBlocks
from repro.sim.kernels.network import KernelNetwork
from repro.sim.kernels.plan import StoppingPlan

__all__ = [
    "GROUP_CELLS",
    "BatchBuffers",
    "BatchSegment",
    "BatchSweepJob",
    "batch_random_blocks",
    "callback_hits",
    "group_trials",
    "plan_clause_hits",
    "run_batch_sweep",
]

#: stop_codes value for a trial that is still running.
RUNNING = -1

#: Cap on one fused sweep's cross-trial matrix cells: 2048 trials of the
#: paper's Example 1 (18 reactions).  Wider groups buy little run time for
#: their memory.  Example 1 estimated to CI half-width 0.01 (16384 trials,
#: numpy, 2-vCPU Xeon host, median of 3 fresh processes, growth of peak RSS
#: during the run): one chunk per sweep 2.53 s / +4.0 MiB; caps of 1024
#: trials 1.26 s / +4.4 MiB, 2048 1.16 s / +5.9 MiB, 4096 1.05 s /
#: +7.6 MiB, 8192 1.13 s / +13.1 MiB.
GROUP_CELLS = 2048 * 18


def group_trials(n_species: int, n_reactions: int) -> int:
    """Most trials one fused sweep holds: :data:`GROUP_CELLS` over the row width.

    A row is as wide as the wider of the count and propensity matrices, so
    the cap bounds both.  At least one trial, so any chunk can run.
    """
    return max(1, GROUP_CELLS // max(n_species, n_reactions, 1))


class BatchBuffers:
    """Preallocated cross-trial state for the columnar batch sweep.

    One instance lives on the batch engine and is resized monotonically:
    :meth:`ensure` reallocates only when the requested capacity or network
    shape exceeds what is already held, so the adaptive controller's
    doubling rounds (many sweeps on one engine, reserved for the widest
    group on first use) reuse the same arrays round after round.
    ``allocations`` counts the reallocation events — regression tests assert
    it stays at one across rounds.
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
class BatchSegment:
    """One chunk of a fused sweep: its buffer rows and its random stream.

    The chunk owns buffer rows ``[start, stop)`` and draws only from
    ``blocks``.  ``n_active`` counts its trials still running after the
    shared t=0 stopping pre-pass; they are listed, as buffer row indices in
    ascending order, in ``buffers.active[start:start + n_active]``.
    """

    start: int
    stop: int
    blocks: RandomBlocks
    n_active: int


@dataclass
class BatchSweepJob:
    """Everything one batch-sweep invocation needs, bundled.

    The buffers carry the results out (stop codes, clause indices, final
    counts/times/firings in their first ``n_trials`` rows, the segments'
    rows in order).  For a callback plan, ``details`` (an object array of
    ``n_trials``) receives each condition stop's detail.
    """

    knet: KernelNetwork
    plan: StoppingPlan
    buffers: BatchBuffers
    segments: "tuple[BatchSegment, ...]"
    n_trials: int
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


def _segment_sizes(idx: np.ndarray, starts: np.ndarray) -> "list[int]":
    """Active trials per segment; ``idx`` is ascending, so each segment's
    rows are one run of it."""
    if starts.size == 1:
        return [idx.size]
    edges = np.searchsorted(idx, starts).tolist()
    edges.append(idx.size)
    return [stop - start for start, stop in zip(edges, edges[1:])]


def _take(blocks: list, positions: list, sizes: "list[int]") -> np.ndarray:
    """The next ``sizes[k]`` values of each segment's block, concatenated."""
    parts = []
    for k, n in enumerate(sizes):
        if n:
            parts.append(blocks[k][positions[k] : positions[k] + n])
            positions[k] += n
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def run_batch_sweep(job: BatchSweepJob) -> None:
    """Advance every active trial of every segment to its stop.

    The numpy reference sweep: one pass over the whole group, each segment
    drawing from its own blocks.  Mutates ``job.buffers`` in place; when it
    returns, every trial in the batch has a stop code.  See the module
    docstring for the op-order contract the numba batch kernel mirrors.
    """
    knet = job.knet
    plan = job.plan
    buffers = job.buffers
    segments = job.segments
    nr = knet.n_reactions
    max_time = job.max_time
    max_steps = job.max_steps

    counts = buffers.counts
    times = buffers.times
    steps = buffers.steps
    firings = buffers.firings
    stop_codes = buffers.stop_codes
    clauses = buffers.clauses
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

    # Per-segment block cursors; a refill replaces that segment's block.
    exp = [segment.blocks.exponential for segment in segments]
    uni = [segment.blocks.uniform for segment in segments]
    exp_pos = [0] * len(segments)
    uni_pos = [0] * len(segments)
    starts = np.array([segment.start for segment in segments], dtype=np.int64)

    # The active rows of all segments, ascending: segment by segment.
    idx = np.concatenate(
        [buffers.active[s.start : s.start + s.n_active] for s in segments]
    )
    while idx.size:
        prop = knet.propensity_matrix(counts[idx])
        # Left-to-right column accumulation: matches the numba kernel's
        # sequential per-row sum bit for bit (np.sum is pairwise).
        totals = np.zeros(idx.size, dtype=np.float64)
        for j in range(nr):
            totals += prop[:, j]

        alive = totals > 0.0
        if not alive.all():
            stop_codes[idx[~alive]] = STOP_EXHAUSTED
            idx = idx[alive]
            if idx.size == 0:
                break
            prop = prop[alive]
            totals = totals[alive]

        # Both refills checked before any consumption, per segment (numba
        # NEED_* exits re-enter at the top of the step, so nothing may be
        # consumed yet).
        sizes = _segment_sizes(idx, starts)
        for k, n in enumerate(sizes):
            if not n:
                continue
            if exp[k].shape[0] - exp_pos[k] < n:
                exp[k] = segments[k].blocks.refill_exponential(exp_pos[k], need=n)
                exp_pos[k] = 0
            if uni[k].shape[0] - uni_pos[k] < n:
                uni[k] = segments[k].blocks.refill_uniform(uni_pos[k], need=n)
                uni_pos[k] = 0

        waits = _take(exp, exp_pos, sizes) / totals
        new_times = times[idx] + waits
        overtime = new_times > max_time
        if overtime.any():
            over_idx = idx[overtime]
            times[over_idx] = max_time
            stop_codes[over_idx] = STOP_MAX_TIME
            keep = ~overtime
            idx = idx[keep]
            if idx.size == 0:
                continue
            prop = prop[keep]
            totals = totals[keep]
            new_times = new_times[keep]
            sizes = _segment_sizes(idx, starts)

        thresholds = _take(uni, uni_pos, sizes) * totals

        # CDF inversion in natural reaction order; the count of entries the
        # threshold clears equals the first index it does not (the CDF is
        # non-decreasing), which is what the numba kernel's scan computes.
        cdf = np.cumsum(prop, axis=1)
        chosen = np.minimum((thresholds[:, None] >= cdf).sum(axis=1), nr - 1)
        picked = prop[np.arange(idx.size), chosen]
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
            stop_codes[idx[capped]] = STOP_MAX_STEPS
            idx = idx[~capped]
