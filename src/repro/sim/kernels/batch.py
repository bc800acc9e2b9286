"""Columnar batch sweep: the whole-ensemble lock-step loop as one kernel.

The batched direct-method engine advances every unfinished trial together,
one reaction event per trial per step.  This module supplies the pieces that
turn that loop into a *kernel* in the same sense as the per-trial kernels in
this package:

* :class:`BatchBuffers` — the per-trial rows a sweep reads its starting
  state from and leaves every final state in (counts, clocks, step
  counters, firing totals, stop codes, clause indices, the active-trial
  index list), allocated once per engine and reused across runs that fit —
  including the adaptive controller's adaptive rounds, which re-enter the
  engine many times;
* :class:`BatchSegment` / :class:`BatchSweepJob` — the argument bundle
  handed to a backend's ``run_batch`` (the batch analogue of
  :class:`~repro.sim.kernels.backend.KernelJob`): one segment per chunk of
  a *group* of chunks swept together;
* :func:`run_batch_sweep` — the numpy reference implementation of the
  sweep, consuming pre-drawn :class:`~repro.sim.kernels.blocks.RandomBlocks`
  and evaluating the compiled :class:`~repro.sim.kernels.plan.StoppingPlan`
  as vectorized masks over rows of its working state;
* :func:`plan_clause_hits` — the vectorized clause-table check shared by the
  t=0 pre-pass and the reference sweep (species-major counts,
  reaction-major firings);
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

The working state
-----------------
The numpy sweep never works on the buffers' trial-major rows.  It copies
the group's active trials once into a compacted working state with one
*column* per trial, in ascending buffer-row order (so each segment's
trials are one run of columns): counts as a species × trials float64 array
(exact for integer counts below 2⁵³; integer deltas add to it exactly, and
clause levels compare exactly against it), firing totals as a reactions ×
trials int64 array, plus per-trial clocks and step counters.  Every
per-step operation then runs on contiguous rows: one or two row multiplies
per reaction for the propensities
(:meth:`~repro.sim.kernels.network.KernelNetwork.propensity_matrix`), the
CDF accumulated row by row in place, one compare-and-count over the CDF
rows for the pick, the deltas gathered for all species rows at once, and
the plan clauses checked on rows.  A trial reaches its buffer rows once,
when it stops: its column is written back (counts converted to int64) and
dropped, and segment sizes are recomputed only after such a compaction.
When the sweep returns, rows ``[0, n_trials)`` of the buffers hold every
trial's final state, exactly as the numba kernel, which works on the
buffer rows in place, leaves them.

Determinism contract (mirrored by the numba batch kernel)
---------------------------------------------------------
Every chunk consumes its own :class:`RandomBlocks` stream, and both backends
consume it in the same order, so a seeded batch is bit-identical across
numpy and numba and across groupings.  Per chunk:

1. per step, propensities are rebuilt for the active trials in ascending
   trial order, each element ``rate · f(c₁) · f(c₂) …`` evaluated left to
   right (commuting a product is exact, reassociating is not); the CDF is
   accumulated in the natural reaction order (``cdf[j] = cdf[j−1] + p[j]``
   — *not* ``np.sum``, whose pairwise summation orders the additions
   differently), and its last row is each trial's total.  That row equals
   the numba kernel's running ``0 + p₀ + p₁ + …`` bit for bit: adding the
   leading ``0`` changes nothing but the sign of a zero, which only the
   ``total > 0`` test below reads;
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
   total``); the fired reaction inverts the CDF in natural reaction order
   (the count of ``threshold >= cdf`` entries equals the first index with
   ``threshold < cdf`` because the CDF is non-decreasing), clamped to the
   last reaction, with the same largest-propensity (first max) fallback as
   the per-trial kernels when the picked propensity is not positive.  Only
   a clamped pick can need it: an unclamped pick ``J`` has ``cdf[J] >
   threshold ≥ cdf[J−1]`` (``threshold ≥ 0`` for ``J = 0``), so ``p[J] >
   0``.  The numpy sweep therefore keeps only the last propensity row and
   recomputes the full propensities for the rare clamped trials whose last
   propensity is zero;
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

    One row per trial: ``counts`` / ``firings`` (trial-major, int64),
    ``times``, ``steps``, ``stop_codes`` and ``clauses`` hold each trial's
    starting state going in and its final state coming out; ``active``
    lists the trials still running after the t=0 pre-pass.
    ``propensities`` and ``totals`` are scratch space for the numba kernel
    only; the numpy sweep keeps its own working state (see the module
    docstring).

    One instance lives on the batch engine and is resized monotonically:
    :meth:`ensure` reallocates only when the requested capacity or network
    shape exceeds what is already held, so the adaptive controller's
    adaptive rounds (many sweeps on one engine, reserved for the widest
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
    trial, so the blocks start at batch width (bounded, for the widest
    chunks, by a few MiB per block) and may grow to a small multiple of it.
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
    """First satisfied clause index per trial, or -1 (vectorized ``plan_hit``).

    ``counts`` is species-major ``(n_species, k)`` and ``firings``
    reaction-major ``(n_reactions, k)``, one column per trial, so each clause
    reads whole rows.  Clauses are applied in order over an ``undecided``
    mask, so the first satisfied clause wins per trial — the same order the
    per-trial kernels' scalar ``plan_hit`` walks.  Comparisons are exact for
    integer counts, whether held as int64 or as float64 below 2⁵³.
    """
    k = counts.shape[1]
    hits = np.full(k, -1, dtype=np.int64)
    if plan.n_clauses == 0 or k == 0:
        return hits
    undecided = np.ones(k, dtype=bool)
    for ci, (kind, target, level, members) in enumerate(plan.py_clauses()):
        if kind == 0:
            mask = counts[target] >= level
        elif kind == 1:
            mask = counts[target] <= level
        elif kind == 3:
            mask = firings[target] >= level
        else:
            if members:
                mask = firings[list(members)].sum(axis=0) >= level
            else:
                mask = np.zeros(k, dtype=bool)
        mask &= undecided
        if mask.any():
            hits[mask] = ci
            undecided &= ~mask
            if not undecided.any():
                break
    return hits


def callback_hits(
    callback, counts: np.ndarray, firings: np.ndarray, times: np.ndarray,
    details: np.ndarray,
) -> np.ndarray:
    """Mask of the trials whose callback-plan check fires.

    Row ``r`` of ``counts`` (int64) and ``firings`` and ``times[r]`` are one
    trial's state.  Calls ``callback(time, counts, firing_counts)`` once per
    row, in row order; each returned detail string is stored in
    ``details[r]``.
    """
    hit = np.zeros(times.size, dtype=bool)
    for r in range(times.size):
        detail = callback(float(times[r]), counts[r], firings[r])
        if detail is not None:
            hit[r] = True
            details[r] = detail
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


def _accumulate_rows(cdf: np.ndarray) -> None:
    """Turn propensity rows into the CDF in place: row j += row j−1.

    Natural reaction order, so the last row is the total ``0 + p₀ + p₁ + …``
    bit for bit (up to the sign of an all-zero sum, which only ``total > 0``
    reads).  A function of its own so that no loop variable keeps the CDF
    alive after the sweep frees it.
    """
    for previous, row in zip(cdf, cdf[1:]):
        np.add(row, previous, out=row)


class _Columns:
    """The sweep's working state: one column per active trial.

    Columns stay in ascending buffer-row order (``rows``), so each segment's
    trials are one run of columns.  ``counts`` is species × trials float64
    (exact for integer counts below 2⁵³, and integer deltas add to it
    exactly), ``firings`` reactions × trials int64, C-contiguous so a flat
    index addresses it; ``times`` and ``steps`` are per trial.  A trial
    reaches its buffer rows once, when :meth:`retire` drops it.
    """

    def __init__(self, buffers: BatchBuffers, rows: np.ndarray) -> None:
        self.buffers = buffers
        self.rows = rows
        self.counts = buffers.counts[rows].T.astype(np.float64, order="C")
        self.firings = np.ascontiguousarray(buffers.firings[rows].T)
        self.times = buffers.times[rows]
        self.steps = buffers.steps[rows]

    @property
    def size(self) -> int:
        return self.rows.size

    def retire(self, stopped: np.ndarray, codes) -> np.ndarray:
        """Write the ``stopped`` columns back with their stop ``codes``, drop them.

        ``codes`` is one code or one per column.  Returns the kept columns'
        positions, for compacting step-local arrays alongside.
        """
        buffers = self.buffers
        rows = self.rows[stopped]
        buffers.counts[rows] = self.counts[:, stopped].T.astype(np.int64)
        buffers.firings[rows] = self.firings[:, stopped].T
        buffers.times[rows] = self.times[stopped]
        buffers.steps[rows] = self.steps[stopped]
        buffers.stop_codes[rows] = codes if np.isscalar(codes) else codes[stopped]
        kept = np.flatnonzero(~stopped)
        self.rows = self.rows[kept]
        self.counts = self.counts.take(kept, axis=1)
        self.firings = self.firings.take(kept, axis=1)
        self.times = self.times[kept]
        self.steps = self.steps[kept]
        return kept


def run_batch_sweep(job: BatchSweepJob) -> None:
    """Advance every active trial of every segment to its stop.

    The numpy reference sweep: one pass over the whole group, each segment
    drawing from its own blocks, on a working state of one column per
    active trial (see the module docstring).  When it returns, rows
    ``[0, n_trials)`` of ``job.buffers`` hold every trial's final state and
    stop code.  See the module docstring for the op-order contract the
    numba batch kernel mirrors.
    """
    knet = job.knet
    plan = job.plan
    segments = job.segments
    nr = knet.n_reactions
    max_time = job.max_time
    max_steps = job.max_steps
    n_clauses = plan.n_clauses
    callback = plan.callback

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
    work = _Columns(job.buffers, np.concatenate(
        [job.buffers.active[s.start : s.start + s.n_active] for s in segments]
    ))
    deltas = knet.delta_matrix.T.astype(np.float64)  # species × reactions
    # Compare-and-count sums a bool matrix as bytes when the count fits one.
    count_dtype = np.uint8 if nr < 256 else np.intp
    sizes = _segment_sizes(work.rows, starts)
    while work.size:
        cdf = knet.propensity_matrix(work.counts)
        # Only a clamped pick can land on a zero propensity, and it lands
        # on the last reaction: keep that row for the fallback check.
        last = cdf[nr - 1].copy()
        _accumulate_rows(cdf)
        totals = cdf[nr - 1]

        alive = totals > 0.0
        if not alive.all():
            kept = work.retire(~alive, STOP_EXHAUSTED)
            if not work.size:
                break
            cdf = cdf.take(kept, axis=1)
            last = last[kept]
            totals = cdf[nr - 1]
            sizes = _segment_sizes(work.rows, starts)

        # Both refills checked before any consumption, per segment (numba
        # NEED_* exits re-enter at the top of the step, so nothing may be
        # consumed yet).
        for i, n in enumerate(sizes):
            if not n:
                continue
            if exp[i].shape[0] - exp_pos[i] < n:
                exp[i] = segments[i].blocks.refill_exponential(exp_pos[i], need=n)
                exp_pos[i] = 0
            if uni[i].shape[0] - uni_pos[i] < n:
                uni[i] = segments[i].blocks.refill_uniform(uni_pos[i], need=n)
                uni_pos[i] = 0

        work.times = work.times + _take(exp, exp_pos, sizes) / totals
        overtime = work.times > max_time
        if overtime.any():
            # The over-horizon event never fires.
            work.times[overtime] = max_time
            kept = work.retire(overtime, STOP_MAX_TIME)
            if not work.size:
                continue
            cdf = cdf.take(kept, axis=1)
            last = last[kept]
            totals = cdf[nr - 1]
            sizes = _segment_sizes(work.rows, starts)

        thresholds = _take(uni, uni_pos, sizes) * totals

        # CDF inversion: the count of rows the threshold clears equals the
        # first row it does not (the CDF is non-decreasing), which is what
        # the numba kernel's scan computes.
        chosen = (cdf <= thresholds).view(np.uint8).sum(axis=0, dtype=count_dtype)
        chosen = chosen.astype(np.intp)
        clamped = np.flatnonzero(chosen == nr)
        if clamped.size:
            chosen[clamped] = nr - 1
            zero = clamped[last[clamped] <= 0.0]
            if zero.size:
                # Floating point placed a threshold past the last positive
                # entry; fall back to the largest-propensity reaction (first
                # max).
                chosen[zero] = np.argmax(
                    knet.propensity_matrix(work.counts[:, zero]), axis=0
                )
        # Free the step's CDF before the state update and any compaction
        # allocate theirs: this bounds the sweep's peak memory.
        del cdf, totals

        k = work.size
        work.counts += deltas.take(chosen, axis=1)
        np.add.at(work.firings.reshape(-1), chosen * k + np.arange(k), 1)
        work.steps += 1

        # Stopping plan (first satisfied clause wins), then max_steps.
        condition = None
        if n_clauses:
            hits = plan_clause_hits(plan, work.counts, work.firings)
            condition = hits >= 0
            if condition.any():
                job.buffers.clauses[work.rows[condition]] = hits[condition]
        elif callback is not None:
            found = np.full(k, None, dtype=object)
            condition = callback_hits(
                callback, work.counts.T.astype(np.int64), work.firings.T,
                work.times, found,
            )
            if condition.any():
                job.details[work.rows[condition]] = found[condition]
        stopped = work.steps >= max_steps
        if condition is not None:
            stopped |= condition
        if stopped.any():
            codes = STOP_MAX_STEPS
            if condition is not None:
                codes = np.where(condition, STOP_CONDITION, STOP_MAX_STEPS)
            work.retire(stopped, codes)
            sizes = _segment_sizes(work.rows, starts)
