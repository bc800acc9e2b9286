"""The numpy reference kernel backend.

These kernels are interpreted (CPython) implementations of the SSA firing
loops, hand-tuned for the interpreter: the per-event state (counts,
propensities, firing totals) lives in plain Python lists — which CPython
indexes several times faster than numpy scalars — while randomness comes
from pre-drawn :class:`~repro.sim.kernels.blocks.RandomBlocks` and events
land in the preallocated columnar
:class:`~repro.sim.kernels.buffers.TrajectoryBuffers`.  Stopping conditions
are evaluated as compiled :class:`~repro.sim.kernels.plan.StoppingPlan`
clause tables — no Python object dispatch survives inside the loop — except
for callback plans (conditions with no clause encoding), whose callback is
called after each event in a branch clause plans never enter.

This backend is the *reference* for the optional numba backend: both consume
the same random blocks with the same operation order (sums and CDF scans
accumulate left to right, waits are computed as ``exp / total``, thresholds
as ``uni * total``), so a seeded run is bit-identical across the two.  Any
change to an arithmetic expression here must be mirrored in
:mod:`repro.sim.kernels.numba_backend`.  The totals are added in a loop, not
by the builtin ``sum()``, whose float additions are compensated since
CPython 3.12.

The lock-step ``direct`` slice
------------------------------
:meth:`NumpyKernelBackend.run_direct_slice` runs a slice of ``direct``
trials (an ensemble chunk) together, one event per trial per step, on a
working state with one column per trial.  Unlike the ``batch-direct``
sweep (:mod:`repro.sim.kernels.batch`), which draws a whole chunk from one
stream, every trial keeps its own stream and draws exactly what
:func:`_run_direct` draws from it: its first blocks of exponentials and
then uniforms, then refills of doubling length at the top of the step that
finds them used up.  Each step mirrors :func:`_run_direct` operation for
operation:

1. every propensity is ``rate · h``, ``h`` the exact product of the
   reactant combination counts (exact in float64 while the counts stay
   small enough; larger trials are handed off first);
2. the total adds them left to right in reaction order; a trial whose
   total is not positive stops (``EXHAUSTED``) before any draw;
3. ``wait = exp / total``: an infinite wait stops the slice, which then
   raises as a run does; a trial pushed past ``max_time`` stops there
   after consuming its exponential;
4. ``threshold = uni · total``, and the pick inverts the CDF accumulated
   in ``scan_order``: the first entry above the threshold, else the last
   one, then the first largest propensity if the picked one is not
   positive;
5. after the firing the clause plan is checked, first satisfied clause
   winning (:func:`~repro.sim.kernels.batch.plan_clause_hits`), then
   ``max_steps``.

When fewer than :data:`LOCKSTEP_TRIALS` trials are left, each finishes on
:func:`_run_direct`, resumed at the top of its next step from its counts,
time, step count, firing totals, current blocks and block cursor; so does
a trial whose counts may outgrow exact float64 arithmetic, or whose refill
the block budget has no room for.  A slice's seeded rows are therefore
bit-identical to running its trials one after another.
"""

from __future__ import annotations

import math

import numpy as np

from repro.sim.kernels.backend import (
    STOP_CONDITION,
    STOP_EXHAUSTED,
    STOP_INVALID,
    STOP_MAX_STEPS,
    STOP_MAX_TIME,
    KernelBackend,
    KernelJob,
    KernelOutcome,
)
from repro.sim.kernels.batch import GROUP_CELLS, _accumulate_rows, plan_clause_hits
from repro.sim.kernels.blocks import MAX_BLOCK, RandomBlocks
from repro.sim.kernels.buffers import TrajectoryBuffers
from repro.sim.kernels.plan import StoppingPlan
from repro.sim.priority_queue import ArrayHeap
from repro.sim.propensity import CompiledNetwork
from repro.sim.rng import ChildStreams

__all__ = ["NumpyKernelBackend"]

_INF = math.inf


def _propensity(rates, reactants, counts, j) -> float:
    """Propensity of reaction ``j`` in ``counts`` (a list of ints), by exact
    integer combinatorics over the compiled network's Python views."""
    h = 1
    for s, n in reactants[j]:
        c = counts[s]
        if c < n:
            return 0.0
        if n == 1:
            h *= c
        elif n == 2:
            h *= c * (c - 1) // 2
        else:
            b = 1
            for i in range(n):
                b = b * (c - i) // (i + 1)
            h *= b
    return rates[j] * h


def _check_plan(plan_rows, counts, firing_counts) -> int:
    """First satisfied clause index, or -1 (mirrors the scalar check order)."""
    for ci, row in enumerate(plan_rows):
        kind = row[0]
        if kind == 0:
            if counts[row[1]] >= row[2]:
                return ci
        elif kind == 1:
            if counts[row[1]] <= row[2]:
                return ci
        elif kind == 3:
            if firing_counts[row[1]] >= row[2]:
                return ci
        else:
            total = 0
            for m in row[3]:
                total += firing_counts[m]
            if total >= row[2]:
                return ci
    return -1


def _callback_detail(callback, time, counts, firing_counts) -> "str | None":
    """A callback plan's check, given ndarray copies of the list-held state."""
    return callback(
        time, np.array(counts, dtype=np.int64), np.array(firing_counts, dtype=np.int64)
    )


def _run_direct(
    job: KernelJob,
    time: float = 0.0,
    steps: int = 0,
    firing_counts: "list[int] | None" = None,
    cursor: int = 0,
) -> KernelOutcome:
    """Gillespie direct method over preallocated buffers and random blocks.

    A trial starts at t=0 with no firings and its blocks unread.  The
    lock-step ``direct`` slice hands a trial over mid-run instead, at the
    top of a step: ``time``, ``steps`` and ``firing_counts`` are what it
    has reached, ``job.counts`` its counts, and ``job.blocks`` the blocks
    it is reading, from position ``cursor`` of both.
    """
    compiled = job.compiled
    views = compiled.py_views()
    rates = views["rates"]
    reactants = views["reactants"]
    changes = views["changes"]
    dependents = views["dependents"]
    scan_order = views["scan_order"]
    specs = views["specs"]
    nr = compiled.n_reactions
    counts = job.counts.tolist()
    firing_counts = [0] * nr if firing_counts is None else list(firing_counts)
    plan_rows = job.plan.py_clauses()
    n_clauses = len(plan_rows)
    callback = job.plan.callback
    max_time = job.max_time
    max_steps = job.max_steps
    record_firings = job.record_firings
    record_states = job.record_states
    stride = job.snapshot_stride
    buffers = job.buffers
    blocks = job.blocks

    times_buf = buffers.times
    fired_buf = buffers.reactions
    event_cap = times_buf.shape[0]
    n_events = 0
    snap_times = buffers.snapshot_times
    snaps = buffers.snapshots
    snap_cap = snap_times.shape[0]
    n_snaps = 0

    exp = blocks.exponential.tolist()
    exp_pos, exp_len = cursor, len(exp)
    uni = blocks.uniform.tolist()
    uni_pos, uni_len = cursor, len(uni)

    # Totals add left to right in reaction order, as the numba kernel and
    # the lock-step slice do: the builtin sum() compensates its float
    # additions since CPython 3.12, so its rounding depends on the version.
    prop = [_propensity(rates, reactants, counts, j) for j in range(nr)]
    total = 0.0
    for p in prop:
        total += p

    stop = STOP_EXHAUSTED
    clause = -1
    detail = None

    while True:
        if total <= 0.0:
            # Guard against accumulated floating-point drift: recompute once.
            total = 0.0
            for j in range(nr):
                prop[j] = _propensity(rates, reactants, counts, j)
                total += prop[j]
            if total <= 0.0:
                stop = STOP_EXHAUSTED
                break
        if exp_pos == exp_len:
            exp = blocks.refill_exponential(exp_pos).tolist()
            exp_pos, exp_len = 0, len(exp)
        if uni_pos == uni_len:
            uni = blocks.refill_uniform(uni_pos).tolist()
            uni_pos, uni_len = 0, len(uni)
        if record_firings and n_events == event_cap:
            buffers.n_events = n_events
            buffers.grow_events()
            times_buf = buffers.times
            fired_buf = buffers.reactions
            event_cap = times_buf.shape[0]
        if record_states and n_snaps == snap_cap:
            buffers.n_snapshots = n_snaps
            buffers.grow_snapshots()
            snap_times = buffers.snapshot_times
            snaps = buffers.snapshots
            snap_cap = snap_times.shape[0]

        wait = exp[exp_pos] / total
        exp_pos += 1
        if wait == _INF:
            stop = STOP_INVALID
            break
        if time + wait > max_time:
            time = max_time
            stop = STOP_MAX_TIME
            break
        threshold = uni[uni_pos] * total
        uni_pos += 1

        # Select the firing reaction by inverting the propensity CDF, probing
        # in descending-rate order (compiled.scan_order) so the dominant
        # reactions terminate the scan after a comparison or two.
        cumulative = 0.0
        chosen = scan_order[nr - 1]
        for j in scan_order:
            cumulative += prop[j]
            if threshold < cumulative:
                chosen = j
                break
        if prop[chosen] <= 0.0:
            # Floating point placed the threshold past the last positive
            # entry; fall back to the largest-propensity reaction.
            best = 0
            for j in range(1, nr):
                if prop[j] > prop[best]:
                    best = j
            chosen = best
            if prop[chosen] <= 0.0:
                stop = STOP_EXHAUSTED
                break

        time += wait
        for s, d in changes[chosen]:
            counts[s] += d
        firing_counts[chosen] += 1
        steps += 1
        if record_firings:
            times_buf[n_events] = time
            fired_buf[n_events] = chosen
            n_events += 1
        if record_states and steps % stride == 0:
            snap_times[n_snaps] = time
            snaps[n_snaps] = counts
            n_snaps += 1

        for j in dependents[chosen]:
            # Specialized closed forms for the dominant reaction shapes (the
            # generic reactant loop computes identical integers — see
            # CompiledNetwork.compile).
            spec = specs[j]
            code = spec[0]
            if code == 3:
                prop[j] = spec[3] * (counts[spec[1]] * counts[spec[2]])
            elif code == 2:
                c = counts[spec[1]]
                prop[j] = spec[2] * (c * (c - 1) // 2)
            elif code == 1:
                prop[j] = spec[2] * counts[spec[1]]
            else:
                h = 1
                for s, n in reactants[j]:
                    c = counts[s]
                    if c < n:
                        h = 0
                        break
                    if n == 1:
                        h *= c
                    elif n == 2:
                        h *= c * (c - 1) // 2
                    else:
                        b = 1
                        for i in range(n):
                            b = b * (c - i) // (i + 1)
                        h *= b
                prop[j] = rates[j] * h
        total = 0.0
        for p in prop:
            total += p

        if n_clauses:
            # Inlined _check_plan: this runs once per event on the hottest
            # kernel, and the call overhead is measurable there.
            hit = -1
            for ci in range(n_clauses):
                row = plan_rows[ci]
                kind = row[0]
                if kind == 0:
                    if counts[row[1]] >= row[2]:
                        hit = ci
                        break
                elif kind == 1:
                    if counts[row[1]] <= row[2]:
                        hit = ci
                        break
                elif kind == 3:
                    if firing_counts[row[1]] >= row[2]:
                        hit = ci
                        break
                else:
                    member_total = 0
                    for m in row[3]:
                        member_total += firing_counts[m]
                    if member_total >= row[2]:
                        hit = ci
                        break
            if hit >= 0:
                stop = STOP_CONDITION
                clause = hit
                break
        elif callback is not None:
            detail = _callback_detail(callback, time, counts, firing_counts)
            if detail is not None:
                stop = STOP_CONDITION
                break
        if steps >= max_steps:
            stop = STOP_MAX_STEPS
            break

    buffers.n_events = n_events
    buffers.n_snapshots = n_snaps
    job.counts[:] = counts
    return KernelOutcome(
        stop_code=stop,
        clause_index=clause,
        final_time=time,
        steps=steps,
        firing_counts=np.array(firing_counts, dtype=np.int64),
        detail=detail,
    )


def _run_first_reaction(job: KernelJob) -> KernelOutcome:
    """First-reaction method: one tentative exponential per positive propensity."""
    compiled = job.compiled
    views = compiled.py_views()
    rates = views["rates"]
    reactants = views["reactants"]
    changes = views["changes"]
    specs = views["specs"]
    nr = compiled.n_reactions
    counts = job.counts.tolist()
    firing_counts = [0] * nr
    plan_rows = job.plan.py_clauses()
    n_clauses = len(plan_rows)
    callback = job.plan.callback
    max_time = job.max_time
    max_steps = job.max_steps
    record_firings = job.record_firings
    record_states = job.record_states
    stride = job.snapshot_stride
    buffers = job.buffers
    blocks = job.blocks

    times_buf = buffers.times
    fired_buf = buffers.reactions
    event_cap = times_buf.shape[0]
    n_events = 0
    snap_times = buffers.snapshot_times
    snaps = buffers.snapshots
    snap_cap = snap_times.shape[0]
    n_snaps = 0

    exp = blocks.exponential.tolist()
    exp_pos, exp_len = 0, len(exp)

    prop = [0.0] * nr
    time = 0.0
    steps = 0
    stop = STOP_EXHAUSTED
    clause = -1
    detail = None

    while True:
        npos = 0
        for j in range(nr):
            spec = specs[j]
            code = spec[0]
            if code == 3:
                p = spec[3] * (counts[spec[1]] * counts[spec[2]])
            elif code == 2:
                c = counts[spec[1]]
                p = spec[2] * (c * (c - 1) // 2)
            elif code == 1:
                p = spec[2] * counts[spec[1]]
            else:
                p = _propensity(rates, reactants, counts, j)
            prop[j] = p
            if p > 0.0:
                npos += 1
        if npos == 0:
            stop = STOP_EXHAUSTED
            break
        if exp_len - exp_pos < nr:  # worst case: one draw per reaction
            exp = blocks.refill_exponential(exp_pos, need=nr).tolist()
            exp_pos, exp_len = 0, len(exp)
        if record_firings and n_events == event_cap:
            buffers.n_events = n_events
            buffers.grow_events()
            times_buf = buffers.times
            fired_buf = buffers.reactions
            event_cap = times_buf.shape[0]
        if record_states and n_snaps == snap_cap:
            buffers.n_snapshots = n_snaps
            buffers.grow_snapshots()
            snap_times = buffers.snapshot_times
            snaps = buffers.snapshots
            snap_cap = snap_times.shape[0]

        best_t = _INF
        chosen = -1
        for j in range(nr):
            p = prop[j]
            if p <= 0.0:
                continue
            candidate = exp[exp_pos] / p
            exp_pos += 1
            if candidate < best_t:
                best_t = candidate
                chosen = j
        if best_t == _INF:
            stop = STOP_INVALID
            break
        if time + best_t > max_time:
            time = max_time
            stop = STOP_MAX_TIME
            break

        time += best_t
        for s, d in changes[chosen]:
            counts[s] += d
        firing_counts[chosen] += 1
        steps += 1
        if record_firings:
            times_buf[n_events] = time
            fired_buf[n_events] = chosen
            n_events += 1
        if record_states and steps % stride == 0:
            snap_times[n_snaps] = time
            snaps[n_snaps] = counts
            n_snaps += 1

        if n_clauses:
            hit = _check_plan(plan_rows, counts, firing_counts)
            if hit >= 0:
                stop = STOP_CONDITION
                clause = hit
                break
        elif callback is not None:
            detail = _callback_detail(callback, time, counts, firing_counts)
            if detail is not None:
                stop = STOP_CONDITION
                break
        if steps >= max_steps:
            stop = STOP_MAX_STEPS
            break

    buffers.n_events = n_events
    buffers.n_snapshots = n_snaps
    job.counts[:] = counts
    return KernelOutcome(
        stop_code=stop,
        clause_index=clause,
        final_time=time,
        steps=steps,
        firing_counts=np.array(firing_counts, dtype=np.int64),
        detail=detail,
    )


def _run_next_reaction(job: KernelJob) -> KernelOutcome:
    """Gibson–Bruck next-reaction method over the array-backed binary heap.

    The queue is the :class:`~repro.sim.priority_queue.ArrayHeap` — three
    contiguous ndarrays with sift-up/sift-down as index arithmetic, the
    same layout the numba kernel mutates directly — driven here through its
    method API.
    """
    compiled = job.compiled
    views = compiled.py_views()
    rates = views["rates"]
    reactants = views["reactants"]
    changes = views["changes"]
    dependents = views["dependents"]
    nr = compiled.n_reactions
    counts = job.counts.tolist()
    firing_counts = [0] * nr
    plan_rows = job.plan.py_clauses()
    n_clauses = len(plan_rows)
    callback = job.plan.callback
    max_time = job.max_time
    max_steps = job.max_steps
    record_firings = job.record_firings
    record_states = job.record_states
    stride = job.snapshot_stride
    buffers = job.buffers
    blocks = job.blocks

    times_buf = buffers.times
    fired_buf = buffers.reactions
    event_cap = times_buf.shape[0]
    n_events = 0
    snap_times = buffers.snapshot_times
    snaps = buffers.snapshots
    snap_cap = snap_times.shape[0]
    n_snaps = 0

    exp = blocks.exponential.tolist()
    exp_pos, exp_len = 0, len(exp)
    if exp_len < nr:
        exp = blocks.refill_exponential(exp_pos, need=nr).tolist()
        exp_pos, exp_len = 0, len(exp)

    prop = [0.0] * nr
    tentative = [0.0] * nr
    for j in range(nr):
        p = _propensity(rates, reactants, counts, j)
        prop[j] = p
        if p > 0.0:
            tentative[j] = exp[exp_pos] / p
            exp_pos += 1
        else:
            tentative[j] = _INF
    queue = ArrayHeap(tentative)

    time = 0.0
    steps = 0
    stop = STOP_EXHAUSTED
    clause = -1
    detail = None

    while True:
        if exp_len - exp_pos < nr:  # worst case: one fresh draw per dependent
            exp = blocks.refill_exponential(exp_pos, need=nr).tolist()
            exp_pos, exp_len = 0, len(exp)
        if record_firings and n_events == event_cap:
            buffers.n_events = n_events
            buffers.grow_events()
            times_buf = buffers.times
            fired_buf = buffers.reactions
            event_cap = times_buf.shape[0]
        if record_states and n_snaps == snap_cap:
            buffers.n_snapshots = n_snaps
            buffers.grow_snapshots()
            snap_times = buffers.snapshot_times
            snaps = buffers.snapshots
            snap_cap = snap_times.shape[0]

        chosen, absolute_time = queue.min()
        if not absolute_time < _INF:
            stop = STOP_EXHAUSTED
            break
        wait = absolute_time - time
        if wait < 0.0:
            # Numerical round-off can make the stored absolute time lag the
            # accumulated time by a few ulps; clamp to zero.
            wait = 0.0
        if time + wait > max_time:
            time = max_time
            stop = STOP_MAX_TIME
            break

        time += wait
        now = absolute_time
        for s, d in changes[chosen]:
            counts[s] += d
        firing_counts[chosen] += 1
        steps += 1
        if record_firings:
            times_buf[n_events] = time
            fired_buf[n_events] = chosen
            n_events += 1
        if record_states and steps % stride == 0:
            snap_times[n_snaps] = time
            snaps[n_snaps] = counts
            n_snaps += 1

        for j in dependents[chosen]:
            old_p = prop[j]
            new_p = _propensity(rates, reactants, counts, j)
            prop[j] = new_p
            if j == chosen:
                if new_p > 0.0:
                    queue.update(j, now + exp[exp_pos] / new_p)
                    exp_pos += 1
                else:
                    queue.update(j, _INF)
                continue
            if new_p <= 0.0:
                queue.update(j, _INF)
            else:
                key = queue.key(j)
                if old_p > 0.0 and key < _INF:
                    # Re-scale the remaining waiting time (exactness-preserving).
                    queue.update(j, now + (key - now) * (old_p / new_p))
                else:
                    # Reaction just became possible: draw a fresh exponential.
                    queue.update(j, now + exp[exp_pos] / new_p)
                    exp_pos += 1

        if n_clauses:
            hit = _check_plan(plan_rows, counts, firing_counts)
            if hit >= 0:
                stop = STOP_CONDITION
                clause = hit
                break
        elif callback is not None:
            detail = _callback_detail(callback, time, counts, firing_counts)
            if detail is not None:
                stop = STOP_CONDITION
                break
        if steps >= max_steps:
            stop = STOP_MAX_STEPS
            break

    buffers.n_events = n_events
    buffers.n_snapshots = n_snaps
    job.counts[:] = counts
    return KernelOutcome(
        stop_code=stop,
        clause_index=clause,
        final_time=time,
        steps=steps,
        firing_counts=np.array(firing_counts, dtype=np.int64),
        detail=detail,
    )


_KERNELS = {
    "direct": _run_direct,
    "first-reaction": _run_first_reaction,
    "next-reaction": _run_next_reaction,
}


# ---------------------------------------------------------------------------
# the lock-step direct slice
# ---------------------------------------------------------------------------

#: Fewer active trials than this and a lock-step ``direct`` slice hands the
#: rest to :func:`_run_direct`, which resumes each where the sweep left it.
#: On the corpus models a lock-step step cost 32–75 µs with 16–64 active
#: trials and a scalar event 1.1–2.5 µs (numpy, 2-vCPU Xeon host), so the
#: sweep pays off above some 20–30 active trials; 500-trial ensembles of
#: eight corpus models ran fastest with a threshold of 16 to 32, and 10–40%
#: slower at 96.
LOCKSTEP_TRIALS = 32
#: Cap on the cells (trials × draws) of each of a lock-step sweep's two
#: random-block matrices, 2 MiB apiece: a refill that would outgrow it
#: hands the trials past it to the scalar kernel.  Every Example-1 trial
#: (111 events) refills once; a 10⁴-trial ensemble took 0.89 s with a cap
#: of :data:`~repro.sim.kernels.batch.GROUP_CELLS` (224 of each 512-trial
#: chunk handed off) and 0.43 s with this one, for +0.7–0.9 MiB of peak
#: RSS either way (same host).
LOCKSTEP_BLOCK_CELLS = 1 << 18


class _SliceStreams:
    """Where each trial of a lock-step slice draws its random blocks from.

    The trials' first blocks are drawn while the streams are iterated, in
    trial order, as the per-trial loop draws them.  A trial that outruns
    them draws its refills from its generator in the state its last draw
    left it in.  A listed generator is still in that state, since nothing
    else draws from it.  :class:`~repro.sim.rng.ChildStreams` reseeds one
    generator for every trial, so the first time a child trial needs its
    generator again, a spare one is reseeded to the trial's start and its
    first blocks drawn once more; its state is saved after every refill.
    """

    def __init__(self, streams, block_size: int) -> None:
        self._children = streams if isinstance(streams, ChildStreams) else None
        self._iterator = iter(streams)
        self._block_size = block_size
        self._generators: "list[np.random.Generator]" = []
        self._saved: "dict[int, dict]" = {}
        self._spare: "np.random.Generator | None" = None

    def draw_first(self, exponential: np.ndarray, uniform: np.ndarray) -> None:
        """Draw the next trials' first blocks into the rows of the two arrays."""
        keep = self._children is None
        for exp_row, uni_row in zip(exponential, uniform):
            rng = next(self._iterator)
            rng.standard_exponential(out=exp_row)
            rng.random(out=uni_row)
            if keep:
                self._generators.append(rng)

    def generator(self, trial: int) -> np.random.Generator:
        """Trial ``trial``'s generator, in the state its last draw left it."""
        if self._children is None:
            return self._generators[trial]
        if self._spare is None:
            self._spare = np.random.default_rng(0)
        spare = self._spare
        state = self._saved.get(trial)
        if state is None:
            spare.bit_generator.state = self._children.state(trial)
            spare.standard_exponential(self._block_size)
            spare.random(self._block_size)
        else:
            spare.bit_generator.state = state
        return spare

    def save(self, trial: int, rng: np.random.Generator) -> None:
        """Note ``rng``'s state as trial ``trial``'s after a refill."""
        if self._children is not None:
            self._saved[trial] = rng.bit_generator.state


class _Propensities:
    """Every reaction's propensity ``rate · h`` for columns of counts.

    ``h``, the product of the reactant combination counts ``C(c, n)``, is
    built in float64 from a table of the factors the reactions need.
    While no count exceeds :attr:`limit`, every factor, falling factorial
    and partial product is an integer below 2⁵³, so ``h`` is exact and
    ``rate · h`` rounds once, as the scalar kernel's ``rates[j] * h`` does
    with Python ints.  (A reactant short of its coefficient gives a zero of
    either sign, which no comparison tells apart.)
    """

    def __init__(self, compiled: CompiledNetwork) -> None:
        reactants = compiled.py_views()["reactants"]
        factors = sorted({(n, s) for terms in reactants for s, n in terms})
        row = {factor: i for i, factor in enumerate(factors)}
        #: the table row holding the empty product
        self.ones = len(factors)
        self.slots = [
            np.array(
                [row[terms[w][::-1]] if w < len(terms) else self.ones for terms in reactants],
                dtype=np.intp,
            )
            for w in range(max(map(len, reactants)))
        ]
        # Factors sorted by coefficient: one run of table rows per coefficient.
        self.runs = []
        for n in sorted({n for n, _ in factors}):
            rows = [i for i, (m, _) in enumerate(factors) if m == n]
            species = np.array([factors[i][1] for i in rows], dtype=np.intp)
            self.runs.append((n, rows[0], rows[-1] + 1, species, float(math.factorial(n))))
        self.rates = compiled.rates[:, None]
        order = max(1, max(sum(n for _, n in terms) for terms in reactants))
        limit = int(2.0 ** (53 / order))
        while limit**order >= 2**53:
            limit -= 1
        while (limit + 1) ** order < 2**53:
            limit += 1
        #: the largest count whose ``order``-th power stays below 2⁵³
        self.limit = limit

    def __call__(self, counts: np.ndarray) -> np.ndarray:
        """Propensities ``(n_reactions, k)`` of the ``(n_species, k)`` count columns."""
        k = counts.shape[1]
        if not self.slots:
            return np.repeat(self.rates, k, axis=1)
        table = np.empty((self.ones + 1, k))
        table[self.ones] = 1.0
        for n, start, stop, species, factorial in self.runs:
            run = table[start:stop]
            np.take(counts, species, axis=0, out=run)
            if n > 1:
                c = run.copy()
                for i in range(1, n):
                    run *= c - i
                run /= factorial
        prop = table.take(self.slots[0], axis=0)
        for slot in self.slots[1:]:
            prop *= table.take(slot, axis=0)
        prop *= self.rates
        return prop


def _running_sums(rows: np.ndarray) -> np.ndarray:
    """Row ``j`` of the result is ``rows[0] + … + rows[j]``, added left to
    right in every column.

    ``np.add.accumulate`` never reassociates (``np.sum`` would, pairwise,
    down a single column) but walks each column on its own, which costs
    more than one vectorized add per row once there are a hundred or so.
    """
    if rows.shape[1] < 128:
        return np.add.accumulate(rows, axis=0)
    sums = rows.copy()
    _accumulate_rows(sums)
    return sums


class _Wave:
    """The trials a lock-step sweep still advances, one column each.

    ``state`` stacks each trial's counts (the first ``n_species`` rows),
    firing totals (the next ``n_reactions``) and time (the last row) as
    float64, where counts and totals are exact integers below 2⁵³; one
    ``take`` then compacts them all.  ``rows`` are the trials' rows of the
    slice, ``blocks`` their rows of the sweep's random blocks.
    """

    def __init__(self, rows: np.ndarray, start: np.ndarray, n_reactions: int) -> None:
        self.ns = start.size
        self.nf = self.ns + n_reactions
        self.state = np.zeros((self.nf + 1, rows.size))
        self.state[: self.ns] = start[:, None]
        self.rows = rows
        self.blocks = np.arange(rows.size)
        self.columns = np.arange(rows.size)

    @property
    def size(self) -> int:
        return self.rows.size

    @property
    def counts(self) -> np.ndarray:
        return self.state[: self.ns]

    @property
    def firings(self) -> np.ndarray:
        return self.state[self.ns : self.nf]

    @property
    def times(self) -> np.ndarray:
        return self.state[self.nf]

    def keep(self, kept: np.ndarray) -> None:
        """Drop every column not listed in ``kept``."""
        self.state = self.state.take(kept, axis=1)
        self.rows = self.rows.take(kept)
        self.blocks = self.blocks.take(kept)
        self.columns = self.columns[: kept.size]


class _DirectSlice:
    """A ``direct`` slice's trials advanced in lock-step, one event per
    trial per step, each on its own random stream.

    Every operation mirrors :func:`_run_direct` in its order (see the
    module docstring), so each trial ends exactly where the scalar kernel
    would have taken it.  The slice is swept in groups of at most
    :data:`~repro.sim.kernels.batch.GROUP_CELLS` cells of trials × the
    widest of species, reactions and first block; refilled blocks grow up
    to :data:`LOCKSTEP_BLOCK_CELLS`.
    """

    def __init__(
        self,
        backend: "NumpyKernelBackend",
        compiled: CompiledNetwork,
        plan: StoppingPlan,
        buffers: TrajectoryBuffers,
        start: np.ndarray,
        n_trials: int,
        max_time: float,
        max_steps: int,
        block_size: int,
    ) -> None:
        nr = compiled.n_reactions
        self.backend = backend
        self.compiled = compiled
        self.plan = plan
        self.buffers = buffers
        self.start = start
        self.max_time = max_time
        self.max_steps = max_steps
        self.block_size = block_size
        self.max_block = max(MAX_BLOCK, block_size)
        self.counts = np.tile(start, (n_trials, 1))
        self.times = np.zeros(n_trials)
        self.firings = np.zeros((n_trials, nr), dtype=np.int64)
        self.codes = np.full(n_trials, STOP_EXHAUSTED, dtype=np.int64)
        self.clauses = np.full(n_trials, -1, dtype=np.int64)
        self.propensities = _Propensities(compiled)
        scan = compiled.scan_order
        self.scan = None if (scan == np.arange(nr)).all() else scan.astype(np.intp)
        self.deltas = compiled.delta_matrix.T.astype(np.float64)
        #: the most any count can grow in one step
        self.rise = max(0, int(compiled.delta_matrix.max()))
        self.group = max(1, GROUP_CELLS // max(compiled.n_species, nr, block_size))

    def run(self, streams) -> None:
        source = _SliceStreams(streams, self.block_size)
        n = self.counts.shape[0]
        # An infinite wait is a stop code here, as in the scalar kernel.
        with np.errstate(over="ignore"):
            for first in range(0, n, self.group):
                self._sweep(source, first, min(n, first + self.group))

    def _sweep(self, source: _SliceStreams, first: int, stop: int) -> None:
        """Run trials ``first..stop-1`` to their stops."""
        nr = self.compiled.n_reactions
        length = self.block_size
        exp = np.empty((stop - first, length))
        uni = np.empty((stop - first, length))
        source.draw_first(exp, uni)
        wave = _Wave(np.arange(first, stop), self.start, nr)
        limit = self.propensities.limit
        cursor = 0
        steps = 0
        recheck = 0
        while True:
            # Hand off, at the top of a step: the trials whose counts may
            # outgrow exact float64 arithmetic, the trials the next refill
            # has no room for, and all of them once too few are left.
            if steps >= recheck:
                peaks = np.maximum.reduce(wave.counts, axis=0)
                large = peaks > limit
                if np.count_nonzero(large):
                    self._hand_off(source, wave, large, steps, exp, uni, cursor)
                    peaks = peaks[~large]
                recheck = (
                    steps + (limit - int(peaks.max())) // self.rise + 1
                    if self.rise and peaks.size else math.inf
                )
            if cursor == length:
                room = LOCKSTEP_BLOCK_CELLS // min(2 * length, self.max_block)
                if wave.size > room:
                    surplus = wave.columns >= (room if room >= LOCKSTEP_TRIALS else 0)
                    self._hand_off(source, wave, surplus, steps, exp, uni, cursor)
            if wave.size < LOCKSTEP_TRIALS:
                self._hand_off(
                    source, wave, np.ones(wave.size, dtype=bool), steps, exp, uni, cursor
                )
                return

            prop = self.propensities(wave.counts)
            # Totals add left to right in reaction order.
            cdf = _running_sums(prop)
            total = cdf[nr - 1]
            exhausted = total <= 0.0
            if np.count_nonzero(exhausted):
                kept = self._retire(wave, exhausted, STOP_EXHAUSTED)
                if not kept.size:
                    return
                prop = prop.take(kept, axis=1)
                cdf = cdf.take(kept, axis=1)
                total = cdf[nr - 1]

            if cursor == length:
                length = min(2 * length, self.max_block)
                exp, uni = self._refill(source, wave, length)
                cursor = 0

            wait = exp[wave.blocks, cursor] / total
            if np.fmax.reduce(wait) == _INF:
                self._retire(wave, wait == _INF, STOP_INVALID)
                return  # the slice raises
            times = wave.times
            times += wait
            if self.max_time < _INF:
                overtime = times > self.max_time
                if np.count_nonzero(overtime):
                    # The over-horizon event never fires.
                    times[overtime] = self.max_time
                    kept = self._retire(wave, overtime, STOP_MAX_TIME)
                    if not kept.size:
                        return
                    prop = prop.take(kept, axis=1)
                    cdf = cdf.take(kept, axis=1)
                    total = cdf[nr - 1]
            threshold = uni[wave.blocks, cursor] * total
            cursor += 1

            # Invert the CDF in scan order: the first entry above the
            # threshold, else the last.  The CDF is non-decreasing, so the
            # count of entries above the threshold locates that entry, and,
            # like the scalar scan, finds none above a NaN threshold.
            scan_cdf = cdf
            if self.scan is not None:
                scan_cdf = _running_sums(prop.take(self.scan, axis=0))
            pick = nr - np.add.reduce(threshold < scan_cdf, axis=0)
            clamped = None
            if np.maximum.reduce(pick) == nr:
                clamped = (pick == nr).nonzero()[0]
                pick[clamped] = nr - 1
            chosen = pick if self.scan is None else self.scan.take(pick)
            if clamped is not None:
                # Only a clamped pick can land on a non-positive propensity;
                # fall back to the first largest one, as the scalar kernel
                # does (the total is positive, so that one is too).
                zero = clamped[prop[chosen[clamped], clamped] <= 0.0]
                if zero.size:
                    chosen[zero] = prop[:, zero].argmax(axis=0)

            counts = wave.counts
            counts += self.deltas.take(chosen, axis=1)
            wave.state[wave.ns + chosen, wave.columns] += 1.0
            steps += 1

            hits = plan_clause_hits(self.plan, counts, wave.firings)
            if steps >= self.max_steps:
                codes = np.where(hits >= 0, STOP_CONDITION, STOP_MAX_STEPS)
                self._retire(wave, np.ones(wave.size, dtype=bool), codes, hits)
                return
            condition = hits >= 0
            if np.count_nonzero(condition):
                if not self._retire(wave, condition, STOP_CONDITION, hits).size:
                    return

    def _retire(self, wave: _Wave, stopped: np.ndarray, code, clauses=None) -> np.ndarray:
        """Write the ``stopped`` columns' results with their stop ``code``
        (one, or one per column), drop them, and return the kept columns."""
        gone = stopped.nonzero()[0]
        rows = wave.rows.take(gone)
        state = wave.state.take(gone, axis=1)
        self.counts[rows] = state[: wave.ns].T
        self.firings[rows] = state[wave.ns : wave.nf].T
        self.times[rows] = state[wave.nf]
        self.codes[rows] = code if np.isscalar(code) else code.take(gone)
        if clauses is not None:
            self.clauses[rows] = clauses.take(gone)
        kept = (~stopped).nonzero()[0]
        wave.keep(kept)
        return kept

    def _refill(self, source: _SliceStreams, wave: _Wave, length: int):
        """Each trial's next blocks: ``length`` exponentials, then uniforms."""
        exp = np.empty((wave.size, length))
        uni = np.empty((wave.size, length))
        for block, trial in enumerate(wave.rows.tolist()):
            rng = source.generator(trial)
            rng.standard_exponential(out=exp[block])
            rng.random(out=uni[block])
            source.save(trial, rng)
        wave.blocks = np.arange(wave.size)
        return exp, uni

    def _hand_off(
        self, source: _SliceStreams, wave: _Wave, handed: np.ndarray, steps: int,
        exp: np.ndarray, uni: np.ndarray, cursor: int,
    ) -> None:
        """Finish the ``handed`` columns on the scalar kernel, each resumed
        at the top of its next step, and drop them."""
        for column in handed.nonzero()[0].tolist():
            trial = int(wave.rows[column])
            state = wave.state[:, column]
            counts = self.counts[trial]
            counts[:] = state[: wave.ns]
            block = wave.blocks[column]
            job = KernelJob(
                compiled=self.compiled,
                counts=counts,
                plan=self.plan,
                buffers=self.buffers,
                blocks=RandomBlocks.resumed(
                    source.generator(trial), exp[block], uni[block], self.max_block
                ),
                max_time=self.max_time,
                max_steps=self.max_steps,
                record_firings=False,
                record_states=False,
                snapshot_stride=1,
            )
            outcome = self.backend.run(
                "direct", job, time=float(state[wave.nf]), steps=steps,
                firing_counts=state[wave.ns : wave.nf].astype(np.int64).tolist(),
                cursor=cursor,
            )
            self.times[trial] = outcome.final_time
            self.firings[trial] = outcome.firing_counts
            self.codes[trial] = outcome.stop_code
            self.clauses[trial] = outcome.clause_index
        wave.keep((~handed).nonzero()[0])


class NumpyKernelBackend(KernelBackend):
    """Always-available reference backend (interpreted, list-tuned loops)."""

    name = "numpy"

    def run(self, kernel_name: str, job: KernelJob, **resume) -> KernelOutcome:
        """Run one trial; ``resume`` (``direct`` only) hands it over mid-run
        (see :func:`_run_direct`)."""
        return _KERNELS[kernel_name](job, **resume)

    def run_direct_slice(
        self,
        compiled: CompiledNetwork,
        plan: StoppingPlan,
        streams,
        start: np.ndarray,
        buffers: TrajectoryBuffers,
        max_time: float,
        max_steps: int,
        block_size: int,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
        """Run one ``direct`` trial per stream from the counts ``start``, in
        lock-step.

        ``streams`` are a :class:`~repro.sim.rng.ChildStreams` or distinct
        generators, and ``plan`` a clause plan that does not hold at t=0.
        Each trial draws what ``RandomBlocks(rng, block_size)`` in
        :func:`_run_direct` would, and ends where that kernel would take
        it.  Returns the final counts, times and firing totals, and the stop
        codes and clause indices, one row per trial.
        """
        sweep = _DirectSlice(
            self, compiled, plan, buffers, start, len(streams),
            max_time, max_steps, block_size,
        )
        sweep.run(streams)
        return sweep.counts, sweep.times, sweep.firings, sweep.codes, sweep.clauses

    def run_batch(self, job) -> None:
        from repro.sim.kernels.batch import run_batch_sweep

        run_batch_sweep(job)
