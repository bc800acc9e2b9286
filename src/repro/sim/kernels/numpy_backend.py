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
:mod:`repro.sim.kernels.numba_backend`.
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
from repro.sim.priority_queue import ArrayHeap

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


def _run_direct(job: KernelJob) -> KernelOutcome:
    """Gillespie direct method over preallocated buffers and random blocks."""
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
    uni = blocks.uniform.tolist()
    uni_pos, uni_len = 0, len(uni)

    prop = [_propensity(rates, reactants, counts, j) for j in range(nr)]
    total = sum(prop)

    time = 0.0
    steps = 0
    stop = STOP_EXHAUSTED
    clause = -1
    detail = None

    while True:
        if total <= 0.0:
            # Guard against accumulated floating-point drift: recompute once.
            for j in range(nr):
                prop[j] = _propensity(rates, reactants, counts, j)
            total = sum(prop)
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
        total = sum(prop)

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


class NumpyKernelBackend(KernelBackend):
    """Always-available reference backend (interpreted, list-tuned loops)."""

    name = "numpy"

    def run(self, kernel_name: str, job: KernelJob) -> KernelOutcome:
        return _KERNELS[kernel_name](job)

    def run_batch(self, job) -> None:
        from repro.sim.kernels.batch import run_batch_sweep

        run_batch_sweep(job)
