"""The optional numba JIT kernel backend.

Loaded lazily by :func:`load_numba_backend`; if the ``numba`` package is not
installed the loader returns ``None`` and the kernel layer auto-falls back
to the numpy backend.  Nothing in this module imports numba at module scope,
so merely having the file on disk costs nothing.

The JIT kernels are *step* functions: the jitted code cannot call back into
:class:`RandomBlocks` / :class:`TrajectoryBuffers`, so whenever a block is
exhausted or a buffer is full the step saves its scalar state into the
``state_f`` / ``state_i`` arrays and returns a ``NEED_*`` status; the Python
wrapper refills/grows and re-enters the loop.  All ``NEED_*`` exits happen
at the top of the event loop, before any randomness is consumed or state
mutated, so re-entry is exact.

Bit-identity contract: every arithmetic expression here mirrors
:mod:`repro.sim.kernels.numpy_backend` operation for operation (waits are
``exp / total``, thresholds ``uni * total``, totals and CDF scans accumulate
left to right, propensities use exact integer combinatorics), and both
backends consume the same :class:`RandomBlocks` stream — so a seeded run is
bit-identical across the two backends.  Keep the two modules in lockstep.
Only clause plans reach these kernels: backend resolution keeps callback
plans (conditions with no clause encoding) on numpy.

One caveat vs. the numpy backend: combinatorial factors are computed in
``int64`` here (the numpy backend uses Python's unbounded ints), so
bimolecular propensities overflow above ~3·10⁹ molecules of one species —
far beyond any network this library synthesizes.
"""

from __future__ import annotations

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
from repro.sim.kernels.numpy_backend import _propensity

__all__ = ["NumbaKernelBackend", "load_numba_backend"]

# Wrapper-handled statuses (disjoint from the STOP_* codes).
NEED_EXP = 10
NEED_UNI = 11
NEED_EVENT_SPACE = 12
NEED_SNAP_SPACE = 13
#: batch sweep finished (every trial holds a stop code in the buffers).
BATCH_DONE = 0

_INF = np.inf


def _build_kernels(numba):
    """Compile the jitted helpers and step functions (called once per process)."""
    njit = numba.njit(cache=False, fastmath=False)

    @njit
    def prop_one(rates, r_species, r_coeffs, counts, j):
        h = 1
        for k in range(r_species.shape[1]):
            s = r_species[j, k]
            if s < 0:
                break
            n = r_coeffs[j, k]
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

    @njit
    def plan_hit(kinds, targets, levels, member_ptr, member_idx, counts, firing_counts):
        for ci in range(kinds.shape[0]):
            kind = kinds[ci]
            if kind == 0:
                if counts[targets[ci]] >= levels[ci]:
                    return ci
            elif kind == 1:
                if counts[targets[ci]] <= levels[ci]:
                    return ci
            elif kind == 3:
                if firing_counts[targets[ci]] >= levels[ci]:
                    return ci
            else:
                total = 0
                for m in range(member_ptr[ci], member_ptr[ci + 1]):
                    total += firing_counts[member_idx[m]]
                if total >= levels[ci]:
                    return ci
        return -1

    @njit
    def direct_step(
        rates, r_species, r_coeffs, c_species, c_deltas, dep_ptr, dep_idx,
        scan_order,
        counts, prop, firing_counts,
        plan_kinds, plan_targets, plan_levels, member_ptr, member_idx,
        exp_block, uni_block,
        times_buf, fired_buf, snap_times, snaps,
        state_f, state_i,
        max_time, max_steps, record_firings, record_states, stride,
    ):
        nr = rates.shape[0]
        ns = counts.shape[0]
        n_clauses = plan_kinds.shape[0]
        time = state_f[0]
        total = state_f[1]
        steps = state_i[0]
        n_events = state_i[1]
        n_snaps = state_i[2]
        exp_pos = state_i[4]
        uni_pos = state_i[5]
        exp_len = exp_block.shape[0]
        uni_len = uni_block.shape[0]
        event_cap = times_buf.shape[0]
        snap_cap = snap_times.shape[0]
        status = STOP_EXHAUSTED
        clause = -1

        while True:
            if total <= 0.0:
                for j in range(nr):
                    prop[j] = prop_one(rates, r_species, r_coeffs, counts, j)
                total = 0.0
                for j in range(nr):
                    total += prop[j]
                if total <= 0.0:
                    status = STOP_EXHAUSTED
                    break
            if exp_pos == exp_len:
                status = NEED_EXP
                break
            if uni_pos == uni_len:
                status = NEED_UNI
                break
            if record_firings and n_events == event_cap:
                status = NEED_EVENT_SPACE
                break
            if record_states and n_snaps == snap_cap:
                status = NEED_SNAP_SPACE
                break

            wait = exp_block[exp_pos] / total
            exp_pos += 1
            if wait == _INF:
                status = STOP_INVALID
                break
            if time + wait > max_time:
                time = max_time
                status = STOP_MAX_TIME
                break
            threshold = uni_block[uni_pos] * total
            uni_pos += 1

            cumulative = 0.0
            chosen = scan_order[nr - 1]
            for k in range(nr):
                j = scan_order[k]
                cumulative += prop[j]
                if threshold < cumulative:
                    chosen = j
                    break
            if prop[chosen] <= 0.0:
                best = 0
                for j in range(1, nr):
                    if prop[j] > prop[best]:
                        best = j
                chosen = best
                if prop[chosen] <= 0.0:
                    status = STOP_EXHAUSTED
                    break

            time += wait
            for k in range(c_species.shape[1]):
                s = c_species[chosen, k]
                if s < 0:
                    break
                counts[s] += c_deltas[chosen, k]
            firing_counts[chosen] += 1
            steps += 1
            if record_firings:
                times_buf[n_events] = time
                fired_buf[n_events] = chosen
                n_events += 1
            if record_states and steps % stride == 0:
                snap_times[n_snaps] = time
                for s in range(ns):
                    snaps[n_snaps, s] = counts[s]
                n_snaps += 1

            for d in range(dep_ptr[chosen], dep_ptr[chosen + 1]):
                j = dep_idx[d]
                prop[j] = prop_one(rates, r_species, r_coeffs, counts, j)
            total = 0.0
            for j in range(nr):
                total += prop[j]

            if n_clauses > 0:
                hit = plan_hit(
                    plan_kinds, plan_targets, plan_levels,
                    member_ptr, member_idx, counts, firing_counts,
                )
                if hit >= 0:
                    status = STOP_CONDITION
                    clause = hit
                    break
            if steps >= max_steps:
                status = STOP_MAX_STEPS
                break

        state_f[0] = time
        state_f[1] = total
        state_i[0] = steps
        state_i[1] = n_events
        state_i[2] = n_snaps
        state_i[3] = clause
        state_i[4] = exp_pos
        state_i[5] = uni_pos
        return status

    @njit
    def first_reaction_step(
        rates, r_species, r_coeffs, c_species, c_deltas, dep_ptr, dep_idx,
        scan_order,  # unused here; keeps the step signatures uniform
        counts, prop, firing_counts,
        plan_kinds, plan_targets, plan_levels, member_ptr, member_idx,
        exp_block, uni_block,
        times_buf, fired_buf, snap_times, snaps,
        state_f, state_i,
        max_time, max_steps, record_firings, record_states, stride,
    ):
        nr = rates.shape[0]
        ns = counts.shape[0]
        n_clauses = plan_kinds.shape[0]
        time = state_f[0]
        steps = state_i[0]
        n_events = state_i[1]
        n_snaps = state_i[2]
        exp_pos = state_i[4]
        exp_len = exp_block.shape[0]
        event_cap = times_buf.shape[0]
        snap_cap = snap_times.shape[0]
        status = STOP_EXHAUSTED
        clause = -1

        while True:
            npos = 0
            for j in range(nr):
                p = prop_one(rates, r_species, r_coeffs, counts, j)
                prop[j] = p
                if p > 0.0:
                    npos += 1
            if npos == 0:
                status = STOP_EXHAUSTED
                break
            if exp_len - exp_pos < nr:
                status = NEED_EXP
                break
            if record_firings and n_events == event_cap:
                status = NEED_EVENT_SPACE
                break
            if record_states and n_snaps == snap_cap:
                status = NEED_SNAP_SPACE
                break

            best_t = _INF
            chosen = -1
            for j in range(nr):
                p = prop[j]
                if p <= 0.0:
                    continue
                candidate = exp_block[exp_pos] / p
                exp_pos += 1
                if candidate < best_t:
                    best_t = candidate
                    chosen = j
            if best_t == _INF:
                status = STOP_INVALID
                break
            if time + best_t > max_time:
                time = max_time
                status = STOP_MAX_TIME
                break

            time += best_t
            for k in range(c_species.shape[1]):
                s = c_species[chosen, k]
                if s < 0:
                    break
                counts[s] += c_deltas[chosen, k]
            firing_counts[chosen] += 1
            steps += 1
            if record_firings:
                times_buf[n_events] = time
                fired_buf[n_events] = chosen
                n_events += 1
            if record_states and steps % stride == 0:
                snap_times[n_snaps] = time
                for s in range(ns):
                    snaps[n_snaps, s] = counts[s]
                n_snaps += 1

            if n_clauses > 0:
                hit = plan_hit(
                    plan_kinds, plan_targets, plan_levels,
                    member_ptr, member_idx, counts, firing_counts,
                )
                if hit >= 0:
                    status = STOP_CONDITION
                    clause = hit
                    break
            if steps >= max_steps:
                status = STOP_MAX_STEPS
                break

        state_f[0] = time
        state_i[0] = steps
        state_i[1] = n_events
        state_i[2] = n_snaps
        state_i[3] = clause
        state_i[4] = exp_pos
        return status

    @njit
    def heap_sift_up(keys, heap, position, pos):
        while pos > 0:
            parent = (pos - 1) // 2
            child = heap[pos]
            above = heap[parent]
            if keys[child] < keys[above]:
                heap[pos] = above
                heap[parent] = child
                position[above] = pos
                position[child] = parent
                pos = parent
            else:
                return

    @njit
    def heap_sift_down(keys, heap, position, pos):
        size = heap.shape[0]
        while True:
            left = 2 * pos + 1
            right = left + 1
            smallest = pos
            if left < size and keys[heap[left]] < keys[heap[smallest]]:
                smallest = left
            if right < size and keys[heap[right]] < keys[heap[smallest]]:
                smallest = right
            if smallest == pos:
                return
            a = heap[pos]
            b = heap[smallest]
            heap[pos] = b
            heap[smallest] = a
            position[b] = pos
            position[a] = smallest
            pos = smallest

    @njit
    def heap_update(keys, heap, position, item, key):
        old = keys[item]
        keys[item] = key
        pos = position[item]
        if key < old:
            heap_sift_up(keys, heap, position, pos)
        elif key > old:
            heap_sift_down(keys, heap, position, pos)

    @njit
    def next_reaction_step(
        rates, r_species, r_coeffs, c_species, c_deltas, dep_ptr, dep_idx,
        counts, prop, firing_counts,
        plan_kinds, plan_targets, plan_levels, member_ptr, member_idx,
        exp_block,
        times_buf, fired_buf, snap_times, snaps,
        heap_keys, heap_items, heap_pos,
        state_f, state_i,
        max_time, max_steps, record_firings, record_states, stride,
    ):
        nr = rates.shape[0]
        ns = counts.shape[0]
        n_clauses = plan_kinds.shape[0]
        time = state_f[0]
        steps = state_i[0]
        n_events = state_i[1]
        n_snaps = state_i[2]
        exp_pos = state_i[4]
        exp_len = exp_block.shape[0]
        event_cap = times_buf.shape[0]
        snap_cap = snap_times.shape[0]
        status = STOP_EXHAUSTED
        clause = -1

        while True:
            if exp_len - exp_pos < nr:  # worst case: one fresh draw per dependent
                status = NEED_EXP
                break
            if record_firings and n_events == event_cap:
                status = NEED_EVENT_SPACE
                break
            if record_states and n_snaps == snap_cap:
                status = NEED_SNAP_SPACE
                break

            chosen = heap_items[0]
            absolute_time = heap_keys[chosen]
            if not absolute_time < _INF:
                status = STOP_EXHAUSTED
                break
            wait = absolute_time - time
            if wait < 0.0:
                wait = 0.0
            if time + wait > max_time:
                time = max_time
                status = STOP_MAX_TIME
                break

            time += wait
            now = absolute_time
            for k in range(c_species.shape[1]):
                s = c_species[chosen, k]
                if s < 0:
                    break
                counts[s] += c_deltas[chosen, k]
            firing_counts[chosen] += 1
            steps += 1
            if record_firings:
                times_buf[n_events] = time
                fired_buf[n_events] = chosen
                n_events += 1
            if record_states and steps % stride == 0:
                snap_times[n_snaps] = time
                for s in range(ns):
                    snaps[n_snaps, s] = counts[s]
                n_snaps += 1

            for d in range(dep_ptr[chosen], dep_ptr[chosen + 1]):
                j = dep_idx[d]
                old_p = prop[j]
                new_p = prop_one(rates, r_species, r_coeffs, counts, j)
                prop[j] = new_p
                if j == chosen:
                    if new_p > 0.0:
                        heap_update(
                            heap_keys, heap_items, heap_pos, j,
                            now + exp_block[exp_pos] / new_p,
                        )
                        exp_pos += 1
                    else:
                        heap_update(heap_keys, heap_items, heap_pos, j, _INF)
                elif new_p <= 0.0:
                    heap_update(heap_keys, heap_items, heap_pos, j, _INF)
                else:
                    key = heap_keys[j]
                    if old_p > 0.0 and key < _INF:
                        # Re-scale the remaining waiting time (exactness-preserving).
                        heap_update(
                            heap_keys, heap_items, heap_pos, j,
                            now + (key - now) * (old_p / new_p),
                        )
                    else:
                        # Reaction just became possible: draw a fresh exponential.
                        heap_update(
                            heap_keys, heap_items, heap_pos, j,
                            now + exp_block[exp_pos] / new_p,
                        )
                        exp_pos += 1

            if n_clauses > 0:
                hit = plan_hit(
                    plan_kinds, plan_targets, plan_levels,
                    member_ptr, member_idx, counts, firing_counts,
                )
                if hit >= 0:
                    status = STOP_CONDITION
                    clause = hit
                    break
            if steps >= max_steps:
                status = STOP_MAX_STEPS
                break

        state_f[0] = time
        state_i[0] = steps
        state_i[1] = n_events
        state_i[2] = n_snaps
        state_i[3] = clause
        state_i[4] = exp_pos
        return status

    @njit
    def batch_direct_step(
        rates, r_species, r_coeffs, c_species, c_deltas,
        plan_kinds, plan_targets, plan_levels, member_ptr, member_idx,
        counts, times, steps, firing_counts, stop_codes, clauses,
        active, prop, totals,
        exp_block, uni_block, state_i,
        max_time, max_steps,
    ):
        # The whole lock-step batch loop; mirrors kernels/batch.py's
        # run_batch_sweep operation for operation (see its determinism
        # contract).  Returns to Python only for block refills (NEED_*) or
        # when every trial has stopped.
        nr = rates.shape[0]
        mr = r_species.shape[1]
        mc = c_species.shape[1]
        n_clauses = plan_kinds.shape[0]
        n_active = state_i[0]
        exp_pos = state_i[1]
        uni_pos = state_i[2]
        exp_len = exp_block.shape[0]
        uni_len = uni_block.shape[0]
        status = BATCH_DONE

        while n_active > 0:
            # Propensity rows (each element rate·f(c₁)·f(c₂)… left to right,
            # the expressions CompiledNetwork.propensity_matrix builds row by
            # row) + running totals (the numpy sweep's last CDF row) +
            # dead-trial compaction.
            write = 0
            for r in range(n_active):
                t = active[r]
                total = 0.0
                for j in range(nr):
                    v = rates[j]
                    for kk in range(mr):
                        s = r_species[j, kk]
                        if s < 0:
                            break
                        n = r_coeffs[j, kk]
                        c = float(counts[t, s])
                        if n == 1:
                            v *= c
                        elif n == 2:
                            v *= c * (c - 1.0) * 0.5
                        else:
                            for i in range(n):
                                v *= (c - i) / (i + 1.0)
                    prop[write, j] = v
                    total += v
                if total <= 0.0:
                    stop_codes[t] = STOP_EXHAUSTED
                else:
                    active[write] = t
                    totals[write] = total
                    write += 1
            n_active = write
            if n_active == 0:
                break

            # Both refills checked before any consumption, so a NEED_* exit
            # re-enters at the top of the step with nothing consumed.
            if exp_len - exp_pos < n_active:
                status = NEED_EXP
                break
            if uni_len - uni_pos < n_active:
                status = NEED_UNI
                break

            # Waits + overtime compaction (the over-horizon event never fires).
            write = 0
            for r in range(n_active):
                t = active[r]
                wait = exp_block[exp_pos] / totals[r]
                exp_pos += 1
                new_time = times[t] + wait
                if new_time > max_time:
                    times[t] = max_time
                    stop_codes[t] = STOP_MAX_TIME
                else:
                    active[write] = t
                    totals[write] = totals[r]
                    if write != r:
                        for j in range(nr):
                            prop[write, j] = prop[r, j]
                    times[t] = new_time
                    write += 1
            n_active = write
            if n_active == 0:
                continue

            # Selection (CDF inversion in natural reaction order) + apply.
            for r in range(n_active):
                t = active[r]
                threshold = uni_block[uni_pos] * totals[r]
                uni_pos += 1
                cumulative = 0.0
                chosen = nr - 1
                for j in range(nr):
                    cumulative += prop[r, j]
                    if threshold < cumulative:
                        chosen = j
                        break
                if prop[r, chosen] <= 0.0:
                    best = 0
                    for j in range(1, nr):
                        if prop[r, j] > prop[r, best]:
                            best = j
                    chosen = best
                for kk in range(mc):
                    s = c_species[chosen, kk]
                    if s < 0:
                        break
                    counts[t, s] += c_deltas[chosen, kk]
                firing_counts[t, chosen] += 1
                steps[t] += 1

            # Stopping plan (first satisfied clause wins), then max_steps.
            write = 0
            for r in range(n_active):
                t = active[r]
                hit = -1
                if n_clauses > 0:
                    hit = plan_hit(
                        plan_kinds, plan_targets, plan_levels,
                        member_ptr, member_idx, counts[t], firing_counts[t],
                    )
                if hit >= 0:
                    stop_codes[t] = STOP_CONDITION
                    clauses[t] = hit
                elif steps[t] >= max_steps:
                    stop_codes[t] = STOP_MAX_STEPS
                else:
                    active[write] = t
                    write += 1
            n_active = write

        state_i[0] = n_active
        state_i[1] = exp_pos
        state_i[2] = uni_pos
        state_i[3] = n_active  # refill `need` hint for the wrapper
        return status

    return {
        "direct": direct_step,
        "first-reaction": first_reaction_step,
        "next-reaction": next_reaction_step,
        "batch-direct": batch_direct_step,
    }


def load_numba_backend() -> "NumbaKernelBackend | None":
    """Build the numba backend, or ``None`` when numba is not importable."""
    try:
        import numba
    except ImportError:
        return None
    return NumbaKernelBackend(_build_kernels(numba))


class NumbaKernelBackend(KernelBackend):
    """JIT backend: step kernels driven by a thin refill/grow wrapper."""

    name = "numba"

    def __init__(self, kernels: dict) -> None:
        self._kernels = kernels

    def run(self, kernel_name: str, job: KernelJob) -> KernelOutcome:
        if kernel_name == "next-reaction":
            return self._run_next_reaction(job)
        step = self._kernels[kernel_name]
        compiled = job.compiled
        nr = compiled.n_reactions
        # Worst-case exponential draws per event (must mirror the numpy
        # backend's refill policy so both consume the same stream).
        exp_need = nr if kernel_name == "first-reaction" else 1
        plan = job.plan
        buffers = job.buffers
        blocks = job.blocks

        # Initial propensities via the exact-integer reference path, so the
        # starting floats match the numpy backend bit for bit.
        views = compiled.py_views()
        prop = np.array(
            [_propensity(views["rates"], views["reactants"], job.counts.tolist(), j)
             for j in range(nr)],
            dtype=np.float64,
        )
        firing_counts = np.zeros(nr, dtype=np.int64)
        total = 0.0
        for p in prop.tolist():  # left to right, as the kernels add
            total += p
        state_f = np.array([0.0, total], dtype=np.float64)
        state_i = np.zeros(6, dtype=np.int64)

        while True:
            status = step(
                compiled.rates, compiled.reactant_species, compiled.reactant_coeffs,
                compiled.change_species, compiled.change_deltas,
                compiled.dep_ptr, compiled.dep_idx,
                compiled.scan_order,
                job.counts, prop, firing_counts,
                plan.kinds, plan.targets, plan.levels, plan.member_ptr, plan.member_idx,
                blocks.exponential, blocks.uniform,
                buffers.times, buffers.reactions,
                buffers.snapshot_times, buffers.snapshots,
                state_f, state_i,
                float(job.max_time), int(job.max_steps),
                bool(job.record_firings), bool(job.record_states),
                int(job.snapshot_stride),
            )
            if status == NEED_EXP:
                blocks.refill_exponential(int(state_i[4]), need=exp_need)
                state_i[4] = 0
            elif status == NEED_UNI:
                blocks.refill_uniform(int(state_i[5]))
                state_i[5] = 0
            elif status == NEED_EVENT_SPACE:
                buffers.n_events = int(state_i[1])
                buffers.grow_events()
            elif status == NEED_SNAP_SPACE:
                buffers.n_snapshots = int(state_i[2])
                buffers.grow_snapshots()
            else:
                break

        buffers.n_events = int(state_i[1])
        buffers.n_snapshots = int(state_i[2])
        return KernelOutcome(
            stop_code=int(status),
            clause_index=int(state_i[3]),
            final_time=float(state_f[0]),
            steps=int(state_i[0]),
            firing_counts=firing_counts,
        )

    def _run_next_reaction(self, job: KernelJob) -> KernelOutcome:
        """Drive the next-reaction step kernel over the array-backed heap.

        Initialization (initial propensities, the tentative-time draws and
        the heapify) runs in Python, mirroring the numpy kernel's init op
        for op — including the initial ``need=nr`` exponential refill — so
        both backends enter their event loops with identical heap state and
        block cursors.
        """
        from repro.sim.priority_queue import ArrayHeap

        step = self._kernels["next-reaction"]
        compiled = job.compiled
        nr = compiled.n_reactions
        plan = job.plan
        buffers = job.buffers
        blocks = job.blocks

        if blocks.exponential.shape[0] < nr:
            blocks.refill_exponential(0, need=nr)
        exp_block = blocks.exponential
        exp_pos = 0

        views = compiled.py_views()
        counts_list = job.counts.tolist()
        prop_list = [
            _propensity(views["rates"], views["reactants"], counts_list, j)
            for j in range(nr)
        ]
        tentative = [0.0] * nr
        for j in range(nr):
            p = prop_list[j]
            if p > 0.0:
                tentative[j] = float(exp_block[exp_pos]) / p
                exp_pos += 1
            else:
                tentative[j] = _INF
        heap = ArrayHeap(tentative)

        prop = np.array(prop_list, dtype=np.float64)
        firing_counts = np.zeros(nr, dtype=np.int64)
        state_f = np.zeros(1, dtype=np.float64)
        state_i = np.zeros(6, dtype=np.int64)
        state_i[4] = exp_pos

        while True:
            status = step(
                compiled.rates, compiled.reactant_species, compiled.reactant_coeffs,
                compiled.change_species, compiled.change_deltas,
                compiled.dep_ptr, compiled.dep_idx,
                job.counts, prop, firing_counts,
                plan.kinds, plan.targets, plan.levels, plan.member_ptr, plan.member_idx,
                blocks.exponential,
                buffers.times, buffers.reactions,
                buffers.snapshot_times, buffers.snapshots,
                heap.keys, heap.items, heap.positions,
                state_f, state_i,
                float(job.max_time), int(job.max_steps),
                bool(job.record_firings), bool(job.record_states),
                int(job.snapshot_stride),
            )
            if status == NEED_EXP:
                blocks.refill_exponential(int(state_i[4]), need=nr)
                state_i[4] = 0
            elif status == NEED_EVENT_SPACE:
                buffers.n_events = int(state_i[1])
                buffers.grow_events()
            elif status == NEED_SNAP_SPACE:
                buffers.n_snapshots = int(state_i[2])
                buffers.grow_snapshots()
            else:
                break

        buffers.n_events = int(state_i[1])
        buffers.n_snapshots = int(state_i[2])
        return KernelOutcome(
            stop_code=int(status),
            clause_index=int(state_i[3]),
            final_time=float(state_f[0]),
            steps=int(state_i[0]),
            firing_counts=firing_counts,
        )

    def run_batch(self, job) -> None:
        """Drive the fused batch-direct sweep kernel (refills only in Python).

        ``job`` is a :class:`~repro.sim.kernels.batch.BatchSweepJob`; the
        buffers carry the results out.  The kernel runs once per segment
        (one chunk of the group, with its own blocks and its slice of the
        active list; it indexes the shared buffers by row).  It exits only
        for block refills (both block checks happen before any consumption
        within a step, so re-entry is exact) and when every trial of the
        segment has stopped.
        """
        step = self._kernels["batch-direct"]
        compiled = job.compiled
        plan = job.plan
        buffers = job.buffers
        for segment in job.segments:
            blocks = segment.blocks
            active = buffers.active[segment.start : segment.stop]
            state = np.array([segment.n_active, 0, 0, 0], dtype=np.int64)
            while True:
                status = step(
                    compiled.rates, compiled.reactant_species, compiled.reactant_coeffs,
                    compiled.change_species, compiled.change_deltas,
                    plan.kinds, plan.targets, plan.levels,
                    plan.member_ptr, plan.member_idx,
                    buffers.counts, buffers.times, buffers.steps, buffers.firings,
                    buffers.stop_codes, buffers.clauses,
                    active, buffers.propensities, buffers.totals,
                    blocks.exponential, blocks.uniform, state,
                    float(job.max_time), int(job.max_steps),
                )
                if status == NEED_EXP:
                    blocks.refill_exponential(int(state[1]), need=int(state[3]))
                    state[1] = 0
                elif status == NEED_UNI:
                    blocks.refill_uniform(int(state[2]), need=int(state[3]))
                    state[2] = 0
                else:
                    break
