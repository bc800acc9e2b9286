"""Summary statistics, host-speed scaling and failure accounting.

Timings are reported the way the choosing-metrics guide asks: the median,
the highest percentile that still has at least ten samples beyond it, and
the sample count.  Percentiles use the nearest-rank definition, so a
reported value is always one that was measured.

Shared machines drift: the same CPU-bound call can take 1.5-2x longer for
seconds to minutes at a time while neighbours are busy.  Each run therefore
also times a fixed CPU probe throughout (:func:`cpu_probe`) and reports its
timings at nominal speed: each timing is divided by the host factor of the
probes on either side of it (:func:`factor_at`), i.e. given in seconds on an
idle machine of the reference type; raw timings print too.
"""

from __future__ import annotations

import bisect
import functools
import gc
import gzip
import json
import math
import threading
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

#: Candidate percentiles for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    # Rounding first keeps e.g. 99.9 % of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``q``-th."""
    return n - rank(n, q)


def tail_percentile(n: int) -> "float | None":
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def describe(values) -> dict:
    """``{"n", "p50", "tail_q", "tail"}`` of a list of timings."""
    n = len(values)
    tail_q = tail_percentile(n)
    return {
        "n": n,
        "p50": median(values) if n else float("nan"),
        "tail_q": tail_q,
        "tail": percentile(values, tail_q) if tail_q is not None else None,
    }


#: :func:`cpu_probe` on an idle core of the reference machine (2 vCPUs).
#: A fixed unit: runs compare through their ratios to it.
PROBE_NOMINAL_S = 0.0063

#: Steps and trials of the probe's lock-step sweep.
PROBE_STEPS, PROBE_TRIALS = 48, 512


@functools.cache
def _inputs() -> tuple:
    """The probe's fixed inputs: pre-drawn random numbers, a small
    reaction network and a JSON document, made once per process."""
    import numpy as np

    rng = np.random.default_rng(2007)
    shape = (PROBE_STEPS, PROBE_TRIALS)
    document = {"counts": [1.5 * (i % 97) for i in range(6_000)],
                "species": [f"s{i:03d}" for i in range(200)]}
    return (
        rng.exponential(size=shape),
        rng.random(shape),
        np.array([[-1, 1, 0], [1, -1, 0], [-1, 0, 1], [0, -1, 1]]),
        np.array([60, 40, 0]),
        json.dumps(document).encode(),
    )


def cpu_probe() -> float:
    """Seconds one fixed CPU task takes right now.

    The task does what the program spends its time on, so that a busy
    neighbour slows it as much as the program's calls: a lock-step sweep
    of small numpy operations over 512 simulated trials, and a gzip + JSON
    round trip of a stored document.  Its inputs never change, so neither
    does its work.  The garbage collector is held off while it runs: a
    probe must not run collections the workload's calls would otherwise
    have paid for.
    """
    import numpy as np

    waits, uniforms, stoichiometry, initial, text = _inputs()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts = np.tile(initial, (PROBE_TRIALS, 1))
        clock = np.zeros(PROBE_TRIALS)
        for step in range(PROBE_STEPS):
            a, b = counts[:, 0], counts[:, 1]
            rates = np.stack([0.5 * a, 0.4 * b, 0.01 * a * b, 0.02 * b], axis=1)
            total = rates.sum(axis=1)
            live = total > 0
            clock[live] += waits[step][live] / total[live]
            chosen = (np.cumsum(rates, axis=1) < (uniforms[step] * total)[:, None]).sum(axis=1)
            counts[live] += stoichiometry[np.minimum(chosen, 3)[live]]
        for _ in range(2):
            json.loads(gzip.decompress(gzip.compress(text, 1, mtime=0)))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _other_threads_cpu_s() -> "dict[int, float | None]":
    """CPU seconds used so far by each other live Python thread (Linux
    ``schedstat``); ``None`` where that cannot be read."""
    me = threading.get_native_id()
    used: "dict[int, float | None]" = {}
    for thread in threading.enumerate():
        tid = thread.native_id
        if tid is None or tid == me:
            continue
        try:
            stat = Path(f"/proc/self/task/{tid}/schedstat").read_text()
            used[tid] = int(stat.split()[0]) / 1e9
        except (OSError, ValueError, IndexError):
            used[tid] = None
    return used


def cpu_probes(count: int) -> "list[float]":
    """:func:`cpu_probe` ``count`` times, on a host the program has left idle.

    Work the program left running (a background thread finishing a write,
    say) would slow the probes and so be divided out of every scaled time
    as host slowness, crediting it as speed.  Raises :class:`CheckFailed`
    if other Python threads of this process used more than a tenth of the
    probing time in CPU, or ended while it ran.  Threads outside Python's
    (a BLAS pool) do not hold the interpreter and are not counted.
    """
    before = _other_threads_cpu_s()
    start = time.perf_counter()
    probes = [cpu_probe() for _ in range(count)]
    wall = time.perf_counter() - start
    after = _other_threads_cpu_s()
    others = 0.0
    for tid, used in before.items():
        if used is None or after.get(tid) is None:
            others = math.inf
            break
        others += after[tid] - used
    if others > 0.1 * wall:
        raise CheckFailed(f"other threads ran {1e3 * others:.1f} ms of CPU during "
                          f"{1e3 * wall:.1f} ms of host probes")
    return probes


def host_factor(groups) -> float:
    """How much slower than nominal the machine ran, from groups of probes.

    Each group's median, averaged over the groups, over the nominal time.
    The host switches between speeds several times a second: a mean over
    many groups follows the share of time spent at each, where a median
    would jump from one to the other.
    """
    if not groups:
        return 1.0
    return sum(median(group) for group in groups) / len(groups) / PROBE_NOMINAL_S


def factor_at(marks, start: float, end: float) -> float:
    """Host factor over ``[start, end]``, from the probe groups around it.

    ``marks`` holds ``(start, end, factor)`` of each probe group, in time
    order.  The factor is the mean of the last group that ended by
    ``start`` and the first that began at or after ``end``; at either end
    of the run the nearest group stands in.  A run's host factor would
    scale every timing alike, though the host's speed changes within a
    run: a median of timings then reads the speed most of them ran at,
    which the mean factor does not match.
    """
    if not marks:
        return 1.0
    before = bisect.bisect_right([mark[1] for mark in marks], start) - 1
    after = bisect.bisect_left([mark[0] for mark in marks], end)
    first = marks[max(before, 0)][2]
    second = marks[min(after, len(marks) - 1)][2]
    return (first + second) / 2.0


def at_nominal(marks, timings) -> "list[float]":
    """Each ``(start, seconds)`` timing divided by the host factor around it."""
    return [seconds / factor_at(marks, start, start + seconds) for start, seconds in timings]


def nominal_window(marks) -> float:
    """Seconds between the first and last probe group, the probes left out,
    each stretch between two groups at the mean factor of the two."""
    return sum(
        (later[0] - earlier[1]) / ((earlier[2] + later[2]) / 2.0)
        for earlier, later in zip(marks, marks[1:])
    )


def chi_squared(counts: dict, probabilities: dict) -> "tuple[float, int]":
    """Pearson statistic of decided outcome counts against exact probabilities.

    Returns ``(statistic, degrees of freedom)``; an outcome the oracle gives
    no mass makes the statistic infinite.
    """
    decided = {k: v for k, v in counts.items() if k != "(undecided)"}
    n = sum(decided.values())
    positive = {k: p for k, p in probabilities.items() if p > 0 and k != "(undecided)"}
    if n == 0 or any(k not in positive for k in decided):
        return math.inf, max(1, len(positive) - 1)
    total = sum(positive.values())
    statistic = 0.0
    for label, p in positive.items():
        expected = n * p / total
        statistic += (decided.get(label, 0) - expected) ** 2 / expected
    return statistic, max(1, len(positive) - 1)


class CheckFailed(Exception):
    """An operation completed but its output was wrong."""


class Ops:
    """Per-kind attempt/failure counts; a failing operation never aborts the run."""

    def __init__(self) -> None:
        self.attempted: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.errors: list[str] = []
        self._lock = threading.Lock()

    @contextmanager
    def attempt(self, kind: str):
        """Count one ``kind`` operation; an exception in the body marks it failed.

        The body's exception is recorded and swallowed: the statement after
        the ``with`` block runs either way.
        """
        with self._lock:
            self.attempted[kind] = self.attempted.get(kind, 0) + 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
            with self._lock:
                self.failed[kind] = self.failed.get(kind, 0) + 1
                if len(self.errors) < 20:
                    self.errors.append(f"{kind}: {detail}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())
