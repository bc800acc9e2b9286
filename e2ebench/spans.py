"""Span recording from outside the program, and the per-layer post-processing.

The benchmark never edits ``src/``: a traced run replaces the public entry
point of each layer (a function, method or classmethod) with a wrapper that
records one span per call.  A span is ``[id, parent, op, name, start, end,
extra]``; ``parent`` is the span open on the same thread when the call began
and ``op`` is the id of the benchmark operation (one ``simulate`` call, one
request) that caused it, so every span of an operation shares that id.
Spans stay in memory; ``run.py`` writes them out when the run ends.

A layer's *self time* is its span's duration minus the part of that interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

# Span record fields.
ID, PARENT, OP, NAME, START, END, EXTRA = range(7)


class Tracer:
    """In-memory span recorder shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = iter(range(1, sys.maxsize))
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, op: "int | None" = None) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if op is None:
            op = parent[OP] if parent is not None else None
        with self._lock:
            record = [next(self._ids), parent[ID] if parent else None, op, name,
                      0.0, 0.0, None]
            self.spans.append(record)
        stack.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str, op: "int | None" = None):
        """Record ``name`` around the body; ``op`` starts a new operation id."""
        record = self._open(name, op)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, name: str, fn: Callable, extra: "Callable | None" = None) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``extra(args, result)`` may return a dict of counts stored on the span
        (events simulated, bytes written, states enumerated, ...).
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if extra is not None:
                record[EXTRA] = extra(args, result)
            return result

        return traced

    def current(self) -> list:
        """The innermost span open on this thread."""
        return self._stack()[-1]

    # -- installation ------------------------------------------------------------

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module_name: str, attr: str, name: str, extra=None) -> None:
        """Wrap a module-level function everywhere ``repro`` modules bound it.

        ``from x import f`` copies the function into the importing module, so
        the wrapper replaces every loaded ``repro`` module attribute that *is*
        the original object, not only the defining module's.
        """
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self.wrap(name, original, extra)
        for module in list(sys.modules.values()):
            if module is None or not module.__name__.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, extra=None) -> None:
        """Wrap a method or classmethod defined on ``cls``."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(name, raw.__func__, extra))
        else:
            replacement = self.wrap(name, raw, extra)
        self.replace(cls, attr, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (last patch first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports.

    Imports happen here, not at module level, so the helpers above stay
    importable (and testable) without the package.
    """
    import repro.api.experiment  # noqa: F401 - binds synthesize_distribution
    import repro.store  # noqa: F401 - binds experiment_to_payload
    from repro.adaptive.controller import AdaptiveController
    from repro.adaptive.targets import CiHalfWidthTarget
    from repro.api.results import RunResult
    from repro.core.synthesizer import SynthesizedSystem
    from repro.sim.base import StochasticSimulator
    from repro.sim.batch import BatchDirectEngine, BatchResult
    from repro.sim.ensemble import EnsembleResult, ParallelEnsembleRunner
    from repro.sim.fsp import FspEngine
    from repro.sim.kernels.numpy_backend import NumpyKernelBackend
    from repro.store.serialize import WorkingOutcomeClassifier
    from repro.store.store import ResultStore

    fn = tracer.patch_function
    fn("repro.core.synthesizer", "synthesize_distribution", "core.synthesizer.design")
    fn("repro.zoo.corpus", "corpus_entries", "zoo.corpus.load")
    fn("repro.store.serialize", "experiment_to_payload", "store.serialize.payload")
    fn("repro.store.canonical", "canonicalize_payload", "store.canonical.canonicalize")
    fn("repro.crn.canonical", "canonical_form", "crn.canonical.form")

    method = tracer.patch_method
    method(ParallelEnsembleRunner, "run_chunks", "sim.ensemble.run_chunks",
           lambda args, result: {"chunks": len(result),
                                 "trials": sum(s.n_trials for s in result)})
    method(EnsembleResult, "merge", "sim.ensemble.merge")
    method(BatchDirectEngine, "run_batch", "sim.batch.run_batch")
    method(NumpyKernelBackend, "run_batch", "sim.kernels.sweep",
           lambda args, result: {"events": int(
               args[1].buffers.firings[:args[1].n_trials].sum())})
    method(NumpyKernelBackend, "run", "sim.kernels.per_trial",
           lambda args, result: {"events": int(result.firing_counts.sum())})
    method(BatchResult, "trajectory", "sim.batch.trajectory")
    method(SynthesizedSystem, "classify_outcome", "classify")
    method(WorkingOutcomeClassifier, "__call__", "classify")
    method(StochasticSimulator, "run", "sim.base.run")
    method(FspEngine, "outcome_probabilities", "sim.fsp.solve",
           lambda args, result: {"states": int(result.n_states)})
    method(AdaptiveController, "run", "adaptive.controller.run",
           lambda args, result: _adaptive_extra(args[0].target, result))
    method(CiHalfWidthTarget, "evaluate", "adaptive.controller.evaluate")
    method(RunResult, "to_payload", "api.results.to_payload")
    method(RunResult, "from_payload", "api.results.from_payload")
    method(ResultStore, "put", "store.store.put",
           lambda args, result: {"bytes": _artifact_bytes(args[0], args[1])})
    method(ResultStore, "get_envelope", "store.store.get")


def _artifact_bytes(store, key: str) -> int:
    path = store.root / "artifacts" / key[:2] / f"{key}.json.gz"
    return path.stat().st_size if path.exists() else 0


def wilson_required_trials(target, p_hat: float) -> int:
    """Smallest n whose interval at ``p_hat`` meets ``target.half_width``."""
    low, high = 1, int(target.max_trials)
    while low < high:
        mid = (low + high) // 2
        ci_low, ci_high = target.interval(round(p_hat * mid), mid)
        if (ci_high - ci_low) / 2.0 <= target.half_width:
            high = mid
        else:
            low = mid + 1
    return low


def _adaptive_extra(target, result) -> dict:
    ensemble, info = result
    p_hat = float(info.achieved.get("p_hat", 0.0))
    return {
        "rounds": int(info.rounds),
        "trials": int(ensemble.n_trials),
        "required": wilson_required_trials(target, p_hat),
    }


# ---------------------------------------------------------------------------
# post-processing
# ---------------------------------------------------------------------------


def covered(interval: "tuple[float, float]", children: "list[tuple[float, float]]") -> float:
    """Length of the part of ``interval`` that the ``children`` intervals cover."""
    start, end = interval
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in children if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: "list[list]") -> "dict[int, float]":
    """Span id -> duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - covered((span[START], span[END]), children.get(span[ID], []))
        for span in spans
    }


def layer_totals(spans: "list[list]", ops: "set[int] | None" = None) -> dict:
    """Per span name: ``calls``, ``self_s`` and summed ``extra`` counts.

    ``ops`` restricts the totals to spans of those operation ids.
    """
    own = self_times(spans)
    totals: dict[str, dict] = {}
    for span in spans:
        if ops is not None and span[OP] not in ops:
            continue
        entry = totals.setdefault(span[NAME], {"calls": 0, "self_s": 0.0, "wall_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own[span[ID]]
        entry["wall_s"] += span[END] - span[START]
        for key, value in (span[EXTRA] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


#: The per-layer metrics of a traced run, with their units.  Shares (``_pct``)
#: are a layer's self time as a percentage of the summed wall time of the
#: measured calls (``call.*``: of the main calls only; design: of set-up).
#: ``call.put_pct`` and the ``service.*`` shares count whole spans instead,
#: children included: what a request or a put costs end to end.
PER_LAYER = (
    ("core.synthesizer.design_pct", "%"),
    ("zoo.corpus.load_pct", "%"),
    ("store.serialize.payload_pct", "%"),
    ("store.canonical.canonicalize_pct", "%"),
    ("crn.canonical.form_per_op", "count"),
    ("crn.canonical.form_pct", "%"),
    ("sim.ensemble.chunks_per_call", "count"),
    ("sim.ensemble.chunk_trials_mean", "trials"),
    ("sim.ensemble.self_pct", "%"),
    ("sim.ensemble.merge_pct", "%"),
    ("sim.kernels.sweep_pct", "%"),
    ("sim.kernels.sweep_events_per_s", "1/s"),
    ("sim.batch.run_batch_self_pct", "%"),
    ("sim.batch.trajectory_per_call", "count"),
    ("sim.batch.trajectory_pct", "%"),
    ("classify_pct", "%"),
    ("sim.kernels.per_trial_pct", "%"),
    ("sim.kernels.per_trial_events_per_s", "1/s"),
    ("sim.base.run_self_pct", "%"),
    ("sim.fsp.solve_pct", "%"),
    ("sim.fsp.states_mean", "states"),
    ("api.results.to_payload_pct", "%"),
    ("api.results.from_payload_pct", "%"),
    ("store.store.put_pct", "%"),
    ("store.store.put_kib_mean", "KiB"),
    ("store.store.get_pct", "%"),
    ("adaptive.controller.rounds_mean", "count"),
    ("adaptive.controller.trials_consumed_mean", "trials"),
    ("adaptive.controller.useful_ratio", "ratio"),
    ("adaptive.controller.evaluate_pct", "%"),
    ("service.server.handle_pct", "%"),
    ("service.server.encode_pct", "%"),
    ("service.client.decode_pct", "%"),
    ("service.transport_pct", "%"),
    ("service.server.computes_per_key", "ratio"),
    ("service.reply_kib_p50", "KiB"),
    ("call.sweep_pct", "%"),
    ("call.classify_pct", "%"),
    ("call.put_pct", "%"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_op", "count"),
)


def merged_totals(span_lists: "list[list[list]]", ops: "set[int]") -> dict:
    """:func:`layer_totals` summed over the span lists of several processes."""
    merged: dict = {}
    for spans in span_lists:
        for name, entry in layer_totals(spans, ops).items():
            target = merged.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return merged


def layer_metrics(span_lists: "list[list[list]]", op_log, extras: "dict | None" = None) -> dict:
    """The :data:`PER_LAYER` values of one traced run.

    ``span_lists`` holds one span list per process (benchmark, server);
    ``op_log`` the ``(op id, kind, seconds)`` of every measured call, whose
    kind ``"call"`` marks a main call.  Set-up spans carry op id 0.
    """
    ops = {op for op, _, _ in op_log}
    calls = {op for op, kind, _ in op_log if kind == "call"}
    wall = sum(seconds for _, _, seconds in op_log)
    call_wall = sum(seconds for _, kind, seconds in op_log if kind == "call")
    every = merged_totals(span_lists, ops)
    main = merged_totals(span_lists, calls)
    setup = merged_totals(span_lists, {0})
    spans_in_ops = sum(1 for spans in span_lists for span in spans if span[OP] in ops)

    def get(totals: dict, name: str, field: str = "self_s") -> float:
        return totals.get(name, {}).get(field, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def pct(totals: dict, names, field: str = "self_s", base: float = wall) -> float:
        return 100.0 * ratio(sum(get(totals, name, field) for name in names), base)

    setup_wall = get(setup, "setup", "wall_s")
    sweep, per_trial = "sim.kernels.sweep", "sim.kernels.per_trial"
    solve, chunks, put = "sim.fsp.solve", "sim.ensemble.run_chunks", "store.store.put"
    controller = "adaptive.controller.run"
    client_side = sum(get(every, name, "wall_s") for name in (
        "service.server.request", "service.client.encode", "service.client.decode"))
    values = {
        "core.synthesizer.design_pct": pct(setup, ["core.synthesizer.design"],
                                           "wall_s", setup_wall),
        "zoo.corpus.load_pct": pct(setup, ["zoo.corpus.load"], "wall_s", setup_wall),
        "store.serialize.payload_pct": pct(every, ["store.serialize.payload"]),
        "store.canonical.canonicalize_pct": pct(every, ["store.canonical.canonicalize"]),
        "crn.canonical.form_per_op": ratio(get(every, "crn.canonical.form", "calls"),
                                           len(ops)),
        "crn.canonical.form_pct": pct(every, ["crn.canonical.form"]),
        "sim.ensemble.chunks_per_call": ratio(get(main, chunks, "chunks"), len(calls)),
        "sim.ensemble.chunk_trials_mean": ratio(get(every, chunks, "trials"),
                                                get(every, chunks, "chunks")),
        "sim.ensemble.self_pct": pct(every, [chunks]),
        "sim.ensemble.merge_pct": pct(every, ["sim.ensemble.merge"]),
        "sim.kernels.sweep_pct": pct(every, [sweep]),
        "sim.kernels.sweep_events_per_s": ratio(get(every, sweep, "events"),
                                                get(every, sweep)),
        "sim.batch.run_batch_self_pct": pct(every, ["sim.batch.run_batch"]),
        "sim.batch.trajectory_per_call": ratio(
            get(main, "sim.batch.trajectory", "calls"), len(calls)),
        "sim.batch.trajectory_pct": pct(every, ["sim.batch.trajectory"]),
        "classify_pct": pct(every, ["classify"]),
        "sim.kernels.per_trial_pct": pct(every, [per_trial]),
        "sim.kernels.per_trial_events_per_s": ratio(get(every, per_trial, "events"),
                                                    get(every, per_trial)),
        "sim.base.run_self_pct": pct(every, ["sim.base.run"]),
        "sim.fsp.solve_pct": pct(every, [solve]),
        "sim.fsp.states_mean": ratio(get(every, solve, "states"),
                                     get(every, solve, "calls")),
        "api.results.to_payload_pct": pct(every, ["api.results.to_payload"]),
        "api.results.from_payload_pct": pct(every, ["api.results.from_payload"]),
        "store.store.put_pct": pct(every, [put]),
        "store.store.put_kib_mean": ratio(get(every, put, "bytes"),
                                          get(every, put, "calls")) / 1024.0,
        "store.store.get_pct": pct(every, ["store.store.get"]),
        "adaptive.controller.rounds_mean": ratio(get(every, controller, "rounds"),
                                                 get(every, controller, "calls")),
        "adaptive.controller.trials_consumed_mean": ratio(
            get(every, controller, "trials"), get(every, controller, "calls")),
        "adaptive.controller.useful_ratio": ratio(get(every, controller, "required"),
                                                  get(every, controller, "trials")),
        "adaptive.controller.evaluate_pct": pct(every, ["adaptive.controller.evaluate"]),
        "service.server.handle_pct": pct(every, ["service.server.handle"], "wall_s"),
        "service.server.encode_pct": pct(every, ["service.server.encode"], "wall_s"),
        "service.client.decode_pct": pct(every, ["service.client.decode"], "wall_s"),
        "service.transport_pct": (100.0 * ratio(wall - client_side, wall)
                                  if client_side else 0.0),
        "service.server.computes_per_key": 0.0,
        "service.reply_kib_p50": 0.0,
        "call.sweep_pct": pct(main, [sweep], base=call_wall),
        "call.classify_pct": pct(main, ["sim.batch.trajectory", "classify"],
                                 base=call_wall),
        "call.put_pct": pct(main, [put], "wall_s", call_wall),
        "trace.overhead_pct": 0.0,
        "trace.spans_per_op": ratio(spans_in_ops, len(ops)),
    }
    values.update(extras or {})
    return values
