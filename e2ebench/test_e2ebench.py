"""Tests of the benchmark's own helpers (no simulation runs here).

Collected by the repository's test command; the helpers import the package
lazily, so these run in well under a second.
"""

from __future__ import annotations

import gc
import json
import math
import sys
import threading
from collections import Counter, OrderedDict
from pathlib import Path

import pytest

import run
import spans
import stats
import plan
from plan import seed_stream, serve_plan
from workloads import WORKLOADS, Workload

LIGHT = ("a", "b", "c")


# -- the percentile rule ------------------------------------------------------


def test_nearest_rank_percentile_is_a_measured_value():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([3.0], 99.9) == 3.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    q = stats.tail_percentile(n)
    assert q == expected
    if q is not None:
        assert stats.beyond(n, q) >= stats.MIN_BEYOND


def test_describe_reports_median_tail_and_count():
    summary = stats.describe([float(v) for v in range(100)])
    assert summary == {"n": 100, "p50": 49.5, "tail_q": 90.0, "tail": 89.0}
    assert stats.describe([1.0, 2.0])["tail_q"] is None


def test_chi_squared_against_exact_probabilities():
    statistic, dof = stats.chi_squared({"1": 30, "2": 50, "3": 20},
                                       {"1": 0.3, "2": 0.4, "3": 0.3})
    assert dof == 2
    assert statistic == pytest.approx(0 + 100 / 40 + 100 / 30)
    assert stats.chi_squared({"1": 5, "(undecided)": 9}, {"1": 1.0})[0] == 0.0
    assert math.isinf(stats.chi_squared({"4": 1}, {"1": 0.5, "2": 0.5})[0])


# -- failure counting ---------------------------------------------------------


def test_failed_operations_are_counted_not_raised():
    ops = stats.Ops()
    with ops.attempt("call"):
        pass
    with ops.attempt("call"):
        raise stats.CheckFailed("wrong answer")
    with ops.attempt("quick"):
        raise OSError("connection reset")
    assert ops.attempted == {"call": 2, "quick": 1}
    assert ops.failed == {"call": 1, "quick": 1}
    assert ops.total_attempted == 3 and ops.total_failed == 2
    assert any("wrong answer" in error for error in ops.errors)


def test_workload_op_records_samples_only_for_correct_calls(tmp_path):
    class Toy(Workload):
        def cycle(self, index):
            self.op("call", lambda: 1, lambda value: None)
            self.op("call", lambda: 2, self.reject)
            self.op("quick", lambda: 1 / 0)
            assert self.op("quick", lambda: "ok") == "ok"

        @staticmethod
        def reject(value):
            raise stats.CheckFailed(f"bad {value}")

    toy = Toy(seed=1, work=tmp_path / "toy")
    toy.run(seconds=0.0, min_quick=0)
    # one cycle, between probe groups before and after it
    assert toy.ops.attempted == {"call": 2, "quick": 2, "probe": 2}
    assert toy.ops.failed == {"call": 1, "quick": 1}
    assert len(toy.samples["call"]) == 1 and len(toy.samples["quick"]) == 1
    assert [kind for _, kind, _ in toy.op_log] == ["call", "quick"]
    metrics = toy.end_to_end()
    assert metrics["calls_per_s"][3] == 2
    assert gc.get_freeze_count() > 0  # set-up objects left out of collections
    toy.close()
    assert gc.get_freeze_count() == 0


def test_probing_while_another_thread_works_is_a_failure(tmp_path):
    toy = Workload(seed=1, work=tmp_path / "toy")
    toy.probe(2)
    assert toy.ops.failed == {} and len(toy.probes) == 1
    started, ended, factor = toy.probes[0]
    assert started < ended and factor > 0.0

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    # Hand the interpreter back and forth often: each time the probe lets
    # it go (numpy, zlib), it would otherwise wait out a whole 5 ms slice.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    worker = threading.Thread(target=spin)
    worker.start()
    try:
        toy.probe(5)
    finally:
        stop.set()
        worker.join()
        sys.setswitchinterval(interval)
    assert toy.ops.failed == {"probe": 1} and len(toy.probes) == 1
    assert "other threads ran" in toy.ops.errors[0]


# -- spans and self time ------------------------------------------------------


def span(id_, parent, start, end, name="x", op=1):
    return [id_, parent, op, name, start, end, None]


def test_self_time_subtracts_the_union_of_child_intervals():
    records = [
        span(1, None, 0.0, 10.0, "outer"),
        span(2, 1, 1.0, 3.0, "a"),
        span(3, 1, 2.0, 4.0, "b"),  # overlaps its sibling: counted once
        span(4, 1, 8.0, 12.0, "c"),  # runs past its parent: clipped
        span(5, 2, 1.5, 2.5, "grandchild"),
    ]
    own = spans.self_times(records)
    assert own[1] == pytest.approx(10.0 - 3.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    totals = spans.layer_totals(records)
    assert totals["outer"] == {"calls": 1, "self_s": pytest.approx(5.0),
                               "wall_s": pytest.approx(10.0)}


def test_tracer_nests_spans_and_shares_the_operation_id(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tracer = spans.Tracer()

    def leaf():
        return "leaf"

    def middle():
        return traced_leaf() + traced_leaf()

    traced_leaf = tracer.wrap("leaf", leaf, lambda args, result: {"events": 3})
    traced_middle = tracer.wrap("middle", middle)
    with tracer.span("op.call", op=7):
        assert traced_middle() == "leafleaf"
    traced_leaf()  # outside any operation

    by_name = {}
    for record in tracer.spans:
        by_name.setdefault(record[spans.NAME], []).append(record)
    (op_span,) = by_name["op.call"]
    (middle_span,) = by_name["middle"]
    assert middle_span[spans.PARENT] == op_span[spans.ID]
    assert [r[spans.OP] for r in by_name["leaf"]] == [7, 7, None]
    assert all(r[spans.PARENT] == middle_span[spans.ID] for r in by_name["leaf"][:2])
    totals = spans.layer_totals(tracer.spans, ops={7})
    assert totals["leaf"]["calls"] == 2 and totals["leaf"]["events"] == 6
    # middle is 5 ticks long, 2 of them inside its leaves
    assert totals["middle"]["self_s"] == pytest.approx(
        totals["middle"]["wall_s"] - totals["leaf"]["wall_s"])


def test_tracer_patches_and_restores_methods():
    class Thing:
        def work(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

    tracer = spans.Tracer()
    original = Thing.__dict__["work"]
    tracer.patch_method(Thing, "work", "thing.work")
    tracer.patch_method(Thing, "make", "thing.make")
    assert Thing.make().work() == 1
    assert [r[spans.NAME] for r in tracer.spans] == ["thing.make", "thing.work"]
    tracer.uninstall()
    assert Thing.__dict__["work"] is original
    assert isinstance(Thing.__dict__["make"], classmethod)


def test_layer_metrics_shares_of_the_main_calls():
    records = [
        span(1, None, 0.0, 10.0, "op.call", op=1),
        span(2, 1, 0.0, 6.0, "sim.kernels.sweep", op=1),
        span(3, 1, 6.0, 8.0, "store.store.put", op=1),
        span(4, None, 20.0, 22.0, "op.quick", op=2),
        span(5, 4, 20.0, 21.0, "store.store.get", op=2),
    ]
    records[1][spans.EXTRA] = {"events": 600}
    values = spans.layer_metrics([records], [(1, "call", 10.0), (2, "quick", 2.0)])
    assert set(values) == {name for name, _ in spans.PER_LAYER}
    assert values["call.sweep_pct"] == pytest.approx(60.0)
    assert values["call.put_pct"] == pytest.approx(20.0)
    assert values["sim.kernels.sweep_pct"] == pytest.approx(50.0)
    assert values["store.store.get_pct"] == pytest.approx(100.0 / 12.0)
    assert values["sim.kernels.sweep_events_per_s"] == pytest.approx(100.0)
    assert values["trace.spans_per_op"] == pytest.approx(2.5)


def test_host_factor_is_the_mean_of_group_medians():
    factor = stats.host_factor([[2 * stats.PROBE_NOMINAL_S] * 3])
    assert factor == pytest.approx(2.0)
    nominal = stats.PROBE_NOMINAL_S
    groups = [[nominal, nominal, 9 * nominal], [3 * nominal] * 2]
    assert stats.host_factor(groups) == pytest.approx(2.0)
    assert stats.host_factor([]) == 1.0
    assert stats.cpu_probe() > 0.0


def test_each_timing_scales_by_the_probes_around_it():
    # (start, end, factor) of probe groups: fast, then slow from t=2 on
    marks = [(0.0, 0.1, 1.0), (1.0, 1.1, 1.0), (2.0, 2.1, 2.0), (3.0, 3.1, 2.0)]
    assert stats.factor_at(marks, 0.2, 0.9) == pytest.approx(1.0)
    assert stats.factor_at(marks, 2.2, 2.9) == pytest.approx(2.0)
    # straddling the change: the mean of the groups on either side
    assert stats.factor_at(marks, 1.2, 1.9) == pytest.approx(1.5)
    # before the first and after the last group, the nearest stands in
    assert stats.factor_at(marks, -1.0, -0.5) == pytest.approx(1.0)
    assert stats.factor_at(marks, 3.5, 4.0) == pytest.approx(2.0)
    assert stats.factor_at([], 0.0, 1.0) == 1.0
    # the same work, timed twice as long on the slow host, reads the same
    assert stats.at_nominal(marks, [(0.3, 0.4), (2.3, 0.8)]) == pytest.approx([0.4, 0.4])
    # 0.9 s at factor 1, 0.9 s at 1.5, 0.9 s at 2
    assert stats.nominal_window(marks) == pytest.approx(0.9 + 0.6 + 0.45)
    assert stats.nominal_window(marks[:1]) == 0.0


def test_end_to_end_reports_raw_and_nominal_values(tmp_path):
    toy = Workload(seed=1, work=tmp_path / "toy")
    toy.probes = [(0.0, 0.1, 1.0), (1.0, 1.1, 2.0), (2.0, 2.1, 2.0)]
    toy.samples = {"call": [(0.2, 0.6)], "quick": [(1.2, 0.002), (1.4, 0.004)]}
    toy.window_s = 1.8
    metrics = toy.end_to_end()
    assert metrics["call_s_p50"][:2] == pytest.approx((0.6, 0.6 / 1.5))
    assert metrics["quick_ms_p50"][:2] == pytest.approx((3.0, 1.5))
    assert metrics["quick_ms_p90"][:2] == pytest.approx((4.0, 2.0))
    assert metrics["calls_per_s"][:2] == pytest.approx((3 / 1.8, 3 / (0.9 / 1.5 + 0.9 / 2.0)))
    assert metrics["quick_ms_p50"][2:] == ("ms", 2)


def test_overhead_compares_medians_per_kind():
    plain = [(1, "call", 1.0), (2, "call", 1.0), (3, "quick", 0.1)]
    traced = [(4, "call", 1.1), (5, "quick", 0.1), (6, "quick", 0.1)]
    assert run.overhead_pct(plain, traced) == pytest.approx(100 * 0.1 / 1.2)
    # A machine twice as slow during the traced half is not tracing cost.
    doubled = [(op, kind, 2 * seconds) for op, kind, seconds in plain]
    assert run.overhead_pct(plain, doubled, 1.0, 2.0) == pytest.approx(0.0)


# -- generated inputs ---------------------------------------------------------


def test_seed_streams_are_reproducible_and_independent():
    first = seed_stream(5, "ex1-cold")
    again = seed_stream(5, "ex1-cold")
    assert [next(first) for _ in range(5)] == [next(again) for _ in range(5)]
    other = seed_stream(6, "ex1-cold")
    assert next(other) != next(seed_stream(5, "ex1-cold"))


def test_request_mix_is_deterministic_for_a_seed():
    assert serve_plan(3, 50, "heavy", LIGHT) == serve_plan(3, 50, "heavy", LIGHT)
    assert serve_plan(3, 50, "heavy", LIGHT) != serve_plan(4, 50, "heavy", LIGHT)


def composition(plan, prefix):
    counts = Counter()
    for request in plan.requests[:prefix]:
        heavy = plan.keys[request.key][0] == "heavy"
        counts[(request.kind, heavy, request.variant)] += 1
    return counts


@pytest.mark.parametrize("prefix", [52, 102, 302])
def test_request_mix_proportions_do_not_depend_on_the_seed(prefix):
    plans = [serve_plan(seed, 30, "heavy", LIGHT) for seed in (1, 2, 3)]
    mixes = [composition(plan, prefix) for plan in plans]
    assert mixes[0] == mixes[1] == mixes[2]
    new_keys = [[(r.kind, p.keys[r.key][0]) for r in p.requests[:prefix] if r.kind != "hit"]
                for p in plans]
    assert new_keys[0] == new_keys[1] == new_keys[2]
    mix = mixes[0]
    blocks = (prefix - 2) // 10
    hits = sum(n for (kind, _, _), n in mix.items() if kind == "hit")
    assert hits == 9 * blocks
    heavy_hits = sum(n for (kind, heavy, _), n in mix.items() if kind == "hit" and heavy)
    assert heavy_hits == int(blocks * 9 * plan.HEAVY_HIT_SHARE)
    assert mix[("burst", False, False)] + mix[("burst", True, False)] >= 1


def test_hits_only_ask_for_keys_already_introduced():
    plan = serve_plan(9, 40, "heavy", LIGHT)
    introduced = set()
    for request in plan.requests:
        if request.kind == "hit":
            assert request.key in introduced
            assert not (request.variant and plan.keys[request.key][0] == "heavy")
        else:
            assert request.key not in introduced
            introduced.add(request.key)
    assert len(introduced) == len(plan.keys)
    assert {model for model, _ in plan.keys} == {"heavy", *LIGHT}


def test_every_hit_finds_its_key_in_the_hot_tier_however_long_the_run():
    """Replay a long plan through a 128-entry LRU like the store's hot tier."""
    long_plan = serve_plan(5, 2_000, "heavy", LIGHT)
    hot: OrderedDict = OrderedDict()
    for request in long_plan.requests:
        if request.kind == "hit":
            assert request.key in hot
        hot[request.key] = None
        hot.move_to_end(request.key)
        while len(hot) > 128:
            hot.popitem(last=False)
    assert len(long_plan.keys) > 1_000


# -- the benchmark definition -------------------------------------------------


def test_benchmark_json_matches_the_code():
    definition = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in definition["per_layer"]] == list(
        spans.PER_LAYER)
    assert definition["command"] == ["python3", "e2ebench/run.py"]
    assert definition["paths"] == ["e2ebench"]
    bounds = {m["name"]: m["bound"] for m in definition["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
