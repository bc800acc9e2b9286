"""Tests for the pluggable simulation-kernel backend layer.

Covers the kernel building blocks (buffers, random blocks, stopping plans,
dense network views), backend resolution policy (auto preference, callback
plans pinned to numpy, explicit-request errors, numba auto-fallback), run
mechanics of every kernel on every available backend, bit-level determinism
(same seed, worker invariance, numpy↔numba identity when numba is
installed), and the satellite fixes around ``SimulationOptions`` (validation
+ strict override merging).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import Experiment
from repro.crn import parse_network
from repro.errors import SimulationError
from repro.sim import (
    CategoryFiringCondition,
    FiringCountCondition,
    OutcomeThresholds,
    ParallelEnsembleRunner,
    SimulationOptions,
    SpeciesThreshold,
    StopReason,
    make_simulator,
    merge_options,
    numba_available,
)
from repro.sim.events import AllCondition, AnyCondition, PredicateCondition
from repro.sim.kernels import (
    RandomBlocks,
    TrajectoryBuffers,
    available_backends,
    compile_stopping_plan,
)
from repro.sim.propensity import CompiledNetwork
from repro.sim import registry
from repro.sim.trajectory import FiringRecord

import propensity_reference as reference

KERNEL_BACKENDS = ["numpy"] + (["numba"] if numba_available() else [])
KERNEL_ENGINES = {
    "numpy": ["direct", "first-reaction", "next-reaction"],
    "numba": ["direct", "first-reaction", "next-reaction"],
}
ENGINE_BACKEND_CASES = [
    (engine, backend)
    for backend in KERNEL_BACKENDS
    for engine in KERNEL_ENGINES[backend]
]


def _death(count: int = 20):
    return parse_network(f"x ->{{1}} 0\ninit: x = {count}")


def _birth():
    return parse_network("src ->{1} src + x\ninit: src = 1")


# ---------------------------------------------------------------------------
# run mechanics on every kernel × backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine,backend", ENGINE_BACKEND_CASES)
class TestKernelMechanics:
    def test_pure_death_exhausts(self, engine, backend):
        trajectory = make_simulator(_death(), engine=engine, seed=1).run(backend=backend)
        assert trajectory.stop_reason == StopReason.EXHAUSTED
        assert trajectory.final_count("x") == 0
        assert trajectory.n_firings == 20
        assert np.all(np.diff(trajectory.times) >= 0)
        assert trajectory.final_time == pytest.approx(trajectory.times[-1])

    def test_max_steps_stop(self, engine, backend):
        trajectory = make_simulator(_birth(), engine=engine, seed=3).run(
            max_steps=50, backend=backend
        )
        assert trajectory.stop_reason == StopReason.MAX_STEPS
        assert trajectory.n_firings == 50

    def test_max_time_stop(self, engine, backend):
        trajectory = make_simulator(_birth(), engine=engine, seed=4).run(
            max_time=5.0, backend=backend
        )
        assert trajectory.stop_reason == StopReason.MAX_TIME
        assert trajectory.final_time == pytest.approx(5.0)
        assert np.all(trajectory.times <= 5.0)

    def test_condition_stop_with_detail(self, engine, backend):
        trajectory = make_simulator(_birth(), engine=engine, seed=5).run(
            stopping=SpeciesThreshold("x", 7), backend=backend
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail == "x>=7"
        assert trajectory.final_count("x") == 7

    def test_condition_already_true_at_start(self, engine, backend):
        trajectory = make_simulator(_death(5), engine=engine, seed=6).run(
            stopping=SpeciesThreshold("x", 5), backend=backend
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.n_firings == 0

    def test_record_states_snapshots(self, engine, backend):
        trajectory = make_simulator(_death(10), engine=engine, seed=9).run(
            record_states=True, backend=backend
        )
        series = trajectory.species_series("x")
        assert len(series) == trajectory.firing_counts.sum()
        assert series[0] == 9 and series[-1] == 0

    def test_snapshot_stride(self, engine, backend):
        trajectory = make_simulator(_death(10), engine=engine, seed=9).run(
            record_states=True, snapshot_stride=3, backend=backend
        )
        assert len(trajectory.snapshot_times) == 3  # firings 3, 6, 9

    def test_record_firings_off_keeps_totals(self, engine, backend):
        trajectory = make_simulator(_death(10), engine=engine, seed=10).run(
            record_firings=False, backend=backend
        )
        assert len(trajectory.reaction_indices) == 0
        assert trajectory.n_firings == 10
        assert trajectory.firing_counts.sum() == 10

    def test_initial_state_override(self, engine, backend):
        trajectory = make_simulator(_death(5), engine=engine, seed=7).run(
            initial_state={"x": 2}, backend=backend
        )
        assert trajectory.firing_counts.sum() == 2

    def test_same_seed_bit_identical(self, engine, backend):
        first = make_simulator(_death(15), engine=engine, seed=42).run(backend=backend)
        second = make_simulator(_death(15), engine=engine, seed=42).run(backend=backend)
        np.testing.assert_array_equal(first.times, second.times)
        np.testing.assert_array_equal(first.reaction_indices, second.reaction_indices)
        assert first.final_time == second.final_time

    def test_buffer_growth_on_long_runs(self, engine, backend):
        # > default event capacity (1024) forces at least two buffer doublings
        # and several random-block refills.
        trajectory = make_simulator(_birth(), engine=engine, seed=3).run(
            max_steps=5000, backend=backend
        )
        assert trajectory.n_firings == 5000
        assert np.all(np.diff(trajectory.times) >= 0)

    def test_category_condition_labels(self, engine, backend):
        parsed = parse_network(
            """
            init: a = 50
            a ->{1} w1
            a ->{1} w2
            """
        )
        from repro.crn import ReactionNetwork

        net = ReactionNetwork(
            reactions=[
                reaction.with_name(f"cat[{index}]", category="cat")
                for index, reaction in enumerate(parsed.reactions)
            ],
            initial_state=parsed.initial_state,
        )
        trajectory = make_simulator(net, engine=engine, seed=11).run(
            stopping=CategoryFiringCondition("cat", 5), backend=backend
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail in {"cat[0]", "cat[1]"}


# ---------------------------------------------------------------------------
# statistical sanity of the kernel paths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine,backend", ENGINE_BACKEND_CASES)
def test_race_probabilities_on_kernel_path(engine, backend):
    net = parse_network(
        """
        init: e1 = 30
        init: e2 = 40
        init: e3 = 30
        e1 ->{1} d1
        e2 ->{1} d2
        e3 ->{1} d3
        """
    )
    simulator = make_simulator(net, engine=engine, seed=123)
    condition = FiringCountCondition([0, 1, 2], 1)
    wins = {"d1": 0, "d2": 0, "d3": 0}
    n = 1200
    for _ in range(n):
        trajectory = simulator.run(
            stopping=condition, record_firings=False, backend=backend
        )
        for name in wins:
            if trajectory.final_count(name) == 1:
                wins[name] += 1
    assert wins["d1"] / n == pytest.approx(0.3, abs=0.06)
    assert wins["d2"] / n == pytest.approx(0.4, abs=0.06)
    assert wins["d3"] / n == pytest.approx(0.3, abs=0.06)


# ---------------------------------------------------------------------------
# backend resolution policy
# ---------------------------------------------------------------------------


class TestBackendResolution:
    def test_available_backends(self):
        names = available_backends()
        assert names[0] == "numpy" and "python" not in names
        assert ("numba" in names) == numba_available()

    def test_registry_records_backends(self):
        for engine in ("direct", "first-reaction", "next-reaction", "batch-direct"):
            assert registry.get(engine).backends == ("numpy", "numba")
            assert registry.get(engine).capabilities()["backends"] == "numpy,numba"
        for engine in ("tau-leaping", "ode", "fsp"):
            assert registry.get(engine).backends == ()
            assert registry.get(engine).capabilities()["backends"] == "-"

    def test_unknown_backend_rejected_at_options(self):
        with pytest.raises(SimulationError, match="unknown kernel backend"):
            SimulationOptions(backend="cuda")

    def test_engine_without_kernel_rejects_explicit_backend(self):
        simulator = make_simulator(_death(), engine="tau-leaping", seed=1)
        with pytest.raises(SimulationError, match="does not support backend"):
            simulator.run(backend="numpy")

    @pytest.mark.parametrize("engine", ["direct", "batch-direct", "tau-leaping"])
    def test_python_backend_rejected(self, engine):
        with pytest.raises(SimulationError, match="unknown kernel backend 'python'"):
            make_simulator(_death(), engine=engine, seed=1).run(
                backend="python", record_firings=False
            )
        with pytest.raises(SimulationError, match="unknown kernel backend 'python'"):
            ParallelEnsembleRunner(
                _death(),
                engine=engine,
                options=SimulationOptions(record_firings=False, backend="python"),
            )

    def test_callback_condition_runs_on_auto(self):
        condition = PredicateCondition(lambda t, state: "done" if state["x"] <= 15 else None)
        trajectory = make_simulator(_death(), engine="direct", seed=2).run(
            stopping=condition
        )
        assert trajectory.stop_reason == StopReason.CONDITION
        assert trajectory.stop_detail == "done"
        assert trajectory.final_count("x") == 15

    def test_callback_condition_rejected_on_explicit_numba(self):
        condition = PredicateCondition(lambda t, state: None)
        simulator = make_simulator(_death(), engine="direct", seed=2)
        with pytest.raises(SimulationError, match="stopping condition"):
            simulator.run(stopping=condition, backend="numba")

    def test_next_reaction_declares_numba(self):
        # The array-heap port gave next-reaction a numba kernel; requesting it
        # without numba installed falls back to numpy (identical results)
        # instead of being rejected.
        simulator = make_simulator(_death(15), engine="next-reaction", seed=1)
        if numba_available():
            trajectory = simulator.run(backend="numba")
        else:
            with pytest.warns(RuntimeWarning, match="falling back"):
                trajectory = simulator.run(backend="numba")
        reference = make_simulator(_death(15), engine="next-reaction", seed=1).run(
            backend="numpy"
        )
        np.testing.assert_array_equal(trajectory.times, reference.times)
        np.testing.assert_array_equal(
            trajectory.reaction_indices, reference.reaction_indices
        )

    @pytest.mark.skipif(numba_available(), reason="numba installed: no fallback")
    def test_numba_request_warns_and_falls_back_to_numpy(self):
        simulator = make_simulator(_death(15), engine="direct", seed=21)
        with pytest.warns(RuntimeWarning, match="falling back"):
            fell_back = simulator.run(backend="numba")
        reference = make_simulator(_death(15), engine="direct", seed=21).run(
            backend="numpy"
        )
        np.testing.assert_array_equal(fell_back.times, reference.times)

    def test_experiment_rejects_backend_for_distribution_engines(self):
        experiment = Experiment.from_network(_death())
        with pytest.raises(Exception, match="no kernel backends"):
            experiment.simulate(engine="fsp", backend="numpy")

    def test_run_once_validates_backend(self):
        experiment = Experiment.from_network(_death())
        with pytest.raises(SimulationError, match="does not support backend"):
            experiment.run_once(engine="ode", backend="numpy")


# ---------------------------------------------------------------------------
# stopping-plan compilation
# ---------------------------------------------------------------------------


class TestStoppingPlan:
    @pytest.fixture()
    def compiled(self):
        from repro.crn import ReactionNetwork

        parsed = parse_network(
            """
            init: a = 10
            init: b = 5
            a ->{1} b
            b ->{1} 0
            """
        )
        categories = ("work", "decay")
        network = ReactionNetwork(
            reactions=[
                reaction.with_name(f"{categories[i]}[{i}]", category=categories[i])
                for i, reaction in enumerate(parsed.reactions)
            ],
            initial_state=parsed.initial_state,
        )
        return CompiledNetwork.compile(network)

    def test_none_compiles_to_empty_plan(self, compiled):
        plan = compile_stopping_plan(None, compiled)
        assert plan is not None and plan.n_clauses == 0

    def test_species_threshold(self, compiled):
        plan = compile_stopping_plan(SpeciesThreshold("b", 8), compiled)
        assert plan.n_clauses == 1
        assert plan.labels == ("b>=8",)
        assert plan.py_clauses()[0][0] == 0  # KIND_COUNT_GE

    def test_species_threshold_le(self, compiled):
        plan = compile_stopping_plan(SpeciesThreshold("a", 2, comparison="<="), compiled)
        assert plan.py_clauses()[0][0] == 1  # KIND_COUNT_LE

    def test_outcome_thresholds_preserve_order(self, compiled):
        condition = OutcomeThresholds({"hi": ("b", 9), "lo": ("a", 1)})
        condition.reset(compiled)
        plan = compile_stopping_plan(condition, compiled)
        assert plan.labels == ("hi", "lo")

    def test_firing_count_members(self, compiled):
        plan = compile_stopping_plan(FiringCountCondition([0, 1], 4, label="n"), compiled)
        row = plan.py_clauses()[0]
        assert row[0] == 2 and row[2] == 4 and row[3] == (0, 1)

    def test_category_expands_to_member_clauses(self, compiled):
        condition = CategoryFiringCondition("work", 3)
        condition.reset(compiled)
        plan = compile_stopping_plan(condition, compiled)
        assert plan.n_clauses == 1
        assert plan.py_clauses()[0][0] == 3  # KIND_FIRING_ONE

    def test_any_condition_concatenates_in_child_order(self, compiled):
        plan = compile_stopping_plan(
            AnyCondition([SpeciesThreshold("b", 9), FiringCountCondition([0], 2, label="f")]),
            compiled,
        )
        assert plan.labels == ("b>=9", "f")

    def test_clause_plans_carry_no_callback(self, compiled):
        assert compile_stopping_plan(None, compiled).callback is None
        assert compile_stopping_plan(SpeciesThreshold("b", 8), compiled).callback is None

    @pytest.mark.parametrize(
        "condition",
        [
            PredicateCondition(lambda t, s: "hit" if s["a"] == 10 else None),
            AllCondition([SpeciesThreshold("b", 5), SpeciesThreshold("a", 10)]),
            AnyCondition(
                [SpeciesThreshold("b", 99), PredicateCondition(lambda t, s: "hit")]
            ),
        ],
        ids=["predicate", "all", "any-with-predicate"],
    )
    def test_unencodable_conditions_compile_to_callback_plans(self, compiled, condition):
        plan = compile_stopping_plan(condition, compiled)
        assert plan is not None and plan.n_clauses == 0
        counts = compiled.initial_counts()
        firings = np.zeros(compiled.n_reactions, dtype=np.int64)
        assert plan.callback(0.0, counts, firings) == condition.check(
            0.0, counts, compiled, firings
        )
        assert plan.callback(0.0, counts, firings) is not None


# ---------------------------------------------------------------------------
# buffers and random blocks
# ---------------------------------------------------------------------------


class TestTrajectoryBuffers:
    def test_growth_preserves_prefix(self):
        buffers = TrajectoryBuffers(n_species=2, event_capacity=4, snapshot_capacity=2)
        for i in range(4):
            buffers.times[i] = float(i)
            buffers.reactions[i] = i
        buffers.n_events = 4
        buffers.grow_events()
        assert buffers.event_capacity == 8
        times, reactions = buffers.finalize_events()
        np.testing.assert_array_equal(times, [0.0, 1.0, 2.0, 3.0])
        np.testing.assert_array_equal(reactions, [0, 1, 2, 3])

    def test_snapshot_growth_and_reset(self):
        buffers = TrajectoryBuffers(n_species=3, snapshot_capacity=1)
        buffers.snapshot_times[0] = 1.5
        buffers.snapshots[0] = [1, 2, 3]
        buffers.n_snapshots = 1
        buffers.grow_snapshots()
        assert buffers.snapshot_capacity == 2
        times, snaps = buffers.finalize_snapshots()
        np.testing.assert_array_equal(snaps, [[1, 2, 3]])
        buffers.reset()
        assert buffers.n_events == 0 and buffers.n_snapshots == 0
        assert buffers.snapshot_capacity == 2  # capacity survives reset

    def test_finalize_returns_copies(self):
        buffers = TrajectoryBuffers(n_species=1)
        buffers.times[0] = 1.0
        buffers.reactions[0] = 7
        buffers.n_events = 1
        times, _ = buffers.finalize_events()
        buffers.times[0] = 99.0
        assert times[0] == 1.0


class TestRandomBlocks:
    def test_refill_preserves_the_stream(self):
        # Consuming through refills must yield exactly the generator's output
        # stream — the bit-identity contract between backends.
        blocks = RandomBlocks(np.random.default_rng(5), initial=8)
        consumed = list(blocks.exponential[:5])
        blocks.refill_exponential(5)  # 3 values left -> compacted to front
        consumed += list(blocks.exponential)

        reference_rng = np.random.default_rng(5)
        reference = list(reference_rng.standard_exponential(8))
        reference_rng.random(8)  # the uniform block drawn at construction
        reference += list(reference_rng.standard_exponential(len(blocks.exponential) - 3))
        np.testing.assert_array_equal(consumed, reference)

    def test_blocks_grow_up_to_cap(self):
        blocks = RandomBlocks(np.random.default_rng(0), initial=4, maximum=16)
        assert len(blocks.exponential) == 4
        blocks.refill_exponential(4)
        assert len(blocks.exponential) == 8
        blocks.refill_exponential(8)
        blocks.refill_exponential(16)
        assert len(blocks.exponential) == 16  # capped

    def test_invalid_initial_rejected(self):
        with pytest.raises(ValueError):
            RandomBlocks(np.random.default_rng(0), initial=0)


# ---------------------------------------------------------------------------
# dense network views / propensity parity
# ---------------------------------------------------------------------------


class TestKernelNetworkParity:
    """The compiled network's arrays and views against the tests-only reference."""

    @pytest.fixture()
    def compiled(self):
        return CompiledNetwork.compile(
            parse_network(
                """
                init: a = 30
                init: b = 12
                init: c = 4
                a + b ->{2.5} c
                2 a ->{0.5} b
                b ->{3} 0
                3 c ->{0.25} a
                """
            )
        )

    def test_propensities_match_reference(self, compiled):
        # The vectorized path evaluates the combinatorial factor in float
        # (falling-factorial product) rather than exact integers, so allow
        # ulp-level differences for molecularity ≥ 3.
        rng = np.random.default_rng(1)
        for _ in range(25):
            counts = rng.integers(0, 40, size=compiled.n_species).astype(np.int64)
            expected = reference.all_propensities(compiled, counts)
            np.testing.assert_allclose(compiled.propensities(counts), expected, rtol=1e-12)

    def test_specs_match_generic_path(self, compiled):
        views = compiled.py_views()
        rng = np.random.default_rng(2)
        for _ in range(25):
            counts = [int(c) for c in rng.integers(0, 40, size=compiled.n_species)]
            for j, spec in enumerate(views["specs"]):
                expected = reference.propensity(compiled, j, counts)
                if spec[0] == 1:
                    value = spec[2] * counts[spec[1]]
                elif spec[0] == 2:
                    c = counts[spec[1]]
                    value = spec[2] * (c * (c - 1) // 2)
                elif spec[0] == 3:
                    value = spec[3] * (counts[spec[1]] * counts[spec[2]])
                else:
                    continue
                assert value == expected

    def test_delta_matrix_matches_apply(self, compiled):
        for j in range(compiled.n_reactions):
            counts = np.full(compiled.n_species, 10, dtype=np.int64)
            reference.apply(compiled, j, counts)
            np.testing.assert_array_equal(
                counts, np.full(compiled.n_species, 10, dtype=np.int64) + compiled.delta_matrix[j]
            )

    def test_views_match_padded_arrays(self, compiled):
        views = compiled.py_views()
        for j in range(compiled.n_reactions):
            for pairs, species, values in (
                (views["reactants"][j], compiled.reactant_species[j], compiled.reactant_coeffs[j]),
                (views["changes"][j], compiled.change_species[j], compiled.change_deltas[j]),
            ):
                width = len(pairs)
                assert [s for s, _ in pairs] == species[:width].tolist()
                assert [v for _, v in pairs] == values[:width].tolist()
                assert (species[width:] == -1).all() and (values[width:] == 0).all()
            dependents = compiled.dep_idx[compiled.dep_ptr[j] : compiled.dep_ptr[j + 1]]
            assert views["dependents"][j] == tuple(dependents.tolist())
        assert views["rates"] == tuple(compiled.rates.tolist())
        assert views["scan_order"] == tuple(compiled.scan_order.tolist())

    def test_scan_order_is_a_permutation_by_descending_rate(self, compiled):
        order = list(compiled.scan_order)
        assert sorted(order) == list(range(compiled.n_reactions))
        rates = [float(compiled.rates[j]) for j in order]
        assert rates == sorted(rates, reverse=True)


# ---------------------------------------------------------------------------
# determinism across backends and workers
# ---------------------------------------------------------------------------


class TestKernelDeterminism:
    @pytest.fixture(scope="class")
    def race_experiment(self):
        network = parse_network(
            """
            init: e1 = 30
            init: e2 = 40
            init: e3 = 30
            e1 ->{1} d1
            e2 ->{1} d2
            e3 ->{1} d3
            """
        )
        stopping = OutcomeThresholds({"1": ("d1", 3), "2": ("d2", 3), "3": ("d3", 3)})
        return Experiment.from_network(network, stopping=stopping)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_worker_invariance_per_backend(self, race_experiment, backend):
        single = race_experiment.simulate(
            trials=120, engine="direct", seed=5, workers=1, chunk_size=40, backend=backend
        )
        sharded = race_experiment.simulate(
            trials=120, engine="direct", seed=5, workers=2, chunk_size=40, backend=backend
        )
        assert single.ensemble.outcome_counts == sharded.ensemble.outcome_counts
        np.testing.assert_array_equal(
            single.ensemble.final_counts, sharded.ensemble.final_counts
        )
        np.testing.assert_array_equal(
            single.ensemble.final_times, sharded.ensemble.final_times
        )

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    @pytest.mark.parametrize("engine", ["direct", "first-reaction"])
    def test_numpy_and_numba_are_bit_identical(self, race_experiment, engine):
        numpy_run = race_experiment.simulate(
            trials=150, engine=engine, seed=11, backend="numpy"
        )
        numba_run = race_experiment.simulate(
            trials=150, engine=engine, seed=11, backend="numba"
        )
        assert numpy_run.ensemble.outcome_counts == numba_run.ensemble.outcome_counts
        np.testing.assert_array_equal(
            numpy_run.ensemble.final_counts, numba_run.ensemble.final_counts
        )
        np.testing.assert_array_equal(
            numpy_run.ensemble.final_times, numba_run.ensemble.final_times
        )

    @pytest.mark.skipif(not numba_available(), reason="numba not installed")
    def test_numpy_and_numba_trajectories_bit_identical(self):
        net = _birth()
        numpy_run = make_simulator(net, engine="direct", seed=33).run(
            max_steps=3000, backend="numpy"
        )
        numba_run = make_simulator(net, engine="direct", seed=33).run(
            max_steps=3000, backend="numba"
        )
        np.testing.assert_array_equal(numpy_run.times, numba_run.times)
        np.testing.assert_array_equal(
            numpy_run.reaction_indices, numba_run.reaction_indices
        )

    def test_backend_recorded_on_result(self, race_experiment):
        result = race_experiment.simulate(trials=30, seed=1, backend="numpy")
        assert result.backend == "numpy"
        from repro.api.results import RunResult

        assert RunResult.from_json(result.to_json()).backend == "numpy"


# ---------------------------------------------------------------------------
# options merging + validation (satellite fixes)
# ---------------------------------------------------------------------------


class TestOptionsMergeAndValidation:
    def test_merge_applies_overrides(self):
        merged = merge_options(SimulationOptions(max_steps=10), {"max_time": 2.0})
        assert merged.max_steps == 10 and merged.max_time == 2.0

    def test_merge_rejects_unknown_keys(self):
        with pytest.raises(SimulationError, match="unknown simulation option"):
            merge_options(SimulationOptions(), {"max_stpes": 10})

    def test_run_rejects_unknown_option_overrides(self):
        simulator = make_simulator(_death(), engine="direct", seed=1)
        with pytest.raises(SimulationError, match="unknown simulation option"):
            simulator.run(max_stpes=50)

    def test_tau_leaping_rejects_unknown_overrides(self):
        simulator = make_simulator(_death(), engine="tau-leaping", seed=1)
        with pytest.raises(SimulationError, match="unknown simulation option"):
            simulator.run(recordfirings=False)

    def test_batch_rejects_unknown_overrides(self):
        engine = make_simulator(_death(), engine="batch-direct", seed=1)
        with pytest.raises(SimulationError, match="unknown simulation option"):
            engine.run_batch(4, record_stats=True)

    def test_experiment_configure_rejects_unknown_fields(self):
        experiment = Experiment.from_network(_death())
        with pytest.raises(SimulationError, match="unknown simulation option"):
            experiment.configure(max_stpes=50)

    def test_merge_revalidates(self):
        with pytest.raises(SimulationError, match="max_time must be positive"):
            merge_options(SimulationOptions(), {"max_time": -1.0})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_time": 0.0},
            {"max_time": -3.0},
            {"max_time": float("nan")},
            {"max_steps": 0},
            {"max_steps": -5},
            {"max_steps": 2.5},
            {"max_steps": True},
            {"snapshot_stride": 0},
            {"snapshot_stride": -1},
            {"snapshot_stride": 1.5},
            {"backend": "gpu"},
        ],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            SimulationOptions(**kwargs)


# ---------------------------------------------------------------------------
# columnar trajectory views
# ---------------------------------------------------------------------------


class TestFiringLogViews:
    def test_records_view_columns(self):
        trajectory = make_simulator(_death(5), engine="direct", seed=4).run(backend="numpy")
        log = trajectory.firings
        assert len(log) == trajectory.n_firings == 5
        first = log[0]
        assert isinstance(first, FiringRecord)
        assert first.time == trajectory.times[0]
        assert first.reaction_index == trajectory.reaction_indices[0]
        assert log[-1].time == trajectory.times[-1]
        assert [record.reaction_index for record in log] == list(
            trajectory.reaction_indices
        )
        sliced = log[1:3]
        assert len(sliced) == 2 and sliced[0].time == trajectory.times[1]
        assert trajectory.firing(2) == log[2]


# ---------------------------------------------------------------------------
# regressions from review: large networks and condition subclasses
# ---------------------------------------------------------------------------


class TestLargeNetworkRefills:
    def test_refill_honours_need_beyond_doubling_cap(self):
        blocks = RandomBlocks(np.random.default_rng(0), initial=4, maximum=8)
        block = blocks.refill_exponential(0, need=100)
        assert len(block) >= 100 + 4  # tail preserved too

    @pytest.mark.parametrize("engine", ["first-reaction", "next-reaction"])
    def test_kernels_survive_networks_wider_than_the_block_cap(self, engine):
        # One tentative draw per reaction per event: with 9000 positive
        # propensities a single event needs more exponentials than the
        # pre-fix refill could ever provide (doubling capped at 16384, one
        # refill per event).
        from repro.crn import Reaction, ReactionNetwork

        n = 9000
        net = ReactionNetwork(
            reactions=[Reaction({f"a{i}": 1}, {}, rate=1.0) for i in range(n)],
            initial_state={f"a{i}": 1 for i in range(n)},
        )
        trajectory = make_simulator(net, engine=engine, seed=1).run(
            max_steps=3, backend="numpy"
        )
        assert trajectory.firing_counts.sum() == 3


class _StickyThreshold(SpeciesThreshold):
    """A subclass whose check() requires the threshold on 2 consecutive events."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._streak = 0

    def reset(self, compiled):
        super().reset(compiled)
        self._streak = 0

    def check(self, time, counts, compiled, firing_counts):
        hit = super().check(time, counts, compiled, firing_counts)
        self._streak = self._streak + 1 if hit else 0
        return self.label if self._streak >= 2 else None


class TestConditionSubclassesRunTheirCheck:
    def test_subclass_is_not_compiled_to_base_semantics(self):
        compiled = CompiledNetwork.compile(_death(10))
        plan = compile_stopping_plan(_StickyThreshold("x", 7, comparison="<="), compiled)
        assert plan.n_clauses == 0 and plan.callback is not None

    def test_subclass_runs_identically_on_auto_and_numpy(self):
        # The overridden check() runs as the plan's callback, not the base
        # class's one-shot threshold: x <= 7 holds after 3 firings, and the
        # streak reaches 2 on the 4th.
        auto = make_simulator(_death(10), engine="direct", seed=2).run(
            stopping=_StickyThreshold("x", 7, comparison="<=")
        )
        numpy_run = make_simulator(_death(10), engine="direct", seed=2).run(
            stopping=_StickyThreshold("x", 7, comparison="<="), backend="numpy"
        )
        assert auto.stop_reason == numpy_run.stop_reason == StopReason.CONDITION
        assert auto.firing_counts.sum() == numpy_run.firing_counts.sum() == 4
        np.testing.assert_array_equal(auto.times, numpy_run.times)

    def test_subclass_rejected_on_explicit_numba(self):
        simulator = make_simulator(_death(10), engine="direct", seed=2)
        with pytest.raises(SimulationError, match="stopping condition"):
            simulator.run(
                stopping=_StickyThreshold("x", 7, comparison="<="), backend="numba"
            )


def _callback_conditions():
    """Conditions with no clause encoding, each with the detail its check() reports."""
    return [
        (
            PredicateCondition(lambda t, state: "half" if state["x"] <= 10 else None),
            "half",
        ),
        (
            AllCondition(
                [
                    SpeciesThreshold("x", 10, comparison="<=", label="a"),
                    SpeciesThreshold("x", 8, comparison=">=", label="b"),
                ]
            ),
            "a & b",
        ),
        (_StickyThreshold("x", 10, comparison="<=", label="sticky"), "sticky"),
    ]


@pytest.mark.parametrize("engine", ["direct", "first-reaction", "next-reaction", "batch-direct"])
@pytest.mark.parametrize(
    "condition,detail", _callback_conditions(), ids=["predicate", "all", "subclass"]
)
class TestCallbackPlans:
    """Conditions without a clause encoding run their own check() on numpy."""

    @pytest.mark.parametrize("backend", ["auto", "numpy"])
    def test_runs_and_reports_check_detail(self, engine, condition, detail, backend):
        simulator = make_simulator(_death(20), engine=engine, seed=8)
        for _ in range(3):
            trajectory = simulator.run(
                stopping=condition, backend=backend, record_firings=False
            )
            assert trajectory.stop_reason == StopReason.CONDITION
            assert trajectory.stop_detail == detail
            expected = 9 if detail == "sticky" else 10
            assert trajectory.final_count("x") == expected

    def test_auto_and_numpy_share_one_stream(self, engine, condition, detail):
        auto = make_simulator(_death(20), engine=engine, seed=8).run(
            stopping=condition, record_firings=False
        )
        numpy_run = make_simulator(_death(20), engine=engine, seed=8).run(
            stopping=condition, backend="numpy", record_firings=False
        )
        assert auto.final_time == numpy_run.final_time

    def test_explicit_numba_raises(self, engine, condition, detail):
        simulator = make_simulator(_death(20), engine=engine, seed=8)
        with pytest.raises(SimulationError, match="numba"):
            simulator.run(stopping=condition, backend="numba", record_firings=False)


@pytest.mark.parametrize("engine", ["direct", "first-reaction", "next-reaction", "batch-direct"])
@pytest.mark.parametrize(
    "condition,detail", _callback_conditions()[:2], ids=["predicate", "all"]
)
def test_callback_plan_ensemble_outcomes_use_check_detail(engine, condition, detail):
    # (The stateful subclass is left out: a batch shares one condition
    # instance across its trials.)
    result = Experiment.from_network(_death(20), stopping=condition).simulate(
        trials=40, engine=engine, seed=3
    )
    assert result.ensemble.outcome_counts == {detail: 40}
