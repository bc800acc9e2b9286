"""Tests for the columnar batch sweep, wide chunks and buffer reuse.

The batch-direct engine's hot path is now a single columnar sweep
(:func:`repro.sim.kernels.batch.run_batch_sweep` on numpy, a fused JIT
kernel on numba) over buffers allocated once per engine and reused across
chunks and adaptive rounds.  This module covers:

* sweep mechanics — every stop reason, the t=0 condition pre-pass, and
  statistical agreement with the per-trial direct method;
* chunk widths — ``chunk_size`` reshaping the worker-invariant chunk
  schedule of the batched engine, including under the adaptive controller;
* buffer reuse — one allocation per engine no matter how many chunks or
  adaptive rounds run;
* scale regressions — batches wider than the random-block cap and networks
  wider than the PR-4 9000-reaction refill regression;
* numpy ↔ numba bit-identity of whole batches (skipped without numba);
* numpy ↔ numba kernel *source* bit-identity of whole groups and of
  per-trial slices, run here: the numba kernels' Python source under an
  identity ``njit``.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import Experiment
from repro.crn import Reaction, ReactionNetwork, parse_network
from repro.sim import (
    BatchDirectEngine,
    EnsembleRunner,
    OutcomeThresholds,
    ParallelEnsembleRunner,
    SimulationOptions,
    SpeciesThreshold,
    StopReason,
    make_simulator,
    numba_available,
)
from repro.sim.kernels.batch import BatchBuffers, batch_random_blocks
from repro.sim.kernels.blocks import RandomBlocks


@pytest.fixture
def race_network():
    return parse_network(
        """
        init: ea = 70
        init: eb = 30
        ea ->{1} wa
        eb ->{1} wb
        """
    )


@pytest.fixture
def race_condition():
    return OutcomeThresholds({"A": ("wa", 1), "B": ("wb", 1)})


# ---------------------------------------------------------------------------
# sweep mechanics
# ---------------------------------------------------------------------------


class TestSweepMechanics:
    def test_compilable_condition_uses_sweep(self, race_network, race_condition):
        engine = BatchDirectEngine(race_network, seed=1)
        assert engine._sweep_buffers.allocations == 0
        batch = engine.run_batch(64, stopping=race_condition)
        assert engine._sweep_buffers.allocations == 1
        assert set(batch.stop_details) <= {"A", "B"}
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)

    def test_callback_condition_uses_sweep_buffers(self, race_network):
        from repro.sim.events import PredicateCondition

        engine = BatchDirectEngine(race_network, seed=1)
        condition = PredicateCondition(
            lambda time, state: "pred" if state.get("wa", 0) >= 1 else None
        )
        batch = engine.run_batch(16, stopping=condition)
        assert engine._sweep_buffers.allocations == 1  # the numpy sweep ran it
        assert batch.n_trials == 16
        column = [species.name for species in batch.species].index("wa")
        won = batch.final_counts[:, column] == 1
        assert list(batch.stop_details[won]) == ["pred"] * int(won.sum())
        assert all(reason == StopReason.EXHAUSTED for reason in batch.stop_reasons[~won])

    def test_exhaustion_stop(self, race_network):
        engine = BatchDirectEngine(race_network, seed=2)
        batch = engine.run_batch(32)
        assert all(reason == StopReason.EXHAUSTED for reason in batch.stop_reasons)
        # Conservation: every starting molecule converted to its product.
        totals = batch.final_counts.sum(axis=1)
        np.testing.assert_array_equal(totals, np.full(32, 100))

    def test_max_time_stop(self, race_network):
        engine = BatchDirectEngine(race_network, seed=3)
        batch = engine.run_batch(32, max_time=1e-4)
        assert all(reason == StopReason.MAX_TIME for reason in batch.stop_reasons)
        np.testing.assert_allclose(batch.final_times, 1e-4)

    def test_max_steps_stop(self, race_network):
        engine = BatchDirectEngine(race_network, seed=4)
        batch = engine.run_batch(32, max_steps=5)
        assert all(reason == StopReason.MAX_STEPS for reason in batch.stop_reasons)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), np.full(32, 5))

    def test_condition_already_met_at_t0(self, race_network):
        engine = BatchDirectEngine(race_network, seed=5)
        batch = engine.run_batch(8, stopping=SpeciesThreshold("ea", 50))
        assert all(reason == StopReason.CONDITION for reason in batch.stop_reasons)
        assert batch.firing_counts.sum() == 0  # no randomness consumed

    def test_seeded_sweep_is_reproducible(self, race_network, race_condition):
        first = BatchDirectEngine(race_network, seed=6).run_batch(
            200, stopping=race_condition
        )
        second = BatchDirectEngine(race_network, seed=6).run_batch(
            200, stopping=race_condition
        )
        np.testing.assert_array_equal(first.final_counts, second.final_counts)
        np.testing.assert_array_equal(first.final_times, second.final_times)
        np.testing.assert_array_equal(first.firing_counts, second.firing_counts)
        assert list(first.stop_details) == list(second.stop_details)

    def test_sweep_matches_direct_method_chi_squared(self, race_network, race_condition):
        """First-firing win probability is 0.7; chi-squared df=1 at 99.9% is 10.83."""
        engine = BatchDirectEngine(race_network, seed=7)
        batch = engine.run_batch(2000, stopping=race_condition)
        wins_a = sum(1 for detail in batch.stop_details if detail == "A")
        expected = 2000 * 0.7
        statistic = (wins_a - expected) ** 2 / expected + (
            (2000 - wins_a) - 2000 * 0.3
        ) ** 2 / (2000 * 0.3)
        assert statistic < 10.83


# ---------------------------------------------------------------------------
# buffer reuse
# ---------------------------------------------------------------------------


class TestBufferReuse:
    def test_buffers_allocate_once_across_runs(self, race_network, race_condition):
        engine = BatchDirectEngine(race_network, seed=1)
        for _ in range(4):
            engine.run_batch(128, stopping=race_condition)
        assert engine._sweep_buffers.allocations == 1

    def test_buffers_grow_only_when_capacity_exceeded(self, race_network, race_condition):
        engine = BatchDirectEngine(race_network, seed=1)
        engine.run_batch(64, stopping=race_condition)
        engine.run_batch(32, stopping=race_condition)  # fits: no realloc
        assert engine._sweep_buffers.allocations == 1
        engine.run_batch(256, stopping=race_condition)  # wider: one realloc
        assert engine._sweep_buffers.allocations == 2

    def test_ensemble_runner_reuses_one_engine(self, race_network, race_condition):
        runner = EnsembleRunner(
            race_network, engine="batch-direct", stopping=race_condition
        )
        runner.run(100, seed=3)
        engine = runner._batch_engine
        assert engine is not None
        runner.run(100, seed=4)
        assert runner._batch_engine is engine
        assert engine._sweep_buffers.allocations == 1

    def test_chunked_inline_run_allocates_once(self, race_network, race_condition):
        runner = ParallelEnsembleRunner(
            race_network,
            engine="batch-direct",
            stopping=race_condition,
            workers=1,
            chunk_size=64,
        )
        runner.run(512, seed=5)  # 8 chunks through one engine
        assert runner._batch_engine._sweep_buffers.allocations == 1

    def test_adaptive_doubling_rounds_reuse_buffers(self, race_network, race_condition):
        from repro.adaptive import CiHalfWidthTarget
        from repro.adaptive.controller import AdaptiveController

        runner = ParallelEnsembleRunner(
            race_network,
            engine="batch-direct",
            stopping=race_condition,
            workers=1,
            chunk_size=64,
        )
        target = CiHalfWidthTarget(outcome="A", half_width=0.03, max_trials=8192)
        merged, info = AdaptiveController(runner, target).run(9)
        assert info.rounds >= 2  # doubling actually happened
        assert runner._batch_engine._sweep_buffers.allocations == 1

    def test_batch_buffers_reset_clears_previous_run(self):
        buffers = BatchBuffers()
        buffers.ensure(4, 2, 3)
        buffers.counts[:] = 9
        buffers.steps[:] = 7
        buffers.reset(4, np.array([1, 2], dtype=np.int64))
        np.testing.assert_array_equal(buffers.counts[:4], np.tile([1, 2], (4, 1)))
        assert buffers.steps[:4].sum() == 0
        assert buffers.stop_codes[:4].min() == buffers.stop_codes[:4].max()


# ---------------------------------------------------------------------------
# chunk widths
# ---------------------------------------------------------------------------


class TestWideChunks:
    def test_worker_invariance(self, race_network, race_condition):
        def run(workers):
            return ParallelEnsembleRunner(
                race_network,
                engine="batch-direct",
                stopping=race_condition,
                options=SimulationOptions(record_firings=False),
                workers=workers,
                chunk_size=700,
            ).run(2000, seed=17)

        sequential, parallel = run(1), run(2)
        assert sequential.outcome_counts == parallel.outcome_counts
        np.testing.assert_array_equal(sequential.final_counts, parallel.final_counts)
        np.testing.assert_array_equal(sequential.final_times, parallel.final_times)

    def test_experiment_simulate_threads_chunk_size(self, race_network, race_condition):
        experiment = Experiment.from_network(race_network, stopping=race_condition)
        one = experiment.simulate(
            trials=1500, engine="batch-direct", seed=21, workers=1, chunk_size=400
        )
        two = experiment.simulate(
            trials=1500, engine="batch-direct", seed=21, workers=2, chunk_size=400
        )
        assert one.ensemble.outcome_counts == two.ensemble.outcome_counts
        np.testing.assert_array_equal(
            one.ensemble.final_counts, two.ensemble.final_counts
        )

    def test_adaptive_chunk_counts_worker_invariant(self, race_network, race_condition):
        from repro.adaptive import CiHalfWidthTarget
        from repro.adaptive.controller import AdaptiveController

        def run(workers):
            runner = ParallelEnsembleRunner(
                race_network,
                engine="batch-direct",
                stopping=race_condition,
                options=SimulationOptions(record_firings=False),
                workers=workers,
                chunk_size=256,
            )
            target = CiHalfWidthTarget(outcome="A", half_width=0.04, max_trials=8192)
            return AdaptiveController(runner, target).run(23)

        (merged_one, info_one), (merged_two, info_two) = run(1), run(2)
        assert info_one.chunks == info_two.chunks
        assert info_one.rounds == info_two.rounds
        assert merged_one.n_trials == merged_two.n_trials
        assert merged_one.outcome_counts == merged_two.outcome_counts
        np.testing.assert_array_equal(merged_one.final_counts, merged_two.final_counts)

    def test_adaptive_run_is_prefix_of_fixed_run(self, race_network, race_condition):
        from repro.adaptive import CiHalfWidthTarget
        from repro.adaptive.controller import AdaptiveController

        runner = ParallelEnsembleRunner(
            race_network,
            engine="batch-direct",
            stopping=race_condition,
            options=SimulationOptions(record_firings=False),
            workers=1,
            chunk_size=256,
        )
        target = CiHalfWidthTarget(outcome="A", half_width=0.05, max_trials=8192)
        merged, _info = AdaptiveController(runner, target).run(29)
        fixed = runner.run(n_trials=merged.n_trials, seed=29)
        assert merged.outcome_counts == fixed.outcome_counts
        np.testing.assert_array_equal(merged.final_counts, fixed.final_counts)


# ---------------------------------------------------------------------------
# scale regressions
# ---------------------------------------------------------------------------


class TestScaleRegressions:
    def test_batch_wider_than_random_block_cap(self):
        """One sweep step needs n_active draws: 20k trials > MAX_BLOCK (16384)."""
        network = parse_network("x ->{1} 0\ninit: x = 3")
        engine = BatchDirectEngine(network, seed=1)
        batch = engine.run_batch(20_000)
        assert batch.n_trials == 20_000
        assert all(reason == StopReason.EXHAUSTED for reason in batch.stop_reasons)
        np.testing.assert_array_equal(
            batch.firing_counts.sum(axis=1), np.full(20_000, 3)
        )

    def test_batch_blocks_scale_with_trial_count(self):
        blocks = batch_random_blocks(np.random.default_rng(0), 500_000)
        exp = blocks.refill_exponential(0, need=500_000)
        assert len(exp) >= 500_000
        uni = blocks.refill_uniform(0, need=500_000)
        assert len(uni) >= 500_000

    def test_network_wider_than_block_cap(self):
        """Extends the PR-4 9000-reaction refill regression to the batch sweep."""
        n = 9000
        network = ReactionNetwork(
            reactions=[Reaction({f"a{i}": 1}, {}, rate=1.0) for i in range(n)],
            initial_state={f"a{i}": 1 for i in range(n)},
        )
        engine = BatchDirectEngine(network, seed=1)
        batch = engine.run_batch(4, max_steps=3)
        np.testing.assert_array_equal(batch.firing_counts.sum(axis=1), np.full(4, 3))
        assert all(reason == StopReason.MAX_STEPS for reason in batch.stop_reasons)


# ---------------------------------------------------------------------------
# numpy <-> numba bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestBatchBitIdentity:
    def _run(self, network, condition, backend, n_trials=500):
        engine = BatchDirectEngine(network, seed=123)
        return engine.run_batch(n_trials, stopping=condition, backend=backend)

    def test_sweep_bit_identical_across_backends(self, race_network, race_condition):
        numpy_batch = self._run(race_network, race_condition, "numpy")
        numba_batch = self._run(race_network, race_condition, "numba")
        np.testing.assert_array_equal(
            numpy_batch.final_counts, numba_batch.final_counts
        )
        np.testing.assert_array_equal(numpy_batch.final_times, numba_batch.final_times)
        np.testing.assert_array_equal(
            numpy_batch.firing_counts, numba_batch.firing_counts
        )
        assert list(numpy_batch.stop_details) == list(numba_batch.stop_details)
        assert [str(r) for r in numpy_batch.stop_reasons] == [
            str(r) for r in numba_batch.stop_reasons
        ]

    def test_mixed_stops_bit_identical(self, race_network):
        # No condition: every trial runs to exhaustion or the caps, exercising
        # the compaction paths on both backends.
        one = BatchDirectEngine(race_network, seed=9).run_batch(
            300, max_time=2.0, max_steps=80
        )
        two_engine = BatchDirectEngine(race_network, seed=9)
        two = two_engine.run_batch(300, max_time=2.0, max_steps=80, backend="numba")
        np.testing.assert_array_equal(one.final_counts, two.final_counts)
        np.testing.assert_array_equal(one.final_times, two.final_times)

    def test_wide_batch_bit_identical(self, race_network, race_condition):
        numpy_batch = self._run(race_network, race_condition, "numpy", n_trials=100_000)
        numba_batch = self._run(race_network, race_condition, "numba", n_trials=100_000)
        np.testing.assert_array_equal(
            numpy_batch.final_counts, numba_batch.final_counts
        )
        np.testing.assert_array_equal(numpy_batch.final_times, numba_batch.final_times)


# ---------------------------------------------------------------------------
# numpy <-> numba kernel source, run under CPython
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def numba_source_backend():
    """The numba backend built from its kernel source with an identity ``njit``.

    The jitted functions then run as plain Python, so the numba sweep's op
    order is checked against numpy without numba installed.  Tests only: it
    is handed to engines by patching, never registered as a backend.
    """
    from repro.sim.kernels.numba_backend import NumbaKernelBackend, _build_kernels

    return NumbaKernelBackend(_build_kernels(SimpleNamespace(njit=lambda **_: lambda f: f)))


class TestNumbaSourceIdentity:
    """``run_group`` and the per-trial engines' ``run_slice`` on numpy vs the
    numba kernel source: bit-identical."""

    def _assert_identical(self, monkeypatch, backend, network, chunks, **kwargs):
        import repro.sim.batch as batch_module

        expected = BatchDirectEngine(network).run_group(chunks, backend="numpy", **kwargs)
        monkeypatch.setattr(batch_module, "resolve_run_backend", lambda *args: backend)
        got = BatchDirectEngine(network).run_group(chunks, **kwargs)
        np.testing.assert_array_equal(got.final_counts, expected.final_counts)
        np.testing.assert_array_equal(got.final_times, expected.final_times)
        np.testing.assert_array_equal(got.firing_counts, expected.firing_counts)
        assert list(got.stop_reasons) == list(expected.stop_reasons)
        assert list(got.stop_details) == list(expected.stop_details)
        return expected

    def test_race_group_mixed_stops(self, monkeypatch, numba_source_backend):
        # Annihilation makes trials exhaust at different steps, mid-sweep.
        # Its propensity is a large, inexactly rounded share of the total, so
        # a reassociated product or sum changes the waits.
        network = parse_network(
            """
            init: ea = 70
            init: eb = 30
            ea ->{1.1} wa
            eb ->{0.9} wb
            ea + eb ->{0.03} 0
            """
        )
        batch = self._assert_identical(
            monkeypatch, numba_source_backend, network,
            [(60, 1), (50, 2), (40, 3)], max_time=4.5, max_steps=86,
        )
        assert set(batch.stop_reasons) == {
            StopReason.EXHAUSTED, StopReason.MAX_TIME, StopReason.MAX_STEPS
        }

    def test_example1(self, monkeypatch, numba_source_backend):
        from repro.core.synthesizer import synthesize_distribution

        system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)
        batch = self._assert_identical(
            monkeypatch, numba_source_backend, system.network_with_inputs(None),
            [(100, 17)], stopping=system.stopping_condition(10),
        )
        assert set(batch.stop_reasons) == {StopReason.CONDITION}

    def test_reactant_coefficients_two_and_three(self, monkeypatch, numba_source_backend):
        network = parse_network(
            """
            init: a = 30
            init: c = 10
            a + b ->{2.5} c
            2 a ->{0.5} b
            b ->{3} 0
            3 c ->{0.25} a
            """
        )
        batch = self._assert_identical(
            monkeypatch, numba_source_backend, network,
            [(300, 4), (300, 5), (200, 6)],
            stopping=SpeciesThreshold("c", 13), max_steps=30,
        )
        assert set(batch.stop_reasons) == {StopReason.CONDITION, StopReason.MAX_STEPS}

    # -- per-trial slices --------------------------------------------------------

    PER_TRIAL_ENGINES = ("direct", "first-reaction", "next-reaction")

    def _assert_slices_identical(
        self, monkeypatch, backend, network, n_trials, stopping=None, **options
    ):
        """``run_slice`` of every per-trial engine on both backends; returns
        the numpy batches by engine."""
        import repro.sim.base as base_module

        options = SimulationOptions(record_firings=False, backend="numpy", **options)
        batches = {}
        for engine in self.PER_TRIAL_ENGINES:
            def run_slice():
                streams = [np.random.default_rng(seed) for seed in range(n_trials)]
                return make_simulator(network, engine=engine).run_slice(
                    streams, stopping=stopping, options=options
                )

            expected = run_slice()
            with monkeypatch.context() as patch:
                patch.setattr(base_module, "resolve_run_backend", lambda *args: backend)
                got = run_slice()
            np.testing.assert_array_equal(got.final_counts, expected.final_counts)
            np.testing.assert_array_equal(got.final_times, expected.final_times)
            np.testing.assert_array_equal(got.firing_counts, expected.firing_counts)
            assert list(got.stop_reasons) == list(expected.stop_reasons)
            assert list(got.stop_details) == list(expected.stop_details)
            batches[engine] = expected
        return batches

    def test_slices_mixed_stops(self, monkeypatch, numba_source_backend):
        network = parse_network(
            """
            init: ea = 70
            init: eb = 30
            ea ->{1.1} wa
            eb ->{0.9} wb
            ea + eb ->{0.03} 0
            """
        )
        batches = self._assert_slices_identical(
            monkeypatch, numba_source_backend, network, 30, max_time=4.5, max_steps=86
        )
        for batch in batches.values():
            assert set(batch.stop_reasons) == {
                StopReason.EXHAUSTED, StopReason.MAX_TIME, StopReason.MAX_STEPS
            }

    def test_slices_stop_at_t0(self, monkeypatch, race_network, numba_source_backend):
        batches = self._assert_slices_identical(
            monkeypatch, numba_source_backend, race_network, 5,
            stopping=SpeciesThreshold("ea", 50),
        )
        for batch in batches.values():
            assert set(batch.stop_reasons) == {StopReason.CONDITION}
            assert batch.firing_counts.sum() == 0

    def test_slices_long_trials_refill_blocks(self, monkeypatch, numba_source_backend):
        # 3000 firings per trial outgrow the 64-draw first blocks many times
        # over, so every kernel re-enters through its refill statuses.
        network = parse_network("0 ->{10} a\na ->{0.1} 0")
        refills = {"exponential": 0, "uniform": 0}
        for kind in refills:
            def counted(self, position, need=1, _kind=kind,
                        _refill=getattr(RandomBlocks, f"refill_{kind}")):
                refills[_kind] += 1
                return _refill(self, position, need)

            monkeypatch.setattr(RandomBlocks, f"refill_{kind}", counted)
        batches = self._assert_slices_identical(
            monkeypatch, numba_source_backend, network, 2, max_steps=3000
        )
        for batch in batches.values():
            assert set(batch.stop_reasons) == {StopReason.MAX_STEPS}
        assert refills["exponential"] > 0 and refills["uniform"] > 0

    def test_slices_reactant_coefficients_two_and_three(
        self, monkeypatch, numba_source_backend
    ):
        network = parse_network(
            """
            init: a = 30
            init: c = 10
            a + b ->{2.5} c
            2 a ->{0.5} b
            b ->{3} 0
            3 c ->{0.25} a
            """
        )
        batches = self._assert_slices_identical(
            monkeypatch, numba_source_backend, network, 40,
            stopping=SpeciesThreshold("c", 13), max_steps=30,
        )
        for batch in batches.values():
            assert set(batch.stop_reasons) == {StopReason.CONDITION, StopReason.MAX_STEPS}
