"""The lock-step ``direct`` slice: every row is the run of its own stream.

On the numpy backend, ``DirectMethodSimulator.run_slice`` advances a
slice's trials together, one event per trial per step, and hands the last
few to the scalar kernel (:data:`~repro.sim.kernels.numpy_backend
.LOCKSTEP_TRIALS`).  Each trial still draws only from its own stream, so
row ``i`` must equal ``run(seed=<trial i's stream>)`` bit for bit: the
final counts, time, firing totals and stop.  These tests check that over
the corpus, Example 1, every kind of stop, block refills, hand-offs at
several active counts, large counts and reactions of molecularity 3, and
that a listed generator ends in the state a run leaves it in.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crn import parse_network
from repro.errors import SimulationError
from repro.sim import SimulationOptions, SpeciesThreshold, make_simulator, merge_options
from repro.sim.kernels import numpy_backend
from repro.sim.kernels.numpy_backend import LOCKSTEP_TRIALS, NumpyKernelBackend
from repro.sim.rng import child_streams
from repro.sim.trajectory import StopReason

#: The lock-step slice is the numpy backend's; ``auto`` would pick numba
#: where it is installed.
OPTIONS = SimulationOptions(record_firings=False, backend="numpy")


def _models() -> "dict[str, tuple]":
    """``{name: (network, stopping)}`` for Example 1 and the corpus."""
    from repro.core.synthesizer import synthesize_distribution
    from repro.zoo.corpus import corpus_entries

    system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)
    models = {"example-1": (system.network_with_inputs(None), system.stopping_condition(10))}
    for entry in corpus_entries():
        models[entry.name] = (entry.model.network(), entry.model.stopping())
    return models


MODELS = _models()


def _child(seed: int, index: int) -> np.random.Generator:
    """Trial ``index``'s stream, as NumPy spawns it."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _assert_rows_are_runs(simulator, batch, generators, stopping, options=OPTIONS):
    """Row ``i`` of ``batch`` equals ``run`` on the ``i``-th generator."""
    assert batch.n_trials == len(generators)
    for trial, rng in enumerate(generators):
        run = simulator.run(stopping=stopping, options=options, seed=rng)
        np.testing.assert_array_equal(
            batch.final_counts[trial], run.final_state.to_vector(batch.species)
        )
        assert batch.final_times[trial] == run.final_time, trial
        np.testing.assert_array_equal(batch.firing_counts[trial], run.firing_counts)
        assert batch.stop_reasons[trial] == run.stop_reason, trial
        assert batch.stop_details[trial] == run.stop_detail, trial


def _check_child_slice(network, stopping, seed, start, stop, options=OPTIONS):
    simulator = make_simulator(network, engine="direct")
    batch = simulator.run_slice(child_streams(seed, start, stop), None, stopping, options)
    references = [_child(seed, i) for i in range(start, stop)]
    _assert_rows_are_runs(simulator, batch, references, stopping, options)
    return batch


@pytest.fixture
def calls(monkeypatch):
    """Counts of lock-step slices and of the trials they hand to the
    scalar kernel."""
    counts = {"slices": 0, "scalar": 0}
    inside = []
    run_slice = NumpyKernelBackend.run_direct_slice
    run = NumpyKernelBackend.run

    def counted_slice(self, *args, **kwargs):
        counts["slices"] += 1
        inside.append(True)
        try:
            return run_slice(self, *args, **kwargs)
        finally:
            inside.pop()

    def counted_run(self, kernel_name, job, **resume):
        counts["scalar"] += bool(inside)
        return run(self, kernel_name, job, **resume)

    monkeypatch.setattr(NumpyKernelBackend, "run_direct_slice", counted_slice)
    monkeypatch.setattr(NumpyKernelBackend, "run", counted_run)
    return counts


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("seed", [3, 2007])
def test_corpus_rows_are_runs(model, seed, calls):
    network, stopping = MODELS[model]
    _check_child_slice(network, stopping, seed, 1000, 1300)
    assert calls["slices"] == 1


@pytest.mark.parametrize("model", ["example-1", "toggle-switch", "birth-death"])
@pytest.mark.parametrize("options", [
    merge_options(OPTIONS, {"max_time": 0.05}),
    merge_options(OPTIONS, {"max_time": 2.0}),
    merge_options(OPTIONS, {"max_steps": 1}),
    merge_options(OPTIONS, {"max_steps": 7}),
], ids=["max_time=0.05", "max_time=2", "max_steps=1", "max_steps=7"])
def test_horizon_and_step_cap_rows_are_runs(model, options):
    network, stopping = MODELS[model]
    batch = _check_child_slice(network, stopping, 17, 0, 200, options)
    if options.max_steps == 1:
        assert set(batch.stop_reasons) <= {StopReason.MAX_STEPS, StopReason.CONDITION}
        assert batch.firing_counts.sum(axis=1).max() == 1


def test_condition_at_start_draws_nothing(race_network, calls):
    # Every trial stops at t=0: the slice runs no kernel and leaves its
    # generators untouched.
    simulator = make_simulator(race_network, engine="direct")
    generators = [np.random.default_rng(seed) for seed in range(LOCKSTEP_TRIALS + 8)]
    states = [rng.bit_generator.state for rng in generators]
    batch = simulator.run_slice(
        generators, stopping=SpeciesThreshold("e2", 40), options=OPTIONS
    )
    assert set(batch.stop_reasons) == {StopReason.CONDITION}
    assert not batch.firing_counts.any() and not batch.final_times.any()
    assert [rng.bit_generator.state for rng in generators] == states
    assert calls == {"slices": 0, "scalar": 0}


@pytest.mark.parametrize(
    "n", [1, LOCKSTEP_TRIALS - 1, LOCKSTEP_TRIALS, LOCKSTEP_TRIALS + 1, 512]
)
def test_slice_widths(n, calls):
    network, stopping = MODELS["toggle-switch"]
    _check_child_slice(network, stopping, 5, 40, 40 + n)
    assert calls["slices"] == (n >= LOCKSTEP_TRIALS)


def test_short_trials_hand_few_trials_to_the_scalar_kernel(calls):
    # A silent fallback to the per-trial loop would call the scalar kernel
    # once per trial.
    network, stopping = MODELS["toggle-switch"]
    simulator = make_simulator(network, engine="direct")
    batch = simulator.run_slice(child_streams(9, 0, 512), None, stopping, OPTIONS)
    assert batch.n_trials == 512
    assert calls["slices"] == 1
    assert 0 < calls["scalar"] < LOCKSTEP_TRIALS


@pytest.mark.parametrize("threshold", [1, 16, 24, 48, 64])
@pytest.mark.parametrize("model", ["example-1", "birth-death", "stiff-cascade"])
def test_hand_off_at_several_active_counts(monkeypatch, model, threshold, calls):
    # Threshold 1 keeps every trial in lock-step to its stop.
    monkeypatch.setattr(numpy_backend, "LOCKSTEP_TRIALS", threshold)
    network, stopping = MODELS[model]
    _check_child_slice(network, stopping, 23, 0, 150)
    assert calls["slices"] == 1
    if threshold == 1:
        assert calls["scalar"] == 0


@pytest.mark.parametrize("threshold", [1, LOCKSTEP_TRIALS])
def test_long_trials_outrun_several_blocks(monkeypatch, threshold):
    # birth-death trials run to hundreds of events: their 64-draw first
    # blocks are refilled at 64, 192 and 448 events, in lock-step or after
    # the hand-off.
    monkeypatch.setattr(numpy_backend, "LOCKSTEP_TRIALS", threshold)
    network, stopping = MODELS["birth-death"]
    batch = _check_child_slice(network, stopping, 31, 0, 200)
    assert batch.firing_counts.sum(axis=1).max() > 64 + 128 + 256


#: Molecularity 3 as one species (3 a) and as three reactants (a + b + c),
#: next to the closed forms of molecularity 1 and 2.
TERNARY = """
init: a = 40
init: b = 25
init: c = 12
a + b + c ->{0.002} d
3 a ->{0.0004} b
2 b + c ->{0.001} a
a + b ->{0.01} c
2 c ->{0.05} a
d ->{0.3} 0
"""


@pytest.mark.parametrize("threshold", [1, LOCKSTEP_TRIALS])
def test_molecularity_three(monkeypatch, threshold):
    monkeypatch.setattr(numpy_backend, "LOCKSTEP_TRIALS", threshold)
    batch = _check_child_slice(
        parse_network(TERNARY), SpeciesThreshold("d", 6), 41, 0, 300,
        merge_options(OPTIONS, {"max_steps": 30}),
    )
    assert set(batch.stop_reasons) == {StopReason.CONDITION, StopReason.MAX_STEPS}
    assert batch.firing_counts.sum(axis=0).all()


def test_counts_past_exact_float_arithmetic_hand_off(calls):
    # With molecularity 2, counts above 94906265 can make a combination
    # count exceed 2**53, so those trials finish on the scalar kernel's
    # exact integers: here a starts 5 below that and grows by one a step.
    limit = 94_906_265
    network = parse_network(
        f"""
        init: src = 1
        init: a = {limit - 5}
        src ->{{1}} src + a
        2 a ->{{1e-30}} 0
        """
    )
    simulator = make_simulator(network, engine="direct")
    assert numpy_backend._Propensities(simulator.compiled).limit == limit
    n = 2 * LOCKSTEP_TRIALS
    _check_child_slice(network, SpeciesThreshold("a", limit + 20), 3, 0, n)
    assert calls["scalar"] == n


@pytest.mark.parametrize("model", ["toggle-switch", "birth-death"])
def test_listed_generators_end_where_runs_leave_them(model, calls):
    network, stopping = MODELS[model]
    simulator = make_simulator(network, engine="direct")
    n = 3 * LOCKSTEP_TRIALS
    generators = [np.random.default_rng(seed) for seed in range(n)]
    batch = simulator.run_slice(generators, stopping=stopping, options=OPTIONS)
    references = [np.random.default_rng(seed) for seed in range(n)]
    _assert_rows_are_runs(simulator, batch, references, stopping)
    assert calls["slices"] == 1
    assert [rng.bit_generator.state for rng in generators] == [
        rng.bit_generator.state for rng in references
    ]


def test_a_generator_listed_twice_runs_on_the_loop(calls):
    # The second trial on a generator continues where the first left it.
    network, stopping = MODELS["birth-death"]
    simulator = make_simulator(network, engine="direct")
    shared = np.random.default_rng(8)
    generators = [shared, *(np.random.default_rng(s) for s in range(LOCKSTEP_TRIALS))]
    batch = simulator.run_slice(generators + [shared], stopping=stopping, options=OPTIONS)
    reference = np.random.default_rng(8)
    references = [reference, *(np.random.default_rng(s) for s in range(LOCKSTEP_TRIALS))]
    _assert_rows_are_runs(simulator, batch, references + [reference], stopping)
    assert calls["slices"] == 0


def test_non_finite_wait_raises_as_a_run_does(calls):
    # A total propensity of 1e-320 turns every exponential into an
    # infinite wait.
    network = parse_network("init: a = 1\na ->{1e-320} b")
    simulator = make_simulator(network, engine="direct")
    stopping = SpeciesThreshold("b", 1)
    with pytest.raises(SimulationError) as from_run:
        simulator.run(stopping=stopping, options=OPTIONS, seed=1)
    with pytest.raises(SimulationError) as from_slice:
        simulator.run_slice(
            child_streams(1, 0, 2 * LOCKSTEP_TRIALS), None, stopping, OPTIONS
        )
    assert str(from_slice.value) == str(from_run.value)
    assert "non-finite" in str(from_slice.value)
    assert calls["slices"] == 1
