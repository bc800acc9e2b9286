"""Per-trial random streams: ``child_streams`` against NumPy's own spawning.

The stream contract fixes trial ``i``'s generator as
``default_rng(SeedSequence(seed).spawn(n)[i])``.  ``child_streams`` derives a
chunk of those streams in one pass without building the children, so these
tests hold it to NumPy itself: the state, the draws, and whole ``run_slice``
chunks on every per-trial engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Experiment
from repro.crn import parse_network
from repro.errors import SimulationError
from repro.sim import (
    PredicateCondition,
    SimulationOptions,
    child_streams,
    derive_seed,
    make_rng,
    make_simulator,
)


def numpy_children(seed: int, start: int, stop: int) -> "list[np.random.SeedSequence]":
    """Children ``start..stop-1`` of ``SeedSequence(seed)``, spawned by NumPy.

    ``spawn`` counts its children in 32 bits, so past that the children are
    built as ``spawn`` builds each one.
    """
    if stop < 2**32:
        return np.random.SeedSequence(seed, n_children_spawned=start).spawn(stop - start)
    root = np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(root.entropy, spawn_key=(i,), pool_size=root.pool_size)
        for i in range(start, stop)
    ]


def _state_and_draws(rng: np.random.Generator):
    state = rng.bit_generator.state
    return state, rng.random(3).tolist(), rng.standard_exponential(2).tolist()


seeds = st.one_of(
    st.just(0),
    st.integers(0, 2**32),
    st.integers(0, 2**256),
    st.integers(2**128, 2**130),
)
starts = st.one_of(
    st.integers(0, 5000),
    st.integers(2**32 - 40, 2**32 + 40),
    st.integers(0, 2**72),
)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, start=starts, width=st.integers(0, 24))
def test_child_streams_are_numpy_children(seed, start, width):
    stop = start + width
    streams = child_streams(seed, start, stop)
    assert len(streams) == width
    got = [_state_and_draws(rng) for rng in streams]
    expected = [
        _state_and_draws(np.random.default_rng(child))
        for child in numpy_children(seed, start, stop)
    ]
    assert got == expected


def test_identity_on_long_ranges_and_key_boundaries():
    for seed, start, stop in [
        (5, 0, 500),
        (2007, 123_456, 124_454),
        (7, 2**32 - 5, 2**32 + 4),
        (11, 2**40, 2**40 + 49),
        (3, 2**64 - 2, 2**64 + 2),
        (2**200 + 17, 0, 40),
    ]:
        got = [rng.bit_generator.state for rng in child_streams(seed, start, stop)]
        expected = [
            np.random.PCG64(child).state for child in numpy_children(seed, start, stop)
        ]
        assert got == expected, (seed, start, stop)


def test_unseeded_streams_differ_between_calls():
    first = [rng.bit_generator.state for rng in child_streams(None, 0, 4)]
    second = [rng.bit_generator.state for rng in child_streams(None, 0, 4)]
    assert first != second
    assert len({str(state) for state in first}) == 4


@pytest.mark.parametrize("seed", [-1, True, False, 1.5, 2.0, "1", np.float64(3.0)])
def test_bad_seeds_are_refused(seed):
    with pytest.raises(SimulationError, match="seed"):
        child_streams(seed, 0, 3)
    with pytest.raises(SimulationError, match="seed"):
        make_rng(seed)
    with pytest.raises(SimulationError, match="seed"):
        derive_seed(seed, "batch", 0, 3)


@pytest.mark.parametrize("start,stop", [(5, 4), (-1, 3)])
def test_bad_ranges_are_refused(start, stop):
    with pytest.raises(SimulationError, match="trial range"):
        child_streams(1, start, stop)


def test_numpy_integer_seed_and_bounds():
    got = [rng.bit_generator.state for rng in child_streams(np.int64(9), np.int64(2), 5)]
    assert got == [rng.bit_generator.state for rng in child_streams(9, 2, 5)]


#: Annihilation makes trials exhaust at different steps, and the stop below
#: reads the counts through a callback, reset for every trial.
RACE = """
init: ea = 40
init: eb = 25
ea ->{1.1} wa
eb ->{0.9} wb
ea + eb ->{0.03} 0
"""


def _wa_reaches(time, state):
    return "wa" if state["wa"] >= 26 else None


@pytest.mark.parametrize(
    "engine", ["direct", "first-reaction", "next-reaction", "tau-leaping"]
)
@pytest.mark.parametrize("seed,start,stop", [(13, 0, 40), (2007, 4_000, 4_025)])
def test_run_slice_on_child_streams_equals_numpy_children(engine, seed, start, stop):
    simulator = make_simulator(parse_network(RACE), engine=engine)
    stopping = PredicateCondition(_wa_reaches)
    options = SimulationOptions(record_firings=False, max_steps=50)
    got = simulator.run_slice(child_streams(seed, start, stop), None, stopping, options)
    expected = simulator.run_slice(
        [
            np.random.default_rng(child)
            for child in np.random.SeedSequence(seed).spawn(stop)[start:stop]
        ],
        None, stopping, options,
    )
    np.testing.assert_array_equal(got.final_counts, expected.final_counts)
    np.testing.assert_array_equal(got.final_times, expected.final_times)
    np.testing.assert_array_equal(got.firing_counts, expected.firing_counts)
    assert got.stop_reasons.tolist() == expected.stop_reasons.tolist()
    assert got.stop_details.tolist() == expected.stop_details.tolist()
    assert len(set(got.final_times.tolist())) > 1


def test_boolean_seed_is_refused_by_simulate(tmp_path):
    experiment = Experiment.from_network(parse_network(RACE))
    with pytest.raises(SimulationError, match="seed"):
        experiment.simulate(trials=5, engine="direct", seed=True)
    with pytest.raises(SimulationError, match="seed"):
        experiment.simulate(trials=5, engine="direct", seed=True, store=tmp_path / "store")
