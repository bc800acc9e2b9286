"""Tests (including property-based tests) for the indexed priority queue.

:class:`ArrayHeap` is the Gibson–Bruck indexed priority queue the
next-reaction kernels drive.  Beyond unit tests, hypothesis checks that
every construction and every sequence of key updates — ties included —
keeps the heap valid (:meth:`ArrayHeap.is_valid`: heap order plus a
consistent position index) and its minimum equal to ``min(keys)``.  The
seeded next-reaction streams it produces are pinned across the
conformance corpus by ``tests/test_stream_pins.py``.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import ArrayHeap


class TestBasics:
    def test_min_of_initial_keys(self):
        q = ArrayHeap([3.0, 1.0, 2.0])
        assert q.min() == (1, 1.0)

    def test_update_raises_key(self):
        q = ArrayHeap([3.0, 1.0, 2.0])
        q.update(1, 5.0)
        assert q.min() == (2, 2.0)

    def test_update_lowers_key(self):
        q = ArrayHeap([3.0, 1.0, 2.0])
        q.update(0, 0.5)
        assert q.min() == (0, 0.5)

    def test_key_lookup(self):
        q = ArrayHeap([3.0, 1.0])
        assert q.key(0) == 3.0
        q.update(0, 9.0)
        assert q.key(0) == 9.0

    def test_infinite_keys_supported(self):
        q = ArrayHeap([math.inf, 2.0, math.inf])
        assert q.min() == (1, 2.0)
        assert q.finite_items() == [1]

    def test_empty_queue_min_raises(self):
        with pytest.raises(IndexError):
            ArrayHeap([]).min()

    def test_len_and_as_dict(self):
        q = ArrayHeap([1.0, 2.0])
        assert len(q) == 2
        assert q.as_dict() == {0: 1.0, 1: 2.0}

    def test_is_valid_after_operations(self):
        q = ArrayHeap([5.0, 4.0, 3.0, 2.0, 1.0])
        assert q.is_valid()
        q.update(4, 10.0)
        q.update(0, 0.0)
        assert q.is_valid()

    def test_is_valid_detects_a_broken_heap(self):
        q = ArrayHeap([1.0, 2.0, 3.0])
        q.keys[q.items[0]] = 9.0  # bypass update(): heap order no longer holds
        assert not q.is_valid()


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=40))
def test_property_min_matches_python_min(keys):
    q = ArrayHeap(keys)
    item, key = q.min()
    assert key == min(keys)
    assert keys[item] == key
    assert q.is_valid()


@settings(max_examples=300, deadline=None)
@given(
    keys=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=25),
    updates=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=24),
            st.one_of(st.floats(min_value=0, max_value=1e6), st.just(math.inf)),
        ),
        max_size=40,
    ),
    tie_every=st.integers(min_value=0, max_value=3),
)
def test_property_updates_preserve_heap_invariant(keys, updates, tie_every):
    """Every update keeps the heap valid and its minimum equal to ``min(keys)``.

    ``tie_every`` coerces a fraction of update keys onto existing values so
    tie handling (strict-comparison sifts leave order untouched) is
    exercised, not just generic keys; ``inf`` keys model reactions that can
    no longer fire.
    """
    q = ArrayHeap(keys)
    shadow = list(keys)
    for step, (item, new_key) in enumerate(updates):
        item = item % len(shadow)
        if tie_every and step % (tie_every + 1) == tie_every:
            new_key = shadow[(item + 1) % len(shadow)]  # force a tie
        q.update(item, new_key)
        shadow[item] = new_key
        assert q.is_valid()
        min_item, min_key = q.min()
        assert min_key == min(shadow)
        assert shadow[min_item] == min_key
    assert q.as_dict() == dict(enumerate(shadow))
