"""The indexed priority queue of the Gibson–Bruck next-reaction method.

The next-reaction method keeps one tentative absolute firing time per
reaction and repeatedly needs (a) the minimum, and (b) the ability to update
an arbitrary reaction's time in O(log n).  A binary min-heap augmented with a
position index provides exactly that (Gibson & Bruck 2000, section "indexed
priority queue").

:class:`ArrayHeap` holds that heap in three contiguous ndarrays (``keys``
float64, ``items``/``positions`` int64) with sift-up/sift-down as pure
index arithmetic — heapify from ``n//2 - 1`` down, strict-comparison sift
on update.  The array layout is what the kernel backends need: the
interpreted numpy kernel drives it through the method API, and the numba
kernel mutates the three arrays directly inside jitted sift functions
running the same arithmetic, so both hold the same heap layout and return
the same minimum even under ties.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = ["ArrayHeap"]


class ArrayHeap:
    """Indexed binary min-heap over contiguous arrays.

    Items are the integers ``0 .. n-1`` (reaction indices); keys are floats
    (tentative firing times, possibly ``inf``).  The state is held in three
    flat ndarrays:

    * ``keys``      — float64 ``(n,)``, item → tentative firing time;
    * ``items``     — int64 ``(n,)``, heap position → item;
    * ``positions`` — int64 ``(n,)``, item → heap position.

    The numba next-reaction kernel receives these arrays directly and runs
    the identical sift arithmetic inside jitted code, so a heap built here
    and driven by either backend evolves through the same layouts.
    """

    def __init__(self, keys: Iterable[float]) -> None:
        self.keys = np.array([float(k) for k in keys], dtype=np.float64)
        n = self.keys.shape[0]
        self.items = np.arange(n, dtype=np.int64)
        self.positions = np.arange(n, dtype=np.int64)
        for start in range(n // 2 - 1, -1, -1):
            self._sift_down(start)

    def __len__(self) -> int:
        return self.keys.shape[0]

    def key(self, item: int) -> float:
        """Current key of ``item``."""
        return float(self.keys[item])

    def min(self) -> tuple[int, float]:
        """The item with the smallest key and that key."""
        if self.items.shape[0] == 0:
            raise IndexError("priority queue is empty")
        item = int(self.items[0])
        return item, float(self.keys[item])

    def update(self, item: int, key: float) -> None:
        """Change the key of ``item`` and restore the heap property."""
        keys = self.keys
        old = keys[item]
        keys[item] = key
        position = self.positions[item]
        if key < old:
            self._sift_up(position)
        elif key > old:
            self._sift_down(position)

    # -- internal heap operations ------------------------------------------------

    def _sift_up(self, position: int) -> None:
        items, keys, positions = self.items, self.keys, self.positions
        while position > 0:
            parent = (position - 1) // 2
            child = items[position]
            above = items[parent]
            if keys[child] < keys[above]:
                items[position] = above
                items[parent] = child
                positions[above] = position
                positions[child] = parent
                position = parent
            else:
                return

    def _sift_down(self, position: int) -> None:
        items, keys, positions = self.items, self.keys, self.positions
        size = items.shape[0]
        while True:
            left = 2 * position + 1
            right = left + 1
            smallest = position
            if left < size and keys[items[left]] < keys[items[smallest]]:
                smallest = left
            if right < size and keys[items[right]] < keys[items[smallest]]:
                smallest = right
            if smallest == position:
                return
            a = items[position]
            b = items[smallest]
            items[position] = b
            items[smallest] = a
            positions[b] = position
            positions[a] = smallest
            position = smallest

    # -- diagnostics ---------------------------------------------------------------

    def is_valid(self) -> bool:
        """Check the heap property and index consistency (used by property tests)."""
        items, keys, positions = self.items, self.keys, self.positions
        size = items.shape[0]
        for i in range(size):
            item = items[i]
            if positions[item] != i:
                return False
            left, right = 2 * i + 1, 2 * i + 2
            if left < size and keys[items[left]] < keys[item]:
                return False
            if right < size and keys[items[right]] < keys[item]:
                return False
        return True

    def as_dict(self) -> dict[int, float]:
        """Snapshot of item → key (for tests and debugging)."""
        return {item: float(self.keys[item]) for item in range(self.keys.shape[0])}

    def finite_items(self) -> list[int]:
        """Items whose key is finite."""
        return [
            item for item in range(self.keys.shape[0])
            if math.isfinite(self.keys[item])
        ]
