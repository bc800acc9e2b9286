"""Chunked random-number sourcing for the simulation kernels.

Per-event ``Generator`` method calls dominate the cost of a Python-level SSA
loop (one ``rng.exponential()`` call costs ~1µs; the value itself costs
~5ns).  :class:`RandomBlocks` amortizes that overhead by pre-drawing blocks
of standard exponentials and uniforms which the kernels then consume by
cursor.

Determinism contract
--------------------
The blocks are the *only* randomness a kernel sees, and refills never
discard values: a refill compacts the unconsumed tail to the front of the
block and tops it up with fresh draws.  The sequence of values a kernel
consumes is therefore exactly the generator's output stream (exponentials
and uniforms interleaved by refill order), independent of block size or
where refills happen — which is what makes the numpy and numba backends
bit-identical: both are driven by the same :class:`RandomBlocks` instance
policy and consume the same values in the same order.

Blocks start small (a short trajectory should not pay for 4096 draws) and
double on refill up to a cap, so long runs converge to large, cheap bulk
draws.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomBlocks"]

#: Default initial block length (grows by doubling on refill).
DEFAULT_BLOCK = 256
#: Ceiling on the block length.
MAX_BLOCK = 16384


class RandomBlocks:
    """Pre-drawn exponential/uniform blocks with compacting, growing refills."""

    def __init__(
        self,
        rng: np.random.Generator,
        initial: int = DEFAULT_BLOCK,
        maximum: int = MAX_BLOCK,
    ) -> None:
        if initial <= 0:
            raise ValueError(f"initial block size must be positive, got {initial}")
        self._rng = rng
        self._maximum = max(int(maximum), int(initial))
        self.exponential = rng.standard_exponential(int(initial))
        self.uniform = rng.random(int(initial))

    @classmethod
    def resumed(
        cls,
        rng: np.random.Generator,
        exponential: np.ndarray,
        uniform: np.ndarray,
        maximum: int = MAX_BLOCK,
    ) -> "RandomBlocks":
        """Blocks a trial already drew from ``rng``, which is left where
        those draws left it: nothing is drawn until the next refill."""
        blocks = cls.__new__(cls)
        blocks._rng = rng
        blocks._maximum = int(maximum)
        blocks.exponential = exponential
        blocks.uniform = uniform
        return blocks

    def _refill(self, block: np.ndarray, position: int, draw, need: int) -> np.ndarray:
        remaining = block.shape[0] - position
        floor = remaining + max(int(need), 1)  # post-refill guarantee
        new_size = min(max(block.shape[0] * 2, floor), max(self._maximum, floor))
        fresh = np.empty(new_size, dtype=np.float64)
        if remaining > 0:
            fresh[:remaining] = block[position:]
        fresh[remaining:] = draw(new_size - remaining)
        return fresh

    def refill_exponential(self, position: int, need: int = 1) -> np.ndarray:
        """Compact the tail from ``position`` and top up with fresh draws.

        The refilled block is guaranteed to hold at least ``need`` values
        (the first-reaction/next-reaction kernels may consume one draw per
        reaction in a single event, which can exceed the doubling cap on
        very large networks).  Returns the new block; the caller resumes
        consuming at index 0.
        """
        self.exponential = self._refill(
            self.exponential, position, self._rng.standard_exponential, need
        )
        return self.exponential

    def refill_uniform(self, position: int, need: int = 1) -> np.ndarray:
        """Same as :meth:`refill_exponential` for the uniform block."""
        self.uniform = self._refill(self.uniform, position, self._rng.random, need)
        return self.uniform
