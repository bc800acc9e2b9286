"""The sequential controller: extend a deterministic chunk schedule until done.

Precision-targeted sampling reuses the ensemble layer's worker-invariant
chunk schedule instead of inventing its own randomness.  The schedule fixes,
up front and independently of how many trials will ultimately run, that
trial ``i`` draws its random stream from the global index ``i`` (and that a
batched chunk ``[start, stop)`` draws one sub-seed from its bounds) — so the
first ``k`` chunks of an adaptive run are *bit-identical* to the first ``k``
chunks of any fixed-budget run with the same ``(seed, chunk_size)``, at any
worker count.

The controller therefore only ever decides *how many whole chunks to
reveal*: it runs a round of chunks, merges all shards, evaluates the
declared :class:`~repro.adaptive.targets.PrecisionTarget` on the merged
statistics, and either stops or grows the total chunk count.  Each round
goes as far as the target's own prediction of the trials it needs
(:meth:`~repro.adaptive.targets.PrecisionTarget.required_trials`, rounded up
to whole chunks), but at least one chunk further and never past double the
chunks consumed so far; a target with no prediction simply doubles.  The
doubling cap keeps the number of rounds logarithmic and the overshoot past
the minimal sufficient budget within 2x.  Because the growth decision
depends only on merged, worker-invariant statistics at chunk boundaries, the
*number of chunks consumed* — not just their contents — is itself invariant
across ``workers=1/2/4``; the tests assert exactly that.
"""

from __future__ import annotations

import math

from repro.adaptive.result import AdaptiveInfo
from repro.adaptive.targets import PrecisionTarget, TargetStatus
from repro.errors import AdaptiveError
from repro.sim.ensemble import EnsembleResult, ParallelEnsembleRunner

__all__ = ["AdaptiveController"]


class AdaptiveController:
    """Run whole seeded chunks until a precision target is met.

    Parameters
    ----------
    runner:
        A configured :class:`~repro.sim.ensemble.ParallelEnsembleRunner`;
        its ``chunk_size`` defines the schedule granularity and its
        ``workers`` only affects wall-clock time, never results.
    target:
        The declared :class:`~repro.adaptive.targets.PrecisionTarget`.
    """

    def __init__(self, runner: ParallelEnsembleRunner, target: PrecisionTarget) -> None:
        if not isinstance(target, PrecisionTarget):
            raise AdaptiveError(
                f"expected a PrecisionTarget, got {type(target).__name__}"
            )
        self.runner = runner
        self.target = target

    def _bounds(self, first_chunk: int, last_chunk: int) -> "list[tuple[int, int]]":
        """Chunk slices ``[first_chunk, last_chunk)`` of the global schedule."""
        chunk = self.runner.chunk_size
        ceiling = int(self.target.max_trials)
        return [
            (index * chunk, min((index + 1) * chunk, ceiling))
            for index in range(first_chunk, last_chunk)
        ]

    def run(self, seed: "int | None") -> "tuple[EnsembleResult, AdaptiveInfo]":
        """Execute the sequential schedule; returns (merged ensemble, record)."""
        if seed is None:
            raise AdaptiveError(
                "adaptive runs must be seeded: the sequential controller extends "
                "a deterministic chunk schedule, which seed=None does not define"
            )
        chunk = self.runner.chunk_size
        max_chunks = max(1, math.ceil(self.target.max_trials / chunk))
        min_trials = int(getattr(self.target, "min_trials", 0) or 0)
        goal = min(max_chunks, max(1, math.ceil(min_trials / chunk)))

        shards: list[EnsembleResult] = []
        consumed = 0
        rounds = 0
        status: TargetStatus
        while True:
            shards.extend(
                self.runner.run_chunks(self._bounds(consumed, goal), seed=seed)
            )
            consumed = goal
            rounds += 1
            merged = EnsembleResult.merge(shards)
            status = self.target.evaluate(merged)
            if status.met or consumed >= max_chunks:
                break
            goal = min(max_chunks, consumed * 2)
            needed = self.target.required_trials(merged)
            if needed is not None:
                goal = min(goal, max(consumed + 1, math.ceil(needed / chunk)))

        info = AdaptiveInfo(
            rule=self.target.rule,
            until=self.target.to_descriptor(),
            chunks=consumed,
            rounds=rounds,
            met=status.met,
            detail=status.detail,
            achieved=dict(status.achieved),
        )
        return merged, info
