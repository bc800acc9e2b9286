"""Gibson–Bruck next-reaction method (cited as [7] in the paper).

The next-reaction method is an exact SSA that stores one tentative *absolute*
firing time per reaction in an indexed priority queue and, after each firing,
only refreshes the reactions that depend on the one that fired.  Unused
exponential random numbers are re-scaled rather than redrawn, which keeps the
method exact while using a single random number per event in the steady state.

For the small networks in this paper the direct method is usually fast enough;
the next-reaction engine exists (a) as an independent correctness cross-check
and (b) for the SSA-engine ablation benchmark (experiment A2 in DESIGN.md).
"""

from __future__ import annotations

from repro.sim.base import StochasticSimulator
from repro.sim.registry import register_engine

__all__ = ["NextReactionSimulator"]


@register_engine(
    "next-reaction",
    kind="per-trial",
    exact=True,
    summary="Gibson-Bruck next-reaction method (indexed priority queue)",
)
class NextReactionSimulator(StochasticSimulator):
    """Exact SSA via the Gibson–Bruck next-reaction method.

    Runs the ``next-reaction`` kernel over the ndarray-backed
    :class:`~repro.sim.priority_queue.ArrayHeap`: the numpy kernel drives it
    through its method API, and the ``numba`` kernel runs identical sift
    arithmetic on the same three arrays inside jitted code (bit-identical
    to numpy).
    """

    method_name = "next-reaction"
    kernel_name = "next-reaction"
    supported_backends = ("numpy", "numba")
