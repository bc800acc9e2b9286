"""Gillespie's first-reaction method.

At each step, a tentative exponential firing time is drawn for *every*
reaction with positive propensity and the earliest one fires.  Statistically
identical to the direct method but with more random numbers per step, so it is
mainly useful here as an independent cross-check of the direct-method
implementation (the engines must agree within Monte-Carlo error — see the
SSA-agreement tests and the A2 ablation benchmark).
"""

from __future__ import annotations

from repro.sim.base import StochasticSimulator
from repro.sim.registry import register_engine

__all__ = ["FirstReactionSimulator"]


@register_engine(
    "first-reaction",
    kind="per-trial",
    exact=True,
    summary="Gillespie first-reaction method (reference cross-check)",
)
class FirstReactionSimulator(StochasticSimulator):
    """Exact SSA via the first-reaction method (reference implementation).

    Runs the ``first-reaction`` kernel on the numpy/numba backends (see
    :mod:`repro.sim.kernels`).
    """

    method_name = "first-reaction"
    kernel_name = "first-reaction"
    supported_backends = ("numpy", "numba")
