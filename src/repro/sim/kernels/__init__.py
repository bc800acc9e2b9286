"""Pluggable simulation-kernel backends.

This package is the array-level execution layer under the SSA engines: the
per-algorithm firing loops (*kernels*) that
:class:`~repro.sim.base.StochasticSimulator` and the batched engine run,
operating on

* :class:`~repro.sim.propensity.CompiledNetwork` — the reaction structure
  as padded ndarrays (plus Python-native views for the interpreted backend);
* :class:`TrajectoryBuffers` — preallocated, growable columnar event and
  snapshot storage, reused across ensemble trials;
* :class:`RandomBlocks` — chunked, compacting pre-draws from the run's
  :class:`numpy.random.Generator`;
* :class:`StoppingPlan` — stopping conditions compiled to clause tables
  checkable without Python dispatch (or, for conditions with no clause
  encoding, a callback the numpy kernels call after each event).

Backends: ``numpy`` (always-available reference) and ``numba`` (optional
JIT, lazily imported, auto-falling back to numpy; bit-identical to it).  See
``docs/architecture.md`` ("Kernel & backend layer") for the buffer
lifecycle and the determinism contract.
"""

from repro.sim.kernels.backend import (
    BACKEND_NAMES,
    STOP_CONDITION,
    STOP_EXHAUSTED,
    STOP_INVALID,
    STOP_MAX_STEPS,
    STOP_MAX_TIME,
    KernelBackend,
    KernelJob,
    KernelOutcome,
    available_backends,
    get_backend,
    numba_available,
    resolve_run_backend,
    validate_backend_request,
)
from repro.sim.kernels.blocks import RandomBlocks
from repro.sim.kernels.buffers import TrajectoryBuffers
from repro.sim.kernels.plan import StoppingPlan, compile_stopping_plan

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "KernelJob",
    "KernelOutcome",
    "RandomBlocks",
    "StoppingPlan",
    "TrajectoryBuffers",
    "available_backends",
    "compile_stopping_plan",
    "get_backend",
    "numba_available",
    "resolve_run_backend",
    "validate_backend_request",
    "STOP_CONDITION",
    "STOP_EXHAUSTED",
    "STOP_INVALID",
    "STOP_MAX_STEPS",
    "STOP_MAX_TIME",
]
