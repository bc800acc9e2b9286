"""The pluggable kernel-backend abstraction and backend resolution policy.

A *kernel* is the inner firing loop of one SSA algorithm, operating on the
flat arrays of a :class:`~repro.sim.propensity.CompiledNetwork`: it
consumes pre-drawn randomness from :class:`~repro.sim.kernels.blocks
.RandomBlocks`, records events into :class:`~repro.sim.kernels.buffers
.TrajectoryBuffers`, and checks a compiled :class:`~repro.sim.kernels.plan
.StoppingPlan` — no Python object dispatch inside the loop.

A *backend* supplies the kernels:

``numpy``
    The reference implementation (:mod:`.numpy_backend`): interpreted loops
    over Python-native views with numpy buffers; always available.
``numba``
    JIT-compiled kernels (:mod:`.numba_backend`); imported lazily and only
    if the ``numba`` package is installed.  Requesting it without numba
    falls back to ``numpy`` with a warning.  Both backends consume the same
    :class:`RandomBlocks` stream with an identical operation order, so their
    seeded outputs are bit-identical.

Backend resolution (:func:`resolve_run_backend`) turns a requested name —
usually ``"auto"`` from :attr:`SimulationOptions.backend` — plus the
engine's declared support and the run's stopping plan into the backend
object to use, for per-trial and batched engines alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.sim.kernels.blocks import RandomBlocks
from repro.sim.kernels.buffers import TrajectoryBuffers
from repro.sim.kernels.plan import StoppingPlan
from repro.sim.propensity import CompiledNetwork
from repro.sim.trajectory import StopReason

__all__ = [
    "BACKEND_NAMES",
    "KernelBackend",
    "KernelJob",
    "KernelOutcome",
    "available_backends",
    "numba_available",
    "get_backend",
    "resolve_run_backend",
    "stop_columns",
    "validate_backend_request",
    "STOP_EXHAUSTED",
    "STOP_MAX_TIME",
    "STOP_MAX_STEPS",
    "STOP_CONDITION",
    "STOP_INVALID",
]

#: Every selectable backend name, in increasing preference order for "auto".
BACKEND_NAMES = ("numpy", "numba")

# Kernel stop codes (shared by every backend implementation).
STOP_EXHAUSTED = 0
STOP_MAX_TIME = 1
STOP_MAX_STEPS = 2
STOP_CONDITION = 3
STOP_INVALID = 4

_STOP_REASONS = {
    STOP_EXHAUSTED: StopReason.EXHAUSTED,
    STOP_MAX_TIME: StopReason.MAX_TIME,
    STOP_MAX_STEPS: StopReason.MAX_STEPS,
    STOP_CONDITION: StopReason.CONDITION,
}


@dataclass
class KernelJob:
    """Everything one kernel invocation needs, bundled.

    ``counts`` is mutated in place (it carries the final state out);
    ``buffers`` and ``blocks`` are driven by the kernel directly.
    """

    compiled: CompiledNetwork
    counts: np.ndarray
    plan: StoppingPlan
    buffers: TrajectoryBuffers
    blocks: RandomBlocks
    max_time: float
    max_steps: int
    record_firings: bool
    record_states: bool
    snapshot_stride: int


@dataclass
class KernelOutcome:
    """What a kernel reports back: why it stopped and the run totals.

    A condition stop carries either the satisfied clause's index or, for a
    callback plan, the detail string the callback returned.
    """

    stop_code: int
    clause_index: int
    final_time: float
    steps: int
    firing_counts: np.ndarray
    detail: "str | None" = None

    def stop_reason(self, plan: StoppingPlan, method_name: str) -> "tuple[str, str]":
        """Map the stop code to ``(StopReason, stop_detail)``."""
        if self.stop_code == STOP_INVALID:
            raise _invalid_wait(method_name)
        reason = _STOP_REASONS[self.stop_code]
        if self.stop_code != STOP_CONDITION:
            return reason, ""
        if self.detail is not None:
            return reason, self.detail
        return reason, plan.labels[self.clause_index]


def _invalid_wait(method_name: str) -> SimulationError:
    return SimulationError(
        f"{method_name}: invalid (non-finite) waiting time in kernel loop"
    )


def stop_columns(
    codes: np.ndarray, clauses: np.ndarray, plan: StoppingPlan, method_name: str
) -> "tuple[np.ndarray, np.ndarray]":
    """:meth:`KernelOutcome.stop_reason` for a column of trials.

    ``codes`` and ``clauses`` hold one stop code and clause index per
    trial; returns the ``stop_reasons`` and ``stop_details`` object columns
    of a :class:`~repro.sim.trajectory.BatchResult`, and raises as
    :meth:`~KernelOutcome.stop_reason` does if any trial's wait was invalid.
    """
    if (codes == STOP_INVALID).any():
        raise _invalid_wait(method_name)
    reasons = np.empty(codes.size, dtype=object)
    for code, reason in _STOP_REASONS.items():
        reasons[codes == code] = reason
    details = np.full(codes.size, "", dtype=object)
    condition = codes == STOP_CONDITION
    if condition.any():
        details[condition] = np.array(plan.labels, dtype=object)[clauses[condition]]
    return reasons, details


class KernelBackend:
    """Base class for kernel providers.

    Subclasses set :attr:`name` and implement :meth:`run` for the per-trial
    kernels (``"direct"``, ``"first-reaction"``, ``"next-reaction"``) and
    :meth:`run_batch` for the ``batch-direct`` sweep.
    """

    name: str = "abstract"

    def run(self, kernel_name: str, job: KernelJob) -> KernelOutcome:
        raise NotImplementedError

    def run_batch(self, job) -> None:
        """Advance a whole batch of lock-step trials to their stops.

        ``job`` is a :class:`~repro.sim.kernels.batch.BatchSweepJob`; results
        (stop codes, clause indices, final counts/times/firings) are left in
        its buffers.  Both implementations follow the determinism contract in
        :mod:`repro.sim.kernels.batch`, so seeded batches are bit-identical
        across backends.
        """
        raise NotImplementedError


# ---------------------------------------------------------------------------
# backend registry / resolution
# ---------------------------------------------------------------------------

_numpy_backend: "KernelBackend | None" = None
_numba_backend: "KernelBackend | None | bool" = None  # False = probed, unavailable


def _load_numpy() -> KernelBackend:
    global _numpy_backend
    if _numpy_backend is None:
        from repro.sim.kernels.numpy_backend import NumpyKernelBackend

        _numpy_backend = NumpyKernelBackend()
    return _numpy_backend


def _load_numba() -> "KernelBackend | None":
    global _numba_backend
    if _numba_backend is None:
        from repro.sim.kernels.numba_backend import load_numba_backend

        _numba_backend = load_numba_backend() or False
    return _numba_backend or None


def numba_available() -> bool:
    """Whether the numba JIT backend can be loaded in this environment."""
    return _load_numba() is not None


def available_backends() -> tuple[str, ...]:
    """The backend names usable right now (``numba`` only if importable)."""
    names = ["numpy"]
    if numba_available():
        names.append("numba")
    return tuple(names)


def get_backend(name: str) -> KernelBackend:
    """Resolve a backend name to its object.

    Requesting ``numba`` in an environment without numba warns and returns
    the numpy backend — the documented auto-fallback.
    """
    if name == "numpy":
        return _load_numpy()
    if name == "numba":
        backend = _load_numba()
        if backend is None:
            warnings.warn(
                "numba backend requested but numba is not installed; "
                "falling back to the numpy backend",
                RuntimeWarning,
                stacklevel=2,
            )
            return _load_numpy()
        return backend
    raise SimulationError(
        f"unknown kernel backend {name!r}; available: {list(BACKEND_NAMES)}"
    )


def validate_backend_request(
    requested: str, engine_backends: "tuple[str, ...]", engine_name: str
) -> None:
    """Reject a backend name the engine does not declare (``auto`` always passes)."""
    if requested == "auto":
        return
    if requested not in BACKEND_NAMES:
        raise SimulationError(
            f"unknown kernel backend {requested!r}; available: {list(BACKEND_NAMES)}"
        )
    if requested not in engine_backends:
        supported = (
            f"supported: {', '.join(engine_backends)}"
            if engine_backends
            else "it has no kernel backends"
        )
        raise SimulationError(
            f"engine {engine_name!r} does not support backend {requested!r} ({supported})"
        )


def resolve_run_backend(
    requested: str,
    engine_backends: "tuple[str, ...]",
    plan: StoppingPlan,
    engine_name: str,
) -> KernelBackend:
    """Pick the kernel backend for one run of a per-trial or batched engine.

    ``auto`` prefers numba when it is installed and the engine declares it,
    else numpy.  A callback plan (a stopping condition with no clause
    encoding) runs only on numpy: ``auto`` resolves to numpy for it, and an
    explicit ``numba`` request raises — silently degrading an explicit
    request would misreport what ran.
    """
    validate_backend_request(requested, engine_backends, engine_name)
    if plan.callback is not None:
        if requested == "numba":
            raise SimulationError(
                f"{engine_name}: backend 'numba' cannot run this stopping "
                "condition (it has no clause encoding, and only the numpy "
                "kernels can call its check()); use backend='numpy' or 'auto', "
                "or a clause-encodable condition (species/outcome thresholds, "
                "firing counts, any-of combinations)"
            )
        return _load_numpy()
    if requested == "auto":
        if "numba" in engine_backends and numba_available():
            return _load_numba()
        return _load_numpy()
    return get_backend(requested)
