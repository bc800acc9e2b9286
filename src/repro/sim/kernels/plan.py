"""Compiling stopping conditions into kernel-checkable stopping plans.

A stopping condition is a Python object whose :meth:`StoppingCondition.check`
a kernel cannot afford to call after every firing (and a JIT-compiled kernel
cannot express at all), so the condition is compiled *once per run* into a
:class:`StoppingPlan`: an ordered table of primitive clauses over the count
vector and the per-reaction firing totals, checked inline by the kernels
with a handful of scalar comparisons.

Clause kinds (checked in order; the first satisfied clause wins, exactly
matching the scalar ``check`` iteration order):

====  =========================================================
kind  predicate
====  =========================================================
0     ``counts[target] >= level``
1     ``counts[target] <= level``
2     ``sum(firing_counts[members]) >= level``   (CSR member list)
3     ``firing_counts[target] >= level``
====  =========================================================

:func:`compile_stopping_plan` handles every condition the paper's
experiments use — :class:`~repro.sim.events.SpeciesThreshold`,
:class:`~repro.sim.events.OutcomeThresholds`,
:class:`~repro.sim.events.FiringCountCondition`,
:class:`~repro.sim.events.CategoryFiringCondition` and
:class:`~repro.sim.events.AnyCondition` combinations of them.  Anything
else (``PredicateCondition``, ``AllCondition``, subclasses that override
``check()``) compiles to a *callback plan*: no clauses, one
:attr:`StoppingPlan.callback` that calls the condition's own ``check()``
with ndarrays.  The numpy kernels evaluate it after each event (the sweep:
for each active row); the numba kernels cannot, so backend resolution
never hands them a callback plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sim.events import (
    AnyCondition,
    CategoryFiringCondition,
    FiringCountCondition,
    OutcomeThresholds,
    SpeciesThreshold,
    StoppingCondition,
)
from repro.sim.propensity import CompiledNetwork

__all__ = ["StoppingPlan", "compile_stopping_plan"]

KIND_COUNT_GE = 0
KIND_COUNT_LE = 1
KIND_FIRING_SUM = 2
KIND_FIRING_ONE = 3


@dataclass
class StoppingPlan:
    """An ordered clause table plus the label reported per clause.

    ``callback`` is set only on plans for conditions with no clause
    encoding (whose clause table is then empty):
    ``callback(time, counts, firing_counts) -> detail | None``.
    """

    kinds: np.ndarray       # int64 (n_clauses,)
    targets: np.ndarray     # int64 (n_clauses,) species column or reaction index
    levels: np.ndarray      # int64 (n_clauses,)
    member_ptr: np.ndarray  # int64 (n_clauses + 1,) CSR pointers (kind 2 only)
    member_idx: np.ndarray  # int64 (nnz,) reaction indices for kind-2 clauses
    labels: tuple[str, ...]
    callback: "Callable[[float, np.ndarray, np.ndarray], str | None] | None" = None
    _py: "tuple | None" = field(default=None, repr=False)

    @property
    def n_clauses(self) -> int:
        return len(self.labels)

    def py_clauses(self) -> tuple:
        """Plain-Python ``(kind, target, level, members)`` rows for the numpy backend."""
        if self._py is None:
            # ``tolist`` converts whole columns to Python ints at once: a plan
            # is compiled on every run, so this runs once per run too.
            ptr, idx = self.member_ptr.tolist(), self.member_idx.tolist()
            self._py = tuple(
                (kind, target, level, tuple(idx[ptr[i] : ptr[i + 1]]))
                for i, (kind, target, level) in enumerate(
                    zip(self.kinds.tolist(), self.targets.tolist(), self.levels.tolist())
                )
            )
        return self._py

    @classmethod
    def empty(cls) -> "StoppingPlan":
        return cls(
            kinds=np.empty(0, dtype=np.int64),
            targets=np.empty(0, dtype=np.int64),
            levels=np.empty(0, dtype=np.int64),
            member_ptr=np.zeros(1, dtype=np.int64),
            member_idx=np.empty(0, dtype=np.int64),
            labels=(),
        )


def _clauses_for(
    condition: StoppingCondition, compiled: CompiledNetwork
) -> "list[tuple[int, int, int, tuple[int, ...], str]] | None":
    """Flatten one condition into ``(kind, target, level, members, label)`` rows.

    Matches on *exact* type, not ``isinstance``: a user subclass may
    override ``check()`` with different semantics, and compiling it to the
    base class's clause table would silently change behavior — subclasses
    get a callback plan instead.  ``None`` means no clause encoding.
    """
    if type(condition) is SpeciesThreshold:
        if condition._index is None:
            condition.reset(compiled)
        kind = KIND_COUNT_GE if condition.comparison == ">=" else KIND_COUNT_LE
        return [(kind, condition._index, condition.threshold, (), condition.label)]

    if type(condition) is OutcomeThresholds:
        if not condition._resolved:
            condition.reset(compiled)
        return [
            (KIND_COUNT_GE, column, level, (), label)
            for label, column, level in condition._resolved
        ]

    if type(condition) is FiringCountCondition:
        return [
            (
                KIND_FIRING_SUM,
                -1,
                condition.count,
                tuple(condition.reaction_indices),
                condition.label,
            )
        ]

    if type(condition) is CategoryFiringCondition:
        if not condition._members:
            condition.reset(compiled)
        return [
            (KIND_FIRING_ONE, index, condition.count, (), name)
            for index, name in condition._members
        ]

    if type(condition) is AnyCondition:
        rows: list = []
        for child in condition.conditions:
            child_rows = _clauses_for(child, compiled)
            if child_rows is None:
                return None
            rows.extend(child_rows)
        return rows

    return None


def compile_stopping_plan(
    stopping: "StoppingCondition | None", compiled: CompiledNetwork
) -> StoppingPlan:
    """Compile ``stopping`` into a :class:`StoppingPlan`.

    ``None`` (no condition) compiles to the empty plan; a condition with no
    clause encoding compiles to a callback plan whose callback calls
    ``stopping.check``.  The condition must already be usable against
    ``compiled`` (``reset`` is invoked on demand for index resolution).
    """
    if stopping is None:
        return StoppingPlan.empty()
    rows = _clauses_for(stopping, compiled)
    if rows is None:
        plan = StoppingPlan.empty()

        def callback(time, counts, firing_counts):
            return stopping.check(time, counts, compiled, firing_counts)

        plan.callback = callback
        return plan
    kinds = np.array([r[0] for r in rows], dtype=np.int64)
    targets = np.array([r[1] for r in rows], dtype=np.int64)
    levels = np.array([r[2] for r in rows], dtype=np.int64)
    member_ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        member_ptr[i + 1] = member_ptr[i] + len(row[3])
    member_idx = np.array(
        [m for row in rows for m in row[3]], dtype=np.int64
    )
    return StoppingPlan(
        kinds=kinds,
        targets=targets,
        levels=levels,
        member_ptr=member_ptr,
        member_idx=member_idx,
        labels=tuple(r[4] for r in rows),
    )
