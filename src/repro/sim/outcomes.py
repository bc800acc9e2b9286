"""Outcome classifiers: trajectory → label, one trial or a whole batch at a time.

An ensemble labels each trial with an outcome (or ``None`` for undecided)
and counts the labels.  A classifier is any callable ``f(trajectory) ->
label | None``; the ones defined here also implement the *batch protocol*,
``classify_batch(batch) -> labels``, which labels every trial of a
:class:`~repro.sim.batch.BatchResult` from its columns — an object array
with ``None`` for undecided trials — without building a
:class:`~repro.sim.trajectory.Trajectory` per trial.  ``classify_batch``
must return exactly ``[f(batch.trajectory(i)) for i in range(n)]``; the
ensemble runner calls it whenever a classifier has it, and falls back to
the per-trial call (the reference the tests compare against) otherwise.

* :class:`StopDetailClassifier` — the ensemble default: the stopping
  condition's detail when a trial stopped on it.
* :class:`WorkingOutcomeClassifier` — the rule of a synthesized design: the
  outcome whose working reaction declared the stop, else the dominant
  catalyst.  It is built from plain data, so it serializes (the result
  store's ``working-outcome`` descriptor) and pickles to worker processes.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

import numpy as np

from repro.sim.trajectory import StopReason

__all__ = [
    "UNDECIDED",
    "StopDetailClassifier",
    "WorkingOutcomeClassifier",
    "apportion",
    "count_outcomes",
]

#: Outcome key of trials whose classifier returned ``None``.
UNDECIDED = "(undecided)"


def count_outcomes(labels: Iterable) -> "dict[str, int]":
    """``{label: trials}`` in order of first appearance; ``None`` counts as
    :data:`UNDECIDED`, every other label by its ``str``."""
    counts: dict[str, int] = {}
    for label, n in Counter(labels).items():
        key = UNDECIDED if label is None else str(label)
        counts[key] = counts.get(key, 0) + n
    return counts


def apportion(probabilities: Mapping, total: int) -> dict:
    """``p · total`` rounded by largest remainder to counts summing to ``total``.

    Ties go in sorted key order, and keys left at 0 are dropped.  Exact
    solves, Figure-3 trial shares and programmed input quantities all round
    through here.
    """
    labels = sorted(probabilities)
    ideal = {k: probabilities[k] * total for k in labels}
    counts = {k: int(ideal[k]) for k in labels}
    for k in sorted(labels, key=lambda k: ideal[k] - counts[k], reverse=True):
        if sum(counts.values()) >= total:
            break
        counts[k] += 1
    return {k: v for k, v in counts.items() if v > 0}


class StopDetailClassifier:
    """Label a trial by its stopping-condition detail (``None`` = undecided)."""

    def __call__(self, trajectory) -> "str | None":
        if trajectory.stop_reason == StopReason.CONDITION and trajectory.stop_detail:
            return trajectory.stop_detail
        return None

    def classify_batch(self, batch) -> np.ndarray:
        """Labels of every trial of ``batch`` (see the module docstring)."""
        details = batch.stop_details
        decided = (batch.stop_reasons == StopReason.CONDITION) & (details != "")
        labels = np.full(batch.n_trials, None, dtype=object)
        labels[decided] = details[decided]
        return labels


class WorkingOutcomeClassifier:
    """The outcome rule of a synthesized design, built from plain data.

    A trial's outcome is the first label (in ``labels`` order) whose
    *working* reaction name equals the stop detail.  Otherwise it is the
    label whose catalyst species has the strictly largest final count, the
    first label winning ties; a catalyst species absent from the network
    counts 0, and when every count is 0 the trial is undecided (``None``).
    :meth:`repro.core.synthesizer.SynthesizedSystem.classify_outcome`
    delegates here.
    """

    def __init__(
        self,
        labels: "tuple[str, ...] | list[str]",
        working: Mapping[str, str],
        catalysts: Mapping[str, str],
    ) -> None:
        self.labels = tuple(str(label) for label in labels)
        self.working = {str(k): str(v) for k, v in working.items()}
        self.catalysts = {str(k): str(v) for k, v in catalysts.items()}

    def __call__(self, trajectory) -> "str | None":
        detail = trajectory.stop_detail
        for label in self.labels:
            if detail == self.working.get(label):
                return label
        best_label, best_count = None, 0
        for label in self.labels:
            count = trajectory.final_count(self.catalysts[label])
            if count > best_count:
                best_label, best_count = label, count
        return best_label if best_count > 0 else None

    def classify_batch(self, batch) -> np.ndarray:
        """Labels of every trial of ``batch`` (see the module docstring)."""
        labels = np.full(batch.n_trials, None, dtype=object)
        undecided = np.ones(batch.n_trials, dtype=bool)
        for label in self.labels:
            working = self.working.get(label)
            if working is None:
                continue
            matched = undecided & (batch.stop_details == working)
            labels[matched] = label
            undecided &= ~matched
        rows = np.flatnonzero(undecided)
        if rows.size:
            columns = {species.name: i for i, species in enumerate(batch.species)}
            best = np.zeros(rows.size, dtype=np.int64)
            best_label = np.full(rows.size, None, dtype=object)
            for label in self.labels:
                column = columns.get(self.catalysts[label])
                if column is None:
                    continue  # absent from the network: counts 0, never leads
                count = batch.final_counts[rows, column]
                lead = count > best
                best_label[lead] = label
                best[lead] = count[lead]
            labels[rows] = best_label
        return labels

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkingOutcomeClassifier(labels={self.labels!r})"
