"""``classify_batch`` against the per-trial classifier loop it replaces.

The per-trial call ``classifier(batch.trajectory(i))`` stays the reference:
every batch labelling must equal it trial for trial, and an ensemble
labelled in columns must count the same outcomes in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.synthesizer import synthesize_distribution
from repro.crn.species import as_species
from repro.sim import ParallelEnsembleRunner, SimulationOptions, StopReason
from repro.sim.batch import BatchResult
from repro.sim.outcomes import (
    StopDetailClassifier,
    WorkingOutcomeClassifier,
    count_outcomes,
)

SPECIES = ("c1", "c2", "c3", "x")
LABELS = ("a", "b", "c")
#: Stop details: every working name, one unrelated detail and the empty one.
DETAILS = ("w[a]", "w[b]", "w[c]", "other", "")


@st.composite
def batches(draw) -> BatchResult:
    n = draw(st.integers(0, 24))
    counts = draw(st.lists(st.integers(0, 3), min_size=n * len(SPECIES),
                           max_size=n * len(SPECIES)))
    reasons = draw(st.lists(st.sampled_from(StopReason.ALL), min_size=n, max_size=n))
    details = draw(st.lists(st.sampled_from(DETAILS), min_size=n, max_size=n))
    return BatchResult(
        species=tuple(as_species(name) for name in SPECIES),
        final_counts=np.array(counts, dtype=np.int64).reshape(n, len(SPECIES)),
        final_times=np.zeros(n),
        firing_counts=np.zeros((n, 2), dtype=np.int64),
        stop_reasons=np.array(reasons, dtype=object),
        stop_details=np.array(details, dtype=object),
    )


@st.composite
def working_classifiers(draw) -> WorkingOutcomeClassifier:
    # Labels may lack a working reaction, share a catalyst (ties) or name a
    # catalyst species absent from the network ("zz").
    working = {
        label: f"w[{label}]" for label in LABELS if draw(st.booleans()) or label == "a"
    }
    catalysts = {
        label: draw(st.sampled_from(("c1", "c2", "c3", "zz"))) for label in LABELS
    }
    return WorkingOutcomeClassifier(LABELS, working, catalysts)


def per_trial(classifier, batch: BatchResult) -> list:
    return [classifier(batch.trajectory(trial)) for trial in range(batch.n_trials)]


@settings(max_examples=300, deadline=None)
@given(batch=batches(), classifier=working_classifiers())
def test_working_outcome_matches_per_trial_loop(batch, classifier):
    labels = classifier.classify_batch(batch)
    assert labels.dtype == object and labels.shape == (batch.n_trials,)
    assert list(labels) == per_trial(classifier, batch)


@settings(max_examples=200, deadline=None)
@given(batch=batches())
def test_stop_detail_matches_per_trial_loop(batch):
    classifier = StopDetailClassifier()
    assert list(classifier.classify_batch(batch)) == per_trial(classifier, batch)


def test_rule_edge_cases():
    """Named cases of the rule, each one trial of a hand-built batch."""
    species = tuple(as_species(name) for name in SPECIES)
    rows = [
        # (reason, detail, counts c1 c2 c3 x, expected)
        (StopReason.CONDITION, "w[b]", [5, 0, 0, 0], "b"),  # working wins
        (StopReason.CONDITION, "other", [0, 2, 2, 0], "b"),  # tie: first label
        (StopReason.MAX_TIME, "", [0, 0, 3, 0], "c"),  # non-condition stop
        (StopReason.MAX_STEPS, "", [0, 0, 0, 9], None),  # all catalysts zero
    ]
    batch = BatchResult(
        species=species,
        final_counts=np.array([r[2] for r in rows], dtype=np.int64),
        final_times=np.zeros(len(rows)),
        firing_counts=np.zeros((len(rows), 1), dtype=np.int64),
        stop_reasons=np.array([r[0] for r in rows], dtype=object),
        stop_details=np.array([r[1] for r in rows], dtype=object),
    )
    classifier = WorkingOutcomeClassifier(
        LABELS, {label: f"w[{label}]" for label in LABELS},
        {"a": "zz", "b": "c2", "c": "c3"},  # "zz" is absent: counts 0
    )
    expected = [r[3] for r in rows]
    assert list(classifier.classify_batch(batch)) == expected
    assert per_trial(classifier, batch) == expected


def test_count_outcomes_keeps_first_appearance_order():
    assert list(count_outcomes(["b", None, "a", "b", None]).items()) == [
        ("b", 2), ("(undecided)", 2), ("a", 1)
    ]


class _PerTrialOnly:
    """Delegates to a classifier but hides its ``classify_batch``."""

    def __init__(self, classifier) -> None:
        self.classifier = classifier

    def __call__(self, trajectory):
        return self.classifier(trajectory)


@pytest.mark.parametrize("max_time", [0.004, float("inf")])
def test_ensemble_counts_match_the_per_trial_path(max_time):
    """Columns and the per-trial loop count the same outcomes, in order.

    Five chunks swept as one group, each counted on its own, then merged.
    The finite horizon stops most trials undecided and leaves some to the
    catalyst fallback.
    """
    system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)

    def run(classifier):
        runner = ParallelEnsembleRunner(
            system.network_with_inputs(None),
            engine="batch-direct",
            stopping=system.stopping_condition(10),
            options=SimulationOptions(record_firings=False, max_time=max_time),
            outcome_classifier=classifier,
            workers=1,
            chunk_size=300,
        )
        return runner.run(1500, seed=41)

    columnar = run(system.outcome_classifier())
    reference = run(_PerTrialOnly(system.outcome_classifier()))
    assert list(columnar.outcome_counts.items()) == list(reference.outcome_counts.items())
    np.testing.assert_array_equal(columnar.final_counts, reference.final_counts)
