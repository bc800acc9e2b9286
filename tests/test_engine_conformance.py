"""Cross-engine statistical conformance against the exact FSP oracle.

Every stochastic engine in the registry must reproduce the *exact* outcome
distribution computed by the finite-state-projection solver, up to sampling
noise.  The tolerance is not hand-tuned: the test statistic is Pearson's
chi-squared against the expected outcome counts (each FSP-exact probability
times the decided trial count), compared with the chi-squared quantile at
significance ``ALPHA``.  Runs are seeded, so a passing threshold is
deterministic — the significance level only calibrates how much sampling
noise the suite tolerates, and a genuinely biased engine inflates the
statistic linearly in the trial count while the threshold stays fixed.

Adding a new stochastic engine to the registry automatically enrolls it here
(the parametrization is read from the live registry).  See ``docs/testing.md``
for the methodology and for when FSP beats sampling.
"""

from __future__ import annotations

import zlib

import pytest
from scipy.stats import chi2

from repro.api import Experiment
from repro.crn import parse_network
from repro.sim import OutcomeThresholds
from repro.sim.ensemble import EnsembleResult
from repro.sim import registry
from repro.store.serialize import experiment_from_payload, experiment_to_payload
from repro.zoo.corpus import corpus_entries, trial_budget

#: Significance level of the chi-squared conformance threshold.  With seeded
#: runs the suite is deterministic; 99.9% keeps the threshold meaningful while
#: leaving essentially no room for systematic engine bias.
ALPHA = 0.999

#: Trials per engine: enough for every outcome's expected count to clear the
#: classic chi-squared validity rule of thumb (≥ 5) by a wide margin.
TRIALS = 300


def stochastic_engines() -> list[str]:
    """Every sampling engine in the registry (exact and approximate)."""
    return [
        name for name in registry.names()
        if registry.get(name).kind in registry.SAMPLING_KINDS
    ]


def chi_squared_statistic(ensemble: EnsembleResult, probabilities: dict[str, float]):
    """Pearson statistic of decided outcome counts vs exact probabilities."""
    counts = dict(ensemble.outcome_counts)
    counts.pop(EnsembleResult.UNDECIDED, None)
    n_decided = sum(counts.values())
    assert n_decided > 0, "no decided trials"
    expected = {label: p * n_decided for label, p in probabilities.items()}
    statistic = sum(
        (counts.get(label, 0) - expectation) ** 2 / expectation
        for label, expectation in expected.items()
        if expectation > 0
    )
    # Every decided outcome must be one the oracle gives positive mass.
    assert set(counts) <= {k for k, p in probabilities.items() if p > 0}
    return statistic, len(expected) - 1


class RaceToThreshold:
    """State classifier: first catalyst to reach ``level`` wins (picklable)."""

    def __init__(self, markers: dict[str, str], level: int) -> None:
        self.markers = markers
        self.level = level

    def __call__(self, state):
        for label, marker in self.markers.items():
            if state.get(marker, 0) >= self.level:
                return label
        return None


@pytest.fixture(scope="module")
def example1_oracle():
    """Example 1 experiment plus its FSP-exact outcome probabilities."""
    experiment = Experiment.from_distribution(
        {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
    )
    exact = experiment.simulate(engine="fsp").exact
    return experiment, exact


@pytest.fixture(scope="module")
def race_oracle():
    """3-outcome race to a threshold of 5 catalysts, with exact probabilities.

    Unlike Example 1 the exact distribution here is *not* the programmed
    0.3/0.4/0.3 — depleting input pools bend it toward the majority outcome
    (≈ 0.237/0.526/0.237) — so agreement genuinely exercises the solver, not
    just the first-firing formula.
    """
    network = parse_network(
        """
        init: e1 = 30
        init: e2 = 40
        init: e3 = 30
        e1 ->{1} d1
        e2 ->{1} d2
        e3 ->{1} d3
        """,
        name="race-to-5",
    )
    markers = {"1": "d1", "2": "d2", "3": "d3"}
    stopping = OutcomeThresholds(
        {label: (marker, 5) for label, marker in markers.items()}
    )
    experiment = (
        Experiment.from_network(network, stopping=stopping)
        .classify_states(RaceToThreshold(markers, 5))
    )
    exact = experiment.simulate(engine="fsp").exact
    return experiment, exact


@pytest.mark.parametrize("engine", stochastic_engines())
class TestConformance:
    def test_example1_module(self, engine, example1_oracle):
        experiment, exact = example1_oracle
        result = experiment.simulate(trials=TRIALS, engine=engine, seed=1007)
        statistic, dof = chi_squared_statistic(result.ensemble, exact)
        threshold = chi2.ppf(ALPHA, dof)
        assert statistic < threshold, (
            f"{engine}: chi2={statistic:.2f} exceeds chi2_{ALPHA}({dof})="
            f"{threshold:.2f} against FSP-exact {exact}"
        )

    def test_three_outcome_race(self, engine, race_oracle):
        experiment, exact = race_oracle
        result = experiment.simulate(trials=TRIALS, engine=engine, seed=2007)
        statistic, dof = chi_squared_statistic(result.ensemble, exact)
        threshold = chi2.ppf(ALPHA, dof)
        assert statistic < threshold, (
            f"{engine}: chi2={statistic:.2f} exceeds chi2_{ALPHA}({dof})="
            f"{threshold:.2f} against FSP-exact {exact}"
        )

    def test_every_trial_decides(self, engine, race_oracle):
        """The race network always produces an outcome — no undecided mass."""
        experiment, exact = race_oracle
        result = experiment.simulate(trials=50, engine=engine, seed=11)
        assert result.decided_fraction() == pytest.approx(1.0)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)


def test_oracle_probabilities_are_exact(race_oracle):
    """The race oracle itself: nontrivial, normalized, symmetric in 1 ↔ 3."""
    _experiment, exact = race_oracle
    assert exact["1"] == pytest.approx(exact["3"], abs=1e-12)
    assert exact["2"] > 0.4  # majority advantage beyond the programmed 0.4
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)


def test_registry_parametrization_covers_all_samplers():
    """Guard: the suite enrolls every non-deterministic engine automatically."""
    engines = stochastic_engines()
    assert {"direct", "first-reaction", "next-reaction", "tau-leaping",
            "batch-direct"} <= set(engines)
    assert "ode" not in engines and "fsp" not in engines


# ---------------------------------------------------------------------------
# the standing conformance corpus: every enrolled zoo/generated model, every
# stochastic engine, against the FSP oracle (see docs/testing.md)
# ---------------------------------------------------------------------------

CORPUS = corpus_entries()

_ORACLE_CACHE: dict[str, dict[str, float]] = {}


def corpus_oracle(entry) -> dict[str, float]:
    """FSP-exact outcome probabilities, solved once per model per session."""
    if entry.name not in _ORACLE_CACHE:
        model = entry.model
        result = model.experiment().simulate(
            engine="fsp", engine_options=model.fsp_options()
        )
        _ORACLE_CACHE[entry.name] = dict(result.exact)
    return dict(_ORACLE_CACHE[entry.name])


def corpus_seed(name: str, salt: int = 0) -> int:
    """A stable per-model seed (independent of corpus ordering)."""
    return (zlib.crc32(name.encode()) + salt * 7919) % (2**31 - 1)


def test_corpus_enrollment_floor():
    """The corpus holds at least 8 models, from both sources, all distinct."""
    names = [entry.name for entry in CORPUS]
    assert len(names) == len(set(names))
    assert len(names) >= 8
    sources = {entry.source for entry in CORPUS}
    assert sources == {"zoo", "generated"}


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
class TestCorpusOracle:
    def test_oracle_fully_decides(self, entry):
        """Enrolled models leak no probability mass: every outcome is reachable
        and the undecided label never appears (the generator's pigeonhole
        guarantee; curated models are constructed the same way)."""
        exact = corpus_oracle(entry)
        assert exact.pop(EnsembleResult.UNDECIDED, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert set(exact) == {outcome.label for outcome in entry.model.outcomes}
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
        assert min(exact.values()) > 0.0

    def test_trial_budget_gives_chi_squared_power(self, entry):
        """The derived budget puts every expected cell count above the floor."""
        exact = corpus_oracle(entry)
        exact.pop(EnsembleResult.UNDECIDED, None)
        policy = entry.model.conformance
        budget = trial_budget(exact, policy.min_expected, policy.max_trials)
        assert budget <= policy.max_trials
        assert budget * min(p for p in exact.values() if p > 0) >= 5

    def test_store_payload_round_trip(self, entry):
        """Corpus experiments fingerprint canonically: payload → experiment →
        payload is byte-identical, for both a sampling and the exact engine
        (exercising the threshold stopping and threshold-race classifier
        descriptors every model relies on)."""
        experiment = entry.model.experiment()
        for engine in ("direct", "fsp"):
            payload = experiment_to_payload(
                experiment, trials=50, engine=engine, seed=13
            )
            rebuilt = experiment_from_payload(payload)
            again = experiment_to_payload(rebuilt, trials=50, engine=engine, seed=13)
            assert again == payload


@pytest.mark.parametrize("engine", stochastic_engines())
@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
class TestCorpusConformance:
    def test_engine_matches_oracle(self, entry, engine):
        exact = corpus_oracle(entry)
        exact.pop(EnsembleResult.UNDECIDED, None)
        policy = entry.model.conformance
        budget = trial_budget(exact, policy.min_expected, policy.max_trials)
        result = entry.model.experiment().simulate(
            trials=budget, engine=engine, seed=corpus_seed(entry.name)
        )
        assert result.decided_fraction() == pytest.approx(1.0)
        statistic, dof = chi_squared_statistic(result.ensemble, exact)
        threshold = chi2.ppf(ALPHA, dof)
        assert statistic < threshold, (
            f"{entry.name} [{entry.source}] on {engine}: chi2={statistic:.2f} "
            f"exceeds chi2_{ALPHA}({dof})={threshold:.2f} against FSP-exact {exact}"
        )

    def test_engine_is_deterministic_on_corpus(self, entry, engine):
        """Same model, same seed, same engine → identical outcome counts."""
        experiment = entry.model.experiment()
        seed = corpus_seed(entry.name, salt=1)
        first = experiment.simulate(trials=40, engine=engine, seed=seed)
        second = experiment.simulate(trials=40, engine=engine, seed=seed)
        assert dict(first.ensemble.outcome_counts) == dict(
            second.ensemble.outcome_counts
        )
