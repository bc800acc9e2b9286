"""Store pins: the key, result digest and envelope digest of seeded
``simulate(store=)`` runs.

Each case is one cold ``Experiment.simulate(store=)`` call against a fresh
store.  Its pin is the store key the call lands on, the SHA-256 of the
returned result's ``to_json()`` text and the SHA-256 of the stored artifact
envelope, read back through a new store handle.  Together the pins hold the
store's contract: a key names exactly one realization, every caller reads
that realization byte for byte, and the envelope around it records the same
``kind``, ``label``, ``engine``, ``descriptor`` and ``witness``.  The cases
cover every way a run reaches the store:

* the paper's Example 1 on ``batch-direct`` with a fixed budget;
* one corpus model on each of ``direct``, ``first-reaction``,
  ``next-reaction`` and ``batch-direct``;
* an adaptive ``CiHalfWidthTarget`` run (its key hashes the target, not the
  realized trial count);
* an ``fsp`` solve;
* a ``renamed()`` variant: the same key as its original, its own species
  names in the bytes;
* an experiment with a module-level callable classifier.  An opaque
  callable reads raw species names, so its payload is hashed as-is
  (identity canonicalization) and executes from that payload.

The callable case is also run as a ``Campaign`` cell, which must land on the
same key and bytes.  The digests leave out the ``version`` fields a result,
an envelope and its descriptor record, so a release bump moves no pin.

``KEY_PINS`` pins the store key alone of one small experiment per
descriptor type: each stopping condition, classifier, state classifier and
adaptive ``until`` target the store knows.  A key is
``canonicalize_payload(experiment_to_payload(...)).key``; nothing runs.

To refresh a pin after a *deliberate* change, print the current values with
``PYTHONPATH=src python tests/test_store_pins.py`` and name the change in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

import pytest

EX1_TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
CORPUS_MODEL = "toggle-switch"
RACE_MODEL = "triple-race"
SEED = 4


def stop_label(trajectory):
    """A module-level outcome classifier: the stop detail, tagged.

    It has no ``classify_batch``, so every trial is classified from its own
    ``Trajectory``, and no declarative descriptor, so the store hashes the
    experiment under identity canonicalization.
    """
    return f"won:{trajectory.stop_detail}" if trajectory.stop_detail else None


def _cases() -> "dict[str, tuple]":
    """``{case: (experiment, simulate keyword arguments)}``."""
    from repro.adaptive import CiHalfWidthTarget
    from repro.api import Experiment

    example1 = Experiment.from_distribution(EX1_TARGET, gamma=1e3, scale=100)
    corpus = Experiment.from_zoo(CORPUS_MODEL)
    race = Experiment.from_zoo(RACE_MODEL)
    cases = {
        "example-1/batch-direct": (
            example1, dict(trials=3000, engine="batch-direct", seed=2007)
        ),
        "example-1/ci-half-width": (
            example1,
            dict(engine="batch-direct", seed=5,
                 until=CiHalfWidthTarget(outcome="2", half_width=0.03)),
        ),
    }
    for engine in ("direct", "first-reaction", "next-reaction", "batch-direct"):
        cases[f"{CORPUS_MODEL}/{engine}"] = (
            corpus, dict(trials=300, engine=engine, seed=11, chunk_size=128)
        )
    cases[f"{RACE_MODEL}/fsp"] = (race, dict(trials=1000, engine="fsp"))
    cases[f"{RACE_MODEL}/direct"] = (race, dict(trials=300, engine="direct", seed=SEED))
    cases[f"{RACE_MODEL}/renamed"] = (
        race.renamed({"e1": "p1", "d1": "m1", "e3": "p3"}),
        dict(trials=300, engine="direct", seed=SEED),
    )
    for engine in ("direct", "batch-direct"):
        cases[f"{RACE_MODEL}/callable/{engine}"] = (
            race.classify_with(stop_label),
            dict(trials=300, engine=engine, seed=SEED),
        )
    return cases


def result_digest(result) -> str:
    """SHA-256 of ``result.to_json()`` without its ``version`` field."""
    payload = {k: v for k, v in result.to_payload().items() if k != "version"}
    return hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest()


def without_version(document: dict) -> dict:
    return {k: v for k, v in document.items() if k != "version"}


def envelope_digest(root, key: str) -> str:
    """SHA-256 of the envelope stored under ``key``, read through a new handle.

    The ``version`` fields of the envelope, its payload and its descriptor
    are left out.
    """
    from repro.store import ResultStore

    envelope = without_version(ResultStore(root).get_envelope(key))
    envelope["payload"] = without_version(envelope["payload"])
    if envelope["descriptor"] is not None:
        envelope["descriptor"] = without_version(envelope["descriptor"])
    return hashlib.sha256(json.dumps(envelope, indent=2).encode()).hexdigest()


def cold_pin(store, experiment, simulate: dict) -> "tuple[str, str, str, object]":
    """``(key, result digest, envelope digest, result)`` of one cold
    ``simulate(store=)`` call."""
    result = experiment.simulate(store=store, **simulate)
    keys = store.keys()
    assert len(keys) == 1, keys
    key = keys[0]
    return key, result_digest(result), envelope_digest(store.root, key), result


#: ``{case: (store key, result digest, envelope digest)}``.
PINS = {
    'example-1/batch-direct': (
        'bd0bb59ad679e62ec14623fe52c05566f8937cac3b37d908890f8b3833645cdb',
        'd4f51c6a00a3688251a9d73e5f90977b82e795bf745d27f9d017a02c233c8023',
        '2e4e9d85edc6e76be6fc66553a9a05a7343ab884eef4d514b6badc0703c0daf1',
    ),
    'example-1/ci-half-width': (
        'a484452fc8f287960a5debe392e1fa13e56e6f0858c78a39141c1195b82fec33',
        '729355d775d34f7fde94c38e54c7ed545adcad07138757422dd23e7fafcfafee',
        '076f285082dc591c97523f778149d0a5e1623c099e48e0a74b10e37f1b992856',
    ),
    'toggle-switch/direct': (
        '203e31ad46ca8199bb8945ffe3b5cb7f0f7ef07551bb8dc1f976cac05e5136c4',
        '3f2bf9ec698911258f086af95cd49b096eefe7a6a1a1b8221e816376b7248a2d',
        '93191ccb7e797e3cfa13e039a3ab7e989022a355c3f394e5db205c154ec15766',
    ),
    'toggle-switch/first-reaction': (
        '6a4941ff45248121c707b6a27d9f1e8597be2ba47a7f7f1bf2331e3492dfe30b',
        '0a9a2fc5c2990d96552dd3e4c7f8fb13c2aec57918ccf428c7aaa5b30e0e093c',
        'b9e72b3ab11b10537b7a8fad7281a7495327814b2176a971f9bfe9ff35d9a86a',
    ),
    'toggle-switch/next-reaction': (
        '73e57cdb7300558f07027f2476365befdd68584cf84e97588a9e30fbc15cb937',
        '70973bd5beb189f31b544f7a96b1b9e9c3c6668074cb3c21e1e31112cc60f604',
        '64b7deb4d5603b897a86b9ac942bf4a5647d0333c87cc98e9ca4758a5cae5da4',
    ),
    'toggle-switch/batch-direct': (
        'e236c06ce69f07c95499c60724191ec525f73830114904d8d4fcbfcec7873af1',
        'f317ec53e849a9274182714343e4527acf9829916470a73cb9b503fb915f1a2e',
        '730668c1a271af11ec620330fc531884a1d89038a8dcbd256fb4ee01badaacbd',
    ),
    'triple-race/fsp': (
        '8c00067bc4042227ee1a983f1233d5aae53aecdf7ef46bb60aa1b40a4f527ed5',
        'e61d619bfd19b7617c8699dc4ff4ff721476ce6c0c158618e4107a53c0b505af',
        'bc0ae5819cc865b5c2022282c8ef8b989d77e178f1a5491bc0db057d132617c1',
    ),
    'triple-race/direct': (
        'ba45dc227e95fb15f541e964ee554589fbca8f60985b408bc801dd253c459f50',
        '7912d2da188018cbeacaaa4c79222c73ab2c85aace21af495ebad6e2cd436940',
        '85079fdb8747788364b64e1c202d8d1624829f051d67720e6ca3eb04a80c127a',
    ),
    'triple-race/renamed': (
        'ba45dc227e95fb15f541e964ee554589fbca8f60985b408bc801dd253c459f50',
        '0ae6db35b4e31f7b25e373cae658283410ee3b9a77a7d35cae4e45f00ce6b8cc',
        '0b83ce42ea3e084ccb3181ffc86126147561f5f32e710cbe8eb87bdd09c7f080',
    ),
    'triple-race/callable/direct': (
        'f3ffb645f6433e358cfb379d4a94d0c4f6666d4ed35d9289ac673faf37975ec7',
        'ab8b13cc036d928d30b0fa5e95ef7ac2570d8ea51af20be42a265ba3ef6dabd1',
        '7422ea34bbba54691cea2b0db40734f35319cf5797a74f80d62a3db4feb2cbe6',
    ),
    'triple-race/callable/batch-direct': (
        '78ef9bd0c1ddc65a7ce9ceb8aa10acd5b18cf2cb0c1091c58bd0e45af44a48ab',
        'b5e82ce17ea094af7cd6653545bd5b33fdd8569b41087459a9742dea5b0f30b7',
        'e062e43034acbec102903e59c9ce1a3b39e6668fc2de34f768ea6039c0065edf',
    ),
}


def _key_network():
    """``x`` grows and moves to ``y``; the growth reaction is ``working``."""
    from repro.crn.network import ReactionNetwork
    from repro.crn.reaction import Reaction

    return ReactionNetwork(
        [
            Reaction({"x": 1}, {"x": 2}, rate=1.0, name="grow", category="working"),
            Reaction({"x": 1}, {"y": 1}, rate=1.0, name="move"),
            Reaction({"y": 1}, {}, rate=2.0, name="decay", category="working"),
        ],
        initial_state={"x": 3},
        name="grow-move",
    )


def _key_cases() -> "dict[str, tuple]":
    """``{descriptor type: (experiment, experiment_to_payload arguments)}``."""
    from repro.adaptive import (
        CiHalfWidthTarget,
        RelativeSETarget,
        SplittingConfig,
        SprtTarget,
    )
    from repro.api import Experiment
    from repro.sim.events import (
        AllCondition,
        AnyCondition,
        CategoryFiringCondition,
        FiringCountCondition,
        OutcomeThresholds,
        SpeciesThreshold,
    )
    from repro.sim.fsp import DominantSpeciesClassifier, ThresholdStateClassifier
    from repro.sim.outcomes import WorkingOutcomeClassifier

    network = Experiment.from_network(_key_network())
    sampled = dict(trials=100, engine="direct", seed=1)
    threshold = network.stop_when(SpeciesThreshold("x", 10))
    race = network.stop_when(OutcomeThresholds({"many": ("x", 10), "moved": ("y", 4)}))
    return {
        "stopping/species-threshold": (threshold, sampled),
        "stopping/outcome-thresholds": (race, sampled),
        "stopping/firing-count": (
            network.stop_when(FiringCountCondition([2, 0], 5)), sampled
        ),
        "stopping/category-firing": (
            network.stop_when(CategoryFiringCondition("working", 5)), sampled
        ),
        "stopping/any": (
            network.stop_when(
                AnyCondition([SpeciesThreshold("y", 4), FiringCountCondition([1], 3)])
            ),
            sampled,
        ),
        "stopping/all": (
            network.stop_when(
                AllCondition([SpeciesThreshold("x", 2, "<="), SpeciesThreshold("y", 1)])
            ),
            sampled,
        ),
        "classifier/stop-detail": (threshold, sampled),
        "classifier/working-outcome": (
            threshold.classify_with(
                WorkingOutcomeClassifier(
                    ["a", "b"], {"a": "grow"}, {"a": "x", "b": "y"}
                )
            ),
            sampled,
        ),
        "state-classifier/dominant-species": (
            network.classify_states(DominantSpeciesClassifier({"a": "x", "b": "y"})),
            dict(trials=100, engine="fsp"),
        ),
        "state-classifier/threshold-race": (
            network.classify_states(
                ThresholdStateClassifier({"many": ("x", 10, ">="), "gone": ("x", 0, "<=")})
            ),
            dict(trials=100, engine="fsp"),
        ),
        "until/ci-half-width": (
            race,
            dict(sampled, until=CiHalfWidthTarget(outcome="many", half_width=0.05)),
        ),
        "until/rel-se": (
            race, dict(sampled, until=RelativeSETarget(species="y", rel_se=0.1))
        ),
        "until/sprt": (
            race, dict(sampled, until=SprtTarget(outcome="many", p0=0.2, p1=0.4))
        ),
        "until/splitting": (
            race, dict(sampled, until=SplittingConfig(outcome="many", levels=(5, 10)))
        ),
    }


def key_of(experiment, simulate: dict) -> str:
    from repro.store.canonical import canonicalize_payload
    from repro.store.serialize import experiment_to_payload

    return canonicalize_payload(experiment_to_payload(experiment, **simulate)).key


#: ``{descriptor type: store key}``.
KEY_PINS = {
    'stopping/species-threshold': 'ce6e6b100adeba52da24482263212f3cfb8719408b0aa390612875d5e1510790',
    'stopping/outcome-thresholds': 'c8d58cca12ea9871575c3c3e534a356191e7cd93c7d1f8a4926832a9ea2d4bd8',
    'stopping/firing-count': '4e2dab45c36096ade313b59ce0be1ea08b103373006b126472a1809ff4d01627',
    'stopping/category-firing': '93183ca760be6c2d56cd16028c196b31b479e1ad356854a590fe69304953c5e2',
    'stopping/any': '05985ee049750a2455a75291e67edb896b1043916bfc466b0514f3e697e6b7f9',
    'stopping/all': 'd849dbc0fe9a177e328e41a62b109f209dd59f10b3c16f882be2083d91aa833a',
    'classifier/stop-detail': 'ce6e6b100adeba52da24482263212f3cfb8719408b0aa390612875d5e1510790',
    'classifier/working-outcome': '96087a1cb067aee456186ec5bb5ab04443987bf45e5d9cf31b62edacdacb93b2',
    'state-classifier/dominant-species': 'c7bf3226f56d8f65062aa90163bcb30d04ff1a38212c87f08cb0726dbf584545',
    'state-classifier/threshold-race': 'af81dd5d264fbb9af3be3dcd4f269cff1221bddfa2e4fdb196d4fc4cc817c153',
    'until/ci-half-width': '53632038881b3aa8498c24b7afcb0877ddac3d54d8ae2f1e88d9ca262bc9d658',
    'until/rel-se': '5b860ca55e7afa4a09e08386e12e217bc4523304e622543f79c906641b0108b0',
    'until/sprt': 'f6b97024440c373d6b59555bf2a51d3c0a1c0d6d2f56b22a4eed4d82bbdc9d77',
    'until/splitting': '315a11b75b88ddfdc2e0ba28c415bcd3961010f908eea25002daee86ba08a97c',
}


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_every_case_is_pinned(cases):
    assert set(cases) == set(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_store_pin(cases, case, tmp_path):
    """A cold run lands on its pinned key, bytes and envelope; a new handle
    hits them."""
    from repro.store import ResultStore

    experiment, simulate = cases[case]
    key, digest, envelope, cold = cold_pin(
        ResultStore(tmp_path / "store"), experiment, simulate
    )
    assert (key, digest, envelope) == PINS[case]
    warm = experiment.simulate(store=ResultStore(tmp_path / "store"), **simulate)
    assert warm.to_json() == cold.to_json()


def test_renamed_variant_shares_its_original_key():
    original = PINS[f"{RACE_MODEL}/direct"]
    renamed = PINS[f"{RACE_MODEL}/renamed"]
    assert renamed[0] == original[0]
    assert renamed[1] != original[1]
    assert renamed[2] != original[2]


def test_callable_campaign_cell_lands_on_the_pinned_key(cases, tmp_path):
    """A campaign cell and ``simulate(store=)`` agree on a callable's key and bytes."""
    from repro.store import Campaign, CampaignCell, CampaignRunner, ResultStore

    case = f"{RACE_MODEL}/callable/direct"
    experiment, simulate = cases[case]
    store = ResultStore(tmp_path / "store")
    cell = CampaignCell(name="callable", experiment=experiment, **simulate)
    outcome, = CampaignRunner(store).run(Campaign("pins", [cell])).outcomes
    assert outcome.status == "computed"
    assert (outcome.key, result_digest(outcome.result)) == PINS[case][:2]
    assert envelope_digest(store.root, outcome.key) == PINS[case][2]
    warm = experiment.simulate(store=store, **simulate)
    assert warm.to_json() == outcome.result.to_json()


def test_every_descriptor_type_is_key_pinned():
    assert set(_key_cases()) == set(KEY_PINS)


@pytest.mark.parametrize("case", sorted(KEY_PINS))
def test_descriptor_key_pin(case):
    """Each descriptor type canonicalizes to its pinned key."""
    experiment, simulate = _key_cases()[case]
    assert key_of(experiment, simulate) == KEY_PINS[case]


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    # Import this file under its test-module name, so the callable
    # classifier's reference (and so its key) matches a pytest run.
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from test_store_pins import _cases as pinned_cases, cold_pin as pin_of

    from repro.store import ResultStore

    print("PINS = {")
    for name, (experiment, simulate) in pinned_cases().items():
        with tempfile.TemporaryDirectory() as root:
            key, digest, envelope, _ = pin_of(ResultStore(root), experiment, simulate)
        print(f"    {name!r}: (\n        {key!r},\n        {digest!r},\n"
              f"        {envelope!r},\n    ),")
    print("}")
    print("\nKEY_PINS = {")
    for name, (experiment, simulate) in _key_cases().items():
        print(f"    {name!r}: {key_of(experiment, simulate)!r},")
    print("}")
