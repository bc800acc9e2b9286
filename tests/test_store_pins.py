"""Store pins: the key and artifact digest of seeded ``simulate(store=)`` runs.

Each case is one cold ``Experiment.simulate(store=)`` call against a fresh
store.  Its pin is the store key the call lands on and the SHA-256 of the
returned result's ``to_json()`` text, so together the pins hold the store's
contract: a key names exactly one realization, and every caller reads that
realization byte for byte.  The cases cover every way a run reaches the
store:

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
same key and bytes.  The digest leaves out the ``version`` field a result
records, so a release bump moves no pin.

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


def cold_pin(store, experiment, simulate: dict) -> "tuple[str, str, object]":
    """``(key, digest, result)`` of one cold ``simulate(store=)`` call."""
    result = experiment.simulate(store=store, **simulate)
    keys = store.keys()
    assert len(keys) == 1, keys
    return keys[0], result_digest(result), result


#: ``{case: (store key, result digest)}``.
PINS = {
    'example-1/batch-direct': ('bd0bb59ad679e62ec14623fe52c05566f8937cac3b37d908890f8b3833645cdb', 'd4f51c6a00a3688251a9d73e5f90977b82e795bf745d27f9d017a02c233c8023'),
    'example-1/ci-half-width': ('a484452fc8f287960a5debe392e1fa13e56e6f0858c78a39141c1195b82fec33', '729355d775d34f7fde94c38e54c7ed545adcad07138757422dd23e7fafcfafee'),
    'toggle-switch/direct': ('203e31ad46ca8199bb8945ffe3b5cb7f0f7ef07551bb8dc1f976cac05e5136c4', '3f2bf9ec698911258f086af95cd49b096eefe7a6a1a1b8221e816376b7248a2d'),
    'toggle-switch/first-reaction': ('6a4941ff45248121c707b6a27d9f1e8597be2ba47a7f7f1bf2331e3492dfe30b', '0a9a2fc5c2990d96552dd3e4c7f8fb13c2aec57918ccf428c7aaa5b30e0e093c'),
    'toggle-switch/next-reaction': ('73e57cdb7300558f07027f2476365befdd68584cf84e97588a9e30fbc15cb937', '70973bd5beb189f31b544f7a96b1b9e9c3c6668074cb3c21e1e31112cc60f604'),
    'toggle-switch/batch-direct': ('e236c06ce69f07c95499c60724191ec525f73830114904d8d4fcbfcec7873af1', 'f317ec53e849a9274182714343e4527acf9829916470a73cb9b503fb915f1a2e'),
    'triple-race/fsp': ('8c00067bc4042227ee1a983f1233d5aae53aecdf7ef46bb60aa1b40a4f527ed5', 'e61d619bfd19b7617c8699dc4ff4ff721476ce6c0c158618e4107a53c0b505af'),
    'triple-race/direct': ('ba45dc227e95fb15f541e964ee554589fbca8f60985b408bc801dd253c459f50', '7912d2da188018cbeacaaa4c79222c73ab2c85aace21af495ebad6e2cd436940'),
    'triple-race/renamed': ('ba45dc227e95fb15f541e964ee554589fbca8f60985b408bc801dd253c459f50', '0ae6db35b4e31f7b25e373cae658283410ee3b9a77a7d35cae4e45f00ce6b8cc'),
    'triple-race/callable/direct': ('f3ffb645f6433e358cfb379d4a94d0c4f6666d4ed35d9289ac673faf37975ec7', 'ab8b13cc036d928d30b0fa5e95ef7ac2570d8ea51af20be42a265ba3ef6dabd1'),
    'triple-race/callable/batch-direct': ('78ef9bd0c1ddc65a7ce9ceb8aa10acd5b18cf2cb0c1091c58bd0e45af44a48ab', 'b5e82ce17ea094af7cd6653545bd5b33fdd8569b41087459a9742dea5b0f30b7'),
}


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_every_case_is_pinned(cases):
    assert set(cases) == set(PINS)


@pytest.mark.parametrize("case", sorted(PINS))
def test_store_pin(cases, case, tmp_path):
    """A cold run lands on its pinned key and bytes; a new handle hits them."""
    from repro.store import ResultStore

    experiment, simulate = cases[case]
    key, digest, cold = cold_pin(ResultStore(tmp_path / "store"), experiment, simulate)
    assert (key, digest) == PINS[case]
    warm = experiment.simulate(store=ResultStore(tmp_path / "store"), **simulate)
    assert warm.to_json() == cold.to_json()


def test_renamed_variant_shares_its_original_key():
    original = PINS[f"{RACE_MODEL}/direct"]
    renamed = PINS[f"{RACE_MODEL}/renamed"]
    assert renamed[0] == original[0]
    assert renamed[1] != original[1]


def test_callable_campaign_cell_lands_on_the_pinned_key(cases, tmp_path):
    """A campaign cell and ``simulate(store=)`` agree on a callable's key and bytes."""
    from repro.store import Campaign, CampaignCell, CampaignRunner, ResultStore

    case = f"{RACE_MODEL}/callable/direct"
    experiment, simulate = cases[case]
    store = ResultStore(tmp_path / "store")
    cell = CampaignCell(name="callable", experiment=experiment, **simulate)
    outcome, = CampaignRunner(store).run(Campaign("pins", [cell])).outcomes
    assert outcome.status == "computed"
    assert (outcome.key, result_digest(outcome.result)) == PINS[case]
    warm = experiment.simulate(store=store, **simulate)
    assert warm.to_json() == outcome.result.to_json()


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
            key, digest, _ = pin_of(ResultStore(root), experiment, simulate)
        print(f"    {name!r}: ({key!r}, {digest!r}),")
    print("}")
