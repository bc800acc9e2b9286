"""State-space pins: the FSP enumeration must keep every space it has solved.

Each pin covers one enumerated space — a digest of its states (in row
order), outcome labels, edge sources and destinations and truncation flag —
plus the exact absorption probabilities solved over it.  The cases are the
12 conformance-corpus models and the paper's Example 1 under the classifiers
their oracles use, the expression cascade of ``benchmarks/bench_fsp.py``
under count caps, and a ``max_states=500`` budget truncation.

The digests leave out edge rates and outflows: those are floating-point sums
and may move in the last bits when the propensity arithmetic is reorganized.
The probabilities are compared to 1e-13 for the same reason.

To print the current values (after a *deliberate* change to the enumerated
spaces, named in CHANGES.md) run ``PYTHONPATH=src python tests/test_fsp_pins.py``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.crn import parse_network
from repro.sim.fsp import FspEngine, FspOptions, absorption_probabilities

#: Two-stage expression cascade of ``benchmarks/bench_fsp.py``.
CASCADE = """
init: gene = 1
gene ->{10} gene + m
m ->{0.2} 0
m ->{0.2} m + p
p ->{0.2} 0
"""
CASCADE_CAPS = {"m": 90, "p": 110}
BUDGET_MODEL = "gen-k2-L3-x1-c1-n14-seed6"
BUDGET = 500


def _cases() -> "dict[str, tuple]":
    """``{case: (network, classifier, FspOptions)}``."""
    from repro.core.synthesizer import synthesize_distribution
    from repro.zoo.corpus import corpus_entries

    system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)
    cases = {
        "example-1": (system.network_with_inputs(None), system.state_classifier(),
                      FspOptions()),
    }
    for entry in corpus_entries():
        model = entry.model
        cases[entry.name] = (model.network(), model.state_classifier(), model.fsp_options())
        if entry.name == BUDGET_MODEL:
            cases[f"{entry.name}@max_states={BUDGET}"] = (
                model.network(), model.state_classifier(),
                FspOptions(max_states=BUDGET, strict=False),
            )
    cases["cascade@caps"] = (
        parse_network(CASCADE, name="expression-cascade"), None,
        FspOptions(count_caps=CASCADE_CAPS),
    )
    return cases


def space_digest(space) -> str:
    """SHA-256 over states, labels, edge endpoints and the truncation flag."""
    digest = hashlib.sha256()
    for values in (space.states, space.edge_src, space.edge_dst):
        data = np.ascontiguousarray(values, dtype="<i8")
        digest.update(repr(data.shape).encode())
        digest.update(data.tobytes())
    digest.update(json.dumps(list(space.labels)).encode())
    digest.update(b"truncated" if space.truncated else b"complete")
    return digest.hexdigest()


def measure(case: str, cases: dict) -> "tuple[str, int, dict | None, float | None]":
    """``(digest, n_states, probabilities, truncation_error)`` of one case."""
    network, classifier, options = cases[case]
    space = FspEngine(network, engine_options=options).enumerate(classify=classifier)
    if classifier is None:
        return space_digest(space), space.n_states, None, None
    absorption = absorption_probabilities(space)
    return (space_digest(space), space.n_states, dict(absorption.probabilities),
            absorption.truncation_error)


#: ``case: (digest, n_states, probabilities, truncation_error)``, captured
#: before the enumeration moved onto the kernel arrays.
EXPECTED: "dict[str, tuple]" = {
    'birth-death': ('7b814e0b9a5b9bf63166acb8ee2dfd02d0c46f6ea5d162e81a7a0d9d05585eb0', 21, {'boom': 0.386328498950788, 'extinct': 0.6136715010492133}, 0.0),
    'cascade@caps': ('49da20933f8c461bc1f03cf8ef631aeb2eaf6b616df6f070462decb2eac4754c', 10101, None, None),
    'cross-catalysis': ('1e5466f749b3fef6b4578e642fa141eab1bb6878ab2027252bca6f1fd5d91c82', 930, {'d1': 0.578428521684636, 'd2': 0.4215714783153642}, 0.0),
    'dimerization': ('e88b3a5aac05a83a9c89886feaf138817f64be056ae7feff59f025a713f7bbc6', 103, {'dimers': 0.2895901453168693, 'waste': 0.7104098546831307}, 0.0),
    'example-1': ('24e0aec12897f06a83ddd3c4700fbea5a6c3657b6172a9d99d4eb3b72d587967', 4, {'1': 0.3, '2': 0.4, '3': 0.3}, 0.0),
    'gen-k2-L1-x0-c0-n16-seed3': ('85da3d3f27afcb61d9e1a3ccc87b3db061b58453230cf85dde45ab90fb68107c', 24, {'o1': 0.6721961402230222, 'o2': 0.3278038597769777}, 0.0),
    'gen-k2-L3-x1-c1-n14-seed6': ('b453147bb3a46342d9f252b546a18d15cc6ba88b0386e7c169c8712f5545c98e', 15381, {'o1': 0.2895043144964148, 'o2': 0.7104956855035852}, 2.4690497559558187e-16),
    'gen-k2-L3-x1-c1-n14-seed6@max_states=500': ('f06c9c39f7de0fba06321dc54e3d2fc1000975dcea118e50d4930ec4acf38643', 500, {'o1': 0.026763194350205383, '(undecided)': 0.9732368056497945}, 0.9732368056497945),
    'gen-k3-L2-x2-c0-n15-seed3': ('d18e23adfb07540951bc0cb43c104dc1454699ae9dcebc9e804bb78ea1d858bd', 7913, {'o1': 0.4921536859802639, 'o2': 0.2526487137595026, 'o3': 0.2551976002602337}, 1.1124196611137927e-16),
    'lambda-decision': ('768e50bc23161c01e228af5667cb99ae028c221bb734f5eb25dc437aaf9a4839', 143, {'lysis': 0.6384962180907696, 'lysogeny': 0.36150378190923044}, 0.0),
    'lambda-moi2': ('ab3950425ba40d51cd786e59bb0c630c408f05f8d23891907a8db2072c23391b', 120, {'lysis': 0.33379357840867196, 'lysogeny': 0.6662064215913279}, 0.0),
    'polya-urn': ('dc2991e2685c61a5a1ddb13e7ea363abb157deacb439779df16b066a5071b409', 63, {'first': 0.5, 'second': 0.49999999999999994}, 0.0),
    'stiff-cascade': ('ac6916282e1d9da03da1aa971f3009aca787e0b303b652c261d503a8117b7a69', 6923, {'fast': 0.7586919338176769, 'slow': 0.24130806618232314}, 0.0),
    'toggle-switch': ('5c4709e21b0f6cbc5c93dfb83b1a789f8dd9cb5f92276793544163a206b934e4', 168, {'u-wins': 0.5000000000000001, 'v-wins': 0.49999999999999983}, 0.0),
    'triple-race': ('076a6c0b6bb6bc3552464026edc15788e5096d13383d77c1a69f330052dda4ba', 276, {'d1': 0.2232203895891452, 'd2': 0.5751219745131068, 'd3': 0.20165763589774793}, 0.0),
}


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_every_case_is_pinned(cases):
    assert sorted(cases) == sorted(EXPECTED)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_space_and_probabilities_match_pin(case, cases):
    digest, n_states, probabilities, truncation_error = measure(case, cases)
    want_digest, want_states, want_probabilities, want_error = EXPECTED[case]
    assert n_states == want_states
    assert digest == want_digest
    if want_probabilities is None:
        assert probabilities is None
        return
    assert sorted(probabilities) == sorted(want_probabilities)
    for label, value in want_probabilities.items():
        assert probabilities[label] == pytest.approx(value, abs=1e-13), label
    assert truncation_error == pytest.approx(want_error, abs=1e-13)


if __name__ == "__main__":  # pragma: no cover - prints fresh pins
    all_cases = _cases()
    for name in sorted(all_cases):
        print(f"    {name!r}: {measure(name, all_cases)!r},")
