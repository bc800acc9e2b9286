"""Tests for isomorphism-aware canonical fingerprints and store tiering.

Covers the canonical-labeling pass (:mod:`repro.crn.canonical`), the
payload-level threading (:mod:`repro.store.canonical`), the renamed-model
warm-hit contract of ``Experiment.simulate(store=)``, the hot/cold store
tiers, and the fingerprint numeric-aliasing + ``evict()`` regressions.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import pickle
import random

import pytest

from repro.api import Experiment
from repro.crn import ReactionNetwork
from repro.crn.canonical import (
    canonical_form,
    is_isomorphic,
    isomorphism_witness,
    network_invariants,
)
from repro.crn.generate import GeneratorConfig, generate_network
from repro.errors import ExperimentError, NetworkError
from repro.store import (
    ResultStore,
    canonical_json,
    canonicalize_payload,
    experiment_to_payload,
    fingerprint_payload,
    normalize_numbers,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _generated(seed: int) -> ReactionNetwork:
    config = GeneratorConfig(n_outcomes=2, chain_length=2, scale=24)
    return generate_network(config, seed=seed)


def _scrambled(network: ReactionNetwork, seed: int) -> "tuple[ReactionNetwork, dict]":
    """A reaction-shuffled, species-permuted copy plus the rename used."""
    rng = random.Random(seed)
    reactions = list(network.reactions)
    rng.shuffle(reactions)
    names = [sp.name for sp in network.species]
    permuted = list(names)
    rng.shuffle(permuted)
    mapping = dict(zip(names, permuted))
    shuffled = ReactionNetwork(
        reactions,
        initial_state={sp.name: c for sp, c in network.initial_state.items()},
        name=network.name,
        species=names,
    )
    return shuffled.renamed(mapping), mapping


def _reaction_multiset(network: ReactionNetwork) -> set:
    return {
        (
            tuple(sorted((s.name, c) for s, c in r.reactants.items())),
            tuple(sorted((s.name, c) for s, c in r.products.items())),
            r.rate,
            r.name,
            r.category,
        )
        for r in network.reactions
    }


# ---------------------------------------------------------------------------
# canonical labeling: property suite over generated CRNs
# ---------------------------------------------------------------------------


class TestCanonicalFormProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 120), scramble=st.integers(0, 1000))
    def test_scrambling_preserves_canonical_key(self, seed, scramble):
        network = _generated(seed)
        variant, _ = _scrambled(network, scramble)
        assert network_invariants(network) == network_invariants(variant)
        assert canonical_form(network).key == canonical_form(variant).key

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 120), scramble=st.integers(0, 1000))
    def test_witness_round_trip_is_exact(self, seed, scramble):
        network = _generated(seed)
        variant, _ = _scrambled(network, scramble)
        witness = isomorphism_witness(network, variant)
        assert witness is not None
        translated = network.renamed(witness)
        assert _reaction_multiset(translated) == _reaction_multiset(variant)
        assert {s.name: c for s, c in translated.initial_state.items()} == {
            s.name: c for s, c in variant.initial_state.items()
        }

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 120), mutation=st.integers(0, 2))
    def test_mutants_get_different_keys(self, seed, mutation):
        network = _generated(seed)
        reactions = list(network.reactions)
        initial = {sp.name: c for sp, c in network.initial_state.items()}
        if mutation == 0:  # perturb one rate
            reactions[0] = reactions[0].scaled(1.618)
        elif mutation == 1:  # drop a reaction
            reactions = reactions[:-1]
        else:  # shift one molecule of initial state
            name = sorted(initial)[0]
            initial[name] = initial[name] + 1
        mutant = ReactionNetwork(
            reactions,
            initial_state=initial,
            species=[sp.name for sp in network.species],
        )
        assert canonical_form(network).key != canonical_form(mutant).key
        assert not is_isomorphic(network, mutant)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 120), scramble=st.integers(0, 1000))
    def test_payload_fingerprint_is_scramble_invariant(self, seed, scramble):
        network = _generated(seed)
        variant, mapping = _scrambled(network, scramble)
        prints = []
        for net in (network, variant):
            experiment = Experiment.from_network(net)
            payload = experiment_to_payload(
                experiment, trials=10, engine="direct", seed=3,
                chunk_size=64, backend="auto", engine_options=None, until=None,
            )
            prints.append(fingerprint_payload(payload))
        assert prints[0] == prints[1]


class TestCanonicalFormBasics:
    def test_canonical_network_is_fixed_point(self):
        network = _generated(5)
        form = canonical_form(network)
        again = canonical_form(form.network)
        assert again.key == form.key
        assert {s.name for s in form.network.species} == set(form.witness)

    def test_witness_maps_canonical_names_to_originals(self):
        network = _generated(5)
        form = canonical_form(network)
        originals = {sp.name for sp in network.species}
        assert set(form.witness.values()) == originals
        assert sorted(form.witness) == [name for name in sorted(form.witness)]

    def test_reaction_order_is_a_permutation(self):
        network = _generated(7)
        form = canonical_form(network)
        assert sorted(form.reaction_order) == list(range(network.size))


# ---------------------------------------------------------------------------
# renamed-model warm hits (the acceptance criterion)
# ---------------------------------------------------------------------------

RENAME = {"u": "activator", "v": "repressor", "p": "precursor"}


def opaque_classifier(observed):
    """A module-level classifier: importable by reference, opaque to renaming."""
    return None


def _permuted_variant(experiment: Experiment) -> Experiment:
    """Species-renamed + reaction-permuted copy of a network experiment."""
    renamed = experiment.renamed(RENAME)
    network = renamed.network
    permuted = ReactionNetwork(
        list(reversed(list(network.reactions))),
        initial_state={sp.name: c for sp, c in network.initial_state.items()},
        name=network.name,
        species=[sp.name for sp in network.species],
    )
    return dataclasses.replace(renamed, network=permuted)


#: Descriptor kinds that name a species, each on the toggle switch.
SPECIES_KINDS = (
    "species-threshold",
    "outcome-thresholds",
    "any-all",
    "working-outcome",
    "dominant-species",
    "threshold-race",
    "rel-se",
)


def _species_kind(kind: str) -> "tuple[Experiment, dict]":
    """``(experiment, simulate arguments)`` whose ``kind`` descriptor names
    toggle-switch species."""
    from repro.adaptive import RelativeSETarget
    from repro.sim.events import AllCondition, AnyCondition, OutcomeThresholds, SpeciesThreshold
    from repro.sim.fsp import DominantSpeciesClassifier, ThresholdStateClassifier
    from repro.sim.outcomes import WorkingOutcomeClassifier

    base = Experiment.from_zoo("toggle-switch")
    sampled = dict(trials=30, engine="direct", seed=11)
    exact = dict(trials=30, engine="fsp")
    race = base.stop_when(OutcomeThresholds({"u-wins": ("u", 12), "v-wins": ("v", 12)}))
    cases = {
        "species-threshold": (base.stop_when(SpeciesThreshold("u", 12)), sampled),
        "outcome-thresholds": (race, sampled),
        "any-all": (
            base.stop_when(AnyCondition([
                AllCondition([SpeciesThreshold("u", 6), SpeciesThreshold("p", 25, "<=")]),
                SpeciesThreshold("v", 12),
            ])),
            sampled,
        ),
        "working-outcome": (
            race.classify_with(WorkingOutcomeClassifier(
                ["u-side", "v-side"], {}, {"u-side": "u", "v-side": "v"}
            )),
            sampled,
        ),
        "dominant-species": (
            base.classify_states(DominantSpeciesClassifier({"u-side": "u", "v-side": "v"})),
            exact,
        ),
        "threshold-race": (
            base.classify_states(
                ThresholdStateClassifier({"u-wins": ("u", 12), "v-wins": ("v", 12, ">=")})
            ),
            exact,
        ),
        "rel-se": (
            base,
            dict(engine="direct", seed=11, chunk_size=16,
                 until=RelativeSETarget(species="u", rel_se=0.5, max_trials=64)),
        ),
    }
    return cases[kind]


class TestRenamedWarmHits:
    @pytest.mark.parametrize("kind", SPECIES_KINDS)
    def test_renamed_variant_warm_hits_for_every_species_descriptor(self, tmp_path, kind):
        """Whichever descriptor names the species, a ``renamed()`` variant
        hits its original's artifact, equal to its own cold run."""
        experiment, simulate = _species_kind(kind)
        store = ResultStore(tmp_path / "store")
        experiment.simulate(store=store, **simulate)
        variant = experiment.renamed(RENAME)
        if "until" in simulate:
            simulate = {**simulate, "until": simulate["until"].renamed(RENAME)}
        warm = variant.simulate(store=store, **simulate)
        assert store.stats()["artifacts"] == 1
        cold = variant.simulate(store=ResultStore(tmp_path / "fresh"), **simulate)
        assert canonical_json(warm.to_payload()) == canonical_json(cold.to_payload())

    @pytest.mark.parametrize("engine", ["direct", "first-reaction", "batch-direct", "fsp"])
    def test_renamed_permuted_variant_warm_hits(self, tmp_path, engine):
        store = ResultStore(tmp_path / "store")
        base = Experiment.from_zoo("toggle-switch")
        base.simulate(trials=30, engine=engine, seed=11, store=store)
        assert store.stats()["artifacts"] == 1

        variant = _permuted_variant(base)
        warm = variant.simulate(trials=30, engine=engine, seed=11, store=store)
        # A warm hit: the isomorphic variant addressed the same artifact.
        assert store.stats()["artifacts"] == 1

        # ...and the translated payload equals recomputing from scratch.
        cold = variant.simulate(
            trials=30, engine=engine, seed=11, store=ResultStore(tmp_path / "fresh")
        )
        assert canonical_json(warm.to_payload()) == canonical_json(cold.to_payload())

    def test_translated_species_namings(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        base = Experiment.from_zoo("toggle-switch")
        original = base.simulate(trials=25, engine="direct", seed=5, store=store)
        warm = _permuted_variant(base).simulate(
            trials=25, engine="direct", seed=5, store=store
        )
        assert sorted(s.name for s in original.ensemble.species) == ["p", "u", "v"]
        assert sorted(s.name for s in warm.ensemble.species) == sorted(RENAME.values())
        # Outcome labels are identity and never translated.
        assert set(warm.frequencies) == set(original.frequencies)
        assert warm.frequencies == original.frequencies

    def test_v1_artifact_is_served_as_stored(self, tmp_path):
        """A v1 (JSON-list) artifact still hits, renamed or not, as lists."""
        from repro.store import experiment_to_payload
        from repro.store.canonical import cached_run

        store = ResultStore(tmp_path / "store")
        base = Experiment.from_zoo("toggle-switch")
        kwargs = dict(trials=30, engine="batch-direct", seed=11)
        cold = base.simulate(store=store, **kwargs)
        key = store.keys()[0]
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        payload = envelope["payload"]
        payload["schema"] = "repro.run-result/v1"
        for name in ("final_counts", "final_times", "n_firings"):
            payload["ensemble"][name] = getattr(cold.ensemble, name).tolist()
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))

        variant = _permuted_variant(base)
        fresh = variant.simulate(store=ResultStore(tmp_path / "fresh"), **kwargs)
        for experiment, expected in ((base, cold), (variant, fresh)):
            result, cached, _canon, reply = cached_run(
                ResultStore(store.root), experiment_to_payload(experiment, **kwargs)
            )
            assert cached
            assert reply["payload"]["schema"] == "repro.run-result/v1"
            assert isinstance(reply["payload"]["ensemble"]["final_counts"], list)
            assert result.ensemble.final_counts.tolist() == expected.ensemble.final_counts.tolist()
            assert result.ensemble.final_times.tolist() == expected.ensemble.final_times.tolist()
            assert result.ensemble.outcome_counts == expected.ensemble.outcome_counts

    def test_v2_artifact_is_served_as_stored(self, tmp_path):
        """A v2 artifact ("<i8" columns) still hits, renamed or not, at "<i8"."""
        from repro.api.results import encode_column
        from repro.store import experiment_to_payload
        from repro.store.canonical import cached_run

        store = ResultStore(tmp_path / "store")
        base = Experiment.from_zoo("toggle-switch")
        kwargs = dict(trials=30, engine="batch-direct", seed=11)
        cold = base.simulate(store=store, **kwargs)
        key = store.keys()[0]
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        payload = envelope["payload"]
        payload["schema"] = "repro.run-result/v2"
        for name in ("final_counts", "n_firings"):
            payload["ensemble"][name] = encode_column(getattr(cold.ensemble, name), "<i8")
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))

        variant = _permuted_variant(base)
        fresh = variant.simulate(store=ResultStore(tmp_path / "fresh"), **kwargs)
        for experiment, expected in ((base, cold), (variant, fresh)):
            result, cached, _canon, reply = cached_run(
                ResultStore(store.root), experiment_to_payload(experiment, **kwargs)
            )
            assert cached
            assert reply["payload"]["schema"] == "repro.run-result/v2"
            for name in ("final_counts", "n_firings"):
                assert reply["payload"]["ensemble"][name]["dtype"] == "<i8"
                array = getattr(result.ensemble, name)
                assert array.tobytes() == getattr(expected.ensemble, name).tobytes()
            assert result.ensemble.final_times.tobytes() == expected.ensemble.final_times.tobytes()
            assert result.ensemble.outcome_counts == expected.ensemble.outcome_counts

    def test_experiment_renamed_requires_network_kind(self):
        experiment = Experiment.from_distribution({"1": 0.5, "2": 0.5}, gamma=100)
        with pytest.raises(ExperimentError, match="network experiments"):
            experiment.renamed({"x": "y"})

    def test_experiment_renamed_is_injective(self):
        base = Experiment.from_zoo("toggle-switch")
        with pytest.raises(NetworkError, match="allow_merge"):
            base.renamed({"u": "v"})

    def test_experiment_renamed_rejects_a_predicate_condition(self):
        """A condition without a descriptor cannot rename itself; renaming
        the experiment says so as an ``ExperimentError``."""
        from repro.sim.events import PredicateCondition

        base = Experiment.from_zoo("toggle-switch").stop_when(
            PredicateCondition(opaque_classifier)
        )
        with pytest.raises(ExperimentError, match="cannot be renamed"):
            base.renamed(RENAME)

    @pytest.mark.parametrize("attach", ["classify_with", "classify_states"])
    def test_experiment_renamed_rejects_a_callable_classifier(self, attach):
        """A module-level callable has a store reference but no species map
        to rename: it would go on reading the old names."""
        base = getattr(Experiment.from_zoo("toggle-switch"), attach)(opaque_classifier)
        with pytest.raises(ExperimentError, match="callable classifier"):
            base.renamed(RENAME)

    def test_v1_schema_payload_addresses_v2_entry(self, tmp_path):
        base = Experiment.from_zoo("toggle-switch")
        payload = experiment_to_payload(
            base, trials=10, engine="direct", seed=2,
            chunk_size=64, backend="auto", engine_options=None, until=None,
        )
        legacy = dict(payload)
        legacy["schema"] = "repro.experiment/v1"
        assert fingerprint_payload(legacy) == fingerprint_payload(payload)
        assert canonicalize_payload(legacy).payload["schema"] == "repro.experiment/v2"

    def test_equivalent_engine_options_spellings_share_a_key(self):
        """Engine options are rebuilt through their dataclass before hashing,
        so absent defaults and the full field set name one entry."""
        from repro.sim import TauLeapOptions

        full = experiment_to_payload(
            Experiment.from_zoo("toggle-switch"), trials=10, engine="tau-leaping", seed=2,
            engine_options=TauLeapOptions(epsilon=0.01),
        )
        assert full["simulate"]["engine_options"]["fields"] == {
            "epsilon": 0.01, "exact_step_multiplier": 10.0
        }
        keys = {fingerprint_payload(full)}
        for fields in ({"epsilon": 0.01}, {"exact_step_multiplier": 10, "epsilon": 0.01}):
            payload = dict(full)
            payload["simulate"] = {
                **full["simulate"],
                "engine_options": {"type": "TauLeapOptions", "fields": fields},
            }
            keys.add(fingerprint_payload(payload))
        assert len(keys) == 1


# ---------------------------------------------------------------------------
# descriptor spellings: the key hashes the parsed, renamed objects
# ---------------------------------------------------------------------------

class TestDescriptorSpellings:
    """Every spelling of one descriptor shares its canonical spelling's key."""

    def test_species_threshold_without_label_shares_the_labelled_key(self, growth_payload):
        labelled = growth_payload
        unlabelled = json.loads(json.dumps(labelled))
        del unlabelled["stopping"]["label"]
        assert labelled["stopping"]["label"] == "x>=10"
        assert canonicalize_payload(unlabelled).key == canonicalize_payload(labelled).key

    def test_null_classifier_shares_the_stop_detail_key(self, growth_payload):
        payload = growth_payload
        assert payload["classifier"] == {"type": "stop-detail"}
        null = {**payload, "classifier": None}
        assert canonicalize_payload(null).key == canonicalize_payload(payload).key

    def test_two_element_threshold_race_shares_the_three_element_key(
        self, polya_race_payloads
    ):
        payload, short = polya_race_payloads
        assert canonicalize_payload(short).key == canonicalize_payload(payload).key

    def test_unknown_descriptor_keys_leave_the_identity(self, growth_payload):
        payload = growth_payload
        noted = json.loads(json.dumps(payload))
        noted["stopping"]["note"] = "an unknown key"
        noted["classifier"]["note"] = "an unknown key"
        assert canonicalize_payload(noted).key == canonicalize_payload(payload).key

    @pytest.mark.parametrize(
        "field, value",
        [("threshold", "10"), ("threshold", 10.5), ("threshold", True), ("species", 5),
         ("label", 7)],
    )
    def test_a_descriptor_scalar_has_one_spelling(self, growth_payload, field, value):
        from repro.errors import FingerprintError

        payload = growth_payload
        payload["stopping"][field] = value
        with pytest.raises(FingerprintError, match=f"'stopping'.*'{field}'"):
            canonicalize_payload(payload)

    def test_a_reaction_index_is_not_a_bool(self, growth_payload):
        from repro.errors import FingerprintError

        payload = growth_payload
        payload["stopping"] = {
            "type": "firing-count", "reaction_indices": [True], "count": 3, "label": "fired",
        }
        with pytest.raises(FingerprintError, match="'stopping'.*'reaction_indices'"):
            canonicalize_payload(payload)


# ---------------------------------------------------------------------------
# fingerprint numeric aliasing (regression)
# ---------------------------------------------------------------------------


class TestNumericAliasing:
    def test_negative_zero_aliases_zero(self):
        assert fingerprint_payload({"x": -0.0}) == fingerprint_payload({"x": 0.0})
        assert fingerprint_payload({"x": -0.0}) == fingerprint_payload({"x": 0})

    def test_integral_float_aliases_int(self):
        assert fingerprint_payload({"rate": 1.0}) == fingerprint_payload({"rate": 1})
        assert fingerprint_payload({"a": [2.0, 3.5]}) == fingerprint_payload(
            {"a": [2, 3.5]}
        )

    def test_bools_are_not_numbers(self):
        assert fingerprint_payload({"flag": True}) != fingerprint_payload({"flag": 1})
        assert normalize_numbers(True) is True

    def test_storage_path_preserves_spellings(self):
        # canonical_json without normalize keeps the exact numeric types —
        # persisted payloads round-trip byte-identically.
        assert canonical_json({"x": 1.0}) == '{"x":1.0}'
        assert canonical_json({"x": 1.0}, normalize=True) == '{"x":1}'

    def test_rate_respelling_same_fingerprint(self):
        base = Experiment.from_zoo("toggle-switch")
        payload = experiment_to_payload(
            base, trials=10, engine="direct", seed=2,
            chunk_size=64, backend="auto", engine_options=None, until=None,
        )
        respelled = normalize_numbers(json.loads(json.dumps(payload)))
        assert fingerprint_payload(respelled) == fingerprint_payload(payload)


# ---------------------------------------------------------------------------
# store tiering (hot LRU + gzip cold)
# ---------------------------------------------------------------------------


class TestStoreTiering:
    def _seed_artifact(self, store: ResultStore) -> str:
        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)
        [key] = store.keys()
        return key

    def test_cold_artifacts_are_gzip_compressed(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        path = store._artifact_path(key)
        assert path.suffix == ".gz"
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        assert envelope["key"] == key
        assert envelope["witness"]  # canonical writers record their witness

    def test_compressed_writes_are_deterministic(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        path = store._artifact_path(key)
        first = path.read_bytes()
        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)
        assert path.read_bytes() == first  # gzip mtime=0: content-addressed bytes

    def test_legacy_uncompressed_artifacts_stay_readable(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        compressed = store._artifact_path(key)
        written = compressed.read_bytes()
        legacy = compressed.with_name(f"{key}.json")
        legacy.write_bytes(gzip.decompress(written))
        compressed.unlink()
        reader = ResultStore(tmp_path / "store")
        envelope = reader.get_envelope(key)
        assert envelope == store.get_envelope(key)
        assert reader.keys() == [key]
        assert reader.has(key)
        assert reader.stats()["bytes"] == legacy.stat().st_size
        # A put of the key replaces the legacy copy with the same gzip bytes.
        reader.put(
            key, reader.load_run(key), envelope["descriptor"], envelope["witness"]
        )
        assert compressed.read_bytes() == written and not legacy.exists()

    def test_hot_tier_serves_repeat_reads(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        first = store.get_envelope(key)
        # Repeat reads come from the hot tier: same object, no disk I/O.
        assert store.get_envelope(key) is first
        store._artifact_path(key).unlink()
        assert store.get_envelope(key) is first

    def test_hot_capacity_zero_disables_tier(self, tmp_path):
        store = ResultStore(tmp_path / "store", hot_capacity=0)
        key = self._seed_artifact(store)
        first = store.get_envelope(key)
        assert store.get_envelope(key) is not first

    def test_hot_tier_is_bounded_lru(self, tmp_path):
        store = ResultStore(tmp_path / "store", hot_capacity=2)
        for fill in range(3):
            store.put(f"{fill:02d}" * 32, self._tiny_result(), descriptor=None)
        assert len(store._hot) == 2
        assert "00" * 32 not in store._hot  # oldest evicted

    def test_evict_invalidates_hot_tier(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        store.get_envelope(key)
        assert store.evict(key)
        assert store.get_envelope(key) is None

    def test_pickled_store_restarts_with_empty_hot_tier(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._seed_artifact(store)
        store.get_envelope(key)
        clone = pickle.loads(pickle.dumps(store))
        assert len(clone._hot) == 0
        assert clone.get_envelope(key) is not None

    @staticmethod
    def _tiny_result():
        from repro.api.results import RunResult
        from repro.crn import Reaction
        from repro.sim.ensemble import ParallelEnsembleRunner
        from repro.sim.events import SpeciesThreshold

        network = ReactionNetwork(
            [Reaction({"a": 1}, {}, rate=1.0)], initial_state={"a": 1}
        )
        runner = ParallelEnsembleRunner(
            network, stopping=SpeciesThreshold("a", 0, label="done")
        )
        return RunResult(ensemble=runner.run(1, seed=1))


# ---------------------------------------------------------------------------
# evict() answers from the artifact files
# ---------------------------------------------------------------------------


class TestEvictReconciliation:
    def test_evict_false_after_external_delete(self, tmp_path):
        store = ResultStore(tmp_path / "store", hot_capacity=0)
        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)
        [key] = store.keys()
        # The artifact file vanishes externally: nothing records it any more.
        store._artifact_path(key).unlink()
        assert store.keys() == [] and len(store) == 0
        assert store.stats()["artifacts"] == 0 and store.stats()["bytes"] == 0
        assert store.evict(key) is False  # no file was deleted

    def test_evict_false_for_unknown_key(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        assert store.evict("ab" * 32) is False

    def test_evict_true_for_present_artifact(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)
        [key] = store.keys()
        assert store.evict(key) is True
        assert store.keys() == []


# ---------------------------------------------------------------------------
# canonical-form caching by network content
# ---------------------------------------------------------------------------


class TestCanonicalFormCache:
    @pytest.fixture
    def count_labelings(self, monkeypatch):
        """Count invocations of the (expensive) labeling search."""
        from repro.crn import canonical as canonical_module
        from repro.store import canonical as store_canonical

        # Payload canonicalization caches forms by network content; start
        # empty so earlier tests' networks cannot hide a labeling.
        store_canonical._NETWORK_FORMS.clear()
        calls = []
        original = canonical_module._compute_canonical_form

        def counting(network):
            calls.append(network)
            return original(network)

        monkeypatch.setattr(canonical_module, "_compute_canonical_form", counting)
        return calls

    def test_distinct_objects_do_not_share_entries(self, count_labelings):
        a = _generated(11)
        b = _generated(11)
        assert canonical_form(a).key == canonical_form(b).key
        assert len(count_labelings) == 2

    def test_repeated_store_simulations_label_once(self, tmp_path, count_labelings):
        experiment = Experiment.from_zoo("toggle-switch")
        store = ResultStore(tmp_path / "store")
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)
        experiment.simulate(trials=10, engine="direct", seed=3, store=store)  # hit
        experiment.simulate(trials=20, engine="direct", seed=4, store=store)  # miss
        assert len(count_labelings) == 1

    def test_system_experiment_store_simulations_label_once(self, tmp_path, count_labelings):
        # Every call re-resolves a synthesized design into a fresh network
        # object, so only a content-keyed form spares the repeats a search.
        experiment = Experiment.from_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=100)
        store = ResultStore(tmp_path / "store")
        experiment.simulate(trials=10, engine="batch-direct", seed=3, store=store)
        experiment.simulate(trials=10, engine="batch-direct", seed=3, store=store)  # hit
        experiment.simulate(trials=10, engine="batch-direct", seed=4, store=store)  # miss
        assert len(store.keys()) == 2
        assert len(count_labelings) == 1

    def test_equal_payloads_parsed_from_json_label_once(self, tmp_path, count_labelings):
        from repro.store.canonical import cached_run

        text = json.dumps(
            experiment_to_payload(
                Experiment.from_zoo("toggle-switch"), trials=10, engine="direct", seed=3
            )
        )
        store = ResultStore(tmp_path / "store")
        _, first_cached, first, _ = cached_run(store, json.loads(text))
        _, second_cached, second, _ = cached_run(store, json.loads(text))
        assert (first_cached, second_cached) == (False, True)
        assert first.key == second.key
        assert len(count_labelings) == 1

    def test_mutating_a_result_leaves_the_next_call_intact(self):
        payload = experiment_to_payload(
            Experiment.from_zoo("toggle-switch"), trials=10, engine="direct", seed=3
        )
        first = canonicalize_payload(payload)
        expected_payload = json.loads(json.dumps(first.payload))
        expected_witness = dict(first.witness)

        first.payload["network"]["reactions"][0]["rate"] = 123.0
        first.payload["network"]["species"].append("intruder")
        first.payload["network"]["initial_state"].clear()
        first.witness[next(iter(first.witness))] = "intruder"
        first.witness["s999"] = "intruder"

        second = canonicalize_payload(payload)
        assert second.key == first.key
        assert second.payload == expected_payload
        assert second.witness == expected_witness

    def test_form_cache_is_bounded(self, monkeypatch, count_labelings):
        from repro.store import canonical as store_canonical

        monkeypatch.setattr(store_canonical, "_NETWORK_FORM_CAPACITY", 2)
        payloads = [
            experiment_to_payload(
                Experiment.from_network(_generated(seed)), trials=10, engine="direct", seed=1
            )
            for seed in (21, 22, 23)
        ]
        for payload in payloads:
            canonicalize_payload(payload)
        assert len(store_canonical._NETWORK_FORMS) == 2
        canonicalize_payload(payloads[2])  # still cached
        assert len(count_labelings) == 3
        canonicalize_payload(payloads[0])  # least recently used: evicted
        assert len(count_labelings) == 4

    def test_form_cache_under_concurrent_threads(self, monkeypatch):
        import sys
        import threading
        import time
        from collections import OrderedDict

        from repro.store import canonical as store_canonical

        class SlowLookups(OrderedDict):
            """Yields the interpreter after each lookup, widening the window
            in which an unsynchronized writer could evict the entry found."""

            def get(self, key, default=None):
                value = super().get(key, default)
                time.sleep(1e-4)
                return value

        monkeypatch.setattr(store_canonical, "_NETWORK_FORMS", SlowLookups())
        monkeypatch.setattr(store_canonical, "_NETWORK_FORM_CAPACITY", 2)
        payloads = [
            experiment_to_payload(
                Experiment.from_network(_generated(seed)), trials=10, engine="direct", seed=1
            )
            for seed in (31, 32, 33)
        ]
        expected = [canonicalize_payload(payload).key for payload in payloads]
        errors: list = []
        keys: list = []

        def work(offset: int) -> None:
            rng = random.Random(offset)  # hits and evictions interleave
            try:
                for _ in range(100):
                    index = rng.randrange(len(payloads))
                    keys.append((index, canonicalize_payload(payloads[index]).key))
            except Exception as exc:  # surfaced by the assertions below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(keys) == 6 * 100
        assert all(key == expected[index] for index, key in keys)
        assert len(store_canonical._NETWORK_FORMS) <= 2
