"""Tests for the content-addressed result store (fingerprint, cache, GC)."""

from __future__ import annotations

import gzip
import json

import numpy as np
import pytest

import repro
from repro.api import Experiment
from repro.errors import (
    ExperimentError,
    FingerprintError,
    StoreError,
    StoppingConditionError,
)
from repro.sim.events import (
    AllCondition,
    AnyCondition,
    CategoryFiringCondition,
    FiringCountCondition,
    OutcomeThresholds,
    PredicateCondition,
    SpeciesThreshold,
    StoppingCondition,
    condition_from_descriptor,
)
from repro.sim import registry
from repro.store import (
    ResultStore,
    canonical_json,
    canonicalize_payload,
    compute_payload,
    experiment_to_payload,
    fingerprint_payload,
)
from repro.store.canonical import cached_run


@pytest.fixture
def store(tmp_path) -> ResultStore:
    return ResultStore(tmp_path / "store")


@pytest.fixture
def experiment() -> Experiment:
    return Experiment.from_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=100)


def payload_of(experiment, **kwargs):
    kwargs.setdefault("trials", 50)
    kwargs.setdefault("engine", "direct")
    kwargs.setdefault("seed", 11)
    return experiment_to_payload(experiment, **kwargs)


# ---------------------------------------------------------------------------
# canonical fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json(
            {"a": [2, 3], "b": 1}
        )

    def test_canonical_json_rejects_nonfinite(self):
        with pytest.raises(FingerprintError):
            canonical_json({"x": float("inf")})

    def test_fingerprint_stable_across_calls(self, experiment):
        first = fingerprint_payload(payload_of(experiment, seed=1))
        second = fingerprint_payload(payload_of(experiment, seed=1))
        assert first == second
        assert len(first) == 64 and set(first) <= set("0123456789abcdef")

    def test_fingerprint_excludes_version(self, experiment):
        payload = payload_of(experiment, seed=1)
        rewritten = dict(payload, version="0.0.0-other")
        assert fingerprint_payload(payload) == fingerprint_payload(rewritten)

    @pytest.mark.parametrize(
        "change",
        [
            {"trials": 51},
            {"seed": 2},
            {"engine": "batch-direct"},
            {"backend": "numpy"},
            {"chunk_size": 64},
        ],
    )
    def test_fingerprint_sensitive_to_simulate_args(self, experiment, change):
        base = fingerprint_payload(payload_of(experiment, seed=1))
        varied = fingerprint_payload(payload_of(experiment, **{"seed": 1, **change}))
        assert base != varied

    def test_fingerprint_sensitive_to_inputs(self):
        base = Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=50)
        assert fingerprint_payload(payload_of(base)) != fingerprint_payload(
            payload_of(base.program({"e_a": 10}))
        )

    def test_unseeded_sampling_run_rejected(self, store, experiment):
        # seed=None draws fresh entropy per run; caching would alias distinct
        # random samples to the first result, so fingerprinting refuses it.
        with pytest.raises(FingerprintError, match="unseeded"):
            payload_of(experiment, seed=None)
        with pytest.raises(FingerprintError, match="unseeded"):
            experiment.simulate(trials=10, store=store)

    def test_unseeded_exact_engine_allowed(self, store, experiment):
        # fsp takes no seed — there is nothing random to alias.
        cold = experiment.simulate(trials=100, engine="fsp", store=store)
        warm = experiment.simulate(trials=100, engine="fsp", store=store)
        assert cold.to_json() == warm.to_json()

    @pytest.mark.parametrize("field", ["trials", "chunk_size"])
    def test_bool_count_refused_by_the_payload_writer(self, experiment, field):
        # True used to be written as 1, the key of a well-typed run.
        with pytest.raises(FingerprintError, match=f"{field}: expected an integer, got True"):
            payload_of(experiment, **{field: True})

    def test_lambda_classifier_rejected(self, race_network):
        experiment = Experiment.from_network(
            race_network, classifier=lambda trajectory: "x"
        )
        with pytest.raises(FingerprintError, match="module-level"):
            payload_of(experiment)

    def test_predicate_condition_rejected(self, race_network):
        experiment = Experiment.from_network(
            race_network,
            stopping=PredicateCondition(lambda time, state: None),
        )
        with pytest.raises(FingerprintError, match="cannot be serialized"):
            payload_of(experiment)


class TestStoredRunRule:
    """What one stored run of an engine needs is checked while the payload
    is read, before the canonical-form search and the store lookup."""

    def test_unseeded_wire_payload_is_refused_not_cached(self, store, growth_payload):
        # A null seed draws fresh entropy each run: caching the first sample
        # used to answer every later request with it.
        growth_payload["simulate"].update(trials=50, seed=None)
        for _ in range(2):
            with pytest.raises(FingerprintError, match="'seed'.*unseeded sampling run"):
                cached_run(store, growth_payload, trusted=False)
        assert store.keys() == []

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("engine", "dirct", "unknown engine 'dirct'.*did you mean 'direct'"),
            ("engine", "ode", "engine 'ode' is a deterministic mean field"),
            ("backend", "gpu", "unknown kernel backend 'gpu'"),
            ("backend", "python", "unknown kernel backend 'python'"),
        ],
    )
    def test_unrunnable_engine_or_backend_refused_before_lookup(
        self, store, growth_payload, monkeypatch, field, value, message
    ):
        growth_payload["simulate"][field] = value
        monkeypatch.setattr(
            ResultStore, "get_envelope", lambda *args: pytest.fail("looked up")
        )
        with pytest.raises(FingerprintError, match=f"'{field}': {message}"):
            canonicalize_payload(growth_payload)
        with pytest.raises(FingerprintError, match=f"'{field}': {message}"):
            cached_run(store, growth_payload, trusted=False)

    def test_backend_the_engine_does_not_declare(self, growth_payload):
        growth_payload["simulate"].update(engine="tau-leaping", backend="numpy")
        with pytest.raises(FingerprintError, match="'backend'.*no kernel backends"):
            canonicalize_payload(growth_payload)

    def test_options_backend_the_engine_does_not_declare(self, store, monkeypatch):
        # With simulate.backend "auto" the run uses the options' backend,
        # which tau-leaping cannot run: refused before any lookup, not hashed
        # and then failed at compute.
        payload = experiment_to_payload(
            Experiment.from_zoo("toggle-switch"), trials=20, engine="tau-leaping", seed=3
        )
        payload["options"]["backend"] = "numpy"
        monkeypatch.setattr(
            ResultStore, "get_envelope", lambda *args: pytest.fail("looked up")
        )
        message = "'options' field 'backend': engine 'tau-leaping' does not support"
        with pytest.raises(FingerprintError, match=message):
            canonicalize_payload(payload)
        with pytest.raises(FingerprintError, match=message):
            cached_run(store, payload, trusted=False)
        with pytest.raises(FingerprintError, match=message):
            experiment_to_payload(
                Experiment.from_zoo("toggle-switch").configure(backend="numpy"),
                trials=20, engine="tau-leaping", seed=3,
            )

    def test_options_backend_a_run_does_not_use_is_accepted(self):
        # A simulate.backend other than "auto" overrides the options' one,
        # and a distribution engine runs no kernel.
        experiment = Experiment.from_zoo("toggle-switch").configure(backend="numba")
        payload = experiment_to_payload(
            experiment, trials=20, engine="direct", seed=3, backend="numpy"
        )
        assert canonicalize_payload(payload).key
        exact = experiment_to_payload(
            Experiment.from_zoo("toggle-switch").configure(backend="numpy"),
            trials=20, engine="fsp",
        )
        assert canonicalize_payload(exact).key


class TestConditionDescriptors:
    @pytest.mark.parametrize(
        "condition",
        [
            SpeciesThreshold("x", 5),
            SpeciesThreshold("x", 2, comparison="<=", label="drained"),
            OutcomeThresholds({"win": ("x", 3), "lose": ("y", 4)}),
            FiringCountCondition([0, 2], 7, label="seven"),
            CategoryFiringCondition("working", 10),
            AnyCondition([SpeciesThreshold("x", 5), CategoryFiringCondition("working", 2)]),
            AllCondition([SpeciesThreshold("x", 5), SpeciesThreshold("y", 1)]),
        ],
    )
    def test_round_trip(self, condition):
        descriptor = condition.to_descriptor()
        rebuilt = condition_from_descriptor(descriptor)
        assert rebuilt.to_descriptor() == descriptor
        assert canonical_json(descriptor)  # JSON-compatible

    def test_none_passes_through(self):
        assert condition_from_descriptor(None) is None

    def test_unknown_type_raises(self):
        with pytest.raises(StoppingConditionError, match="unknown"):
            condition_from_descriptor({"type": "no-such-condition"})

    def test_base_class_has_no_descriptor(self):
        class Custom(StoppingCondition):
            pass

        with pytest.raises(StoppingConditionError, match="to_descriptor"):
            Custom().to_descriptor()


# ---------------------------------------------------------------------------
# cache semantics (the acceptance criterion)
# ---------------------------------------------------------------------------


def engine_backend_matrix():
    """Every registered sampling engine × every backend it supports (+auto)."""
    combos = []
    for name in registry.names():
        info = registry.get(name)
        if info.kind == "mean-field":
            continue  # ode: ensembles reject it
        backends = ("auto",) + tuple(info.backends)
        for backend in backends:
            if info.kind == "distribution" and backend != "auto":
                continue
            combos.append((name, backend))
    return combos


class TestCacheHits:
    @pytest.mark.parametrize("engine,backend", engine_backend_matrix())
    def test_warm_cache_is_bit_identical(self, store, experiment, engine, backend):
        kwargs = dict(trials=40, engine=engine, seed=11, backend=backend, store=store)
        cold = experiment.simulate(**kwargs)
        warm = experiment.simulate(**kwargs)
        assert cold.to_json() == warm.to_json()
        # the second call was served from the store: exactly one artifact
        assert len(store.keys()) == 1

    def test_worker_count_not_part_of_identity(self, store, experiment):
        cold = experiment.simulate(
            trials=64, engine="direct", seed=5, chunk_size=16, workers=2, store=store
        )
        warm = experiment.simulate(
            trials=64, engine="direct", seed=5, chunk_size=16, workers=1, store=store
        )
        assert len(store.keys()) == 1
        assert cold.to_json() == warm.to_json()

    def test_store_accepts_directory_path(self, tmp_path, experiment):
        cold = experiment.simulate(trials=30, seed=1, store=tmp_path / "s")
        warm = experiment.simulate(trials=30, seed=1, store=str(tmp_path / "s"))
        assert cold.to_json() == warm.to_json()

    def test_keep_trajectories_incompatible(self, store, experiment):
        with pytest.raises(ExperimentError, match="keep_trajectories"):
            experiment.simulate(trials=10, store=store, keep_trajectories=True)

    def test_payload_replay_matches_local_run(self, store, experiment):
        # compute_payload is the service/campaign compute path: replaying the
        # serialized experiment must reproduce the local run byte for byte.
        local = experiment.simulate(trials=40, engine="batch-direct", seed=2)
        replayed = compute_payload(
            payload_of(experiment, trials=40, engine="batch-direct", seed=2)
        )
        assert replayed.to_json() == local.to_json()

    def test_module_experiment_round_trip(self, store):
        from repro.core.modules import logarithm_module

        experiment = Experiment.from_module(logarithm_module()).program({"x": 16})
        kwargs = dict(trials=8, engine="direct", seed=3, store=store)
        cold = experiment.simulate(**kwargs)
        warm = experiment.simulate(**kwargs)
        assert cold.to_json() == warm.to_json()
        assert warm.output_summary("y") == cold.output_summary("y")


# ---------------------------------------------------------------------------
# artifact round trips
# ---------------------------------------------------------------------------


class TestArtifactRoundTrips:
    def test_run_result_full_round_trip(self, store, experiment):
        cold = experiment.simulate(
            trials=60, engine="batch-direct", seed=9, backend="numpy", store=store
        )
        (key,) = store.keys()
        loaded = store.load_run(key)
        # execution metadata
        assert loaded.engine == "batch-direct"
        assert loaded.backend == "numpy"
        assert loaded.seed == 9 and loaded.trials == 60
        # stop details become outcome labels: preserved exactly
        assert loaded.ensemble.outcome_counts == cold.ensemble.outcome_counts
        assert loaded.frequencies == cold.frequencies
        # decision-time fields survive (final_times / n_firings)
        assert loaded.decision_times() == cold.decision_times()
        assert loaded.distances() == cold.distances()
        assert loaded.to_json() == cold.to_json()

    def test_exact_run_round_trip_with_exact_info(self, store, experiment):
        cold = experiment.simulate(trials=100, engine="fsp", store=store)
        (key,) = store.keys()
        loaded = store.load_run(key)
        assert loaded.exact == cold.exact
        assert loaded.exact_info == cold.exact_info
        assert loaded.exact_info is not None and "truncation_error" in loaded.exact_info
        assert loaded.to_json() == cold.to_json()

    def test_payload_carries_version(self, experiment):
        result = experiment.simulate(trials=10, seed=1)
        payload = result.to_payload()
        assert payload["version"] == repro.__version__
        assert json.loads(result.to_json())["version"] == repro.__version__

    def test_unsupported_result_type_rejected(self, store, experiment):
        ensemble = experiment.simulate(trials=10, seed=1).ensemble
        for result in ({"not": "a result"}, ensemble):
            with pytest.raises(StoreError, match="cannot store .* expected a RunResult"):
                store.put("ef" * 32, result)
        assert store.keys() == []


# ---------------------------------------------------------------------------
# store mechanics: listing, versioning, eviction
# ---------------------------------------------------------------------------


class TestStoreMechanics:
    def _put_run(self, store, experiment, seed):
        payload = payload_of(experiment, trials=10, seed=seed)
        key = fingerprint_payload(payload)
        store.put(key, compute_payload(payload), descriptor=payload)
        return key

    def test_miss_returns_none(self, store):
        assert store.load_run("aa" * 32) is None
        assert store.get_envelope("aa" * 32) is None
        assert not store.has("aa" * 32)

    def test_malformed_key_rejected(self, store):
        with pytest.raises(StoreError, match="malformed"):
            store.has("../../etc/passwd")

    def test_keys_contains_len(self, store, experiment):
        keys = {self._put_run(store, experiment, seed) for seed in (1, 2, 3)}
        assert set(store.keys()) == keys
        assert len(store) == 3
        assert next(iter(sorted(keys))) in store

    def test_envelope_records_schema_version_and_descriptor(self, store, experiment):
        key = self._put_run(store, experiment, seed=1)
        envelope = store.get_envelope(key)
        assert envelope["schema"] == "repro.store.artifact/v1"
        assert envelope["version"] == repro.__version__
        assert envelope["kind"] == "run-result"
        assert envelope["descriptor"]["simulate"]["seed"] == 1
        assert envelope["payload"]["version"] == repro.__version__

    def test_incompatible_artifact_schema_rejected(self, store, experiment):
        key = self._put_run(store, experiment, seed=1)
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        envelope["schema"] = "repro.store.artifact/v99"
        envelope["version"] = "9.9.9"
        path.write_bytes(gzip.compress(json.dumps(envelope).encode()))
        # A fresh store instance: the writer's hot tier still holds the
        # (valid) envelope from put(), and tampering on disk must not dodge
        # validation just because a cached copy exists elsewhere.
        reader = ResultStore(store.root)
        with pytest.raises(StoreError, match="9.9.9"):
            reader.get_envelope(key)

    def test_wrong_kind_for_load_run(self, store, experiment):
        """An older store may hold a bare ensemble: it is listed, readable as
        an envelope and evictable, but no typed read or hit accepts it."""
        from repro.store.canonical import cached_run

        experiment.simulate(store=store, trials=10, engine="direct", seed=11)
        (key,) = store.keys()
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        envelope["kind"] = "ensemble-result"
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))
        reader = ResultStore(store.root)
        assert reader.keys() == [key]
        assert reader.get_envelope(key)["kind"] == "ensemble-result"
        with pytest.raises(StoreError, match="'ensemble-result', not a run-result"):
            reader.load_run(key)
        payload = payload_of(experiment, trials=10)
        with pytest.raises(StoreError, match="'ensemble-result', not a run-result"):
            cached_run(ResultStore(store.root), payload)
        assert reader.evict(key)
        assert reader.keys() == []

    def test_external_delete_leaves_the_listing(self, store, experiment):
        """The artifact files are the only record: a file deleted outside the
        store is gone from ``keys()``, ``len()`` and ``stats()`` at once."""
        kept, gone = (self._put_run(store, experiment, seed=seed) for seed in (1, 2))
        kept_bytes = store._artifact_path(kept).stat().st_size
        store._artifact_path(gone).unlink()
        reader = ResultStore(store.root)
        assert reader.keys() == [kept]
        assert len(reader) == 1
        assert reader.stats()["artifacts"] == 1
        assert reader.stats()["bytes"] == kept_bytes
        assert not reader.has(gone) and reader.load_run(gone) is None
        assert reader.evict(gone) is False

    def test_store_writes_no_index(self, store, experiment):
        self._put_run(store, experiment, seed=1)
        store.gc(max_artifacts=5)
        assert sorted(path.name for path in store.root.iterdir()) == ["artifacts"]

    def test_old_index_is_ignored(self, store, experiment):
        """An ``index.json`` an older store left, however malformed, is left
        in place and changes no answer."""
        index = store.root / "index.json"
        index.write_text("[1, 2]")
        keys = [self._put_run(store, experiment, seed=seed) for seed in (1, 2)]
        assert store.keys() == sorted(keys)
        assert store.stats()["artifacts"] == 2
        assert store.gc(max_artifacts=1) == [keys[0]]
        assert ResultStore(store.root).keys() == [keys[1]]
        assert index.read_text() == "[1, 2]"

    def test_evict(self, store, experiment):
        key = self._put_run(store, experiment, seed=1)
        assert store.evict(key)
        assert not store.has(key)
        assert not store.evict(key)

    def test_gc_by_count_evicts_lru(self, store, experiment):
        keys = [self._put_run(store, experiment, seed=seed) for seed in (1, 2, 3)]
        store.load_run(keys[0])  # refresh key 0: key 1 becomes the LRU
        evicted = store.gc(max_artifacts=2)
        assert evicted == [keys[1]]
        assert store.has(keys[0]) and store.has(keys[2])

    def test_reads_order_another_handles_gc(self, store, experiment):
        """A read is written onto its artifact by the reader's next put, so
        a third handle's gc sees it."""
        writer, reader = store, ResultStore(store.root)
        keys = [self._put_run(writer, experiment, seed=seed) for seed in (1, 2, 3)]
        reader.load_run(keys[0])
        keys.append(self._put_run(reader, experiment, seed=4))
        assert ResultStore(store.root).gc(max_artifacts=3) == [keys[1]]
        assert sorted(store.keys()) == sorted(keys[:1] + keys[2:])

    def test_gc_without_limits_evicts_nothing(self, store, experiment):
        self._put_run(store, experiment, seed=1)
        assert store.gc() == []
        assert len(store) == 1

    def test_listing_skips_a_file_evicted_meanwhile(self, store, experiment, monkeypatch):
        """``stats()`` and ``gc()`` skip a listed file that another process
        deleted before its ``stat``."""
        key = self._put_run(store, experiment, seed=1)
        listed = store._artifact_files() + [store._artifact_path("ab" * 32)]
        monkeypatch.setattr(store, "_artifact_files", lambda: listed)
        assert store.stats()["artifacts"] == 1
        assert store.gc(max_artifacts=0) == [key]

    def test_gc_by_bytes(self, store, experiment):
        for seed in (1, 2, 3):
            self._put_run(store, experiment, seed=seed)
        evicted = store.gc(max_bytes=0)
        assert len(evicted) == 3
        assert store.keys() == []

    def test_stats(self, store, experiment):
        self._put_run(store, experiment, seed=1)
        stats = store.stats()
        assert stats["artifacts"] == 1
        assert stats["bytes"] > 0
        assert stats["campaigns"] == 0

    def test_store_is_picklable(self, store):
        import pickle

        clone = pickle.loads(pickle.dumps(store))
        assert clone.root == store.root
        assert clone.keys() == store.keys()


class TestTypedColumns:
    """Per-trial arrays travel as typed base64 columns, validated on read."""

    ARRAYS = (("final_counts", np.int64), ("final_times", np.float64),
              ("n_firings", np.int64))

    @pytest.fixture
    def run(self, experiment):
        return experiment.simulate(trials=40, engine="batch-direct", seed=5)

    def test_payload_holds_typed_columns(self, run):
        from repro.api.results import RunResult

        payload = run.to_payload()
        assert payload["schema"] == "repro.run-result/v3"
        column = payload["ensemble"]["final_counts"]
        assert column["dtype"] == "<i1"  # the narrowest width: every count is <= 127
        assert column["shape"] == list(run.ensemble.final_counts.shape)
        assert payload["ensemble"]["final_times"]["dtype"] == "<f8"
        loaded = RunResult.from_payload(json.loads(json.dumps(payload)))
        for name, dtype in self.ARRAYS:
            array = getattr(loaded.ensemble, name)
            assert array.dtype == dtype
            assert array.tobytes() == getattr(run.ensemble, name).tobytes()

    def test_v1_lists_still_read(self, run):
        from repro.api.results import RunResult

        payload = run.to_payload()
        payload["schema"] = "repro.run-result/v1"
        for name, _ in self.ARRAYS:
            payload["ensemble"][name] = getattr(run.ensemble, name).tolist()
        loaded = RunResult.from_payload(json.loads(json.dumps(payload)))
        for name, dtype in self.ARRAYS:
            array = getattr(loaded.ensemble, name)
            assert array.dtype == dtype
            assert array.tobytes() == getattr(run.ensemble, name).tobytes()

    @pytest.mark.parametrize("field,change,message", [
        ("final_counts", {"dtype": "<i4"}, "dtype '<i4'"),
        ("final_times", {"dtype": "<i8"}, "dtype '<i8' is not '<f8'"),
        ("n_firings", {"data": "not base64!"}, "not base64"),
        ("n_firings", {"shape": [41]}, "needs {needed}"),
        ("final_times", {"shape": "40"}, "not a list of sizes"),
    ])
    def test_malformed_column_names_its_field(self, run, field, change, message):
        from repro.api.results import RunResult

        payload = run.to_payload()
        # A 41-row shape needs 41 x the column's itemsize bytes.
        itemsize = np.dtype(payload["ensemble"][field]["dtype"]).itemsize
        message = message.format(needed=41 * itemsize)
        payload["ensemble"][field].update(change)
        with pytest.raises(ExperimentError, match=f"ensemble.{field}: .*{message}"):
            RunResult.from_payload(payload)

    def test_shapes_must_agree_with_trials_and_species(self, run):
        from repro.api.results import RunResult, encode_column

        payload = run.to_payload()
        payload["ensemble"]["n_trials"] = 41
        with pytest.raises(ExperimentError, match="final_counts: .*n_trials=41"):
            RunResult.from_payload(payload)
        payload = run.to_payload()
        payload["ensemble"]["final_counts"] = encode_column(
            run.ensemble.final_counts[:, 1:], "<i8"
        )
        with pytest.raises(ExperimentError, match="final_counts: .*species"):
            RunResult.from_payload(payload)
        payload = run.to_payload()
        payload["ensemble"]["n_firings"] = encode_column(run.ensemble.n_firings[1:], "<i8")
        with pytest.raises(ExperimentError, match="n_firings: shape"):
            RunResult.from_payload(payload)

    @pytest.mark.parametrize("tamper", ["truncate", "flip-dtype"])
    def test_tampered_gzip_artifact_raises_store_error(self, store, experiment, tamper):
        kwargs = dict(trials=40, engine="batch-direct", seed=5)
        experiment.simulate(store=store, **kwargs)
        (key,) = store.keys()
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        column = envelope["payload"]["ensemble"]["final_counts"]
        if tamper == "truncate":
            column["data"] = column["data"][:-8]
            message = "final_counts: column holds"
        else:
            column["dtype"] = "<f8"
            message = "final_counts: column dtype '<f8'"
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))
        with pytest.raises(StoreError, match=message):
            ResultStore(store.root).load_run(key)
        with pytest.raises(StoreError, match=message):
            experiment.simulate(store=ResultStore(store.root), **kwargs)


class TestNarrowColumns:
    """Integer columns travel at the narrowest width and decode to int64."""

    @staticmethod
    def ensemble_of(values):
        from repro.crn.species import Species
        from repro.sim.ensemble import EnsembleResult

        values = np.asarray(values, dtype=np.int64)
        return EnsembleResult(
            n_trials=len(values),
            outcome_counts={},
            final_counts=values.reshape(-1, 1),
            species=(Species("x"),),
            final_times=np.zeros(len(values)),
            n_firings=values.copy(),
        )

    @pytest.mark.parametrize("values,width", [
        ([127, -128, 0], "<i1"),
        ([128], "<i2"),
        ([-129, 5], "<i2"),
        ([2**15], "<i4"),
        ([2**31], "<i8"),
        ([-(2**63)], "<i8"),
        ([2**63 - 1, 0], "<i8"),
        ([], "<i1"),
    ])
    def test_each_width_round_trips_at_its_edges(self, values, width):
        from repro.api.results import ensemble_from_payload, ensemble_to_payload

        ensemble = self.ensemble_of(values)
        payload = json.loads(json.dumps(ensemble_to_payload(ensemble)))
        assert payload["final_counts"]["dtype"] == width
        assert payload["n_firings"]["dtype"] == width
        assert payload["final_times"]["dtype"] == "<f8"
        loaded = ensemble_from_payload(payload)
        for name in ("final_counts", "n_firings"):
            array = getattr(loaded, name)
            assert array.dtype == np.int64
            assert array.shape == getattr(ensemble, name).shape
            assert array.tobytes() == getattr(ensemble, name).tobytes()

    def test_v2_payload_with_i8_columns_still_loads(self, experiment):
        from repro.api.results import RunResult, encode_column

        run = experiment.simulate(trials=40, engine="batch-direct", seed=5)
        payload = run.to_payload()
        payload["schema"] = "repro.run-result/v2"
        for name in ("final_counts", "n_firings"):
            payload["ensemble"][name] = encode_column(getattr(run.ensemble, name), "<i8")
        loaded = RunResult.from_payload(json.loads(json.dumps(payload)))
        for name in ("final_counts", "final_times", "n_firings"):
            array = getattr(loaded.ensemble, name)
            assert array.dtype == getattr(run.ensemble, name).dtype
            assert array.tobytes() == getattr(run.ensemble, name).tobytes()

    @pytest.mark.parametrize("field,label", [
        ("final_counts", ">i8"),
        ("final_counts", "<u2"),
        ("final_counts", "<f4"),
        ("n_firings", ">i8"),
        ("n_firings", "<u2"),
        ("n_firings", "<f4"),
        ("final_times", "<i1"),
        ("final_times", "<i2"),
        ("final_times", "<i4"),
        ("final_times", "<i8"),
    ])
    def test_label_the_field_does_not_allow_names_the_field(
        self, experiment, field, label
    ):
        from repro.api.results import RunResult

        payload = experiment.simulate(trials=40, engine="batch-direct", seed=5).to_payload()
        payload["ensemble"][field]["dtype"] = label
        with pytest.raises(
            ExperimentError, match=f"ensemble.{field}: column dtype '{label}' is not"
        ):
            RunResult.from_payload(payload)

    def test_relabeled_width_is_caught(self, experiment):
        from repro.api.results import RunResult

        payload = experiment.simulate(trials=40, engine="batch-direct", seed=5).to_payload()
        column = payload["ensemble"]["final_counts"]
        assert column["dtype"] == "<i1"
        column["dtype"] = "<i2"
        with pytest.raises(
            ExperimentError, match="ensemble.final_counts: .* of dtype '<i2' needs"
        ):
            RunResult.from_payload(payload)


class TestCorruptArtifacts:
    """An artifact that does not inflate, decode or parse to an envelope
    raises a StoreError naming its key, on every read path."""

    KWARGS = dict(trials=40, engine="batch-direct", seed=5)

    @staticmethod
    def zeroed_deflate_body(raw: bytes) -> bytes:
        # Keep the 10-byte gzip header and the 8-byte trailer.
        return raw[:10] + bytes(len(raw) - 18) + raw[-8:]

    CORRUPTIONS = {
        "zeroed-deflate-body": zeroed_deflate_body,
        "non-utf8": lambda raw: gzip.compress(b"\xff\xfe{not utf-8}", mtime=0),
        "json-array": lambda raw: gzip.compress(b"[1, 2]", mtime=0),
    }

    @pytest.fixture(params=sorted(CORRUPTIONS))
    def corrupt_key(self, request, store, experiment):
        experiment.simulate(store=store, **self.KWARGS)
        (key,) = store.keys()
        path = store._artifact_path(key)
        path.write_bytes(self.CORRUPTIONS[request.param](path.read_bytes()))
        return key

    def test_get_envelope(self, store, corrupt_key):
        with pytest.raises(StoreError, match=f"corrupt artifact .*{corrupt_key[:12]}"):
            ResultStore(store.root).get_envelope(corrupt_key)

    def test_load_run(self, store, corrupt_key):
        with pytest.raises(StoreError, match=f"corrupt artifact .*{corrupt_key[:12]}"):
            ResultStore(store.root).load_run(corrupt_key)

    def test_simulate_with_store(self, store, experiment, corrupt_key):
        with pytest.raises(StoreError, match=f"corrupt artifact .*{corrupt_key[:12]}"):
            experiment.simulate(store=ResultStore(store.root), **self.KWARGS)


class TestMalformedPayloads:
    """An envelope whose payload is not an object, or misses or mistypes a
    field, raises a StoreError naming the key and the field on every read
    path."""

    KWARGS = dict(trials=20, engine="direct", seed=3)

    REWRITES = {
        "no-payload": (
            lambda envelope: envelope.pop("payload"),
            "payload: missing field",
        ),
        "payload-list": (
            lambda envelope: envelope.update(payload=[1, 2]),
            "payload: expected an object, got list",
        ),
        "no-ensemble": (
            lambda envelope: envelope["payload"].pop("ensemble"),
            "ensemble: missing field",
        ),
        "no-engine": (
            lambda envelope: envelope["payload"].pop("engine"),
            "engine: missing field",
        ),
        "no-n-trials": (
            lambda envelope: envelope["payload"]["ensemble"].pop("n_trials"),
            "ensemble.n_trials: missing field",
        ),
        "outcome-counts-list": (
            lambda envelope: envelope["payload"]["ensemble"].update(outcome_counts=[1]),
            "ensemble.outcome_counts: expected an object, got list",
        ),
    }

    @pytest.fixture(params=sorted(REWRITES))
    def rewritten(self, request, store):
        """``(experiment, key, message)`` after rewriting the key's envelope."""
        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(store=store, **self.KWARGS)
        (key,) = store.keys()
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        rewrite, field = self.REWRITES[request.param]
        rewrite(envelope)
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))
        return experiment, key, f"corrupt artifact {key[:12]}…: {field}"

    def test_load_run(self, store, rewritten):
        _, key, message = rewritten
        with pytest.raises(StoreError, match=message):
            ResultStore(store.root).load_run(key)

    def test_simulate_with_store(self, store, rewritten):
        experiment, _, message = rewritten
        with pytest.raises(StoreError, match=message):
            experiment.simulate(store=ResultStore(store.root), **self.KWARGS)

    def test_renamed_hit_with_a_misshapen_column(self, store):
        """A warm hit under other species names permutes the count columns;
        a column that is not one row of counts per species is refused."""
        from repro.api.results import encode_column

        experiment = Experiment.from_zoo("toggle-switch")
        experiment.simulate(store=store, **self.KWARGS)
        (key,) = store.keys()
        path = store._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        envelope["payload"]["ensemble"]["final_counts"] = encode_column(np.arange(7), "<i1")
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))
        renamed = experiment.renamed({"u": "activator", "v": "repressor", "p": "precursor"})
        with pytest.raises(StoreError, match=r"ensemble.final_counts: shape \[7\]"):
            renamed.simulate(store=ResultStore(store.root), **self.KWARGS)


class TestMomentsOnDemand:
    """``EnsembleResult.moments`` is computed on first read, never eagerly."""

    @pytest.fixture
    def moment_calls(self, monkeypatch):
        """Names of the RunningMoments computations called in this process."""
        from repro.sim.stats import RunningMoments

        calls = []
        original = RunningMoments.from_samples.__func__

        def from_samples(cls, samples):
            calls.append("from_samples")
            return original(cls, samples)

        monkeypatch.setattr(RunningMoments, "from_samples", classmethod(from_samples))
        for name in ("update", "merge"):
            method = getattr(RunningMoments, name)

            def spy(self, *args, _name=name, _method=method):
                calls.append(_name)
                return _method(self, *args)

            monkeypatch.setattr(RunningMoments, name, spy)
        return calls

    @pytest.mark.parametrize("engine", ["direct", "batch-direct"])
    def test_runs_and_hits_compute_no_moments(self, store, experiment, moment_calls, engine):
        kwargs = dict(trials=60, engine=engine, seed=9, chunk_size=16)
        experiment.simulate(**kwargs)  # cold, no store
        experiment.simulate(workers=2, **kwargs)  # cold, shards merged here
        experiment.simulate(store=store, **kwargs)  # cold miss
        experiment.simulate(store=ResultStore(store.root), **kwargs)  # warm hit
        assert moment_calls == []

    def test_moments_of_a_store_hit_match_numpy(self, store, experiment, moment_calls):
        kwargs = dict(trials=60, engine="batch-direct", seed=9)
        experiment.simulate(store=store, **kwargs)
        ensemble = experiment.simulate(store=ResultStore(store.root), **kwargs).ensemble
        assert moment_calls == []
        counts = ensemble.final_counts
        moments = ensemble.moments
        assert moments.count == 60
        np.testing.assert_allclose(moments.mean, counts.mean(axis=0))
        np.testing.assert_allclose(moments.variance(), counts.var(axis=0, ddof=1))
        assert ensemble.moments is moments  # cached on the instance
        assert moment_calls.count("from_samples") == 1

    def test_moments_is_read_only_and_none_without_samples(self):
        ensemble = TestNarrowColumns.ensemble_of([])
        assert ensemble.moments is None
        with pytest.raises(AttributeError):
            ensemble.moments = None


class TestSweepIntegration:
    """A grid is a loop over ``Experiment.simulate``; its store serves repeats."""

    def test_grid_loop_with_store_caches_points(self, store, monkeypatch):
        def run_grid():
            return [
                Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=gamma)
                .simulate(trials=30, seed=7, store=store)
                .to_json()
                for gamma in (10.0, 100.0)
            ]

        first = run_grid()
        assert len(store.keys()) == 2

        def recompute(*args, **kwargs):
            raise AssertionError("a stored grid point was recomputed")

        monkeypatch.setattr("repro.store.serialize.compute_payload", recompute)
        assert run_grid() == first  # every point served from the store
        assert len(store.keys()) == 2
