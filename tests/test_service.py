"""Tests for the ``repro serve`` HTTP service and its client."""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.api import Experiment
from repro.client import ServiceClient
from repro.errors import ServiceError
from repro.service import ResultService
from repro.sim import registry
from repro.store import Campaign, CampaignRunner


#: A payload mutation that deletes the field instead of setting it.
MISSING = object()


def post(url: str, payload: dict) -> "tuple[int, dict]":
    """``POST /simulate`` of ``payload``: ``(status, reply)``, errors included."""
    request = urllib.request.Request(
        url + "/simulate",
        data=json.dumps({"experiment": payload}).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


@pytest.fixture
def experiment() -> Experiment:
    return Experiment.from_distribution({"1": 0.3, "2": 0.7}, gamma=100)


@pytest.fixture
def service(tmp_path):
    service = ResultService(tmp_path / "store", port=0, quiet=True).start()
    yield service
    service.stop()


@pytest.fixture
def client(service) -> ServiceClient:
    return ServiceClient(service.url, timeout=60.0)


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["version"] == repro.__version__
        assert health["artifacts"] == 0

    def test_engines_matches_registry(self, client):
        rows = client.engines()
        assert [row["engine"] for row in rows] == registry.names()

    def test_unknown_routes_404(self, service):
        client = ServiceClient(service.url)
        for path in ("/nope", "/results/" + "ab" * 32, "/campaigns/" + "de" * 8):
            with pytest.raises(ServiceError, match="404"):
                client._request(path)

    def test_post_requires_experiment_payload(self, service):
        client = ServiceClient(service.url)
        with pytest.raises(ServiceError, match="serialized experiment"):
            client._request("/simulate", body={"experiment": {"bogus": True}})

    def test_callable_refs_rejected_over_the_wire(self, service, client, experiment):
        # A wire payload naming an importable callable must not be resolved
        # server-side (it would execute arbitrary installed code).
        from repro.store import experiment_to_payload

        payload = experiment_to_payload(experiment, trials=10, engine="direct", seed=1)
        payload["classifier"] = {"type": "callable", "ref": "os:system"}
        with pytest.raises(ServiceError, match="rejected"):
            client._request("/simulate", body={"experiment": payload})

    def test_retired_python_backend_is_400(self, service, experiment):
        from repro.store import experiment_to_payload

        # The payload writer refuses the backend too, so it is edited in.
        payload = experiment_to_payload(experiment, trials=10, engine="direct", seed=1)
        payload["simulate"]["backend"] = "python"
        request = urllib.request.Request(
            service.url + "/simulate",
            data=json.dumps({"experiment": payload}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as response:
            assert response.code == 400
            message = json.loads(response.read())["error"]
        assert "'python'" in message and "backend" in message
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

    @pytest.mark.parametrize(
        "until, field",
        [
            ({"type": "ci-half-width", "half_width": 0.05}, "outcome"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": "abc"}, "half_width"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": 0.05,
              "max_trials": 1.5}, "max_trials"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": 0.05,
              "max_trials": "20000"}, "max_trials"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": 0.05,
              "min_trials": True}, "min_trials"),
            ({"type": "splitting", "outcome": "1", "trials_per_level": "8"},
             "trials_per_level"),
            # A probability is a number: a string spelling would share the
            # number's key while a string count beside it is refused.
            ({"type": "ci-half-width", "outcome": "1", "half_width": "0.05"}, "half_width"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": 0.05,
              "confidence": "0.9"}, "confidence"),
            ({"type": "ci-half-width", "outcome": "1", "half_width": True}, "half_width"),
            ({"type": "rel-se", "species": "x1", "rel_se": "0.1"}, "rel_se"),
            ({"type": "sprt", "outcome": "1", "p0": "0.1", "p1": 0.2}, "p0"),
            ({"type": "sprt", "outcome": "1", "p0": 0.1, "p1": "0.2"}, "p1"),
            ({"type": "sprt", "outcome": "1", "p0": 0.1, "p1": 0.2, "alpha": "0.05"},
             "alpha"),
            ({"type": "sprt", "outcome": "1", "p0": 0.1, "p1": 0.2, "beta": True}, "beta"),
            ({"type": "splitting", "outcome": "1", "confidence": "0.9"}, "confidence"),
        ],
    )
    def test_malformed_until_is_400_naming_the_field(self, service, experiment, until, field):
        from repro.adaptive import CiHalfWidthTarget
        from repro.store import experiment_to_payload

        payload = experiment_to_payload(
            experiment, trials=10, engine="direct", seed=1,
            until=CiHalfWidthTarget(outcome="1", half_width=0.05),
        )
        payload["simulate"]["until"] = until
        request = urllib.request.Request(
            service.url + "/simulate",
            data=json.dumps({"experiment": payload}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as response:
            assert response.code == 400
            message = json.loads(response.read())["error"]
        assert repr(field) in message
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

    @pytest.mark.parametrize(
        "section, key, value",
        [
            pytest.param("options", "mega_batch", 100_000, id="mega_batch"),
            pytest.param("options", "foo", 100_000, id="foo"),
            pytest.param(None, "options", 5, id="options-number"),
            pytest.param(None, "options", [], id="options-list"),
            pytest.param("options", "max_steps", MISSING, id="max_steps-missing"),
            pytest.param("options", "max_steps", "x", id="max_steps-text"),
            pytest.param("options", "max_time", "x", id="max_time-text"),
            pytest.param("options", "max_steps", 1_000_000.5, id="max_steps-fractional"),
            pytest.param("options", "snapshot_stride", 1.5, id="snapshot_stride-fractional"),
            # A bool or a numeric string is not a count, and a number is not
            # a flag: each would otherwise name a key of its own for a run
            # that an existing key already names.
            pytest.param("options", "max_steps", True, id="max_steps-bool"),
            pytest.param("options", "max_steps", "1000000", id="max_steps-string"),
            pytest.param("options", "snapshot_stride", True, id="snapshot_stride-bool"),
            pytest.param("options", "max_time", True, id="max_time-bool"),
            pytest.param("options", "max_time", "1e9", id="max_time-string"),
            pytest.param("options", "record_firings", "false", id="record_firings-string"),
            pytest.param("options", "record_firings", 0, id="record_firings-number"),
            pytest.param("options", "record_states", 1, id="record_states-number"),
            pytest.param("simulate", "trials", True, id="trials-bool"),
            pytest.param("simulate", "trials", "10", id="trials-string"),
            pytest.param("simulate", "seed", True, id="seed-bool"),
            pytest.param("simulate", "seed", "1", id="seed-string"),
            pytest.param("simulate", "seed", " 1 ", id="seed-padded-string"),
            pytest.param("simulate", "chunk_size", "512", id="chunk_size-string"),
            pytest.param("simulate", "chunk_size", True, id="chunk_size-bool"),
            pytest.param(None, "simulate", 5, id="simulate-number"),
            pytest.param("simulate", "trials", "x", id="trials-text"),
            pytest.param("simulate", "trials", 50.5, id="trials-fractional"),
            pytest.param("simulate", "seed", "x", id="seed-text"),
            pytest.param("simulate", "seed", 3.5, id="seed-fractional"),
            pytest.param("simulate", "seed", -1, id="seed-negative"),
            pytest.param("simulate", "chunk_size", 100.5, id="chunk_size-fractional"),
            pytest.param(None, "classifier", 5, id="classifier-number"),
            pytest.param(None, "stopping", 5, id="stopping-number"),
            pytest.param(None, "network", 5, id="network-number"),
            pytest.param(None, "state_classifier", 5, id="state_classifier-number"),
            pytest.param(
                None, "stopping", {"type": "species-threshold", "threshold": 3},
                id="species-threshold-without-species",
            ),
            pytest.param(
                None, "stopping", {"type": "any", "conditions": 5}, id="any-conditions-number"
            ),
            pytest.param(
                None, "stopping", {"type": "outcome-thresholds", "thresholds": {"a": 5}},
                id="outcome-threshold-number",
            ),
            # engine_options go with engine="tau-leaping", FspOptions with
            # engine="fsp" (see below).
            pytest.param("simulate", "engine_options", 5, id="engine_options-number"),
            pytest.param(
                "simulate", "engine_options", {"type": "TauLeapOptions"},
                id="engine_options-without-fields",
            ),
            pytest.param(
                "simulate", "engine_options", {"fields": {"epsilon": 0.01}},
                id="engine_options-without-type",
            ),
            pytest.param(
                "simulate", "engine_options",
                {"type": "TauLeapOptions", "fields": {"bogus": 1}},
                id="engine_options-unknown-field",
            ),
            pytest.param(
                "simulate", "engine_options", {"type": "TauLeapOptions", "fields": 5},
                id="engine_options-fields-number",
            ),
            pytest.param(
                "simulate", "engine_options",
                {"type": "TauLeapOptions", "fields": {"epsilon": "abc"}},
                id="engine_options-epsilon-text",
            ),
            pytest.param(
                "simulate", "engine_options",
                {"type": "TauLeapOptions", "fields": {"critical_threshold": 10}},
                id="engine_options-removed-field",
            ),
            *(
                pytest.param(
                    "simulate", "engine_options",
                    {"type": "FspOptions", "fields": fields}, id=f"fsp-{case}",
                )
                for case, fields in (
                    ("max_states-fraction", {"max_states": 10.5}),
                    ("checkpoints-fraction", {"checkpoints": 2.5}),
                    ("tolerance-text", {"tolerance": "abc"}),
                    ("expand-text", {"expand": "yes"}),
                    ("strict-number", {"strict": 3}),
                    ("count_caps-number", {"count_caps": 5}),
                    ("count_caps-fraction", {"count_caps": {"u": 1.5}}),
                )
            ),
        ],
    )
    def test_unknown_option_key_is_400_naming_it(self, service, experiment, section, key, value):
        """A malformed ``options`` or ``simulate`` field — an unknown key, a
        non-mapping section, a missing field, a non-number, a fractional
        count, a negative seed or engine options that do not build the
        engine's options dataclass — or a ``network``, ``stopping``,
        ``classifier`` or ``state_classifier`` section that does not parse is
        rejected before lookup or compute, naming the field."""
        from repro.errors import FingerprintError
        from repro.store import canonicalize_payload, compute_payload, experiment_to_payload

        engine = "batch-direct"
        if key == "engine_options":
            fsp = isinstance(value, dict) and value.get("type") == "FspOptions"
            engine = "fsp" if fsp else "tau-leaping"
        payload = experiment_to_payload(experiment, trials=10, engine=engine, seed=1)
        target = payload if section is None else payload[section]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        for parse in (canonicalize_payload, compute_payload):
            with pytest.raises(FingerprintError, match=key):
                parse(payload)
        request = urllib.request.Request(
            service.url + "/simulate",
            data=json.dumps({"experiment": payload}).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        with excinfo.value as response:
            assert response.code == 400
            message = json.loads(response.read())["error"]
        assert repr(key) in message
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

    def test_firing_count_past_the_network_is_400(self, service, experiment):
        """A firing-count descriptor naming a reaction the network lacks is
        refused while canonicalizing, before lookup or compute."""
        from repro.errors import FingerprintError
        from repro.store import canonicalize_payload, experiment_to_payload

        payload = experiment_to_payload(experiment, trials=10, engine="batch-direct", seed=1)
        n_reactions = len(payload["network"]["reactions"])
        payload["stopping"] = {
            "type": "firing-count", "reaction_indices": [n_reactions], "count": 3, "label": ""
        }
        with pytest.raises(FingerprintError, match="stopping"):
            canonicalize_payload(payload)
        with pytest.raises(ServiceError, match="400"):
            ServiceClient(service.url)._request("/simulate", body={"experiment": payload})
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

    @pytest.mark.parametrize(
        "stopping, field",
        [
            ({"threshold": "10"}, "threshold"),
            ({"threshold": 10.5}, "threshold"),
            ({"threshold": True}, "threshold"),
            ({"type": "firing-count", "reaction_indices": [True], "count": 3}, "reaction_indices"),
        ],
    )
    def test_stopping_scalar_of_another_spelling_is_400_naming_it(
        self, service, growth_payload, stopping, field
    ):
        """A count, threshold or reaction index has one spelling: ``"10"``,
        ``10.5`` and ``true`` each answer 400 naming the field instead of
        running as 10, 10 and 1 under keys of their own."""
        payload = growth_payload
        payload["stopping"].update(stopping)
        status, reply = post(service.url, payload)
        assert status == 400
        assert "'stopping'" in reply["error"] and repr(field) in reply["error"]
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

    def test_unlabelled_species_threshold_counts_under_the_callers_species(
        self, service, growth_payload
    ):
        """A species threshold without its optional label shares the labelled
        key, and its reply counts outcomes under the caller's species name."""
        from repro.store import canonicalize_payload

        labelled = growth_payload
        unlabelled = json.loads(json.dumps(labelled))
        del unlabelled["stopping"]["label"]
        status, reply = post(service.url, unlabelled)
        assert status == 201
        assert reply["key"] == canonicalize_payload(labelled).key
        counts = reply["artifact"]["payload"]["ensemble"]["outcome_counts"]
        assert set(counts) <= {"x>=10", "(undecided)"} and "x>=10" in counts
        status, again = post(service.url, labelled)
        assert status == 200 and again["key"] == reply["key"]

    def test_two_element_threshold_race_is_computed(self, service, polya_race_payloads):
        """``[species, count]`` is a threshold-race entry's documented short
        form: it answers 201 under the three-element form's key."""
        from repro.store import canonicalize_payload

        payload, short = polya_race_payloads
        status, reply = post(service.url, short)
        assert status == 201
        assert reply["key"] == canonicalize_payload(payload).key

    def test_malformed_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/simulate",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unreachable_service(self):
        client = ServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()

    def test_busy_port_raises_clean_service_error(self, service, tmp_path):
        # Binding a port already in use must surface as a ReproError (the CLI
        # prints it as a one-line `error: ...`), not a raw OSError traceback.
        with pytest.raises(ServiceError, match="cannot bind"):
            ResultService(tmp_path / "other-store", port=service.port)


class TestSimulateRoundTrip:
    def test_miss_then_hit_bit_identical(self, client, experiment):
        first = client.simulate_entry(
            experiment, trials=60, engine="batch-direct", seed=3
        )
        second = client.simulate_entry(
            experiment, trials=60, engine="batch-direct", seed=3
        )
        assert not first.cached and second.cached
        assert first.key == second.key
        assert first.result.to_json() == second.result.to_json()
        # raw artifact payloads are byte-identical too
        assert json.dumps(first.artifact["payload"]) == json.dumps(
            second.artifact["payload"]
        )

    def test_hit_miss_counters(self, client, experiment):
        client.simulate(experiment, trials=30, seed=1)
        client.simulate(experiment, trials=30, seed=1)
        health = client.healthz()
        assert health["misses"] == 1 and health["hits"] == 1

    def test_counters_survive_concurrent_handlers(self, service, experiment):
        """Every request counts once, however the handler threads interleave."""
        import threading

        from repro.store import experiment_to_payload

        body = {"experiment": experiment_to_payload(
            experiment, trials=20, engine="direct", seed=3
        )}
        n_threads, per_thread = 4 * (os.cpu_count() or 1), 40
        errors: list[BaseException] = []

        def handler() -> None:
            try:
                for _ in range(per_thread):
                    service.simulate(body)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=handler) for _ in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert service.hits + service.misses == n_threads * per_thread

    def test_get_result_by_key(self, client, experiment):
        entry = client.simulate_entry(experiment, trials=30, seed=5)
        fetched = client.result(entry.key)
        assert fetched.to_json() == entry.result.to_json()

    def test_result_without_payload_names_the_key(self, service, client, experiment):
        """The client reads an envelope as the store does: a missing payload
        is a StoreError naming the key, not a bare KeyError."""
        import gzip

        from repro.errors import StoreError
        from repro.store import ResultStore

        # Written through another handle, so the service reads the file.
        writer = ResultStore(service.store.root)
        experiment.simulate(trials=20, engine="direct", seed=3, store=writer)
        (key,) = writer.keys()
        path = writer._artifact_path(key)
        envelope = json.loads(gzip.decompress(path.read_bytes()))
        del envelope["payload"]
        path.write_bytes(gzip.compress(json.dumps(envelope).encode(), mtime=0))
        with pytest.raises(StoreError, match=f"corrupt artifact {key[:12]}…: payload: missing"):
            client.result(key)

    @pytest.mark.parametrize("field", ["trials", "chunk_size"])
    def test_bool_count_refused_before_the_request(self, client, experiment, field):
        from repro.errors import FingerprintError

        with pytest.raises(FingerprintError, match=f"{field}: expected an integer"):
            client.simulate_entry(experiment, seed=1, **{field: True})
        assert client.healthz()["artifacts"] == 0

    def test_served_result_matches_local_store_run(self, service, client, experiment):
        served = client.simulate(experiment, trials=50, seed=8, engine="direct")
        local = experiment.simulate(
            trials=50, seed=8, engine="direct", store=service.store
        )
        assert local.to_json() == served.to_json()
        assert client.healthz()["artifacts"] == 1  # one shared cache entry

    def test_exact_engine_served(self, client, experiment):
        entry = client.simulate_entry(experiment, trials=100, engine="fsp")
        assert entry.result.exact is not None
        assert entry.result.frequencies == pytest.approx({"1": 0.3, "2": 0.7})

    def test_campaign_endpoints(self, service, client, experiment):
        campaign = Campaign.grid("served", experiment, trials=30, seeds=(1, 2))
        result = CampaignRunner(service.store).run(campaign)
        assert client.campaigns() == [result.campaign_id]
        manifest = client.campaign(result.campaign_id)
        assert manifest["name"] == "served"
        assert len(manifest["cells"]) == 2

    def test_campaign_manifest_not_an_object_is_400(self, service, client):
        (service.store.root / "campaigns").mkdir()
        (service.store.root / "campaigns" / "de-ad.json").write_text("[1, 2]")
        with pytest.raises(ServiceError, match="HTTP 400: corrupt campaign manifest"):
            client.campaign("de-ad")


class TestKeepAlive:
    def test_hits_over_one_connection_do_not_stall(self, service):
        """A reply's headers and body leave without waiting for a delayed ACK.

        Written as two sends with Nagle's algorithm on, every keep-alive
        reply waits ~40 ms for the client to acknowledge the headers.
        """
        import http.client
        import statistics

        from repro.store import experiment_to_payload

        body = json.dumps({"experiment": experiment_to_payload(
            Experiment.from_zoo("toggle-switch"), trials=500, engine="direct", seed=1
        )})
        connection = http.client.HTTPConnection(service.host, service.port, timeout=60)
        seconds = []
        try:
            for request in range(11):
                start = time.perf_counter()
                connection.request("POST", "/simulate", body=body,
                                   headers={"Content-Type": "application/json"})
                reply = json.loads(connection.getresponse().read())
                seconds.append(time.perf_counter() - start)
                assert reply["cached"] == (request > 0)
        finally:
            connection.close()
        assert statistics.median(seconds[1:]) < 0.020, seconds


class TestServeCli:
    @pytest.fixture
    def served_client(self, tmp_path):
        """A client of `repro serve` running on an ephemeral port."""
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        existing = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--store", str(tmp_path / "store"), "--port", "0", "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline()
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            assert match, f"unexpected serve banner: {line!r}"
            client = ServiceClient(match.group(1), timeout=120.0)
            deadline = time.time() + 30.0
            while True:
                try:
                    assert client.healthz()["status"] == "ok"
                    break
                except ServiceError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            yield client
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)

    def test_serve_round_trip_via_subprocess(self, served_client):
        """End-to-end: `repro serve` on an ephemeral port + client miss→hit."""
        experiment = Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=50)
        first = served_client.simulate_entry(experiment, trials=40, seed=2)
        second = served_client.simulate_entry(experiment, trials=40, seed=2)
        assert not first.cached and second.cached
        assert first.result.to_json() == second.result.to_json()

    def test_unseeded_sampling_payload_is_400(self, served_client, growth_payload):
        """A null seed on a sampling engine is refused, not computed once and
        then served to every later request as its one sample."""
        growth_payload["simulate"].update(trials=50, seed=None)
        for _ in range(2):
            with pytest.raises(ServiceError, match="HTTP 400: 'simulate' field 'seed'"):
                served_client._request("/simulate", body={"experiment": growth_payload})
        assert served_client.healthz()["artifacts"] == 0
