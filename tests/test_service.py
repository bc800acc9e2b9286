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
from repro.sim.registry import registry
from repro.store import Campaign, CampaignRunner


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

        payload = experiment_to_payload(
            experiment, trials=10, engine="direct", seed=1, backend="python"
        )
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

    @pytest.mark.parametrize("option", ["mega_batch", "foo"])
    def test_unknown_option_key_is_400_naming_it(self, service, experiment, option):
        """An options key no field reads is rejected before lookup or compute."""
        from repro.errors import FingerprintError
        from repro.store import (
            canonicalize_payload,
            experiment_from_payload,
            experiment_to_payload,
        )

        payload = experiment_to_payload(experiment, trials=10, engine="batch-direct", seed=1)
        payload["options"][option] = 100_000
        for parse in (canonicalize_payload, experiment_from_payload):
            with pytest.raises(FingerprintError, match=option):
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
        assert repr(option) in message
        assert ServiceClient(service.url).healthz()["artifacts"] == 0

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
    def test_serve_round_trip_via_subprocess(self, tmp_path):
        """End-to-end: `repro serve` on an ephemeral port + client miss→hit."""
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
            url = match.group(1)
            client = ServiceClient(url, timeout=120.0)
            deadline = time.time() + 30.0
            while True:
                try:
                    assert client.healthz()["status"] == "ok"
                    break
                except ServiceError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
            experiment = Experiment.from_distribution({"a": 0.5, "b": 0.5}, gamma=50)
            first = client.simulate_entry(experiment, trials=40, seed=2)
            second = client.simulate_entry(experiment, trials=40, seed=2)
            assert not first.cached and second.cached
            assert first.result.to_json() == second.result.to_json()
        finally:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
