"""Thin stdlib client for the ``repro serve`` experiment service.

:class:`ServiceClient` serializes experiments with the same canonical
machinery the local store uses (:mod:`repro.store.serialize`), POSTs them to
a running service, and rebuilds :class:`~repro.api.results.RunResult`
objects from the returned artifacts — so a client round trip is
byte-identical to a local ``Experiment.simulate(store=...)`` against the
same store::

    from repro import Experiment
    from repro.client import ServiceClient

    client = ServiceClient("http://127.0.0.1:8080")
    exp = Experiment.from_distribution({"a": 0.5, "b": 0.5})
    reply = client.simulate_entry(exp, trials=1000, seed=1)   # miss: computed
    again = client.simulate_entry(exp, trials=1000, seed=1)   # hit: from cache
    assert again.cached and reply.result.to_json() == again.result.to_json()

Only the Python standard library (``urllib``) is used, so the client works
anywhere the package does.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any

from repro.api.results import RunResult
from repro.errors import ServiceError
from repro.store.serialize import experiment_to_payload
from repro.store.store import run_from_envelope

__all__ = ["ServiceClient", "SimulateReply"]


@dataclass(frozen=True)
class SimulateReply:
    """One ``POST /simulate`` round trip: content key, cache hit, result."""

    key: str
    cached: bool
    result: RunResult
    artifact: dict


class ServiceClient:
    """JSON-over-HTTP client for :class:`repro.service.ResultService`.

    Parameters
    ----------
    base_url:
        Service root, e.g. ``"http://127.0.0.1:8080"``.
    timeout:
        Per-request socket timeout in seconds.  Cache misses simulate on the
        server, so allow for the experiment's actual runtime.
    """

    def __init__(self, base_url: str, timeout: float = 300.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)

    # -- transport ---------------------------------------------------------------

    def _request(self, path: str, body: "dict | None" = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - error body is best-effort
                message = ""
            raise ServiceError(
                f"{path} failed with HTTP {exc.code}: {message or exc.reason}"
            ) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(f"cannot reach service at {url}: {exc.reason}") from exc
        except json.JSONDecodeError as exc:
            raise ServiceError(f"service returned invalid JSON from {path}: {exc}") from exc

    # -- read endpoints ----------------------------------------------------------

    def healthz(self) -> dict:
        """Service liveness, version and store statistics."""
        return self._request("/healthz")

    def engines(self) -> list[dict]:
        """The server's engine capability matrix (``repro engines`` rows)."""
        return self._request("/engines")["engines"]

    def artifact(self, key: str) -> dict:
        """The raw artifact envelope stored under a content key."""
        return self._request(f"/results/{key}")

    def result(self, key: str) -> RunResult:
        """A stored :class:`RunResult` by content key; an artifact of another
        kind or without a well-formed payload raises
        :class:`~repro.errors.StoreError` naming the key."""
        return run_from_envelope(self.artifact(key), key)[0]

    def campaigns(self) -> list[str]:
        """Ids of the campaign manifests the store knows."""
        return self._request("/campaigns")["campaigns"]

    def campaign(self, campaign_id: str) -> dict:
        """One campaign manifest by id."""
        return self._request(f"/campaigns/{campaign_id}")

    # -- simulate ----------------------------------------------------------------

    def simulate_entry(
        self,
        experiment: Any,
        *,
        trials: int = 1000,
        engine: str = "direct",
        seed: "int | None" = None,
        backend: str = "auto",
        chunk_size: int = 512,
        engine_options: Any = None,
        until: Any = None,
    ) -> SimulateReply:
        """Simulate via the service, reporting the cache disposition.

        The experiment is serialized client-side into the canonical payload
        (the same bytes ``Experiment.simulate(store=...)`` fingerprints), so
        local and served runs share cache entries.  ``until`` requests an
        adaptive run (precision target or splitting config); its declarative
        descriptor travels in the payload and the reply reconstructs as an
        :class:`~repro.adaptive.AdaptiveResult`.
        """
        payload = experiment_to_payload(
            experiment,
            trials=trials,
            engine=engine,
            seed=seed,
            chunk_size=chunk_size,
            backend=backend,
            engine_options=engine_options,
            until=until,
        )
        reply = self._request("/simulate", body={"experiment": payload})
        key = str(reply["key"])
        return SimulateReply(
            key=key,
            cached=bool(reply["cached"]),
            result=run_from_envelope(reply["artifact"], key)[0],
            artifact=reply["artifact"],
        )

    def simulate(self, experiment: Any, **kwargs: Any) -> RunResult:
        """Like :meth:`Experiment.simulate`, but executed/cached on the service."""
        return self.simulate_entry(experiment, **kwargs).result
