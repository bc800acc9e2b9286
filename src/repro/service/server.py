"""``repro serve`` — a JSON experiment service over a result store.

A deliberately dependency-free HTTP layer (stdlib
:class:`~http.server.ThreadingHTTPServer`) that turns the simulator into a
shared compute cache: many callers POST serialized experiments, the service
fingerprints each payload, serves warm artifacts straight from the
:class:`~repro.store.store.ResultStore`, and simulates only on a miss — so a
popular experiment is computed once and then answered from disk.

Routes (all JSON)::

    GET  /healthz          liveness + version + store/cache statistics
    GET  /engines          the engine table's capability matrix
    GET  /results/<key>    artifact envelope by content key (404 on miss)
    GET  /campaigns        ids of persisted campaign manifests
    GET  /campaigns/<id>   one campaign manifest (404 on miss)
    POST /simulate         serialized experiment payload -> artifact

``POST /simulate`` accepts the payload produced by
:func:`repro.store.serialize.experiment_to_payload` (what
:class:`repro.client.ServiceClient` sends) and responds with
``{"key", "cached", "artifact"}``; the artifact's ``payload`` field is the
canonical :class:`~repro.api.results.RunResult` JSON, byte-identical between
the miss that computed it and every subsequent hit.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.errors import ReproError, ServiceError
from repro.store.canonical import cached_run
from repro.store.serialize import EXPERIMENT_SCHEMA
from repro.store.store import ResultStore

__all__ = ["ResultService", "serve"]

#: Largest accepted request body (a serialized network is small; this guards
#: the service against accidental multi-GB posts, not against adversaries).
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Request handler delegating to the owning :class:`ResultService`."""

    server_version = "repro-service"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the body waits
    # for the client's delayed ACK of the headers (~40 ms a keep-alive reply).
    disable_nagle_algorithm = True

    @property
    def service(self) -> "ResultService":
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.service.quiet:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------------

    def _reply(self, status: int, document: Mapping) -> None:
        body = json.dumps(document, indent=2).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        # Close after any error: a rejected POST may leave its body unread in
        # the socket, which would desynchronize an HTTP/1.1 keep-alive client
        # (the next "request line" would be body bytes).
        self.close_connection = True
        self._reply(status, {"error": message})

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request has no body")
        if length > _MAX_BODY_BYTES:
            raise ServiceError(f"request body exceeds {_MAX_BODY_BYTES} bytes")
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not valid JSON: {exc}") from exc

    # -- routes ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/healthz":
                self._reply(200, self.service.health())
            elif path == "/engines":
                self._reply(200, self.service.engines())
            elif path.startswith("/results/"):
                key = path[len("/results/"):]
                envelope = self.service.store.get_envelope(key)
                if envelope is None:
                    self._error(404, f"no artifact under key {key!r}")
                else:
                    self._reply(200, envelope)
            elif path == "/campaigns":
                self._reply(200, {"campaigns": self.service.store.campaign_ids()})
            elif path.startswith("/campaigns/"):
                campaign_id = path[len("/campaigns/"):]
                manifest = self.service.store.load_campaign(campaign_id)
                if manifest is None:
                    self._error(404, f"no campaign {campaign_id!r}")
                else:
                    self._reply(200, manifest)
            else:
                self._error(404, f"unknown route {path!r}")
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - the service must not die
            self._error(500, f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        path = self.path.split("?", 1)[0].rstrip("/")
        try:
            if path == "/simulate":
                status, document = self.service.simulate(self._read_body())
                self._reply(status, document)
            else:
                self._error(404, f"unknown route {path!r}")
        except ReproError as exc:
            self._error(400, str(exc))
        except Exception as exc:  # noqa: BLE001 - the service must not die
            self._error(500, f"{type(exc).__name__}: {exc}")


class ResultService:
    """The experiment service: a threaded HTTP server over a result store.

    Parameters
    ----------
    store:
        Backing :class:`ResultStore` (or its directory path).
    host / port:
        Bind address.  ``port=0`` asks the OS for an ephemeral port — read
        the resolved one back from :attr:`port` / :attr:`url`.
    workers:
        Ensemble worker processes used per cache-miss simulation.
    quiet:
        Suppress per-request access logging.
    """

    def __init__(
        self,
        store: "ResultStore | str",
        host: str = "127.0.0.1",
        port: int = 8080,
        workers: int = 1,
        quiet: bool = False,
    ) -> None:
        self.store = ResultStore.coerce(store)
        self.workers = int(workers)
        self.quiet = bool(quiet)
        # Handler threads count hits and misses concurrently; the lock keeps
        # each read-modify-write whole.
        self.hits = 0
        self.misses = 0
        self._counter_lock = threading.Lock()
        self._thread: "threading.Thread | None" = None
        try:
            self.httpd = ThreadingHTTPServer((host, port), _Handler)
        except OSError as exc:
            raise ServiceError(
                f"cannot bind {host}:{port}: {exc.strerror or exc} "
                "(is another service already listening there? try --port 0 "
                "for an ephemeral port)"
            ) from exc
        self.httpd.daemon_threads = True
        self.httpd.service = self  # type: ignore[attr-defined]

    # -- address -----------------------------------------------------------------

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return int(self.httpd.server_address[1])

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- route implementations ---------------------------------------------------

    def health(self) -> dict:
        from repro import __version__

        stats = self.store.stats()
        with self._counter_lock:
            hits, misses = self.hits, self.misses
        return {
            "status": "ok",
            "version": __version__,
            "hits": hits,
            "misses": misses,
            **stats,
        }

    def engines(self) -> dict:
        from repro.sim import registry

        return {"engines": registry.capability_matrix()}

    def simulate(self, body: Mapping) -> "tuple[int, dict]":
        """Handle ``POST /simulate``: canonicalize, cache-lookup, compute.

        The payload is canonically fingerprinted (:mod:`repro.store.canonical`)
        so requests that differ only in species naming or reaction order hit
        the same artifact; the reply's artifact payload is translated into
        the *requester's* naming (``GET /results/<key>`` returns the stored
        writer-naming envelope verbatim).  Adaptive payloads
        (``simulate.until`` set) compute through the same path — the
        descriptor is declarative, so the untrusted rebuild is wire-safe —
        and the reply's ``"adaptive"`` flag reports that the artifact records
        a stopping rule rather than a fixed trial budget.
        """
        from repro.store.serialize import is_experiment_schema

        payload = body.get("experiment", body)
        if not isinstance(payload, dict) or not is_experiment_schema(
            payload.get("schema")
        ):
            raise ServiceError(
                "POST /simulate expects a serialized experiment payload "
                f"(schema {EXPERIMENT_SCHEMA!r}); build one with "
                "repro.store.experiment_to_payload or use repro.client.ServiceClient"
            )
        # trusted=False: wire payloads must stay declarative — a "callable"
        # descriptor would let any client import+run arbitrary server code.
        result, cached, canon, envelope = cached_run(
            self.store, payload, workers=self.workers, trusted=False
        )
        adaptive = canon.payload["simulate"].get("until") is not None
        with self._counter_lock:
            if cached:
                self.hits += 1
            else:
                self.misses += 1
        return (200 if cached else 201), {
            "key": canon.key,
            "cached": cached,
            "adaptive": adaptive,
            "artifact": envelope,
        }

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ResultService":
        """Serve on a daemon thread (tests, embedding); returns ``self``."""
        if self._thread is not None:
            raise ServiceError("service is already running")
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and release the socket."""
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted."""
        try:
            self.httpd.serve_forever()
        finally:
            self.httpd.server_close()


def serve(
    store: "ResultStore | str",
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 1,
    quiet: bool = False,
) -> None:
    """Run the experiment service in the foreground (the CLI entry point).

    Prints the resolved listen URL (flushed immediately, so wrappers that
    start the service with ``port=0`` can scrape the ephemeral port) and
    serves until interrupted.
    """
    service = ResultService(store, host=host, port=port, workers=workers, quiet=quiet)
    print(
        f"repro service listening on {service.url} "
        f"(store: {service.store.root})",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        print("\nshutting down")
