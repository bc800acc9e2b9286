"""Run the experiment service in its own process for ``serve-mixed``.

Starts :class:`repro.service.ResultService` (what ``repro serve`` runs) on
an ephemeral port, prints ``listening on <url>`` once it accepts requests,
and serves until SIGTERM.  On the way out it writes ``--stats``: its peak
RSS and, with ``--trace``, the spans its request handlers recorded.  A
traced request takes its operation id from the ``bench_op`` field the
benchmark client adds to the request body (the service reads only
``experiment``).

    PYTHONPATH=src python3 e2ebench/launcher.py --store DIR --stats OUT.json [--trace]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import threading
from pathlib import Path


def install_service_spans(tracer) -> None:
    """Spans around one request: handling, the service call, reply encoding."""
    from repro.service.server import ResultService, _Handler
    from spans import OP

    handle_post = _Handler.do_POST
    simulate = ResultService.simulate
    reply = _Handler._reply

    def do_post(handler) -> None:
        with tracer.span("service.server.request"):
            handle_post(handler)

    def traced_simulate(service, body):
        op = body.get("bench_op") if isinstance(body, dict) else None
        tracer.current()[OP] = op  # the enclosing request span
        with tracer.span("service.server.handle"):
            return simulate(service, body)

    def traced_reply(handler, status, document) -> None:
        with tracer.span("service.server.encode"):
            reply(handler, status, document)

    tracer.replace(_Handler, "do_POST", do_post)
    tracer.replace(ResultService, "simulate", traced_simulate)
    tracer.replace(_Handler, "_reply", traced_reply)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer, install_layers

        tracer = Tracer()
        install_layers(tracer)
        install_service_spans(tracer)

    from repro.service import ResultService

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    service = ResultService(args.store, port=0, quiet=True).start()
    print(f"listening on {service.url}", flush=True)
    try:
        while not stop.wait(0.2):
            pass
    finally:
        service.stop()
        stats = {
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans if tracer is not None else None,
        }
        Path(args.stats).write_text(json.dumps(stats), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
