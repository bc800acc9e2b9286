"""End-to-end benchmark of the repro pipeline (workloads in BENCHMARK.json).

Run from the root of a checkout::

    python3 e2ebench/run.py --workload ex1-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up time
(the median over fresh processes started up to ready), then the workload's
calls for ``--seconds``.  Times and rates are reported at nominal machine
speed: each timing is scaled by the CPU probes (:func:`stats.cpu_probe`)
timed just before and after it, and set-up by probes each fresh process
runs right after it is ready; the raw values print beside them.
``--trace 1`` runs the workload for half
the time untraced and half traced, and reports the per-layer metrics
(:data:`spans.PER_LAYER`) and the tracing overhead; the spans are written to
``.e2ebench-out/`` when the run ends.

Every line but the last names a metric with its unit and sample count.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".e2ebench-out"

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("call_s_p50", "s"),
    ("quick_ms_p50", "ms"),
    ("quick_ms_p90", "ms"),
    ("calls_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)

#: Fresh processes timed from start to ready; ``setup_s`` is the median of
#: their times, each scaled by the CPU probes that process ran once ready.
SETUP_PROBES = 3


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload) -> int:
    """Child side of a set-up measurement: set up, say ``ready``, time the
    host (a line ``host <factor>``), tear down."""
    from stats import cpu_probes, host_factor

    try:
        workload.setup()
        if workload.ops.total_failed:
            return 1
        print("ready", flush=True)
        print(f"host {host_factor([cpu_probes(5)])!r}", flush=True)
    finally:
        workload.close()
    return 0


def measure_setup(args, work: Path, ops) -> "list[tuple[float, float]]":
    """``(seconds, host factor)`` of each fresh benchmark process: the time
    from its start to its ``ready`` line, and how slow the host ran then."""
    from stats import CheckFailed

    samples = []
    for index in range(SETUP_PROBES):
        with ops.attempt("setup"):
            log = work / f"probe-{index}.log"
            with open(log, "w", encoding="utf-8") as stderr:
                start = time.perf_counter()
                probe = subprocess.Popen(
                    [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds)],
                    stdout=subprocess.PIPE, stderr=stderr, text=True, cwd=ROOT,
                )
                try:
                    line = probe.stdout.readline()
                    elapsed = time.perf_counter() - start
                    # Read through the same buffer: ``communicate`` reads the
                    # pipe itself and misses a line already buffered here.
                    host = probe.stdout.readline().split()
                    probe.communicate(timeout=60)
                except BaseException:
                    probe.kill()
                    probe.communicate()
                    raise
            if line.strip() != "ready" or host[:1] != ["host"] or probe.returncode != 0:
                tail = log.read_text(encoding="utf-8")[-800:]
                raise CheckFailed(f"set-up probe exited {probe.returncode}: {tail}")
            samples.append((elapsed, float(host[1])))
    return samples


def report_line(name: str, value: float, unit: str, n: int, raw: str = "") -> None:
    print(f"  {name:<42} {value:>14.6g} {unit:<8} n={n}{raw}")


def report_named(workload) -> None:
    from stats import describe

    for name, (unit, values) in workload.named().items():
        summary = describe(values)
        if not summary["n"]:
            continue
        report_line(f"{name}_p50", summary["p50"], unit, summary["n"])
        if summary["tail_q"] is not None and summary["tail_q"] > 50:
            report_line(f"{name}_p{summary['tail_q']:g}", summary["tail"], unit,
                        summary["n"])


def measured_run(args, workload_cls, work: Path) -> dict:
    from stats import Ops, median

    probe_ops = Ops()
    setup = measure_setup(args, work, probe_ops)
    workload = workload_cls(args.seed, work / "run")
    try:
        workload.setup()
        workload.run(args.seconds)
    finally:
        workload.close()

    measured = {"setup_s": (
        median([s for s, _ in setup]) if setup else 0.0,
        median([s / f for s, f in setup]) if setup else 0.0, "s", len(setup),
    )}
    measured.update(workload.end_to_end())
    values = {name: measured[name][1] for name, _ in END_TO_END}
    print(f"# {workload.name} seed {args.seed}")
    print(f"# measured {workload.window_s:.2f} s; CPU probe {workload.host_factor():.3f}x "
          f"nominal on average ({len(workload.probes)} probe groups); end-to-end "
          "metrics at nominal speed, tracing off:")
    for name, unit in END_TO_END:
        raw, value, _, n = measured[name]
        report_line(name, value, unit, n, f"  (raw {raw:.6g})")
    print("# raw samples under the workload's own names:")
    report_named(workload)
    return finish(values, dict(END_TO_END), [probe_ops, workload.ops])


def overhead_pct(plain_log, traced_log, plain_factor=1.0, traced_factor=1.0) -> float:
    """Traced vs untraced median call time, weighted by traced call counts.

    Each half's times are first scaled by its own host factor, so a machine
    that slowed down between the halves is not counted as tracing cost.
    """
    from stats import median

    def by_kind(log):
        grouped: dict[str, list[float]] = {}
        for _, kind, seconds in log:
            grouped.setdefault(kind, []).append(seconds)
        return grouped

    plain, traced = by_kind(plain_log), by_kind(traced_log)
    extra = base = 0.0
    for kind, samples in traced.items():
        if plain.get(kind):
            reference = median(plain[kind]) / plain_factor
            extra += len(samples) * (median(samples) / traced_factor - reference)
            base += len(samples) * reference
    return 100.0 * extra / base if base else 0.0


def traced_run(args, workload_cls, work: Path) -> dict:
    from spans import PER_LAYER, Tracer, install_layers, layer_metrics, merged_totals

    half = args.seconds / 2.0
    plain = workload_cls(args.seed, work / "plain")
    try:
        plain.setup()
        plain.run(half, min_quick=0)
    finally:
        plain.close()

    tracer = Tracer()
    install_layers(tracer)
    traced = workload_cls(args.seed, work / "traced", tracer=tracer)
    try:
        with tracer.span("setup", op=0):
            traced.setup()
        traced.run(half, min_quick=0)
    finally:
        traced.close()
        tracer.uninstall()

    span_lists = [tracer.spans] + traced.extra_spans()
    values = layer_metrics(span_lists, traced.op_log, traced.layer_extras())
    values["trace.overhead_pct"] = overhead_pct(
        plain.op_log, traced.op_log, plain.host_factor(), traced.host_factor())
    dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "op_log": traced.op_log, "processes": span_lists}, handle)

    calls = sum(1 for _, kind, _ in traced.op_log if kind == "call")
    print(f"# {traced.name} seed {args.seed}: traced {traced.window_s:.2f} s "
          f"after {plain.window_s:.2f} s untraced; spans in {dump.name}")
    print(f"# per-layer totals over the traced calls ({calls} main calls):")
    ops = {op for op, _, _ in traced.op_log}
    for name, entry in sorted(merged_totals(span_lists, ops).items()):
        print(f"  {name:<42} self {entry['self_s']:>10.4f} s  calls {entry['calls']}")
    print("# per-layer metrics:")
    for name, unit in PER_LAYER:
        report_line(name, values[name], unit, len(traced.op_log))
    return finish(values, dict(PER_LAYER), [plain.ops, traced.ops])


def finish(values: dict, units: dict, op_counters) -> dict:
    attempted = sum(ops.total_attempted for ops in op_counters)
    failed = sum(ops.total_failed for ops in op_counters)
    print(f"# ops_attempted {attempted}, ops_failed {failed}")
    for ops in op_counters:
        for kind, count in sorted(ops.attempted.items()):
            print(f"    {kind:<10} attempted {count:>6} failed {ops.failed.get(kind, 0)}")
        for error in ops.errors:
            print(f"    FAILED {error}")
    return {
        "correct": failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)  # unwind, so every child process is stopped


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from the root of a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload_cls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.setup_probe:
            return setup_probe(workload_cls(args.seed, work / "probe"))
        if args.trace:
            result = traced_run(args, workload_cls, work)
        else:
            result = measured_run(args, workload_cls, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
