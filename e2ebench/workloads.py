"""The four benchmark workloads, driven through the public API only.

Every workload runs ``workers=1`` on the numpy kernel backend and measures
two kinds of user call:

* a *main call* (``call``): one that has to compute its answer;
* a *quick call* (``quick``): one a user expects back fast.

=====================  ==============================  ===============================
workload               main call                       quick call
=====================  ==============================  ===============================
``ex1-cold``           cold ``simulate(store=)``       repeat through a new store handle
``ex1-precision``      estimate to CI half-width 0.01  estimate to CI half-width 0.05
``corpus-conformance`` cold engine call through store  repeat through a new store handle
``serve-mixed``        ``POST /simulate`` miss         ``POST /simulate`` hit
=====================  ==============================  ===============================

Each call's output is checked; a wrong or failed call is counted, never
fatal (:class:`stats.Ops`).  Inputs come from the workload seed
(:mod:`plan`).
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import itertools
import json
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from plan import WINDOW, seed_stream, serve_plan
from stats import (
    CheckFailed,
    Ops,
    at_nominal,
    chi_squared,
    cpu_probes,
    host_factor,
    median,
    nominal_window,
    percentile,
)

#: Example 1 of the paper: outcomes programmed to (0.3, 0.4, 0.3).
EX1_TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
EX1_TRIALS = 10_000
BACKEND = "numpy"
CORPUS_ENGINES = ("direct", "first-reaction", "next-reaction", "batch-direct")

#: Significance of the per-call chi-squared test against the exact oracle.
#: Strict, because thousands of seeded calls are tested per benchmark round.
ALPHA = 1e-6

#: How far past ``--seconds`` a run may go to reach its quick-call count; a
#: bound, so a slow machine cannot stretch a round of runs past its budget.
OVERRUN = 1.5

#: Seconds between host probes taken between measured calls.  The host's
#: speed changes several times a second, and each timing is scaled by the
#: probes on either side of it (:func:`stats.factor_at`).
PROBE_EVERY = 0.2

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def chi2_threshold(dof: int) -> float:
    from scipy.stats import chi2

    return float(chi2.ppf(1.0 - ALPHA, dof))


def check_conforms(result, oracle: dict) -> None:
    """Raise :class:`CheckFailed` unless ``result`` matches the oracle."""
    statistic, dof = chi_squared(dict(result.ensemble.outcome_counts), oracle)
    if not statistic < chi2_threshold(dof):
        raise CheckFailed(
            f"chi2={statistic:.2f} >= chi2_(1-{ALPHA})({dof}) for counts "
            f"{dict(result.ensemble.outcome_counts)} against oracle {oracle}"
        )


def same_result(result, reference) -> bool:
    """Field-by-field, bitwise equality of two run results.

    ``to_json()`` is a pure function of these fields (floats print by
    ``repr``), so equal fields mean byte-identical JSON, at a fraction of
    the cost of encoding 10^4 trials.
    """
    import dataclasses

    def ordered(value):  # JSON text follows dict insertion order
        return list(value.items()) if isinstance(value, dict) else value

    if type(result) is not type(reference):
        return False
    for field in dataclasses.fields(reference):
        if field.name != "ensemble" and ordered(getattr(result, field.name)) != ordered(
            getattr(reference, field.name)
        ):
            return False
    a, b = result.ensemble, reference.ensemble
    return (
        a.n_trials == b.n_trials
        and ordered(a.outcome_counts) == ordered(b.outcome_counts)
        and a.species == b.species
        and all(
            x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.final_counts, b.final_counts), (a.final_times, b.final_times),
                         (a.n_firings, b.n_firings))
        )
    )


def identical_to(reference, compare_text: bool = True):
    """A check that a repeat equals ``reference`` field by field; with
    ``compare_text`` the first repeat's ``to_json()`` text is compared too."""
    state = {"text": reference.to_json()} if compare_text else {}

    def check(result) -> None:
        text = state.pop("text", None)
        if text is not None and result.to_json() != text:
            raise CheckFailed("repeat's to_json() differs from the first result's")
        if not same_result(result, reference):
            raise CheckFailed("repeat differs from the first result")

    return check


def example1():
    from repro.api import Experiment

    return Experiment.from_distribution(EX1_TARGET, gamma=1e3, scale=100)


def example1_oracle(experiment) -> dict:
    """FSP solve of Example 1, checked to be exactly the programmed target."""
    exact = experiment.simulate(engine="fsp")
    probabilities = dict(exact.exact)
    if int(exact.exact_info["n_states"]) != 4 or any(
        abs(probabilities.get(k, 0.0) - p) > 1e-12 for k, p in EX1_TARGET.items()
    ):
        raise CheckFailed(f"Example-1 oracle {probabilities} ({exact.exact_info})")
    return probabilities


class Workload:
    """Shared set-up, measuring loop, accounting and end-to-end metrics.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name = ""
    #: Quick calls per run that put ten samples beyond the p90.
    min_quick = 100

    def __init__(self, seed: int, work: Path, tracer=None) -> None:
        self.seed = seed
        self.work = Path(work)
        self.work.mkdir(parents=True, exist_ok=True)
        self.tracer = tracer
        self.ops = Ops()
        #: ``(start, seconds)`` of each correct call, by kind.
        self.samples: dict[str, list[tuple[float, float]]] = {"call": [], "quick": []}
        #: (op id, kind, seconds) of every successful call in the measured
        #: window, oracle solves included: the operations a trace attributes.
        self.op_log: list[tuple[int, str, float]] = []
        self.measuring = False
        self.window_s = 0.0
        #: ``(start, end, host factor)`` of each group of :func:`stats.cpu_probe`
        #: runs taken around and between the measured calls; ``probe_s`` is
        #: the seconds they took.
        self.probes: list[tuple[float, float, float]] = []
        self.probe_s = 0.0
        self._last_probe = 0.0
        self._op_ids = itertools.count(1)

    # -- hooks -------------------------------------------------------------------

    def setup(self) -> None:
        """Imports, design or corpus load, one warm-up call."""

    def cycle(self, index: int) -> None:
        """One indivisible unit of the measured loop."""
        raise NotImplementedError

    def close(self) -> None:
        gc.unfreeze()
        shutil.rmtree(self.work, ignore_errors=True)

    # -- helpers -----------------------------------------------------------------

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="store-", dir=self.work))

    def op(self, kind: str, fn, check=None):
        """Time one call of ``kind``; returns its value, or ``None`` if it failed.

        While measuring, a group of host probes runs first when the last one
        is :data:`PROBE_EVERY` seconds old.
        """
        if self.measuring and time.perf_counter() - self._last_probe > PROBE_EVERY:
            self.probe()
        op_id = next(self._op_ids)
        with self.ops.attempt(kind):
            start = time.perf_counter()
            if self.tracer is None:
                value = fn()
            else:
                with self.tracer.span(f"op.{kind}", op=op_id):
                    value = fn()
            elapsed = time.perf_counter() - start
            if check is not None:
                check(value)
            if kind in self.samples:
                self.samples[kind].append((start, elapsed))
            if self.measuring:
                self.op_log.append((op_id, kind, elapsed))
            return value
        return None

    def run(self, seconds: float, min_quick: "int | None" = None) -> None:
        """Run whole cycles while the next one is expected to end in time.

        Runs on past ``seconds`` (up to :data:`OVERRUN` times it) only while
        fewer than ``min_quick`` quick calls were measured.  The window,
        :attr:`window_s`, leaves out the host probes.
        """
        min_quick = self.min_quick if min_quick is None else min_quick
        self.start_measuring()
        start = time.perf_counter()
        self.probe()
        cycles = 0
        while True:
            self.cycle(cycles)
            cycles += 1
            elapsed = time.perf_counter() - start
            short = len(self.samples["quick"]) < min_quick and elapsed < OVERRUN * seconds
            if elapsed + elapsed / cycles > seconds and not short:
                break
        self.probe()
        self.window_s = time.perf_counter() - start - self.probe_s

    def start_measuring(self) -> None:
        """Open the measured window, moving every object set-up made out of
        the garbage collector's reach (:func:`gc.freeze`).

        Otherwise each full collection walks the whole benchmark process:
        modules, designs, oracles.  In ``ex1-cold`` one warm repeat in ten
        then took three times as long, right at the repeats' p90, which
        flipped between the two from run to run.  A full collection now
        walks what the calls themselves keep alive.
        """
        gc.freeze()
        self.measuring = True

    def probe(self, count: int = 1) -> None:
        """Time one group of ``count`` host probes (:func:`stats.cpu_probes`);
        probes disturbed by the program's own threads count as a failed
        operation."""
        started = time.perf_counter()
        with self.ops.attempt("probe"):
            group = cpu_probes(count)
            self.probes.append((started, time.perf_counter(), host_factor([group])))
        self._last_probe = time.perf_counter()
        self.probe_s += self._last_probe - started

    # -- metrics -----------------------------------------------------------------

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def host_factor(self) -> float:
        """The mean host factor of the run's probe groups."""
        if not self.probes:
            return 1.0
        return sum(factor for *_, factor in self.probes) / len(self.probes)

    def raw(self, kind: str) -> "list[float]":
        return [seconds for _, seconds in self.samples[kind]]

    def scaling_marks(self) -> list:
        """The probe groups that scale each timing (:func:`stats.factor_at`)."""
        return self.probes

    def end_to_end(self) -> dict:
        """``{metric: (raw value, value at nominal speed, unit, samples)}``
        for the measured window."""
        marks = self.scaling_marks()

        def summary(kind: str, stat, scale: float) -> tuple:
            timings = self.samples[kind]
            if not timings:
                return 0.0, 0.0
            return (scale * stat(self.raw(kind)),
                    scale * stat(at_nominal(marks, timings)))

        completed = len(self.samples["call"]) + len(self.samples["quick"])
        nominal_s = nominal_window(marks)
        rss = self.peak_rss_mb()
        return {
            "call_s_p50": (*summary("call", median, 1.0), "s", len(self.samples["call"])),
            "quick_ms_p50": (*summary("quick", median, 1e3), "ms",
                             len(self.samples["quick"])),
            "quick_ms_p90": (*summary("quick", lambda v: percentile(v, 90), 1e3), "ms",
                             len(self.samples["quick"])),
            "calls_per_s": (completed / self.window_s if self.window_s else 0.0,
                            completed / nominal_s if nominal_s else 0.0, "1/s", completed),
            "peak_rss_mb": (rss, rss, "MiB", 1),
        }

    def named(self) -> dict:
        """The same samples under the names the workload's users know them by."""
        return {}

    def layer_extras(self) -> dict:
        """Per-layer values only this workload can measure."""
        return {}

    def extra_spans(self) -> list:
        """Span lists recorded by other processes (the server's)."""
        return []


class Ex1Cold(Workload):
    """The paper's Example 1 at 10^4 trials, cold then re-read from disk.

    Each cold call gets a fresh store; every repeat opens a new store
    handle, so it reads the cold tier like a new ``repro simulate --store``
    process would.  The sweep, per-trial classification and the store put
    all carry weight here.
    """

    name = "ex1-cold"
    #: Warm repeats after each cold call.
    repeats = 20

    def setup(self) -> None:
        from repro.store import ResultStore

        self.experiment = example1()
        self.oracle = self.op("oracle", lambda: example1_oracle(self.experiment))
        self.seeds = seed_stream(self.seed, self.name)
        warm_up = self.fresh_dir()
        self.experiment.simulate(trials=512, engine="batch-direct", seed=1,
                                 backend=BACKEND, store=ResultStore(warm_up))
        shutil.rmtree(warm_up)

    def _call(self, seed: int, root: Path):
        from repro.store import ResultStore

        return self.experiment.simulate(
            trials=EX1_TRIALS, engine="batch-direct", workers=1, seed=seed,
            backend=BACKEND, store=ResultStore(root),
        )

    def cycle(self, index: int) -> None:
        seed = next(self.seeds)
        root = self.fresh_dir()
        cold = self.op("call", lambda: self._call(seed, root),
                       lambda r: check_conforms(r, self.oracle or EX1_TARGET))
        if cold is not None:
            # Encoding 10^4 trials as text costs more than a repeat, so the
            # text comparison runs in the first cycle only.
            identical = identical_to(cold, compare_text=index == 0)
            for _ in range(self.repeats):
                self.op("quick", lambda: self._call(seed, root), identical)
        shutil.rmtree(root, ignore_errors=True)

    def named(self) -> dict:
        return {
            "cold_call_s": ("s", self.raw("call")),
            "warm_hit_ms": ("ms", [1e3 * q for q in self.raw("quick")]),
        }


class Ex1Precision(Workload):
    """Example 1 estimated to a stated precision, with no store.

    The only workload that drives the adaptive controller's doubling rounds,
    and it never touches the store: a store or chunk-width change that
    helps ``ex1-cold`` but costs the controller shows here.
    """

    name = "ex1-precision"
    precise = 0.01
    coarse = 0.05
    #: Coarse estimates after each precise one.
    repeats = 17

    def setup(self) -> None:
        self.experiment = example1()
        self.oracle = self.op("oracle", lambda: example1_oracle(self.experiment))
        self.seeds = seed_stream(self.seed, self.name)
        self._estimate(1, self.coarse)

    def _estimate(self, seed: int, half_width: float):
        from repro.adaptive import CiHalfWidthTarget

        return self.experiment.simulate(
            engine="batch-direct", workers=1, seed=seed, backend=BACKEND,
            until=CiHalfWidthTarget(outcome="2", half_width=half_width),
        )

    def _check(self, half_width: float):
        def check(result) -> None:
            p_hat = float(result.achieved.get("p_hat", -1.0))
            if not result.met or abs(p_hat - EX1_TARGET["2"]) > 4 * half_width:
                raise CheckFailed(
                    f"estimate p_hat={p_hat} met={result.met} for half-width "
                    f"{half_width} (oracle {EX1_TARGET['2']})"
                )
            check_conforms(result, self.oracle or EX1_TARGET)

        return check

    def cycle(self, index: int) -> None:
        for kind, half_width, count in (("call", self.precise, 1),
                                        ("quick", self.coarse, self.repeats)):
            for _ in range(count):
                seed = next(self.seeds)
                self.op(kind, lambda: self._estimate(seed, half_width),
                        self._check(half_width))

    def named(self) -> dict:
        return {
            "precision_s": ("s", self.raw("call")),
            "coarse_estimate_ms": ("ms", [1e3 * q for q in self.raw("quick")]),
        }


class CorpusConformance(Workload):
    """Every enrolled corpus model against its exact oracle, all engines.

    Per pass: solve each model's FSP oracle, run the four sampling engines
    cold through one fresh store at the model's conformance budget, and
    chi-square each against the oracle.  Per-trial kernels, the Python loop
    around them and FSP dominate; ``batch-direct`` uses the default
    stop-detail classifier here, so classification changes should not move
    this workload.
    """

    name = "corpus-conformance"
    #: Warm repeats of each cold call per pass.
    repeats = 2

    def setup(self) -> None:
        from repro.zoo.corpus import corpus_entries

        self.entries = [(entry, entry.model.experiment()) for entry in corpus_entries()]
        self.seeds = seed_stream(self.seed, self.name)
        self.passes: list[tuple[float, int]] = []  # (pass wall s, sampled trials)
        entry, experiment = self.entries[0]
        experiment.simulate(trials=50, engine="direct", seed=1, backend=BACKEND)

    def _oracle(self, entry, experiment) -> dict:
        result = experiment.simulate(engine="fsp",
                                     engine_options=entry.model.fsp_options())
        exact = dict(result.exact)
        if exact.pop("(undecided)", 0.0) > 1e-9:
            raise CheckFailed(f"{entry.name}: oracle leaks undecided mass")
        return exact

    def cycle(self, index: int) -> None:
        from repro.store import ResultStore
        from repro.zoo.corpus import trial_budget

        root = self.fresh_dir()
        start = time.perf_counter()
        trials = 0
        for entry, experiment in self.entries:
            oracle = self.op("oracle", lambda: self._oracle(entry, experiment))
            if oracle is None:
                continue
            policy = entry.model.conformance
            budget = trial_budget(oracle, policy.min_expected, policy.max_trials)

            def check(result, oracle=oracle, name=entry.name) -> None:
                if result.decided_fraction() != 1.0:
                    raise CheckFailed(f"{name}: undecided trials")
                check_conforms(result, oracle)

            done = []
            for engine in CORPUS_ENGINES:
                kwargs = dict(trials=budget, engine=engine, workers=1,
                              seed=next(self.seeds), backend=BACKEND)
                cold = self.op("call", lambda: experiment.simulate(
                    store=ResultStore(root), **kwargs), check)
                if cold is not None:
                    trials += budget
                    done.append((kwargs, identical_to(cold)))
            # Repeats follow each model's cold calls, not the whole pass: the
            # ~1 ms quick calls then spread over the pass instead of bunching
            # at its end, where one slow moment would move their median.
            for _ in range(self.repeats):
                for kwargs, identical in done:
                    self.op("quick", lambda: experiment.simulate(
                        store=ResultStore(root), **kwargs), identical)
        self.passes.append((time.perf_counter() - start, trials))
        shutil.rmtree(root, ignore_errors=True)

    def named(self) -> dict:
        rates = [trials / seconds for seconds, trials in self.passes if seconds > 0]
        return {
            "trials_per_s": ("trials/s", rates),
            "cold_engine_call_s": ("s", self.raw("call")),
            "warm_repeat_ms": ("ms", [1e3 * q for q in self.raw("quick")]),
        }


class ServeMixed(Workload):
    """``repro serve`` in its own process under a closed loop of two connections.

    About 9 in 10 requests are hits, some as renamed variants; artifacts mix
    the 10^4-trial Example-1 result with small corpus results, all within
    the 128-entry hot tier; some new keys are requested by both connections
    at once.  The workload reads from the store where ``ex1-cold`` writes,
    and reply encoding, duplicate computes and service locking show only
    here.
    """

    name = "serve-mixed"
    #: Light keys: small corpus results (cheap FSP oracles).
    light = ("polya-urn", "toggle-switch", "dimerization", "lambda-decision",
             "triple-race", "gen-k2-L1-x0-c0-n16-seed3")
    light_trials = 500
    light_engine = "direct"
    plan_blocks = 2_000
    #: Seconds between pauses of the closed loop for a group of host probes.
    segment_s = 1.0

    def setup(self) -> None:
        self._launch_server()  # boots while this process imports and designs
        from repro.zoo.corpus import corpus_entries

        self.models = {"ex1": (example1(), EX1_TRIALS, "batch-direct")}
        self.oracles = {"ex1": EX1_TARGET}
        self.variants = {}
        for entry in corpus_entries():
            if entry.name in self.light:
                experiment = entry.model.experiment()
                self.models[entry.name] = (experiment, self.light_trials,
                                           self.light_engine)
                self.variants[entry.name] = renamed_variant(experiment)
                oracle = experiment.simulate(engine="fsp",
                                             engine_options=entry.model.fsp_options())
                self.oracles[entry.name] = {k: v for k, v in oracle.exact.items()
                                            if k != "(undecided)"}
        self.plan = serve_plan(self.seed, self.plan_blocks, "ex1", self.light)
        self._await_server()
        #: (model, planned kind, "call"/"quick", seconds, reply bytes)
        self.request_log: list[tuple[str, str, str, float, int]] = []
        self.first_digest: dict[tuple[int, bool], str] = {}
        self.conforming: set[int] = set()
        self.ready = [threading.Event() for _ in self.plan.keys]
        self.lock = threading.Lock()
        conn = self._connect()
        try:
            experiment, _, engine = self.models[self.light[0]]
            status, raw = self._post(conn, self._body(experiment, 50, engine, 1, None))
        finally:
            conn.close()
        if status != 201:
            raise RuntimeError(f"warm-up request failed: HTTP {status} {raw[:200]!r}")

    # -- server ------------------------------------------------------------------

    def _launch_server(self) -> None:
        import os

        self.stats_path = self.work / "server-stats.json"
        command = [sys.executable, str(HERE / "launcher.py"),
                   "--store", str(self.work / "store"), "--stats", str(self.stats_path)]
        if self.tracer is not None:
            command.append("--trace")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self.server = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env)

    def _await_server(self) -> None:
        """Wait for the banner, then for ``/healthz`` to answer 200."""
        banner = self.server.stdout.readline()
        if not banner.startswith("listening on http://"):
            self._stop_server()
            raise RuntimeError(f"server did not start (banner {banner!r})")
        host_port = banner.strip().rsplit("/", 1)[-1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        conn = self._connect()
        try:
            deadline = time.monotonic() + 30.0
            while True:
                try:
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    response.read()
                    if response.status == 200:
                        break
                except (OSError, http.client.HTTPException):
                    conn.close()
                    conn = self._connect()
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.05)
        finally:
            conn.close()

    def _stop_server(self) -> dict:
        server, self.server = getattr(self, "server", None), None
        if server is None:
            return {}
        server.terminate()
        try:
            server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        try:
            return json.loads(self.stats_path.read_text())
        except (OSError, ValueError):
            return {}

    def close(self) -> None:
        self.server_stats = self._stop_server()
        super().close()

    # -- client ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def _body(self, experiment, trials, engine, seed, op_id) -> bytes:
        from repro.store import serialize

        payload = serialize.experiment_to_payload(
            experiment, trials=trials, engine=engine, seed=seed, backend=BACKEND
        )
        body = {"experiment": payload}
        if op_id is not None:
            body["bench_op"] = op_id
        return json.dumps(body).encode("utf-8")

    def _post(self, conn, body: bytes) -> "tuple[int, bytes]":
        conn.request("POST", "/simulate", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()

    def _span(self, name, op=None):
        from contextlib import nullcontext

        return nullcontext() if self.tracer is None else self.tracer.span(name, op=op)

    def _request(self, conn, item):
        """Send one planned request; returns the connection to use next."""
        from repro.api.results import RunResult

        op_id = next(self._op_ids)
        model, seed = self.plan.keys[item.key]
        experiment, trials, engine = self.models[model]
        if item.variant:
            experiment = self.variants[model]
        with self.ops.attempt("request"):
            try:
                start = time.perf_counter()
                with self._span("op.request", op=op_id):
                    with self._span("service.client.encode"):
                        body = self._body(experiment, trials, engine, seed,
                                          op_id if self.tracer else None)
                    status, raw = self._post(conn, body)
                    if not 200 <= status < 300:
                        raise CheckFailed(f"HTTP {status}: {raw[:300]!r}")
                    with self._span("service.client.decode"):
                        document = json.loads(raw)
                        result = RunResult.from_payload(document["artifact"]["payload"])
                elapsed = time.perf_counter() - start
            except Exception:
                # Error replies close the connection; so may a broken socket.
                conn.close()
                conn = self._connect()
                raise
            finally:
                if item.kind != "hit":
                    self.ready[item.key].set()
            self._check_reply(item, raw, document, result)
            kind = "quick" if document["cached"] else "call"
            if self.measuring:
                with self.lock:
                    self.samples[kind].append((start, elapsed))
                    self.op_log.append((op_id, kind, elapsed))
                    self.request_log.append((model, item.kind, kind, elapsed,
                                             len(raw)))
        return conn

    def _check_reply(self, item, raw, document, result) -> None:
        if item.kind == "hit" and not document["cached"]:
            raise CheckFailed(f"planned hit on key {item.key} was computed")
        if item.kind == "miss" and document["cached"]:
            raise CheckFailed(f"planned miss on key {item.key} was served cached")
        digest = hashlib.sha256(raw[raw.find(b'"artifact"'):]).hexdigest()
        identity = (item.key, item.variant)
        with self.lock:
            first = self.first_digest.setdefault(identity, digest)
            conform = item.key not in self.conforming
            self.conforming.add(item.key)
        if first != digest:
            raise CheckFailed(f"reply for key {item.key} differs from the first one")
        if conform:
            check_conforms(result, self.oracles[self.plan.keys[item.key][0]])

    def run(self, seconds: float, min_quick: "int | None" = None) -> None:
        """Send the planned requests over two connections, in segments.

        The plan opens with the heavy key as a duplicate burst; it goes out
        before the window opens, as its seconds-long computes would fill
        much of a short window and leave few hits to measure.  Every
        :attr:`segment_s` seconds the loop stops taking requests, and once
        both connections are idle a group of host probes runs: a probe
        racing the client threads for the interpreter would time them, not
        the machine.  :attr:`window_s` leaves the probes out.
        """
        min_quick = self.min_quick if min_quick is None else min_quick
        state = {"next": 0, "burst": None, "done": False, "until": 0.0}
        barrier = threading.Barrier(2)
        conns = [self._connect(), self._connect()]

        def take():
            with self.lock:
                # A burst's second send never waits for the next segment.
                if state["burst"] is not None:
                    item, state["burst"] = state["burst"], None
                    return item
                now = time.perf_counter()
                enough = (len(self.samples["quick"]) >= min_quick
                          or now - start > OVERRUN * seconds)
                if (now - start > seconds and enough) or state["next"] == len(
                        self.plan.requests):
                    state["done"] = True
                if state["done"] or now > state["until"]:
                    return None
                item = self.plan.requests[state["next"]]
                state["next"] += 1
                if item.kind == "burst":
                    state["burst"] = item
                return item

        def connection_loop(index: int) -> None:
            while (item := take()) is not None:
                if item.kind == "burst":
                    try:
                        barrier.wait(timeout=60)
                    except threading.BrokenBarrierError:
                        pass
                elif item.kind == "hit":
                    self.ready[item.key].wait(timeout=60)
                conns[index] = self._request(conns[index], item)

        def first_burst(index: int) -> None:
            try:
                barrier.wait(timeout=60)
            except threading.BrokenBarrierError:
                pass
            conns[index] = self._request(conns[index], self.plan.requests[0])

        try:
            threads = [threading.Thread(target=first_burst, args=(index,), daemon=True)
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            state["next"] = 1
            self.start_measuring()
            start = time.perf_counter()
            self.probe(2)
            while not state["done"]:
                state["until"] = time.perf_counter() + self.segment_s
                threads = [threading.Thread(target=connection_loop, args=(index,),
                                            daemon=True) for index in range(2)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                self.probe(2)  # a segment's requests all share its two groups
        finally:
            for conn in conns:
                conn.close()
        self.window_s = time.perf_counter() - start - self.probe_s
        # +1: the warm-up request's key.
        self.keys_requested = len({item.key for item in
                                   self.plan.requests[:state["next"]]}) + 1
        print(f"# {state['next']} planned requests sent, {self.keys_requested} "
              f"distinct keys; hits ask for the heavy key or one of the newest "
              f"{WINDOW} light keys")
        conn = self._connect()
        try:
            conn.request("GET", "/healthz")
            self.health = json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def scaling_marks(self) -> list:
        """Every probe group at the run's mean factor.

        The server does the work, in another process that the scheduler may
        run on the other CPU: the client's probes on either side of a
        request say little about the speed it was served at.  The run's
        mean factor still follows the host's drift between runs.
        """
        factor = self.host_factor()
        return [(start, end, factor) for start, end, _ in self.probes]

    def end_to_end(self) -> dict:
        """As measured for ``quick_ms_p50``, a light hit: it mostly waits
        for the server's interpreter while the other connection's work holds
        it, a switch interval (5 ms) at a time, and that wait does not follow
        host speed (its raw median held within a few percent while the host
        factor moved 1.15-1.65x).  Heavy hits (the p90), misses and the
        request rate are CPU work and scale by the run's mean factor.
        """
        metrics = super().end_to_end()
        raw, _, unit, n = metrics["quick_ms_p50"]
        metrics["quick_ms_p50"] = (raw, raw, unit, n)
        return metrics

    def peak_rss_mb(self) -> float:
        stats = getattr(self, "server_stats", None) or {}
        return float(stats.get("peak_rss_kib", 0)) / 1024.0

    def named(self) -> dict:
        return {
            "hit_ms": ("ms", [1e3 * q for q in self.raw("quick")]),
            "miss_s": ("s", self.raw("call")),
        }

    def layer_extras(self) -> dict:
        misses = float(self.health.get("misses", 0))
        return {
            "service.server.computes_per_key": misses / self.keys_requested,
            "service.reply_kib_p50": median(
                [size for *_, size in self.request_log] or [0]
            ) / 1024.0,
        }

    def extra_spans(self) -> list:
        stats = getattr(self, "server_stats", None) or {}
        return [stats["spans"]] if stats.get("spans") else []


def renamed_variant(experiment):
    """A species-renamed, reaction-reversed copy (same canonical key)."""
    import dataclasses

    from repro.crn import ReactionNetwork

    renamed = experiment.renamed(
        {sp.name: f"{sp.name}_v" for sp in experiment.network.species}
    )
    network = renamed.network
    permuted = ReactionNetwork(
        list(reversed(list(network.reactions))),
        initial_state={sp.name: c for sp, c in network.initial_state.items()},
        name=network.name,
        species=[sp.name for sp in network.species],
    )
    return dataclasses.replace(renamed, network=permuted)


WORKLOADS = {
    cls.name: cls for cls in (Ex1Cold, Ex1Precision, CorpusConformance, ServeMixed)
}
