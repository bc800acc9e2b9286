"""Command-line interface: synthesize, simulate and reproduce from the shell.

The CLI is a thin shell over the fluent facade (:mod:`repro.api`): every
subcommand that simulates builds an :class:`~repro.api.Experiment`, runs it,
and prints the resulting report, so the shell exposes exactly the knobs the
library has — engine selection (from the live engine registry), worker
sharding, and typed engine options such as the tau-leaping tolerances::

    repro synthesize --probabilities "lysis=0.15,lysogeny=0.85" --gamma 1e3 -o design.json
    repro simulate design.json --trials 500 --working-firings 10
    repro simulate design.json --engine tau-leaping --tau-epsilon 0.01
    repro simulate design.json --engine fsp --fsp-max-states 200000
    repro example1 --until-ci-halfwidth 0.02 --until-outcome 1 --seed 7
    repro settle --module logarithm --inputs "x=16"
    repro engines
    repro serve --store results/ --port 8080
    repro figure3 --trials 500 --gammas 1,10,100,1000
    repro figure5 --trials 100 --moi 1,2,4,8
    repro example1
    repro example2

Every subcommand prints a plain-text report (tables / ASCII charts); the
``synthesize`` command additionally writes the design as JSON so it can be fed
back to ``simulate``.  Simulating subcommands accept ``--store DIR`` to cache
results content-addressed on disk (a repeated run with identical parameters is
served from the store instead of re-simulated), and ``repro serve`` exposes
the same store over HTTP (see :mod:`repro.service`).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro import __version__
from repro.analysis import format_table
from repro.api import Experiment
from repro.core import (
    AffineResponseSpec,
    gamma_sweep,
    settle_module,
)
from repro.core.modules import (
    exponentiation_module,
    isolation_module,
    linear_module,
    logarithm_module,
    polynomial_module,
    power_module,
)
from repro.crn import load_network, save_network
from repro.errors import ReproError
from repro.sim import CategoryFiringCondition, FspOptions, TauLeapOptions
from repro.sim.registry import registry

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_mapping(text: str, value_type=float) -> dict:
    """Parse ``"a=0.3,b=0.7"`` into ``{"a": 0.3, "b": 0.7}``."""
    result = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise argparse.ArgumentTypeError(
                f"expected key=value pairs separated by commas, got {chunk!r}"
            )
        key, value = chunk.split("=", 1)
        result[key.strip()] = value_type(value.strip())
    if not result:
        raise argparse.ArgumentTypeError("expected at least one key=value pair")
    return result


def _parse_float_list(text: str) -> list[float]:
    return [float(chunk) for chunk in text.split(",") if chunk.strip()]


def _add_engine_arguments(parser: argparse.ArgumentParser, workers: bool = True) -> None:
    """The shared engine knobs: every simulating subcommand gets the same set.

    ``--engine`` deliberately has no argparse ``choices``: unknown names are
    resolved (and rejected, with a closest-match suggestion) by the engine
    registry, so third-party engines registered at import time are usable
    from the shell without touching this module.
    """
    parser.add_argument(
        "--engine",
        default="direct",
        help="simulation engine: " + ", ".join(registry.names())
        + " (default: direct; 'batch-direct' advances all trials in "
        "lock-step vectorized steps)",
    )
    if workers:
        parser.add_argument(
            "--workers", type=int, default=1,
            help="shard trials across N worker processes (default 1)",
        )
        parser.add_argument(
            "--chunk-size", type=int, default=512, metavar="N",
            help="trials per chunk of the seeded schedule (default 512): "
                 "results depend on it, never on --workers; batch-direct "
                 "sweeps a chunk wider than its group cap (e.g. 1e5-1e6) "
                 "alone, in one pass",
        )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "numpy", "numba"],
        help="simulation-kernel backend (default auto: fastest available the "
             "engine supports; 'numba' JIT-compiles the kernels and falls back "
             "to numpy when numba is not installed, and cannot run stopping "
             "conditions without a clause encoding — see the backends column "
             "of 'repro engines')",
    )
    parser.add_argument(
        "--tau-epsilon", type=float, default=None, metavar="EPS",
        help="tau-leaping error-control parameter (requires --engine tau-leaping; "
             "default 0.03)",
    )
    parser.add_argument(
        "--tau-n-critical", type=int, default=None, metavar="N",
        help="tau-leaping critical-reaction threshold (requires --engine "
             "tau-leaping; default 10)",
    )
    parser.add_argument(
        "--fsp-max-states", type=int, default=None, metavar="N",
        help="finite-state-projection state budget (requires --engine fsp; "
             "default 200000)",
    )
    parser.add_argument(
        "--fsp-tolerance", type=float, default=None, metavar="EPS",
        help="acceptable FSP truncation-error bound (requires --engine fsp; "
             "default 1e-6)",
    )


def _add_adaptive_arguments(parser: argparse.ArgumentParser) -> None:
    """Adaptive stopping flags (``Experiment.simulate(until=...)``)."""
    group = parser.add_argument_group(
        "adaptive stopping",
        "run until a declared precision is reached instead of a fixed --trials "
        "budget (requires --seed; --trials is ignored)",
    )
    group.add_argument(
        "--until-ci-halfwidth", type=float, default=None, metavar="W",
        help="stop when the Wilson CI half-width on the --until-outcome "
             "probability is <= W",
    )
    group.add_argument(
        "--until-rel-se", type=float, default=None, metavar="R",
        help="stop when the relative standard error of the --until-species "
             "mean final count is <= R",
    )
    group.add_argument(
        "--until-outcome", default=None, metavar="LABEL",
        help="outcome label for --until-ci-halfwidth / --splitting-trials",
    )
    group.add_argument(
        "--until-species", default=None, metavar="NAME",
        help="species whose mean --until-rel-se bounds",
    )
    group.add_argument(
        "--until-confidence", type=float, default=0.95, metavar="C",
        help="confidence level for adaptive intervals (default 0.95)",
    )
    group.add_argument(
        "--until-max-trials", type=int, default=None, metavar="N",
        help="realized-trial ceiling for adaptive sampling (default 100000)",
    )
    group.add_argument(
        "--splitting-trials", type=int, default=None, metavar="N",
        help="estimate the --until-outcome deep-tail probability by "
             "importance splitting with N trajectories per level",
    )
    group.add_argument(
        "--splitting-levels", type=int, default=None, metavar="N",
        help="number of intermediate splitting levels (default: one per "
             "integer score step; requires --splitting-trials)",
    )


def _until_from(args):
    """Build the ``until=`` argument from the adaptive CLI flags (or None)."""
    from repro.adaptive import (
        DEFAULT_MAX_TRIALS,
        CiHalfWidthTarget,
        RelativeSETarget,
        SplittingConfig,
    )

    half_width = getattr(args, "until_ci_halfwidth", None)
    rel_se = getattr(args, "until_rel_se", None)
    splitting_trials = getattr(args, "splitting_trials", None)
    selected = [
        flag
        for flag, value in (
            ("--until-ci-halfwidth", half_width),
            ("--until-rel-se", rel_se),
            ("--splitting-trials", splitting_trials),
        )
        if value is not None
    ]
    if len(selected) > 1:
        raise argparse.ArgumentTypeError(
            f"{' and '.join(selected)} are mutually exclusive — pick one "
            "adaptive stopping rule"
        )
    if not selected:
        if getattr(args, "splitting_levels", None) is not None:
            raise argparse.ArgumentTypeError(
                "--splitting-levels requires --splitting-trials"
            )
        return None
    max_trials = getattr(args, "until_max_trials", None)
    if half_width is not None:
        if not getattr(args, "until_outcome", None):
            raise argparse.ArgumentTypeError(
                "--until-ci-halfwidth requires --until-outcome LABEL"
            )
        return CiHalfWidthTarget(
            outcome=args.until_outcome,
            half_width=half_width,
            confidence=args.until_confidence,
            max_trials=max_trials if max_trials is not None else DEFAULT_MAX_TRIALS,
        )
    if rel_se is not None:
        if not getattr(args, "until_species", None):
            raise argparse.ArgumentTypeError(
                "--until-rel-se requires --until-species NAME"
            )
        return RelativeSETarget(
            species=args.until_species,
            rel_se=rel_se,
            max_trials=max_trials if max_trials is not None else DEFAULT_MAX_TRIALS,
        )
    if not getattr(args, "until_outcome", None):
        raise argparse.ArgumentTypeError(
            "--splitting-trials requires --until-outcome LABEL"
        )
    return SplittingConfig(
        outcome=args.until_outcome,
        trials_per_level=splitting_trials,
        n_levels=getattr(args, "splitting_levels", None),
        confidence=args.until_confidence,
    )


def _add_store_argument(parser: argparse.ArgumentParser) -> None:
    """``--store`` for subcommands that execute through ``Experiment.simulate``."""
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory: an identical run is "
             "served from cache instead of re-simulated (see 'repro serve')",
    )


def _engine_options_from(args) -> "TauLeapOptions | FspOptions | None":
    """Build the typed ``engine_options`` payload from the CLI flags."""
    epsilon = getattr(args, "tau_epsilon", None)
    n_critical = getattr(args, "tau_n_critical", None)
    fsp_max_states = getattr(args, "fsp_max_states", None)
    fsp_tolerance = getattr(args, "fsp_tolerance", None)
    if (epsilon is not None or n_critical is not None) and args.engine != "tau-leaping":
        raise argparse.ArgumentTypeError(
            "--tau-epsilon/--tau-n-critical require --engine tau-leaping "
            f"(got --engine {args.engine})"
        )
    if (fsp_max_states is not None or fsp_tolerance is not None) and args.engine != "fsp":
        raise argparse.ArgumentTypeError(
            "--fsp-max-states/--fsp-tolerance require --engine fsp "
            f"(got --engine {args.engine})"
        )
    if epsilon is not None or n_critical is not None:
        defaults = TauLeapOptions()
        return TauLeapOptions(
            epsilon=epsilon if epsilon is not None else defaults.epsilon,
            critical_threshold=(
                n_critical if n_critical is not None else defaults.critical_threshold
            ),
        )
    if fsp_max_states is not None or fsp_tolerance is not None:
        fsp_defaults = FspOptions()
        return FspOptions(
            max_states=(
                fsp_max_states if fsp_max_states is not None else fsp_defaults.max_states
            ),
            tolerance=(
                fsp_tolerance if fsp_tolerance is not None else fsp_defaults.tolerance
            ),
        )
    return None


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synthesizing Stochasticity in Biochemical Systems (DAC 2007) — "
        "reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    synth = subparsers.add_parser(
        "synthesize", help="synthesize a CRN realizing a probability distribution"
    )
    synth.add_argument("--probabilities", required=True,
                       help='target distribution, e.g. "a=0.3,b=0.7"')
    synth.add_argument("--gamma", type=float, default=1e3,
                       help="rate separation factor (default 1e3)")
    synth.add_argument("--scale", type=int, default=100,
                       help="total input-molecule budget (default 100)")
    synth.add_argument("-o", "--output", help="write the design to this JSON file")
    synth.add_argument("--pretty", action="store_true",
                       help="print the full reaction listing")

    sim = subparsers.add_parser("simulate", help="Monte-Carlo simulate a saved design")
    sim.add_argument("network", help="JSON file produced by 'repro synthesize'")
    sim.add_argument("--trials", type=int, default=500)
    sim.add_argument("--seed", type=int, default=2007)
    sim.add_argument("--working-firings", type=int, default=10,
                     help="working firings that declare an outcome (default 10)")
    _add_engine_arguments(sim)
    _add_adaptive_arguments(sim)
    _add_store_argument(sim)

    settle = subparsers.add_parser(
        "settle", help="run a deterministic functional module to completion"
    )
    settle.add_argument("--module", required=True,
                        choices=["linear", "exponentiation", "logarithm", "power",
                                 "isolation", "polynomial"])
    settle.add_argument("--inputs", default="",
                        help='input quantities by role, e.g. "x=8" or "x=3,p=2"')
    settle.add_argument("--alpha", type=int, default=1, help="linear module alpha")
    settle.add_argument("--beta", type=int, default=1, help="linear module beta")
    settle.add_argument("--coefficients", default="0,1",
                        help="polynomial coefficients, constant first (default 0,1)")
    settle.add_argument("--seed", type=int, default=1)
    _add_engine_arguments(settle, workers=False)

    engines = subparsers.add_parser(
        "engines", help="list the registered simulation engines and capabilities"
    )
    engines.add_argument("--verbose", action="store_true",
                         help="include the one-line engine descriptions")

    models = subparsers.add_parser(
        "models",
        help="list, inspect and validate the model zoo and conformance corpus",
    )
    models.add_argument("--show", metavar="NAME", default=None,
                        help="print one model's canonical YAML document and its "
                             "reaction listing instead of the overview table")
    models.add_argument("--validate", action="store_true",
                        help="schema-check every zoo document, verify "
                             "serialization round trips, run structural network "
                             "validation and the generator determinism smoke; "
                             "exits non-zero on any failure")

    fig3 = subparsers.add_parser("figure3", help="reproduce Figure 3 (error vs gamma)")
    fig3.add_argument("--gammas", default="1,10,100,1000")
    fig3.add_argument("--trials", type=int, default=500)
    fig3.add_argument("--seed", type=int, default=1977)
    _add_engine_arguments(fig3, workers=False)

    fig5 = subparsers.add_parser("figure5", help="reproduce Figure 5 (lambda response)")
    fig5.add_argument("--moi", default="1,2,4,6,8,10")
    fig5.add_argument("--trials", type=int, default=100)
    fig5.add_argument("--seed", type=int, default=2007)
    fig5.add_argument("--skip-natural", action="store_true")
    fig5.add_argument("--skip-synthetic", action="store_true")
    _add_engine_arguments(fig5, workers=False)

    ex1 = subparsers.add_parser("example1", help="run the paper's Example 1 end to end")
    ex1.add_argument("--trials", type=int, default=500)
    ex1.add_argument("--seed", type=int, default=2007)
    _add_engine_arguments(ex1)
    _add_adaptive_arguments(ex1)
    _add_store_argument(ex1)

    ex2 = subparsers.add_parser("example2", help="run the paper's Example 2 end to end")
    ex2.add_argument("--trials", type=int, default=300)
    ex2.add_argument("--x1", type=int, default=5)
    ex2.add_argument("--x2", type=int, default=4)
    ex2.add_argument("--seed", type=int, default=2007)
    _add_engine_arguments(ex2)
    _add_adaptive_arguments(ex2)
    _add_store_argument(ex2)

    srv = subparsers.add_parser(
        "serve",
        help="serve simulations over HTTP from a content-addressed result store",
    )
    srv.add_argument("--store", default="repro-store", metavar="DIR",
                     help="result-store directory (default ./repro-store)")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8080,
                     help="listen port; 0 picks an ephemeral port and prints it "
                          "(default 8080)")
    srv.add_argument("--workers", type=int, default=1,
                     help="ensemble worker processes per cache-miss simulation "
                          "(default 1)")
    srv.add_argument("--quiet", action="store_true",
                     help="suppress per-request access logging")

    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_synthesize(args) -> int:
    probabilities = _parse_mapping(args.probabilities)
    system = Experiment.from_distribution(
        probabilities, gamma=args.gamma, scale=args.scale
    ).system
    print(system.describe())
    if args.pretty:
        print()
        print(system.network.pretty())
    if args.output:
        path = save_network(system.network, args.output)
        print(f"\ndesign written to {path}")
    return 0


def _cmd_simulate(args) -> int:
    network = load_network(args.network)
    result = (
        Experiment.from_network(
            network, stopping=CategoryFiringCondition("working", args.working_firings)
        )
        .simulate(
            trials=args.trials,
            engine=args.engine,
            workers=args.workers,
            seed=args.seed,
            engine_options=_engine_options_from(args),
            backend=args.backend,
            chunk_size=args.chunk_size,
            store=args.store,
            until=_until_from(args),
        )
    )
    if getattr(result, "adaptive", None) is not None:
        # Adaptive runs report the stopping record (and the splitting
        # estimate, when applicable) through the result's own summary.
        print(result.summary())
        return 0
    if result.exact is not None:
        # Exact solves have no sampled ensemble; print the exact header
        # (solver scale + probabilities) instead of fabricated trial counts.
        print(result.summary())
    else:
        print(result.ensemble.summary())
        distribution = result.frequencies
        if distribution:
            rows = [{"outcome": k, "frequency": v} for k, v in distribution.items()]
            print()
            print(format_table(rows, floatfmt="{:.4f}"))
    return 0


def _cmd_settle(args) -> int:
    inputs = _parse_mapping(args.inputs, value_type=int) if args.inputs else {}
    if args.module == "linear":
        module = linear_module(alpha=args.alpha, beta=args.beta)
    elif args.module == "exponentiation":
        module = exponentiation_module()
    elif args.module == "logarithm":
        module = logarithm_module()
    elif args.module == "power":
        module = power_module()
    elif args.module == "isolation":
        module = isolation_module()
    else:
        coefficients = [int(c) for c in args.coefficients.split(",")]
        module = polynomial_module(coefficients)
    result = settle_module(
        module,
        inputs,
        seed=args.seed,
        engine=args.engine,
        engine_options=_engine_options_from(args),
        backend=args.backend,
    )
    print(f"module      : {module.name}   ({module.description})")
    print(f"inputs      : {inputs}")
    print(f"outputs     : {result.outputs}")
    if module.expected is not None:
        print(f"ideal       : {module.expected_outputs(inputs)}")
    print(f"firings     : {result.n_firings}   stop: {result.stop_reason}")
    return 0


def _cmd_engines(args) -> int:
    from repro.sim.kernels.backend import BACKEND_NAMES, available_backends

    # An engine may *declare* a backend this environment cannot load (numba
    # without the numba package); mark those so the table reports what will
    # actually run, not just what the engine supports.
    usable = set(available_backends())
    missing = set()
    rows = []
    for row in registry.capability_matrix():
        flags = {
            key: ("yes" if row[key] else "-")
            for key in (
                "exact", "approximate", "batched", "events", "deterministic",
                "distribution",
            )
        }
        declared = [name.strip() for name in row["backends"].split(",") if name.strip()]
        shown = []
        for name in declared:
            if name in usable or name not in BACKEND_NAMES:
                shown.append(name)
            else:
                shown.append(name + "*")
                missing.add(name)
        table_row = {
            "engine": row["engine"],
            **flags,
            "backends": ", ".join(shown) if shown else row["backends"],
            "options": row["options"],
        }
        if args.verbose:
            table_row["summary"] = row["summary"]
        rows.append(table_row)
    print(format_table(rows, title="Registered simulation engines"))
    for name in sorted(missing):
        print(
            f"* {name}: declared but not available in this environment "
            f"(requests fall back to numpy)"
        )
    return 0


def _cmd_models(args) -> int:
    from repro.crn import model_from_yaml, model_to_yaml
    from repro.crn.validate import validate_network
    from repro.zoo import load_model, models_dir, zoo_names
    from repro.zoo.corpus import GENERATED_PRESETS, corpus_entries, generate_model

    if args.show is not None:
        model = load_model(args.show)
        print(model_to_yaml(model), end="")
        print()
        print(model.network().pretty())
        return 0

    if args.validate:
        failures = 0
        for name in zoo_names():
            problems = []
            try:
                model = load_model(name)
                if model_from_yaml(model_to_yaml(model)) != model:
                    problems.append("serialization round trip is not identity")
                report = validate_network(model.network())
                problems.extend(report.errors)
                if model.conformance.enroll and not model.outcomes:
                    problems.append("enrolled but declares no outcomes")
            except ReproError as error:
                problems.append(str(error))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            failures += bool(problems)
            print(f"  zoo       {name:30s} {status}")
        for config, seed in GENERATED_PRESETS:
            model = generate_model(config, seed)
            problems = []
            if generate_model(config, seed) != model:
                problems.append("generator is not seed-deterministic")
            if model_from_yaml(model_to_yaml(model)) != model:
                problems.append("serialization round trip is not identity")
            problems.extend(validate_network(model.network()).errors)
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            failures += bool(problems)
            print(f"  generated {model.name:30s} {status}")
        print()
        if failures:
            print(f"{failures} model(s) failed validation")
            return 1
        print("all models valid")
        return 0

    from repro.zoo.corpus import trial_budget

    def model_budget(model) -> "int | str":
        """The conformance trial budget, from the model's own FSP oracle."""
        if not (model.conformance.enroll and model.conformance.fsp_tractable):
            return "-"
        exact = model.experiment().simulate(
            engine="fsp", engine_options=model.fsp_options()
        )
        return trial_budget(
            exact.exact,
            min_expected=model.conformance.min_expected,
            max_trials=model.conformance.max_trials,
        )

    rows = []
    for entry in corpus_entries():
        model = entry.model
        rows.append({
            "model": entry.name,
            "source": entry.source,
            "species": len(model.species),
            "reactions": len(model.reactions),
            "outcomes": len(model.outcomes),
            "enrolled": "yes" if model.conformance.enroll else "-",
            "fsp": "yes" if model.conformance.fsp_tractable else "-",
            "budget": model_budget(model),
        })
    corpus_set = {entry.name for entry in corpus_entries()}
    for name in zoo_names():
        if name in corpus_set:
            continue
        model = load_model(name)
        rows.append({
            "model": name,
            "source": "zoo",
            "species": len(model.species),
            "reactions": len(model.reactions),
            "outcomes": len(model.outcomes),
            "enrolled": "yes" if model.conformance.enroll else "-",
            "fsp": "yes" if model.conformance.fsp_tractable else "-",
            "budget": model_budget(model),
        })
    print(format_table(rows, title=f"Model zoo ({models_dir()})"))
    return 0


def _cmd_figure3(args) -> int:
    gammas = _parse_float_list(args.gammas)
    points = gamma_sweep(
        gammas,
        n_trials=args.trials,
        seed=args.seed,
        engine=args.engine,
        engine_options=_engine_options_from(args),
        backend=args.backend,
    )
    rows = [
        {
            "gamma": point.gamma,
            "trials": point.estimate.n_trials,
            "errors": point.estimate.n_errors,
            "error %": point.estimate.error_percent,
        }
        for point in points
    ]
    print(format_table(rows, floatfmt="{:.3g}",
                       title="Figure 3: stochastic-module error vs rate separation"))
    return 0


def _cmd_figure5(args) -> int:
    from repro.lambda_phage import run_figure5_experiment

    moi_values = [int(m) for m in _parse_float_list(args.moi)]
    result = run_figure5_experiment(
        moi_values=moi_values,
        n_trials=args.trials,
        seed=args.seed,
        include_natural=not args.skip_natural,
        include_synthetic=not args.skip_synthetic,
        engine=args.engine,
        engine_options=_engine_options_from(args),
        backend=args.backend,
    )
    print(result.summary())
    return 0


def _cmd_example1(args) -> int:
    experiment = Experiment.from_distribution(
        {"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100
    )
    print(experiment.system.describe())
    result = experiment.simulate(
        trials=args.trials,
        engine=args.engine,
        workers=args.workers,
        seed=args.seed,
        engine_options=_engine_options_from(args),
        backend=args.backend,
        chunk_size=args.chunk_size,
        store=args.store,
        until=_until_from(args),
    )
    print()
    print(result.summary())
    return 0


def _cmd_example2(args) -> int:
    spec = AffineResponseSpec(
        base={"1": 0.3, "2": 0.4, "3": 0.3},
        slopes={"1": {"x1": 0.02, "x2": -0.03}, "2": {"x2": 0.03}, "3": {"x1": -0.02}},
    )
    experiment = Experiment.from_affine_response(spec, gamma=1e3, scale=100)
    print(experiment.system.describe())
    result = experiment.program({"x1": args.x1, "x2": args.x2}).simulate(
        trials=args.trials,
        engine=args.engine,
        workers=args.workers,
        seed=args.seed,
        engine_options=_engine_options_from(args),
        backend=args.backend,
        chunk_size=args.chunk_size,
        store=args.store,
        until=_until_from(args),
    )
    print()
    print(f"inputs: X1={args.x1}, X2={args.x2}")
    print(result.summary())
    return 0


def _cmd_serve(args) -> int:
    from repro.service import serve

    serve(
        args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        quiet=args.quiet,
    )
    return 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "simulate": _cmd_simulate,
    "settle": _cmd_settle,
    "engines": _cmd_engines,
    "models": _cmd_models,
    "serve": _cmd_serve,
    "figure3": _cmd_figure3,
    "figure5": _cmd_figure5,
    "example1": _cmd_example1,
    "example2": _cmd_example2,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except (argparse.ArgumentTypeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
