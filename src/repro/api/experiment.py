"""The fluent design → simulate → analyze facade.

The paper's framework (Figure 1) is a pipeline: a target distribution is
compiled into reactions, the reactions are simulated stochastically, and the
outcome statistics are compared with the target.  :class:`Experiment` exposes
that pipeline as one fluent chain over every entry point the library has::

    from repro.api import Experiment

    result = (
        Experiment.from_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3)
        .simulate(trials=2000, engine="batch-direct", workers=4, seed=7)
    )
    print(result.frequencies, result.distances())

    settled = (
        Experiment.from_module(logarithm_module())
        .program({"x": 16})
        .simulate(trials=50, engine="batch-direct")
        .output_summary("y")
    )

Every fluent method returns a *new* experiment (the builder is immutable), so
partially-configured experiments can be shared and forked freely — a sweep
can hold one base experiment and ``.program()`` each grid point.  Execution
always flows through the capability-aware engine registry
(:mod:`repro.sim.registry`), so third-party engines and typed
``engine_options`` work everywhere the facade does.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.core.modules.base import FunctionalModule
from repro.core.runtime import default_horizon
from repro.core.synthesizer import (
    SynthesizedSystem,
    synthesize_affine_response,
    synthesize_distribution,
)
from repro.crn.network import ReactionNetwork
from repro.errors import ExperimentError, FingerprintError
from repro.sim.base import SimulationOptions, merge_options
from repro.sim.ensemble import EnsembleResult, ParallelEnsembleRunner
from repro.sim.events import StoppingCondition
from repro.sim.outcomes import apportion
from repro.api.results import RunResult

__all__ = ["Experiment"]

#: max_steps safety bound used when settling modules (settle_module's default).
_MODULE_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class Experiment:
    """An immutable, fluent experiment description.

    Build one with a ``from_*`` constructor, refine it with the fluent
    methods (each returns a new experiment), and execute it with
    :meth:`simulate`, which returns a :class:`~repro.api.results.RunResult`.

    The three experiment kinds:

    * **system** — a :class:`~repro.core.synthesizer.SynthesizedSystem`
      (``from_distribution`` / ``from_affine_response`` / ``from_system``):
      stopping condition, outcome classifier and target distribution are
      derived from the design; ``program()`` sets external input quantities.
    * **module** — a deterministic :class:`FunctionalModule`
      (``from_module``): trials settle the module under its time horizon;
      results expose ``output_summary()``.
    * **network** — a raw :class:`~repro.crn.network.ReactionNetwork`
      (``from_network``): bring your own stopping condition / classifier /
      target.
    """

    system: "SynthesizedSystem | None" = None
    module: "FunctionalModule | None" = None
    network: "ReactionNetwork | None" = None
    inputs: "tuple[tuple[str, int], ...]" = ()
    stopping: "StoppingCondition | None" = None
    classifier: "Callable | None" = None
    state_classifier: "Callable | None" = None
    options: "SimulationOptions | None" = None
    target: "dict[str, float] | None" = None
    n_working_firings: int = 10
    horizon: "float | None" = None
    label: str = "experiment"

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_distribution(
        cls,
        distribution,
        gamma: float = 1e3,
        scale: int = 100,
        **synthesis_kwargs: Any,
    ) -> "Experiment":
        """Design a stochastic module realizing a target distribution (Example 1).

        ``distribution`` and the keyword arguments are those of
        :func:`repro.core.synthesizer.synthesize_distribution`.
        """
        system = synthesize_distribution(
            distribution, gamma=gamma, scale=scale, **synthesis_kwargs
        )
        return cls.from_system(system)

    @classmethod
    def from_affine_response(
        cls,
        affine,
        gamma: float = 1e3,
        scale: int = 100,
        **synthesis_kwargs: Any,
    ) -> "Experiment":
        """Design a programmable affine response (Example 2); program inputs later."""
        system = synthesize_affine_response(
            affine, gamma=gamma, scale=scale, **synthesis_kwargs
        )
        return cls.from_system(system)

    @classmethod
    def from_system(cls, system: SynthesizedSystem) -> "Experiment":
        """Wrap an already-synthesized system."""
        return cls(system=system, label=system.network.name)

    @classmethod
    def from_module(
        cls, module: FunctionalModule, horizon: "float | None" = None
    ) -> "Experiment":
        """Settle a deterministic functional module (Section 2.2).

        ``horizon`` bounds the simulated time (default:
        :func:`repro.core.runtime.default_horizon`, generous enough for every
        module in the paper — some modules idle forever on catalytic
        triggers, so an unbounded run would never return).
        """
        return cls(module=module, horizon=horizon, label=f"module[{module.name}]")

    @classmethod
    def from_network(
        cls,
        network: ReactionNetwork,
        stopping: "StoppingCondition | None" = None,
        classifier: "Callable | None" = None,
        target: "Mapping[str, float] | None" = None,
    ) -> "Experiment":
        """Simulate a raw reaction network with caller-supplied semantics."""
        return cls(
            network=network,
            stopping=stopping,
            classifier=classifier,
            target=dict(target) if target is not None else None,
            label=getattr(network, "name", "network") or "network",
        )

    @classmethod
    def from_zoo(cls, name: str) -> "Experiment":
        """Load a model-zoo entry by name as an experiment-ready instance.

        Zoo models live in ``models/*.yaml`` (see :mod:`repro.zoo`); the
        document's outcome thresholds become the stopping condition and the
        FSP state classifier, so the returned experiment runs unchanged on
        every engine, sampling or exact::

            >>> Experiment.from_zoo("polya-urn").simulate(engine="fsp").exact
            {'first': 0.5..., 'second': 0.4...}
        """
        from repro.zoo import load_model

        return load_model(name).experiment()

    # -- fluent refinement -------------------------------------------------------

    def _replace(self, **changes: Any) -> "Experiment":
        return dataclasses.replace(self, **changes)

    def program(self, inputs: "Mapping[str, int]") -> "Experiment":
        """Set input quantities (merged over any previously programmed ones).

        For systems these are the external inputs of the affine response (or
        any species name); for modules, the input-port quantities by role
        (``{"x": 16}``); for raw networks, initial quantities of existing
        species.
        """
        merged = {**dict(self.inputs), **{str(k): int(v) for k, v in inputs.items()}}
        return self._replace(inputs=tuple(sorted(merged.items())))

    def stop_when(self, stopping: StoppingCondition) -> "Experiment":
        """Override the stopping condition applied to every trial."""
        return self._replace(stopping=stopping)

    def classify_with(self, classifier: Callable) -> "Experiment":
        """Override the trajectory → outcome-label classifier."""
        return self._replace(classifier=classifier)

    def classify_states(self, classifier: Callable) -> "Experiment":
        """Set the *state* → outcome-label classifier used by exact engines.

        Distribution-computing engines (``engine="fsp"``) work on CTMC states,
        not trajectories: the classifier receives a ``{species name: count}``
        dictionary and returns an outcome label (the state becomes absorbing)
        or ``None``.  System experiments derive one automatically (the first
        catalyst produced names the outcome); raw-network experiments must set
        it explicitly unless the network's metadata records an outcome map.
        """
        return self._replace(state_classifier=classifier)

    def declare_after(self, working_firings: int) -> "Experiment":
        """Working firings needed to declare an outcome (system experiments).

        The paper's convention is 10 (Section 2.1.3).
        """
        if working_firings <= 0:
            raise ExperimentError(
                f"working_firings must be positive, got {working_firings}"
            )
        return self._replace(n_working_firings=int(working_firings))

    def with_options(self, options: SimulationOptions) -> "Experiment":
        """Replace the per-trial :class:`SimulationOptions` wholesale."""
        return self._replace(options=options)

    def configure(self, **option_fields: Any) -> "Experiment":
        """Override individual :class:`SimulationOptions` fields fluently.

        Unknown field names raise (via :func:`repro.sim.base.merge_options`)
        instead of being silently dropped.
        """
        return self._replace(
            options=merge_options(self._resolved_options(), option_fields)
        )

    def targeting(self, target: "Mapping[str, float]") -> "Experiment":
        """Attach a reference distribution (for raw-network experiments)."""
        return self._replace(target=dict(target))

    def named(self, label: str) -> "Experiment":
        """Set the experiment's human-readable label."""
        return self._replace(label=str(label))

    def renamed(self, mapping: "Mapping[str, str]") -> "Experiment":
        """Rename species across the whole experiment (network kind only).

        Applies ``mapping`` to the network *and* to every species reference
        the experiment carries — stopping-condition descriptors, classifier
        catalyst maps, state-classifier thresholds, programmed inputs.
        Outcome labels are left untouched (including defaulted
        species-threshold labels, which keep embedding the *old* species
        name): labels are semantic identity, and preserving them means a
        renamed experiment stays in the same isomorphism class as the
        original — ``simulate(store=...)`` warm-hits the original's cached
        result (:mod:`repro.store.canonical`).

        Every species reference is renamed on its store descriptor, as
        :mod:`repro.store.canonical` renames payloads, and the object is
        rebuilt from the renamed descriptor.  Renaming is injective
        (:class:`~repro.errors.NetworkError` on colliding targets, like
        :meth:`ReactionNetwork.renamed`); system and module experiments, and
        callable classifiers, raise :class:`~repro.errors.ExperimentError` —
        an opaque callable reads the original species names and cannot be
        relabeled declaratively.
        """
        if self.network is None:
            raise ExperimentError(
                "renamed() applies to network experiments only (system and "
                "module experiments derive their semantics from internal "
                "species names); extract the network first"
            )
        from repro.sim.events import condition_from_descriptor
        from repro.store import canonical, serialize

        rename = {str(k): str(v) for k, v in mapping.items()}
        network = self.network.renamed(rename)

        stopping = self.stopping
        if stopping is not None:
            try:
                descriptor = stopping.to_descriptor()
            except AttributeError as exc:
                raise ExperimentError(
                    f"stopping condition {stopping!r} cannot be renamed: it "
                    "has no declarative descriptor (to_descriptor)"
                ) from exc
            stopping = condition_from_descriptor(
                canonical._rename_stopping(descriptor, rename)
            )

        classifier, state_classifier = self.classifier, self.state_classifier
        try:
            if classifier is not None:
                classifier = serialize._classifier_from_descriptor(
                    canonical._rename_classifier(
                        serialize._classifier_descriptor(classifier), rename
                    )
                )
            if state_classifier is not None:
                state_classifier = serialize._state_classifier_from_descriptor(
                    canonical._rename_state_classifier(
                        serialize._state_classifier_descriptor(state_classifier), rename
                    )
                )
        except FingerprintError as exc:
            raise ExperimentError(
                f"cannot rename a callable classifier, which reads the original "
                f"species names; use WorkingOutcomeClassifier / a declarative "
                f"state classifier, or clear it first ({exc})"
            ) from exc

        inputs = tuple(
            sorted((rename.get(species, species), count) for species, count in self.inputs)
        )
        return self._replace(
            network=network,
            stopping=stopping,
            classifier=classifier,
            state_classifier=state_classifier,
            inputs=inputs,
        )

    # -- resolution --------------------------------------------------------------

    def _default_options(self) -> SimulationOptions:
        if self.module is not None:
            return SimulationOptions(
                max_time=(
                    self.horizon
                    if self.horizon is not None
                    else default_horizon(self.module)
                ),
                max_steps=_MODULE_MAX_STEPS,
                record_firings=False,
            )
        return SimulationOptions(record_firings=False)

    def _resolved_options(self, backend: str = "auto") -> SimulationOptions:
        """The per-trial options, with a non-``"auto"`` ``backend`` applied."""
        options = self.options or self._default_options()
        if backend != "auto":
            options = merge_options(options, {"backend": backend})
        return options

    def _output_ports(self) -> "tuple[dict | None, dict | None]":
        """``(outputs, expected_outputs)`` of a module experiment, else ``None``s."""
        if self.module is None:
            return None, None
        expected = None
        if self.module.expected is not None:
            expected = {
                role: float(value)
                for role, value in self.module.expected_outputs(dict(self.inputs)).items()
            }
        return dict(self.module.outputs), expected

    def _resolved(self) -> "tuple[ReactionNetwork, StoppingCondition | None, Callable | None]":
        """Materialize (network, stopping, classifier) with inputs applied."""
        inputs = dict(self.inputs)
        if self.system is not None:
            network = self.system.network_with_inputs(inputs or None)
            stopping = self.stopping or self.system.stopping_condition(
                self.n_working_firings
            )
            classifier = self.classifier or self.system.outcome_classifier()
            return network, stopping, classifier
        if self.module is not None:
            prepared = self.module.with_input_quantities(inputs)
            return prepared.network, self.stopping, self.classifier
        if self.network is not None:
            network = self.network
            if inputs:
                network = network.copy()
                for species, count in inputs.items():
                    if not network.has_species(species):
                        raise ExperimentError(
                            f"programmed species {species!r} is not part of the network"
                        )
                    network.set_initial(species, int(count))
            return network, self.stopping, self.classifier
        raise ExperimentError(
            "empty experiment; build one with Experiment.from_distribution / "
            "from_affine_response / from_system / from_module / from_network"
        )

    def _resolved_target(self) -> "dict[str, float] | None":
        if self.target is not None:
            return dict(self.target)
        if self.system is not None:
            return self.system.target_distribution(dict(self.inputs) or None)
        return None

    # -- execution ---------------------------------------------------------------

    def simulate(
        self,
        trials: int = 1000,
        engine: str = "direct",
        workers: int = 1,
        seed: "int | None" = None,
        engine_options: "Any | None" = None,
        keep_trajectories: bool = False,
        chunk_size: int = 512,
        backend: str = "auto",
        store: "Any | None" = None,
        until: "Any | None" = None,
    ) -> RunResult:
        """Run the Monte-Carlo ensemble and return a :class:`RunResult`.

        Parameters
        ----------
        trials:
            Number of independent trajectories.  Ignored when ``until=`` is
            set — the declared target decides how many trials run.
        engine:
            Engine name from the registry (``repro.sim.registry.registry``);
            ``"batch-direct"`` advances all trials in lock-step vectorized
            steps.
        workers:
            Shard trials across this many worker processes (``workers=1``
            runs the same chunked schedule inline; results are bit-identical
            across worker counts for a fixed ``seed`` and ``chunk_size``).
        seed:
            Random seed; trials derive independent streams from it.
        engine_options:
            Typed engine options (e.g.
            :class:`~repro.sim.tau_leaping.TauLeapOptions`).
        keep_trajectories:
            Keep the raw per-trial trajectories on the result.
        chunk_size:
            Trials per chunk of the ensemble schedule (default 512).  The
            chunk is the seeding unit — batched chunks are sub-seeded from
            their bounds — so results and store keys depend on it, never on
            ``workers``.  The batched engine sweeps consecutive chunks
            together (as many as fit a fixed cap of cross-trial matrix
            cells), so a small chunk costs it no sweep width; a chunk wider
            than that cap (10⁵–10⁶ trials) is swept alone, in one pass over
            buffers reused across chunks and adaptive rounds.
        backend:
            Simulation-kernel backend (``"auto"`` / ``"numpy"`` /
            ``"numba"``; see the ``backends`` column of
            ``repro engines``).  ``"auto"`` picks the fastest available
            backend the engine supports; seeded results are bit-identical
            between the ``numpy`` and ``numba`` backends.  Overrides the
            ``backend`` field of the experiment's
            :class:`~repro.sim.base.SimulationOptions` when not ``"auto"``.
        store:
            A :class:`~repro.store.ResultStore` (or its directory path).
            The experiment is canonically fingerprinted; a cache hit returns
            the persisted result *bit-identically* (its canonical JSON equals
            the cold run's) without simulating, a miss simulates the payload
            and persists (:func:`repro.store.canonical.cached_run`, the path
            the service and campaigns share).
            ``workers`` is not part of the fingerprint — results are
            worker-count invariant, so any sharding hits the same entry.
            Incompatible with ``keep_trajectories`` (trajectories are not
            persisted).
        until:
            Run *adaptively* instead of for a fixed trial count: a
            :class:`~repro.adaptive.targets.PrecisionTarget`
            (:class:`~repro.adaptive.CiHalfWidthTarget` /
            :class:`~repro.adaptive.RelativeSETarget` /
            :class:`~repro.adaptive.SprtTarget`) extends the worker-invariant
            chunk schedule until the declared precision is met, and a
            :class:`~repro.adaptive.SplittingConfig` estimates a deep-tail
            outcome probability by importance splitting.  Returns an
            :class:`~repro.adaptive.AdaptiveResult`.  Requires a seed
            (:class:`~repro.errors.AdaptiveError` otherwise), rejects
            ``keep_trajectories`` and distribution engines, and ignores
            ``trials``.  The store fingerprint hashes the *target*, not the
            realized trial count.

        Notes
        -----
        Distribution-computing engines (``engine="fsp"``) do not sample at
        all: the exact outcome distribution is computed by finite state
        projection and returned as a :class:`RunResult` whose ``exact``
        field carries the probabilities (``trials`` only scales the nominal
        outcome counts; ``workers`` / ``seed`` are ignored).
        """
        if until is not None:
            self._check_adaptive_arguments(
                until, engine=engine, seed=seed, keep_trajectories=keep_trajectories
            )
        if store is not None:
            if keep_trajectories:
                raise ExperimentError(
                    "keep_trajectories=True cannot be combined with store=: "
                    "trajectories are not persisted, so a cache hit could not "
                    "return them"
                )
            from repro.store import ResultStore, experiment_to_payload
            from repro.store.canonical import cached_run

            payload = experiment_to_payload(
                self,
                trials=trials,
                engine=engine,
                seed=seed,
                chunk_size=chunk_size,
                backend=backend,
                engine_options=engine_options,
                until=until,
            )
            return cached_run(ResultStore.coerce(store), payload, workers=workers)[0]
        if until is not None:
            return self._execute_adaptive(
                until,
                engine=engine,
                workers=workers,
                seed=seed,
                engine_options=engine_options,
                chunk_size=chunk_size,
                backend=backend,
            )
        return self._execute(
            trials=trials,
            engine=engine,
            workers=workers,
            seed=seed,
            engine_options=engine_options,
            keep_trajectories=keep_trajectories,
            chunk_size=chunk_size,
            backend=backend,
        )

    def _check_adaptive_arguments(
        self,
        until: Any,
        engine: str,
        seed: "int | None",
        keep_trajectories: bool,
    ) -> None:
        """Reject ``until=`` combinations the adaptive estimators cannot honor."""
        from repro.adaptive.splitting import SplittingConfig
        from repro.adaptive.targets import PrecisionTarget
        from repro.errors import AdaptiveError
        from repro.sim.registry import registry

        if not isinstance(until, (PrecisionTarget, SplittingConfig)):
            raise AdaptiveError(
                f"until= must be a PrecisionTarget (CiHalfWidthTarget / "
                f"RelativeSETarget / SprtTarget) or a SplittingConfig, got "
                f"{type(until).__name__}"
            )
        if seed is None:
            raise AdaptiveError(
                "adaptive runs must be seeded: simulate(until=...) extends a "
                "deterministic chunk schedule, which seed=None does not define — "
                "pass an explicit seed"
            )
        if keep_trajectories:
            raise AdaptiveError(
                "keep_trajectories=True cannot be combined with until=: the "
                "realized trial count is decided by the stopping rule, so the "
                "trajectory list is unbounded and the result could not be "
                "cached — drop keep_trajectories or run a fixed trial budget"
            )
        info = registry.get(engine)
        if info.computes_distribution or info.deterministic:
            raise AdaptiveError(
                f"engine {engine!r} does not sample, so there is no precision "
                "to target adaptively; use simulate(engine='fsp') directly for "
                "exact probabilities"
            )
        if isinstance(until, SplittingConfig) and info.batched:
            raise AdaptiveError(
                f"importance splitting restarts individual trajectories from "
                f"level-crossing states, which the batched engine {engine!r} "
                "cannot do; use a per-trial engine (e.g. 'direct')"
            )

    def _execute_adaptive(
        self,
        until: Any,
        engine: str,
        workers: int,
        seed: int,
        engine_options: "Any | None",
        chunk_size: int,
        backend: str,
    ) -> RunResult:
        """The uncached ``until=`` path: precision sampling or splitting."""
        from repro.adaptive.controller import AdaptiveController
        from repro.adaptive.result import AdaptiveResult
        from repro.adaptive.splitting import SplittingConfig

        if isinstance(until, SplittingConfig):
            return self._execute_splitting(
                until,
                engine=engine,
                workers=workers,
                seed=seed,
                engine_options=engine_options,
                backend=backend,
            )

        network, stopping, classifier = self._resolved()
        options = self._resolved_options(backend)
        runner = ParallelEnsembleRunner(
            network,
            engine=engine,
            stopping=stopping,
            options=options,
            outcome_classifier=classifier,
            workers=workers,
            chunk_size=chunk_size,
            engine_options=engine_options,
        )
        ensemble, info = AdaptiveController(runner, until).run(seed)
        outputs, expected_outputs = self._output_ports()
        return AdaptiveResult(
            ensemble=ensemble,
            engine=engine,
            backend=options.backend,
            trials=ensemble.n_trials,
            seed=seed,
            workers=workers,
            inputs=dict(self.inputs),
            target=self._resolved_target(),
            outputs=outputs,
            expected_outputs=expected_outputs,
            label=self.label,
            adaptive=info,
        )

    def _execute_splitting(
        self,
        config,
        engine: str,
        workers: int,
        seed: int,
        engine_options: "Any | None",
        backend: str,
    ) -> RunResult:
        """Importance-splitting execution (sequential; ``workers`` recorded only)."""
        from repro.adaptive.result import AdaptiveInfo, AdaptiveResult
        from repro.adaptive.splitting import resolve_outcome_threshold, run_splitting
        from repro.sim.propensity import CompiledNetwork

        network, stopping, _classifier = self._resolved()
        state_classifier = None
        try:
            state_classifier = self._resolved_state_classifier(network)
        except ExperimentError:
            pass
        species, threshold = resolve_outcome_threshold(
            config.outcome, stopping, state_classifier
        )
        options = self._resolved_options(backend)
        estimate = run_splitting(
            network,
            config=config,
            species=species,
            threshold=threshold,
            stopping=stopping,
            seed=seed,
            engine=engine,
            options=options,
            engine_options=engine_options,
        )

        ensemble = _unsampled_ensemble(
            CompiledNetwork.compile(network), estimate.total_trials, {}
        )
        stages = len(estimate.stage_probabilities)
        info = AdaptiveInfo(
            rule=config.rule,
            until=config.to_descriptor(),
            chunks=stages,
            rounds=stages,
            met=estimate.estimate > 0.0,
            detail="estimated" if estimate.estimate > 0.0 else "extinct",
            achieved={
                "n": float(estimate.total_trials),
                "estimate": float(estimate.estimate),
                "ci_low": float(estimate.ci_low),
                "ci_high": float(estimate.ci_high),
            },
            rare=estimate.rare_payload(),
        )
        return AdaptiveResult(
            ensemble=ensemble,
            engine=engine,
            backend=options.backend,
            trials=estimate.total_trials,
            seed=seed,
            workers=workers,
            inputs=dict(self.inputs),
            target=self._resolved_target(),
            outputs=None,
            expected_outputs=None,
            label=self.label,
            adaptive=info,
        )

    def _execute(
        self,
        trials: int,
        engine: str,
        workers: int,
        seed: "int | None",
        engine_options: "Any | None",
        keep_trajectories: bool,
        chunk_size: int,
        backend: str,
    ) -> RunResult:
        """The uncached simulate path (see :meth:`simulate` for semantics)."""
        from repro.sim.registry import registry

        info = registry.get(engine)
        if info.computes_distribution:
            if backend != "auto":
                raise ExperimentError(
                    f"engine {engine!r} computes the exact distribution and has "
                    f"no kernel backends; drop backend={backend!r}"
                )
            return self._solve_exact(
                info, trials=trials, engine=engine, engine_options=engine_options
            )
        network, stopping, classifier = self._resolved()
        options = self._resolved_options(backend)
        # Always run the chunked schedule (inline when workers == 1): random
        # streams are keyed by chunk bounds and global trial indices, so a
        # fixed (seed, trials, chunk_size) gives bit-identical results at any
        # worker count — including between workers=1 and workers=2.
        runner = ParallelEnsembleRunner(
            network,
            engine=engine,
            stopping=stopping,
            options=options,
            outcome_classifier=classifier,
            workers=workers,
            chunk_size=chunk_size,
            engine_options=engine_options,
        )
        ensemble = runner.run(trials, seed=seed, keep_trajectories=keep_trajectories)
        outputs, expected_outputs = self._output_ports()
        return RunResult(
            ensemble=ensemble,
            engine=engine,
            backend=options.backend,
            trials=trials,
            seed=seed,
            workers=workers,
            inputs=dict(self.inputs),
            target=self._resolved_target(),
            outputs=outputs,
            expected_outputs=expected_outputs,
            label=self.label,
        )

    def _resolved_state_classifier(self, network: ReactionNetwork) -> Callable:
        """The state classifier an exact distribution engine should use.

        Resolution order: an explicit :meth:`classify_states` override; the
        synthesized system's catalyst-winner classifier; an outcome map
        recorded in the network's metadata (synthesized designs round-tripped
        through JSON keep it).  Module experiments and bare networks without
        metadata must set one explicitly.
        """
        from repro.sim.fsp import DominantSpeciesClassifier

        if self.state_classifier is not None:
            return self.state_classifier
        if self.system is not None:
            return self.system.state_classifier()
        outcomes = getattr(network, "metadata", {}).get("outcomes")
        if isinstance(outcomes, Mapping):
            catalysts = {
                str(label): str(info["catalyst"])
                for label, info in outcomes.items()
                if isinstance(info, Mapping) and "catalyst" in info
            }
            if catalysts:
                return DominantSpeciesClassifier(catalysts)
        raise ExperimentError(
            "exact distribution engines need a state classifier; set one with "
            ".classify_states(fn) mapping a {species: count} state to an "
            "outcome label (or None)"
        )

    def _solve_exact(
        self, info, trials: int, engine: str, engine_options: "Any | None"
    ) -> RunResult:
        """Compute the exact outcome distribution via a distribution engine."""
        network, _stopping, _classifier = self._resolved()
        classify = self._resolved_state_classifier(network)
        solver = info.create(network, engine_options=engine_options)
        absorption = solver.outcome_probabilities(classify)

        # Nominal outcome counts, summing to exactly `trials` decided+undecided.
        ensemble = _unsampled_ensemble(
            solver.compiled, trials, apportion(absorption.probabilities, trials)
        )
        return RunResult(
            ensemble=ensemble,
            engine=engine,
            trials=trials,
            seed=None,
            workers=1,
            inputs=dict(self.inputs),
            target=self._resolved_target(),
            outputs=None,
            expected_outputs=None,
            label=self.label,
            exact=dict(absorption.probabilities),
            exact_info={
                "n_states": float(absorption.n_states),
                "n_transient": float(absorption.n_transient),
                "truncation_error": float(absorption.truncation_error),
            },
        )

    def run_once(
        self,
        engine: str = "direct",
        seed: "int | None" = None,
        engine_options: "Any | None" = None,
        backend: str = "auto",
    ):
        """Simulate a single trajectory (no ensemble) and return it.

        Accepts any registered engine, including the deterministic ``"ode"``
        mean-field baseline that ensembles reject.  ``backend`` selects the
        simulation-kernel backend for engines that support one.
        """
        from repro.sim.ensemble import make_simulator
        from repro.sim.kernels.backend import validate_backend_request
        from repro.sim.registry import registry

        network, stopping, classifier = self._resolved()
        if backend != "auto":
            validate_backend_request(backend, registry.get(engine).backends, engine)
        simulator = make_simulator(
            network, engine=engine, seed=seed, engine_options=engine_options
        )
        return simulator.run(stopping=stopping, options=self._resolved_options(backend))


def _unsampled_ensemble(compiled, n_trials: int, outcome_counts: dict):
    """An ensemble of outcome counts only: no sampled trial columns.

    Exact solves and splitting estimates report a trial count without
    keeping any trial's final state.
    """
    return EnsembleResult(
        n_trials=n_trials,
        outcome_counts=outcome_counts,
        final_counts=np.empty((0, compiled.n_species), dtype=np.int64),
        species=compiled.species,
        final_times=np.empty(0, dtype=float),
        n_firings=np.empty(0, dtype=np.int64),
    )
