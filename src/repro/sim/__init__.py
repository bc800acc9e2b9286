"""Stochastic simulation substrate.

Exact SSA engines (Gillespie direct, first-reaction, Gibson–Bruck
next-reaction, and a vectorized batched direct method), approximate
tau-leaping, deterministic mean-field ODE integration, a sparse
finite-state-projection solver for exact distributions, stopping conditions,
trajectory records, and Monte-Carlo ensemble runners (sequential, batched
and multiprocess-sharded).

The exact engines execute on a pluggable kernel-backend layer
(:mod:`repro.sim.kernels`): preallocated columnar buffers, chunked random
blocks and compiled stopping plans, with an always-available ``numpy``
reference backend and an optional, bit-identical ``numba`` JIT backend —
selected via ``SimulationOptions.backend`` /
``Experiment.simulate(backend=...)`` / the CLI ``--backend`` flag.
"""

from repro.sim.base import (
    SimulationOptions,
    StochasticSimulator,
    merge_options,
    resolve_initial_counts,
)
from repro.sim.batch import BatchDirectEngine, BatchResult
from repro.sim.dependency import DependencyStats, dependency_graph, dependency_stats
from repro.sim.direct import DirectMethodSimulator
from repro.sim.ensemble import (
    EnsembleResult,
    ParallelEnsembleRunner,
    make_simulator,
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
)
from repro.sim.first_reaction import FirstReactionSimulator
from repro.sim.kernels import (
    KernelBackend,
    KernelNetwork,
    RandomBlocks,
    StoppingPlan,
    TrajectoryBuffers,
    available_backends,
    compile_stopping_plan,
    numba_available,
)
from repro.sim.fsp import (
    AbsorptionResult,
    DominantSpeciesClassifier,
    FspEngine,
    FspOptions,
    FspResult,
    StateSpace,
)
from repro.sim.next_reaction import NextReactionSimulator
from repro.sim.ode import OdeEngine, OdeIntegrator, OdeOptions, OdeResult, simulate_ode
from repro.sim.priority_queue import ArrayHeap
from repro.sim.registry import EngineInfo, EngineRegistry, register_engine, registry
from repro.sim.propensity import CompiledNetwork, combinations, reaction_propensity
from repro.sim.rng import derive_seed, make_rng, spawn_children_range
from repro.sim.stats import RunningMoments
from repro.sim.tau_leaping import TauLeapingSimulator, TauLeapOptions
from repro.sim.trajectory import FiringLog, FiringRecord, StopReason, Trajectory

__all__ = [
    "SimulationOptions",
    "StochasticSimulator",
    "DirectMethodSimulator",
    "FirstReactionSimulator",
    "NextReactionSimulator",
    "TauLeapingSimulator",
    "TauLeapOptions",
    "OdeIntegrator",
    "OdeResult",
    "OdeOptions",
    "OdeEngine",
    "simulate_ode",
    "FspEngine",
    "FspOptions",
    "FspResult",
    "AbsorptionResult",
    "StateSpace",
    "DominantSpeciesClassifier",
    "EngineInfo",
    "EngineRegistry",
    "register_engine",
    "registry",
    "CompiledNetwork",
    "combinations",
    "reaction_propensity",
    "ArrayHeap",
    "dependency_graph",
    "dependency_stats",
    "DependencyStats",
    "StoppingCondition",
    "SpeciesThreshold",
    "OutcomeThresholds",
    "FiringCountCondition",
    "CategoryFiringCondition",
    "PredicateCondition",
    "AnyCondition",
    "AllCondition",
    "Trajectory",
    "FiringLog",
    "FiringRecord",
    "KernelBackend",
    "KernelNetwork",
    "RandomBlocks",
    "StoppingPlan",
    "TrajectoryBuffers",
    "available_backends",
    "compile_stopping_plan",
    "merge_options",
    "numba_available",
    "StopReason",
    "BatchDirectEngine",
    "BatchResult",
    "EnsembleResult",
    "ParallelEnsembleRunner",
    "make_simulator",
    "resolve_initial_counts",
    "RunningMoments",
    "make_rng",
    "spawn_children_range",
    "derive_seed",
]

