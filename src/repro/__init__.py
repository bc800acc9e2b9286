"""repro: reproduction of "Synthesizing Stochasticity in Biochemical Systems".

Fett, Bruck & Riedel, DAC 2007.  The library provides:

* :mod:`repro.crn` — chemical reaction network data model (species, reactions,
  networks, a text DSL, serialization, stoichiometric analysis);
* :mod:`repro.sim` — stochastic simulation engines (Gillespie direct,
  first-reaction, Gibson–Bruck next-reaction, tau-leaping), mean-field ODEs,
  stopping conditions and Monte-Carlo ensembles;
* :mod:`repro.core` — the paper's synthesis method: the five-category
  stochastic module, the deterministic functional modules (linear,
  exponentiation, logarithm, power, isolation, glue), the composer, the
  top-level synthesizer, and the γ error model;
* :mod:`repro.analysis` — outcome proportions with Wilson intervals,
  distribution distances, curve fitting, decision latency and reporting;
* :mod:`repro.lambda_phage` — the Section-3 lambda bacteriophage application
  (the Figure-4 synthetic model, the natural-model surrogate, and the
  Figure-5 experiment);
* :mod:`repro.store` — content-addressed result store (experiments are
  fingerprinted; identical runs are served from disk bit-identically) and
  the cache-aware, resumable campaign runner;
* :mod:`repro.service` / :mod:`repro.client` — the ``repro serve`` HTTP
  experiment service over a store, and its stdlib client;
* :mod:`repro.adaptive` — adaptive-precision ensembles
  (``Experiment.simulate(until=...)``: CI half-width, relative SE, SPRT) and
  importance-splitting estimation of deep-tail outcome probabilities.

Quickstart (the fluent facade is the front door)::

    from repro import Experiment

    result = (
        Experiment.from_distribution({"a": 0.3, "b": 0.4, "c": 0.3}, gamma=1e3)
        .simulate(trials=1000, engine="batch-direct", seed=1)
    )
    print(result.summary())
"""

from repro.core import (
    AffineResponseSpec,
    DistributionSpec,
    OutcomeSpec,
    RateLadder,
    SynthesizedSystem,
    SystemComposer,
    TierScheme,
    build_stochastic_module,
    estimate_error_rate,
    gamma_sweep,
    settle_module,
    synthesize_affine_response,
    synthesize_distribution,
    verify_by_sampling,
)
from repro.crn import (
    NetworkBuilder,
    Reaction,
    ReactionNetwork,
    Species,
    State,
    parse_network,
    parse_reaction,
)
from repro.sim import (
    DirectMethodSimulator,
    EnsembleResult,
    OutcomeThresholds,
    SimulationOptions,
)
from repro.api import Experiment, RunResult
from repro.adaptive import (
    AdaptiveResult,
    CiHalfWidthTarget,
    RelativeSETarget,
    SplittingConfig,
    SprtTarget,
)
from repro.store import Campaign, CampaignRunner, ResultStore
from repro.client import ServiceClient

__version__ = "1.6.0"

__all__ = [
    "__version__",
    # api (the fluent facade)
    "Experiment",
    "RunResult",
    # adaptive precision & rare events
    "AdaptiveResult",
    "CiHalfWidthTarget",
    "RelativeSETarget",
    "SprtTarget",
    "SplittingConfig",
    # store & service
    "ResultStore",
    "Campaign",
    "CampaignRunner",
    "ServiceClient",
    # crn
    "Species",
    "Reaction",
    "State",
    "ReactionNetwork",
    "NetworkBuilder",
    "parse_reaction",
    "parse_network",
    # sim
    "DirectMethodSimulator",
    "SimulationOptions",
    "OutcomeThresholds",
    "EnsembleResult",
    # core
    "DistributionSpec",
    "OutcomeSpec",
    "AffineResponseSpec",
    "RateLadder",
    "TierScheme",
    "SystemComposer",
    "SynthesizedSystem",
    "build_stochastic_module",
    "synthesize_distribution",
    "synthesize_affine_response",
    "settle_module",
    "verify_by_sampling",
    "estimate_error_rate",
    "gamma_sweep",
]
