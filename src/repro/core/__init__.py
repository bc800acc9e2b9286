"""The paper's synthesis method (the primary contribution).

* specifications (:class:`DistributionSpec`, :class:`AffineResponseSpec`);
* the stochastic module generator (Section 2.1);
* the deterministic functional modules (Section 2.2) in
  :mod:`repro.core.modules`;
* the composer for combining modules (Section 2.2.2);
* the top-level synthesizer API and verification / error-analysis utilities.
"""

from repro.core.composer import SystemComposer
from repro.core.error_model import (
    PAPER_GAMMA_VALUES,
    ErrorEstimate,
    GammaSweepPoint,
    build_error_experiment_network,
    estimate_error_rate,
    first_events,
    gamma_sweep,
)
from repro.core.rates import STOCHASTIC_CATEGORIES, RateLadder, TierScheme
from repro.core.report import design_report
from repro.core.runtime import SettleResult, default_horizon, settle_module
from repro.core.spec import (
    AffineResponseSpec,
    DistributionSpec,
    OutcomeSpec,
    quantize_distribution,
)
from repro.core.stochastic_module import (
    StochasticModuleLayout,
    build_stochastic_module,
    expected_first_firing_distribution,
    stochastic_module_quantities,
)
from repro.core.synthesizer import (
    SynthesizedSystem,
    synthesize_affine_response,
    synthesize_distribution,
)
from repro.core.verification import VerificationReport, verify_by_sampling

__all__ = [
    "RateLadder",
    "TierScheme",
    "STOCHASTIC_CATEGORIES",
    "DistributionSpec",
    "OutcomeSpec",
    "AffineResponseSpec",
    "quantize_distribution",
    "StochasticModuleLayout",
    "build_stochastic_module",
    "stochastic_module_quantities",
    "expected_first_firing_distribution",
    "SystemComposer",
    "SettleResult",
    "settle_module",
    "default_horizon",
    "SynthesizedSystem",
    "synthesize_distribution",
    "synthesize_affine_response",
    "design_report",
    "VerificationReport",
    "verify_by_sampling",
    "ErrorEstimate",
    "GammaSweepPoint",
    "estimate_error_rate",
    "gamma_sweep",
    "first_events",
    "build_error_experiment_network",
    "PAPER_GAMMA_VALUES",
]
