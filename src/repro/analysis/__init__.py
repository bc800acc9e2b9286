"""Analysis toolkit: proportions, distances, curve fitting, latency, reporting.

Outcome frequencies and goodness of fit live on :class:`repro.api.results.RunResult`;
a grid of experiments is a loop over ``Experiment.simulate`` (or a ``Campaign``).
"""

from repro.analysis.decision_time import decision_time_vs_gamma
from repro.analysis.curvefit import (
    PAPER_EQ14_COEFFICIENTS,
    ResponseFit,
    fit_log_linear,
    paper_equation_14,
)
from repro.analysis.distance import (
    hellinger,
    jensen_shannon,
    kl_divergence,
    normalize,
    total_variation,
)
from repro.analysis.empirical import ProportionEstimate, wilson_interval
from repro.analysis.plotting import ascii_chart
from repro.analysis.sensitivity import (
    PerturbationResult,
    perturb_initial_quantities,
    perturb_rates,
    robustness_report,
)
from repro.analysis.tables import format_kv, format_table, write_csv

__all__ = [
    "ProportionEstimate",
    "wilson_interval",
    "normalize",
    "total_variation",
    "kl_divergence",
    "jensen_shannon",
    "hellinger",
    "decision_time_vs_gamma",
    "ResponseFit",
    "fit_log_linear",
    "paper_equation_14",
    "PAPER_EQ14_COEFFICIENTS",
    "format_table",
    "format_kv",
    "write_csv",
    "ascii_chart",
    "PerturbationResult",
    "perturb_rates",
    "perturb_initial_quantities",
    "robustness_report",
]
