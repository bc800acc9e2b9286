"""Analysis toolkit: statistics, distances, curve fitting, sweeps, reporting."""

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
from repro.analysis.empirical import EmpiricalDistribution, ProportionEstimate, wilson_interval
from repro.analysis.plotting import ascii_chart
from repro.analysis.sensitivity import (
    PerturbationResult,
    perturb_initial_quantities,
    perturb_rates,
    robustness_report,
)
from repro.analysis.sweep import ExperimentMeasure, ParameterSweep, SweepResult
from repro.analysis.tables import format_kv, format_table, write_csv

__all__ = [
    "EmpiricalDistribution",
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
    "ParameterSweep",
    "SweepResult",
    "ExperimentMeasure",
    "format_table",
    "format_kv",
    "write_csv",
    "ascii_chart",
    "PerturbationResult",
    "perturb_rates",
    "perturb_initial_quantities",
    "robustness_report",
]
