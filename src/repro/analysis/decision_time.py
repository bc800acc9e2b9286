"""Decision-time statistics for synthesized systems.

Besides *which* outcome the stochastic module picks, a designer cares about
*how long* the decision takes (the working reactions cannot act before the
winner-take-all race resolves) and how that latency scales with the rate
separation γ: raising γ buys accuracy (Figure 3) at essentially no latency
cost, because the slow initializing tier — not the fast tiers — sets the
decision time.  One ensemble's latency summary is
:meth:`repro.api.results.RunResult.decision_times`; this module sweeps it
over γ next to the accuracy, giving the A3/A2 benchmarks and downstream
users a quantitative latency/accuracy picture the paper only discusses
qualitatively.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.api.experiment import Experiment

__all__ = ["decision_time_vs_gamma"]


def decision_time_vs_gamma(
    probabilities: Mapping[str, float],
    gammas: Sequence[float],
    n_trials: int = 150,
    seed: "int | None" = None,
    scale: int = 100,
    engine: str = "direct",
    workers: int = 1,
) -> list[dict[str, float]]:
    """Sweep γ and report decision latency and cost at each value.

    Returns one row per γ with the latency statistics
    (:meth:`~repro.api.results.RunResult.decision_times`) and the measured
    total-variation distance from the programmed distribution, both read
    from one ensemble, so the latency/accuracy trade-off is visible in a
    single table.  ``engine`` and ``workers`` apply to every γ's ensemble.
    """
    rows: list[dict[str, float]] = []
    for offset, gamma in enumerate(gammas):
        result = Experiment.from_distribution(
            dict(probabilities), gamma=gamma, scale=scale
        ).simulate(
            trials=n_trials,
            engine=engine,
            workers=workers,
            seed=None if seed is None else seed + offset,
        )
        times = result.decision_times()
        rows.append(
            {
                "gamma": float(gamma),
                "mean_decision_time": times["mean"],
                "p95_decision_time": times["p95"],
                "mean_firings": times["mean_firings"],
                "tv_from_target": result.total_variation(dict(probabilities)),
            }
        )
    return rows
