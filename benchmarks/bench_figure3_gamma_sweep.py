"""E3 — Figure 3 (Section 2.1.3): stochastic-module error vs rate separation γ.

The paper's protocol: three outcomes, every initializing rate k_i = 1, every
input quantity E_i = 100, the other category rates derived from γ via
Equation 1, an outcome declared once a working reaction has fired 10 times,
and an *error* recorded when the first initializing reaction to fire does not
match the declared outcome.  The paper sweeps γ = 1 … 10⁵ with 100,000 trials
per point (Figure 3) and finds the error probability falling roughly as a
power of γ, into the 0.001% range.

This harness runs the sweep on ``batch-direct``, each γ point split at the
first event into one ensemble per initializing reaction
(:mod:`repro.core.error_model`), at a reduced trial count by default.
``REPRO_FULL=1 REPRO_TRIALS=100000`` runs the paper's protocol: six γ values
at 10⁵ trials each, in well under a minute on two cores.  The reproduced
*shape*: error decreases monotonically (within noise) with γ, from tens of
percent at γ=1 to well below a percent by γ=10³.
"""

from __future__ import annotations

from _config import FULL, report, trials

from repro.analysis import ascii_chart, format_table, wilson_interval
from repro.core import gamma_sweep

GAMMAS_FAST = (1.0, 10.0, 100.0, 1e3)
GAMMAS_FULL = (1.0, 10.0, 100.0, 1e3, 1e4, 1e5)


def run_sweep(gammas, n_trials):
    return gamma_sweep(gammas, n_trials=n_trials, seed=1977, engine="batch-direct")


def test_figure3_error_vs_gamma(benchmark):
    gammas = GAMMAS_FULL if FULL else GAMMAS_FAST
    n_trials = trials(1.0, minimum=200)
    points = benchmark.pedantic(run_sweep, args=(gammas, n_trials), rounds=1, iterations=1)

    rows = []
    chart_points = []
    for point in points:
        estimate = point.estimate
        interval = wilson_interval(estimate.n_errors, max(estimate.n_trials - estimate.n_undecided, 1))
        rows.append(
            {
                "gamma": point.gamma,
                "trials": estimate.n_trials,
                "errors": estimate.n_errors,
                "error %": estimate.error_percent,
                "95% CI high %": interval.high * 100.0,
            }
        )
        # For the log-log chart, substitute half a count for an exact zero.
        chart_points.append((point.gamma, max(estimate.error_percent, 100.0 * 0.5 / n_trials)))

    chart = ascii_chart(
        {"% trajectories in error": chart_points},
        x_log=True,
        y_log=True,
        x_label="gamma",
        y_label="% error",
        title="Figure 3: error vs rate separation (log-log)",
    )
    report(
        "E3: Figure 3 — error analysis of the stochastic module",
        format_table(rows, floatfmt="{:.3g}") + "\n\n" + chart
        + f"\n(paper: 100,000 trials/point; here {n_trials} trials/point)",
    )
    benchmark.extra_info["error_percent"] = {
        str(point.gamma): point.estimate.error_percent for point in points
    }

    # Reproduction checks (shape): error decreases by orders of magnitude.
    error_by_gamma = {point.gamma: point.estimate.error_rate for point in points}
    assert error_by_gamma[1.0] > 0.15            # tens of percent at gamma=1
    assert error_by_gamma[100.0] < 0.05          # about a percent by gamma=100
    assert error_by_gamma[gammas[-1]] <= error_by_gamma[1.0]
    assert error_by_gamma[1.0] > error_by_gamma[100.0]
