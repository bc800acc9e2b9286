"""A3 — Ablation: robustness of the synthesized response to perturbations.

The paper claims the synthesized probabilistic response is "precise and robust
to perturbations".  This harness quantifies the claim for the Example-1 module
by perturbing (a) every reaction rate and (b) every initial quantity with
lognormal noise, re-measuring the outcome distribution, and reporting the
drift (total-variation distance from the programmed target).

The reproduced claim (shape): rate perturbations within a category barely move
the distribution (the design depends on rate *ratios across categories*, which
survive 20% jitter), and uniform scaling of the input quantities does not move
it at all — only the *ratio* of input quantities matters, which is the
programming knob itself.
"""

from __future__ import annotations

from _config import report, trials

from repro.analysis import format_table, robustness_report, total_variation
from repro.api import Experiment
from repro.core import synthesize_distribution

TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}


def run_robustness(n_trials: int):
    system = synthesize_distribution(TARGET, gamma=1e3, scale=100)
    results = robustness_report(
        system,
        rate_sigma=0.2,
        quantity_sigma=0.2,
        n_trials=n_trials,
        n_perturbations=3,
        seed=77,
    )
    # Uniform scaling of every input quantity: distribution must be unchanged.
    scaled = system.network.copy()
    for label in TARGET:
        species = system.input_species(label)
        scaled.set_initial(species, 2 * scaled.initial_count(species))
    scaled_sample = Experiment.from_system(system).simulate(trials=n_trials, seed=78)
    doubled = (
        Experiment.from_network(
            scaled,
            stopping=system.stopping_condition(),
            classifier=system.outcome_classifier(),
        )
        .simulate(trials=n_trials, seed=79)
        .frequencies
    )
    return results, scaled_sample.frequencies, doubled


def test_robustness_to_perturbations(benchmark):
    n_trials = trials(0.7, minimum=150)
    results, baseline, doubled = benchmark.pedantic(
        run_robustness, args=(n_trials,), rounds=1, iterations=1
    )
    rows = [
        {"perturbation": r.description, "TV from target": r.tv_from_target}
        for r in results
    ]
    rows.append(
        {
            "perturbation": "all input quantities doubled",
            "TV from target": total_variation(doubled, TARGET),
        }
    )
    report(
        f"A3: robustness of the Example-1 module ({n_trials} trials per measurement)",
        format_table(rows, floatfmt="{:.3f}"),
    )
    benchmark.extra_info["noise_floor"] = results[0].tv_from_target

    noise_floor = results[0].tv_from_target
    # Rate jitter within categories moves the distribution only slightly more
    # than the Monte-Carlo noise floor.
    rate_drifts = [r.tv_from_target for r in results if r.description.startswith("rates")]
    assert max(rate_drifts) < noise_floor + 0.12
    # Doubling every input quantity leaves the programmed ratios (and hence the
    # distribution) unchanged up to sampling noise.
    assert total_variation(doubled, TARGET) < noise_floor + 0.10
