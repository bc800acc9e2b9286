"""Verification of synthesized systems against their target distributions.

Two complementary routes:

* **Monte Carlo** — sample the outcome distribution through
  :meth:`repro.api.Experiment.simulate` and compare it with the target
  using total-variation distance and a chi-square goodness-of-fit test.  This
  is the paper's own methodology.
* **Exact** (small systems) — because the stochastic module with modest input
  quantities has a finite reachable state space, the outcome probabilities can
  be computed exactly from the embedded Markov chain by the ``fsp`` engine
  (:meth:`repro.sim.fsp.FspEngine.outcome_probabilities`).  This removes
  sampling noise and is what the unit tests use for tight assertions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from scipy import stats

from repro.core.synthesizer import SynthesizedSystem
from repro.errors import AnalysisError

__all__ = ["VerificationReport", "verify_by_sampling"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of verifying a synthesized system by sampling.

    Attributes
    ----------
    target / measured:
        Target and empirical outcome distributions.
    n_trials:
        Number of decided Monte-Carlo trials.
    tv_distance:
        Total-variation distance between the two distributions.
    chi2_pvalue:
        p-value of the chi-square goodness-of-fit test of the measured counts
        against the target (large p-value = consistent).
    passed:
        True when the TV distance is below the tolerance used for the check.
    tolerance:
        The TV-distance tolerance used.
    """

    target: dict[str, float]
    measured: dict[str, float]
    n_trials: int
    tv_distance: float
    chi2_pvalue: float
    passed: bool
    tolerance: float

    def summary(self) -> str:
        lines = [f"{'outcome':<14s} {'target':>8s} {'measured':>9s}"]
        for label in self.target:
            lines.append(
                f"{label:<14s} {self.target[label]:8.4f} {self.measured.get(label, 0.0):9.4f}"
            )
        lines.append(
            f"TV distance {self.tv_distance:.4f}  chi2 p-value {self.chi2_pvalue:.3f}  "
            f"{'PASS' if self.passed else 'FAIL'} (tolerance {self.tolerance})"
        )
        return "\n".join(lines)


def verify_by_sampling(
    system: SynthesizedSystem,
    n_trials: int = 1000,
    seed: "int | None" = None,
    inputs: "Mapping[str, int] | None" = None,
    tolerance: float = 0.05,
    working_firings: int = 10,
    engine: str = "direct",
) -> VerificationReport:
    """Verify a synthesized system's distribution by Monte-Carlo sampling.

    Parameters
    ----------
    system:
        The synthesized system.
    n_trials:
        Number of trials.
    inputs:
        External input quantities (for affine responses).
    tolerance:
        Maximum allowed total-variation distance for ``passed`` to be true.
        With ``n`` trials the sampling noise alone contributes roughly
        ``O(1/sqrt(n))``, so don't set the tolerance below that.
    """
    if n_trials <= 0:
        raise AnalysisError(f"n_trials must be positive, got {n_trials}")
    # Imported here: repro.api imports repro.core.
    from repro.api.experiment import Experiment

    experiment = Experiment.from_system(system).declare_after(working_firings)
    if inputs:
        experiment = experiment.program(inputs)
    result = experiment.simulate(trials=n_trials, seed=seed, engine=engine)
    target = result.target
    counts = result.ensemble.outcome_counts
    decided = result.ensemble.n_trials - counts.get(result.ensemble.UNDECIDED, 0)
    # One degree of freedom per target outcome with mass, less one.
    dof = sum(1 for probability in target.values() if probability > 0) - 1
    if decided and dof >= 1:
        chi2_pvalue = float(stats.chi2.sf(result.chi_squared(), dof))
    else:
        chi2_pvalue = float("nan")

    # With no decided trial there is no measured distribution to compare.
    tv_distance = result.total_variation() if decided else float("nan")
    return VerificationReport(
        target=dict(target),
        measured=dict(result.frequencies),
        n_trials=decided,
        tv_distance=tv_distance,
        chi2_pvalue=chi2_pvalue,
        passed=bool(decided) and tv_distance <= tolerance,
        tolerance=tolerance,
    )
