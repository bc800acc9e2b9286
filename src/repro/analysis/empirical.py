"""Outcome proportions with their confidence intervals.

The paper reports outcome *percentages* estimated from Monte-Carlo trials
(Figures 3 and 5); :func:`wilson_interval` returns one as a
:class:`ProportionEstimate` with the Wilson interval adaptive runs stop on, so
reports can say not just "31%" but "31% ± 2%".  Whole outcome distributions
are summarized by :class:`repro.api.results.RunResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.sim.stats import wilson_bounds

__all__ = ["ProportionEstimate", "wilson_interval"]


@dataclass(frozen=True)
class ProportionEstimate:
    """A proportion estimated from Bernoulli trials, with uncertainty.

    Attributes
    ----------
    successes / trials:
        The raw counts.
    estimate:
        ``successes / trials``.
    low / high:
        Wilson score interval bounds at the requested confidence level.
    confidence:
        The confidence level used (default 0.95).
    """

    successes: int
    trials: int
    estimate: float
    low: float
    high: float
    confidence: float = 0.95

    @property
    def half_width(self) -> float:
        """Half the confidence-interval width (a +/- style error bar)."""
        return (self.high - self.low) / 2.0

    @property
    def percent(self) -> float:
        """The estimate as a percentage."""
        return 100.0 * self.estimate

    def __str__(self) -> str:
        return (
            f"{self.estimate:.4f} [{self.low:.4f}, {self.high:.4f}] "
            f"({self.successes}/{self.trials})"
        )


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> ProportionEstimate:
    """Wilson score confidence interval for a binomial proportion.

    The bounds are :func:`repro.sim.stats.wilson_bounds`, bit for bit the
    interval a ``CiHalfWidthTarget`` at this confidence stops on.
    """
    if trials <= 0:
        raise AnalysisError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise AnalysisError(f"successes must be in [0, {trials}], got {successes}")
    if not 0 < confidence < 1:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    low, high = wilson_bounds(successes, trials, confidence)
    return ProportionEstimate(
        successes=successes, trials=trials, estimate=successes / trials,
        low=low, high=high, confidence=confidence,
    )
