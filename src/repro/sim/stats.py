"""Streaming moments and binomial intervals for Monte-Carlo ensembles.

:class:`RunningMoments` implements Welford's online mean/variance update
together with the parallel merge of Chan, Golub & LeVeque (1983), vectorized
over species so one accumulator summarizes a whole ``(n_trials, n_species)``
final-count matrix.  :attr:`repro.sim.ensemble.EnsembleResult.moments` builds
one from an ensemble's final counts when first read.

:func:`wilson_bounds` is the package's one Wilson score interval (adaptive
runs stop on it, :func:`repro.analysis.wilson_interval` reports it) and
:func:`normal_quantile` its one normal critical value.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

__all__ = ["RunningMoments", "normal_quantile", "wilson_bounds"]


def normal_quantile(confidence: float) -> float:
    """Two-sided standard-normal critical value for a confidence in (0, 1)."""
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


def wilson_bounds(successes: int, n: int, confidence: float) -> "tuple[float, float]":
    """Wilson score interval ``(low, high)`` for ``successes`` out of ``n > 0``.

    Preferred over the normal (Wald) interval because the proportions of
    interest (error rates at large γ, rare outcomes) can sit at or near
    zero, where the Wald interval collapses.
    """
    z = normal_quantile(confidence)
    p = successes / n
    denominator = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denominator
    spread = z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denominator
    return (max(0.0, center - spread), min(1.0, center + spread))


class RunningMoments:
    """Welford-style streaming mean/variance over fixed-length vectors.

    Accumulates element-wise moments of a stream of equal-length sample
    vectors (one per Monte-Carlo trial).  Supports three ingestion paths:

    * :meth:`update` — one sample at a time (classic Welford recurrence);
    * :meth:`update_batch` — a whole ``(n, dim)`` matrix at once;
    * :meth:`merge` — combine another accumulator (Chan et al. pairwise
      merge), folding partial statistics into one without revisiting the
      raw samples.

    All three paths are algebraically equivalent: merging the accumulators of
    two shards yields exactly the moments of the concatenated sample set (up
    to floating-point rounding), which the test suite checks against
    ``numpy.mean`` / ``numpy.var`` ground truth.
    """

    __slots__ = ("count", "mean", "_m2")

    def __init__(self, dim: int) -> None:
        self.count = 0
        self.mean = np.zeros(dim, dtype=float)
        self._m2 = np.zeros(dim, dtype=float)

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "RunningMoments":
        """Build an accumulator summarizing a ``(n, dim)`` sample matrix."""
        matrix = np.atleast_2d(np.asarray(samples, dtype=float))
        moments = cls(matrix.shape[1])
        moments.update_batch(matrix)
        return moments

    def update(self, sample) -> None:
        """Fold one sample vector into the running moments (Welford step)."""
        vector = np.asarray(sample, dtype=float)
        self.count += 1
        delta = vector - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (vector - self.mean)

    def update_batch(self, samples: np.ndarray) -> None:
        """Fold a ``(n, dim)`` sample matrix into the running moments at once."""
        matrix = np.atleast_2d(np.asarray(samples, dtype=float))
        if matrix.shape[0] == 0:
            return
        batch = RunningMoments(matrix.shape[1])
        batch.count = matrix.shape[0]
        batch.mean = matrix.mean(axis=0)
        batch._m2 = ((matrix - batch.mean) ** 2).sum(axis=0)
        self.merge(batch)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Absorb another accumulator in place (Chan et al. parallel merge).

        Returns ``self`` so shard results can be folded with
        ``functools.reduce``.
        """
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean.copy()
            self._m2 = other._m2.copy()
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = self._m2 + other._m2 + delta**2 * (self.count * other.count / total)
        self.mean = self.mean + delta * (other.count / total)
        self.count = total
        return self

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Element-wise variance of the accumulated samples."""
        if self.count <= ddof:
            return np.full_like(self.mean, np.nan)
        return self._m2 / (self.count - ddof)

    def std(self, ddof: int = 1) -> np.ndarray:
        """Element-wise standard deviation of the accumulated samples."""
        return np.sqrt(self.variance(ddof=ddof))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RunningMoments(count={self.count}, dim={self.mean.shape[0]})"
