"""Precision targets: declarative stopping rules for adaptive ensembles.

A :class:`PrecisionTarget` answers one question after every controller round:
*is the ensemble accumulated so far precise enough to stop?*  Three rules
cover the paper's workloads:

* :class:`CiHalfWidthTarget` — stop when the binomial confidence interval on
  one outcome's probability is narrower than a declared half-width (Wilson
  score interval by default; exact Clopper–Pearson optionally).  This is the
  natural target for the error-rate estimates behind Figure 3: "estimate
  P(wrong outcome) to ±0.5% at 95%".
* :class:`RelativeSETarget` — stop when the relative standard error of one
  species' mean final count drops below a declared bound (module outputs,
  Figure-5 style threshold fractions).
* :class:`SprtTarget` — Wald's sequential probability-ratio test of an
  outcome probability against a threshold with an indifference region:
  accept/reject with declared error rates, typically in far fewer trials
  than a fixed-width interval costs.

Targets are frozen dataclasses with ``to_descriptor()`` /
:func:`target_from_descriptor` round trips, so an adaptive run serializes
into the same canonical payloads the result store fingerprints and the
``repro serve`` service accepts — the *target* is part of a run's identity;
the realized trial count is not.

The CI and relative-SE targets also predict the total trial count they need
(:meth:`PrecisionTarget.required_trials`), which the controller uses to size
its next round.  Because the same declared target then consumes a different
(smaller) ensemble than under plain doubling, their descriptors carry
``"schedule": 2`` (:data:`SCHEDULE`), keeping their store keys apart from
artifacts computed by the doubling schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.errors import AdaptiveError
from repro.sim.ensemble import EnsembleResult
from repro.sim.stats import wilson_bounds

__all__ = [
    "TargetStatus",
    "PrecisionTarget",
    "CiHalfWidthTarget",
    "RelativeSETarget",
    "SprtTarget",
    "target_from_descriptor",
]

#: Default realized-trial ceiling: adaptive runs never exceed it, so an
#: unreachable target degrades to a bounded fixed-budget run (``met=False``).
DEFAULT_MAX_TRIALS = 100_000

#: Round-sizing version written into the descriptors of the targets that
#: predict their shortfall.  Version 1 (no key) was plain doubling, whose
#: artifacts hold larger ensembles for the same declared target.
SCHEDULE = 2


def _check_probability(name: str, value: float, open_interval: bool = True) -> float:
    value = float(value)
    low_ok = value > 0.0 if open_interval else value >= 0.0
    if not (low_ok and value < 1.0):
        raise AdaptiveError(
            f"{name} must lie in the open interval (0, 1), got {value!r}"
        )
    return value


@dataclass(frozen=True)
class TargetStatus:
    """One evaluation of a target against the ensemble accumulated so far.

    ``met`` decides whether the controller stops; ``detail`` is a short
    machine-readable token (``"met"`` / ``"unmet"``, or the SPRT decision
    ``"accept-h0"`` / ``"accept-h1"`` / ``"undecided"``); ``achieved`` maps
    statistic names to finite floats (the numbers the stopping rule looked
    at — sample size, point estimate, half-width / relative SE / LLR).
    """

    met: bool
    detail: str
    achieved: dict[str, float]


class PrecisionTarget:
    """Base class for declarative adaptive stopping rules.

    Subclasses define :attr:`rule` (the descriptor type tag), ``max_trials``
    (the realized-trial ceiling the controller enforces) and implement
    :meth:`evaluate` plus the :meth:`to_descriptor` round trip.  A rule with
    a closed-form sample-size prediction also overrides
    :meth:`required_trials`.
    """

    rule: str = "precision-target"

    def evaluate(self, ensemble: EnsembleResult) -> TargetStatus:
        """Judge the accumulated ensemble; never mutates it."""
        raise NotImplementedError

    def required_trials(self, ensemble: EnsembleResult) -> "int | None":
        """Predicted total trial count that meets the target, or ``None``.

        Called by the controller after an unmet round, with the same merged
        ensemble :meth:`evaluate` judged.  ``None`` (the default, and the
        SPRT's answer) means no prediction: the controller doubles.
        """
        return None

    def to_descriptor(self) -> dict:
        """Canonical JSON-compatible description (store/service identity)."""
        raise NotImplementedError

    def _outcome_count(self, ensemble: EnsembleResult, outcome: str) -> int:
        """Successes for a binomial target: trials that produced ``outcome``.

        Undecided trials count as failures — the estimated quantity is
        P(trial ends in this outcome), the probability the paper's synthesis
        method programs.

        Synthesized designs run without a classifier (the CLI / raw-network
        path) record the stop detail ``working[<label>]`` as the outcome key;
        a bare label falls back to that alias so ``outcome="a"`` counts the
        same trials either way instead of silently estimating p=0 for a key
        that never occurs.
        """
        label = str(outcome)
        counts = ensemble.outcome_counts
        if label in counts:
            return int(counts[label])
        return int(counts.get(f"working[{label}]", 0))


@dataclass(frozen=True)
class CiHalfWidthTarget(PrecisionTarget):
    """Stop when the CI half-width on an outcome probability is small enough.

    Parameters
    ----------
    outcome:
        The outcome label whose probability is being estimated (undecided
        trials count as non-occurrences).
    half_width:
        Declared precision: stop once the two-sided interval's half-width is
        ``<= half_width``.
    confidence:
        Interval coverage (default 0.95).
    method:
        ``"wilson"`` (score interval, default — well-behaved at 0 counts) or
        ``"clopper-pearson"`` (exact, conservative).
    max_trials / min_trials:
        Realized-trial ceiling and floor for the controller.
    """

    outcome: str
    half_width: float
    confidence: float = 0.95
    method: str = "wilson"
    max_trials: int = DEFAULT_MAX_TRIALS
    min_trials: int = 0

    rule = "ci-half-width"

    def __post_init__(self) -> None:
        _check_probability("half_width", self.half_width)
        _check_probability("confidence", self.confidence)
        if self.method not in ("wilson", "clopper-pearson"):
            raise AdaptiveError(
                f"method must be 'wilson' or 'clopper-pearson', got {self.method!r}"
            )
        if self.max_trials <= 0:
            raise AdaptiveError(f"max_trials must be positive, got {self.max_trials}")
        if not 0 <= self.min_trials <= self.max_trials:
            raise AdaptiveError(
                f"min_trials must lie in [0, max_trials], got {self.min_trials}"
            )

    def interval(self, successes: int, n: int) -> "tuple[float, float]":
        """The two-sided interval for ``successes`` out of ``n`` trials."""
        if n <= 0:
            return (0.0, 1.0)
        if self.method == "wilson":
            return wilson_bounds(successes, n, self.confidence)
        from scipy.stats import beta

        alpha = 1.0 - self.confidence
        low = (
            0.0
            if successes == 0
            else float(beta.ppf(alpha / 2, successes, n - successes + 1))
        )
        high = (
            1.0
            if successes == n
            else float(beta.ppf(1 - alpha / 2, successes + 1, n - successes))
        )
        return (low, high)

    def evaluate(self, ensemble: EnsembleResult) -> TargetStatus:
        n = int(ensemble.n_trials)
        successes = self._outcome_count(ensemble, self.outcome)
        low, high = self.interval(successes, n)
        achieved_half_width = (high - low) / 2.0
        met = n > 0 and achieved_half_width <= self.half_width
        return TargetStatus(
            met=met,
            detail="met" if met else "unmet",
            achieved={
                "n": float(n),
                "successes": float(successes),
                "p_hat": successes / n if n else 0.0,
                "ci_low": low,
                "ci_high": high,
                "ci_half_width": achieved_half_width,
            },
        )

    def required_trials(self, ensemble: EnsembleResult) -> int:
        """Smallest ``n`` in ``(n_now, max_trials]`` whose interval would meet.

        Plans at the least favourable probability the current interval still
        admits — its point closest to 1/2, where the binomial variance
        peaks — so the interval itself is the safety margin.  Bisection over
        :meth:`interval` serves Wilson and Clopper–Pearson alike; a target
        out of reach returns ``max_trials``.
        """
        n = int(ensemble.n_trials)
        low, high = self.interval(self._outcome_count(ensemble, self.outcome), n)
        p = min(max(0.5, low), high)
        first, last = n + 1, int(self.max_trials)
        while first < last:
            middle = (first + last) // 2
            low, high = self.interval(round(p * middle), middle)
            if (high - low) / 2.0 <= self.half_width:
                last = middle
            else:
                first = middle + 1
        return first

    def to_descriptor(self) -> dict:
        return {
            "type": self.rule,
            "outcome": self.outcome,
            "half_width": float(self.half_width),
            "confidence": float(self.confidence),
            "method": self.method,
            "max_trials": int(self.max_trials),
            "min_trials": int(self.min_trials),
            "schedule": SCHEDULE,
        }


@dataclass(frozen=True)
class RelativeSETarget(PrecisionTarget):
    """Stop when the relative standard error of a species mean is small enough.

    The estimated quantity is the mean *final* count of ``species`` across
    trials; the rule stops once ``SE(mean) / |mean| <= rel_se``.  A zero
    sample mean leaves the relative error undefined, so the rule keeps
    sampling (detail ``"mean-zero"``) until the budget runs out.
    """

    species: str
    rel_se: float
    max_trials: int = DEFAULT_MAX_TRIALS
    min_trials: int = 0

    rule = "rel-se"

    def __post_init__(self) -> None:
        if float(self.rel_se) <= 0.0:
            raise AdaptiveError(f"rel_se must be positive, got {self.rel_se!r}")
        if self.max_trials <= 0:
            raise AdaptiveError(f"max_trials must be positive, got {self.max_trials}")
        if not 0 <= self.min_trials <= self.max_trials:
            raise AdaptiveError(
                f"min_trials must lie in [0, max_trials], got {self.min_trials}"
            )

    def _moments(self, ensemble: EnsembleResult) -> "tuple[int, float, float]":
        """``(n, mean, standard error)`` of the species' final counts."""
        n = int(ensemble.n_trials)
        values = ensemble.final_values(self.species).astype(float)
        mean = float(values.mean()) if n else 0.0
        std = float(values.std(ddof=1)) if n > 1 else 0.0
        return n, mean, std / math.sqrt(n) if n else 0.0

    def evaluate(self, ensemble: EnsembleResult) -> TargetStatus:
        n, mean, standard_error = self._moments(ensemble)
        achieved: dict[str, float] = {
            "n": float(n),
            "mean": mean,
            "se": standard_error,
        }
        if mean == 0.0:
            return TargetStatus(met=False, detail="mean-zero", achieved=achieved)
        relative = standard_error / abs(mean)
        achieved["rel_se"] = relative
        met = n > 1 and relative <= self.rel_se
        return TargetStatus(met=met, detail="met" if met else "unmet", achieved=achieved)

    def required_trials(self, ensemble: EnsembleResult) -> "int | None":
        """``ceil(n · (rel_se_now / rel_se)²)``: the SE shrinks as ``1/sqrt(n)``.

        ``None`` (keep doubling) while the estimate is undefined: a zero mean
        or fewer than two trials.
        """
        n, mean, standard_error = self._moments(ensemble)
        if mean == 0.0 or n < 2:
            return None
        return math.ceil(n * (standard_error / abs(mean) / self.rel_se) ** 2)

    def to_descriptor(self) -> dict:
        return {
            "type": self.rule,
            "species": self.species,
            "rel_se": float(self.rel_se),
            "max_trials": int(self.max_trials),
            "min_trials": int(self.min_trials),
            "schedule": SCHEDULE,
        }


@dataclass(frozen=True)
class SprtTarget(PrecisionTarget):
    """Wald's sequential probability-ratio test on an outcome probability.

    Tests ``H0: p <= p0`` against ``H1: p >= p1`` (with ``p0 < p1`` bounding
    an indifference region) at error rates ``alpha`` (false H1 accept) and
    ``beta`` (false H0 accept).  The log-likelihood ratio

    ``LLR = k·log(p1/p0) + (n-k)·log((1-p1)/(1-p0))``

    accepts H1 when it crosses ``log((1-beta)/alpha)`` and H0 when it falls
    below ``log(beta/(1-alpha))``; between the boundaries the controller
    keeps sampling.  This is the verification-style query — "is the error
    rate below the spec?" — answered in expectation far cheaper than a
    fixed-precision estimate.
    """

    outcome: str
    p0: float
    p1: float
    alpha: float = 0.05
    beta: float = 0.05
    max_trials: int = DEFAULT_MAX_TRIALS
    min_trials: int = 0

    rule = "sprt"

    def __post_init__(self) -> None:
        _check_probability("p0", self.p0)
        _check_probability("p1", self.p1)
        if not self.p0 < self.p1:
            raise AdaptiveError(
                f"the indifference region needs p0 < p1, got p0={self.p0!r}, "
                f"p1={self.p1!r}"
            )
        _check_probability("alpha", self.alpha)
        _check_probability("beta", self.beta)
        if self.max_trials <= 0:
            raise AdaptiveError(f"max_trials must be positive, got {self.max_trials}")
        if not 0 <= self.min_trials <= self.max_trials:
            raise AdaptiveError(
                f"min_trials must lie in [0, max_trials], got {self.min_trials}"
            )

    @property
    def upper_boundary(self) -> float:
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower_boundary(self) -> float:
        return math.log(self.beta / (1.0 - self.alpha))

    def evaluate(self, ensemble: EnsembleResult) -> TargetStatus:
        n = int(ensemble.n_trials)
        successes = self._outcome_count(ensemble, self.outcome)
        llr = successes * math.log(self.p1 / self.p0) + (n - successes) * math.log(
            (1.0 - self.p1) / (1.0 - self.p0)
        )
        if llr >= self.upper_boundary:
            detail = "accept-h1"
        elif llr <= self.lower_boundary:
            detail = "accept-h0"
        else:
            detail = "undecided"
        return TargetStatus(
            met=detail != "undecided",
            detail=detail,
            achieved={
                "n": float(n),
                "successes": float(successes),
                "p_hat": successes / n if n else 0.0,
                "llr": llr,
                "upper": self.upper_boundary,
                "lower": self.lower_boundary,
            },
        )

    def to_descriptor(self) -> dict:
        return {
            "type": self.rule,
            "outcome": self.outcome,
            "p0": float(self.p0),
            "p1": float(self.p1),
            "alpha": float(self.alpha),
            "beta": float(self.beta),
            "max_trials": int(self.max_trials),
            "min_trials": int(self.min_trials),
        }


_REQUIRED = object()


def descriptor_field(data: Mapping, name: str, parse, default=_REQUIRED):
    """``parse(data[name])``, or ``default`` when the field is absent.

    A missing required field or a value ``parse`` refuses raises
    :class:`AdaptiveError` naming the field, so a malformed descriptor from
    the wire is a client error, never an internal one.
    """
    if name not in data:
        if default is _REQUIRED:
            raise AdaptiveError(
                f"{data.get('type')!r} descriptor is missing field {name!r}"
            )
        return default
    try:
        return parse(data[name])
    except (TypeError, ValueError) as exc:
        raise AdaptiveError(
            f"{data.get('type')!r} descriptor field {name!r}: {exc}"
        ) from exc


def integral(value) -> int:
    """``value`` as an ``int``, refusing a fractional number (1.5 is not 1)."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _ceilings(data: Mapping) -> dict:
    return {
        "max_trials": descriptor_field(data, "max_trials", integral, DEFAULT_MAX_TRIALS),
        "min_trials": descriptor_field(data, "min_trials", integral, 0),
    }


def _check_schedule(data: Mapping) -> None:
    schedule = data.get("schedule", SCHEDULE)
    if schedule != SCHEDULE:
        raise AdaptiveError(
            f"{data.get('type')!r} descriptor has schedule {schedule!r}; only "
            f"schedule {SCHEDULE} (rounds sized by the predicted shortfall) runs"
        )


def target_from_descriptor(data: Mapping):
    """Rebuild a target (or splitting config) from its ``to_descriptor`` form.

    The inverse of the descriptor protocol across the whole adaptive layer:
    precision targets *and* :class:`~repro.adaptive.splitting.SplittingConfig`
    dispatch on the ``type`` tag, so store payloads and service requests need
    a single entry point.  Every descriptor type here is declarative (plain
    data, no callables), so the untrusted wire path accepts them all.

    Absent optional fields take their defaults.  A missing required field, an
    unparsable or fractional-integer value, or a CI / relative-SE
    ``"schedule"`` other than :data:`SCHEDULE` raises :class:`AdaptiveError`.
    """
    if not isinstance(data, Mapping):
        raise AdaptiveError(
            f"an adaptive target descriptor is a mapping, got {type(data).__name__}"
        )
    kind = data.get("type")
    if kind == CiHalfWidthTarget.rule:
        _check_schedule(data)
        return CiHalfWidthTarget(
            outcome=descriptor_field(data, "outcome", str),
            half_width=descriptor_field(data, "half_width", float),
            confidence=descriptor_field(data, "confidence", float, 0.95),
            method=descriptor_field(data, "method", str, "wilson"),
            **_ceilings(data),
        )
    if kind == RelativeSETarget.rule:
        _check_schedule(data)
        return RelativeSETarget(
            species=descriptor_field(data, "species", str),
            rel_se=descriptor_field(data, "rel_se", float),
            **_ceilings(data),
        )
    if kind == SprtTarget.rule:
        return SprtTarget(
            outcome=descriptor_field(data, "outcome", str),
            p0=descriptor_field(data, "p0", float),
            p1=descriptor_field(data, "p1", float),
            alpha=descriptor_field(data, "alpha", float, 0.05),
            beta=descriptor_field(data, "beta", float, 0.05),
            **_ceilings(data),
        )
    if kind == "splitting":
        from repro.adaptive.splitting import SplittingConfig

        return SplittingConfig.from_descriptor(data)
    raise AdaptiveError(f"unknown adaptive target descriptor type {kind!r}")
