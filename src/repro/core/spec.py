"""Specifications: what the user asks the synthesizer to build.

Two specification levels mirror the paper's two modules (Figure 2):

* :class:`OutcomeSpec` / :class:`DistributionSpec` — "produce outcome ``T_i``
  with probability ``p_i``" (the stochastic module, Section 2.1);
* :class:`AffineResponseSpec` — "make ``p_i`` an affine function of input
  quantities ``X_j``" (the pre-processing of Example 2, Section 2.2), e.g.
  ``p1 = 0.3 + 0.02·X1 − 0.03·X2``.

More general functional dependencies (logarithm, exponentiation, powers) are
expressed by composing deterministic modules explicitly — see
:mod:`repro.core.modules` and the lambda-phage application for a worked
example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import SpecificationError
from repro.sim.outcomes import apportion

__all__ = [
    "OutcomeSpec",
    "DistributionSpec",
    "AffineResponseSpec",
    "quantize_distribution",
]


@dataclass(frozen=True)
class OutcomeSpec:
    """One discrete outcome the synthesized system can produce.

    Parameters
    ----------
    label:
        Outcome name (``T_i`` in the paper's notation).
    outputs:
        Mapping from output species name to the number of molecules produced
        per working-reaction firing (default: one species named
        ``o_<label>`` produced one at a time).
    food:
        Optional explicit food-species name (default ``f_<label>``).  The
        working reaction consumes one food molecule per firing, which bounds
        the total output (Section 2.1.2: "the initial quantities of the food
        types are set to the maximum quantity desired for the corresponding
        output types").
    target_output:
        Desired maximum number of output molecules; sets the initial food
        quantity.
    """

    label: str
    outputs: Mapping[str, int] = field(default_factory=dict)
    food: str = ""
    target_output: int = 100

    def __post_init__(self) -> None:
        if not self.label or not str(self.label).strip():
            raise SpecificationError("outcome label must be a non-empty string")
        if self.target_output <= 0:
            raise SpecificationError(
                f"target_output for outcome {self.label!r} must be positive, "
                f"got {self.target_output}"
            )
        for species, count in self.outputs.items():
            if count <= 0:
                raise SpecificationError(
                    f"output quantity for {species!r} in outcome {self.label!r} "
                    f"must be positive, got {count}"
                )

    @property
    def output_species(self) -> dict[str, int]:
        """Outputs with the default applied (``o_<label>: 1`` when unspecified)."""
        if self.outputs:
            return dict(self.outputs)
        return {f"o_{self.label}": 1}

    @property
    def food_species(self) -> str:
        """Food species name with the default applied (``f_<label>``)."""
        return self.food or f"f_{self.label}"


@dataclass(frozen=True)
class DistributionSpec:
    """A target probability distribution over discrete outcomes.

    Parameters
    ----------
    outcomes:
        The outcomes, either :class:`OutcomeSpec` objects or plain labels.
    probabilities:
        Target probabilities, one per outcome.  Must be non-negative and sum
        to 1 (within ``tolerance``).
    tolerance:
        Allowed deviation of the probability sum from 1.
    """

    outcomes: tuple[OutcomeSpec, ...]
    probabilities: tuple[float, ...]
    tolerance: float = 1e-9

    def __init__(
        self,
        outcomes: Sequence["OutcomeSpec | str"],
        probabilities: Sequence[float],
        tolerance: float = 1e-9,
    ) -> None:
        specs = tuple(
            outcome if isinstance(outcome, OutcomeSpec) else OutcomeSpec(str(outcome))
            for outcome in outcomes
        )
        probs = tuple(float(p) for p in probabilities)
        if len(specs) < 2:
            raise SpecificationError("a distribution needs at least two outcomes")
        if len(specs) != len(probs):
            raise SpecificationError(
                f"{len(specs)} outcomes but {len(probs)} probabilities"
            )
        labels = [s.label for s in specs]
        if len(set(labels)) != len(labels):
            raise SpecificationError(f"duplicate outcome labels: {labels}")
        if any(p < 0 for p in probs):
            raise SpecificationError(f"probabilities must be non-negative: {probs}")
        if any(not math.isfinite(p) for p in probs):
            raise SpecificationError(f"probabilities must be finite: {probs}")
        total = sum(probs)
        if abs(total - 1.0) > tolerance:
            raise SpecificationError(
                f"probabilities must sum to 1 (got {total}); normalize them first"
            )
        object.__setattr__(self, "outcomes", specs)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "tolerance", tolerance)

    # -- convenience constructors ---------------------------------------------------

    @classmethod
    def from_weights(
        cls, weights: Mapping[str, float], tolerance: float = 1e-9
    ) -> "DistributionSpec":
        """Build a spec from an un-normalized ``{label: weight}`` mapping."""
        if not weights:
            raise SpecificationError("weights mapping must not be empty")
        total = float(sum(weights.values()))
        if total <= 0:
            raise SpecificationError("weights must have a positive sum")
        labels = list(weights)
        return cls(labels, [weights[label] / total for label in labels], tolerance=tolerance)

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> "DistributionSpec":
        """Uniform distribution over ``labels``."""
        n = len(labels)
        if n < 2:
            raise SpecificationError("uniform distribution needs at least two outcomes")
        return cls(list(labels), [1.0 / n] * n)

    # -- queries ---------------------------------------------------------------------

    @property
    def labels(self) -> tuple[str, ...]:
        """Outcome labels, in order."""
        return tuple(outcome.label for outcome in self.outcomes)

    def probability_of(self, label: str) -> float:
        """Target probability of one outcome."""
        try:
            index = self.labels.index(label)
        except ValueError as exc:
            raise SpecificationError(f"unknown outcome label {label!r}") from exc
        return self.probabilities[index]

    def as_dict(self) -> dict[str, float]:
        """``{label: probability}``."""
        return dict(zip(self.labels, self.probabilities))

    def initial_quantities(self, scale: int = 100) -> dict[str, int]:
        """Integer input-type quantities ``E_i`` realizing the distribution.

        Section 2.1.2: the firing probability of the i-th initializing
        reaction is ``E_i k_i / Σ_j E_j k_j``; with equal ``k_i`` the
        probabilities are programmed purely by the ratio of initial
        quantities.  This method quantizes the target probabilities onto a
        total budget of ``scale`` molecules (largest-remainder rounding), so
        e.g. (0.3, 0.4, 0.3) with scale 100 gives (30, 40, 30) — the paper's
        Example 1.
        """
        counts = quantize_distribution(self.probabilities, scale)
        return {label: count for label, count in zip(self.labels, counts)}


def quantize_distribution(probabilities: Sequence[float], scale: int) -> list[int]:
    """Largest-remainder rounding of ``probabilities`` onto ``scale`` units.

    Guarantees the result sums exactly to ``scale`` and that every outcome
    with a strictly positive probability gets at least one unit when possible.
    """
    if scale <= 0:
        raise SpecificationError(f"scale must be positive, got {scale}")
    shares = apportion(dict(enumerate(probabilities)), scale)
    counts = [shares.get(i, 0) for i in range(len(probabilities))]
    # Give starved positive-probability outcomes one unit, taken from the largest.
    for i, probability in enumerate(probabilities):
        if probability > 0 and counts[i] == 0:
            donor = max(range(len(counts)), key=lambda j: counts[j])
            if counts[donor] > 1:
                counts[donor] -= 1
                counts[i] += 1
    return counts


@dataclass(frozen=True)
class AffineResponseSpec:
    """A programmable distribution that depends affinely on input quantities.

    The target is ``p_i = base_i + Σ_j slope_{ij} · X_j`` — the form of
    Example 2 in the paper.  The synthesizer realizes the base probabilities
    through initial quantities and the slopes through pre-processing reactions
    that convert molecules of one input type ``e_j`` into another ``e_i``
    (``n·e_j + x → n·e_i``), so the slopes must be expressible as rational
    multiples of ``1/scale``.

    Parameters
    ----------
    base:
        ``{outcome label: base probability}``; must sum to 1.
    slopes:
        ``{outcome label: {input name: slope}}``.  For every input, the slopes
        across outcomes must sum to zero (probability mass is only moved
        between outcomes, never created), matching Example 2 where
        ``+0.02·X1`` on ``p1`` is balanced by ``−0.02·X1`` on ``p3``.
    """

    base: Mapping[str, float]
    slopes: Mapping[str, Mapping[str, float]]

    def __post_init__(self) -> None:
        if not self.base:
            raise SpecificationError("base probabilities must not be empty")
        total = sum(self.base.values())
        if abs(total - 1.0) > 1e-9:
            raise SpecificationError(f"base probabilities must sum to 1, got {total}")
        if any(p < 0 for p in self.base.values()):
            raise SpecificationError("base probabilities must be non-negative")
        unknown = set(self.slopes) - set(self.base)
        if unknown:
            raise SpecificationError(
                f"slopes given for unknown outcomes: {sorted(unknown)}"
            )
        for input_name in self.input_names:
            column_sum = sum(
                self.slopes.get(label, {}).get(input_name, 0.0) for label in self.base
            )
            if abs(column_sum) > 1e-9:
                raise SpecificationError(
                    f"slopes for input {input_name!r} must sum to zero across outcomes "
                    f"(probability is conserved); they sum to {column_sum}"
                )

    @property
    def labels(self) -> tuple[str, ...]:
        """Outcome labels, in declaration order."""
        return tuple(self.base)

    @property
    def input_names(self) -> tuple[str, ...]:
        """All input names mentioned by any slope."""
        names: list[str] = []
        for per_outcome in self.slopes.values():
            for name in per_outcome:
                if name not in names:
                    names.append(name)
        return tuple(names)

    def evaluate(self, inputs: Mapping[str, float]) -> dict[str, float]:
        """Target probabilities for concrete input quantities.

        Values are clipped to [0, 1] and re-normalized, mirroring what the
        chemistry does when a pre-processing reaction runs out of molecules to
        convert.
        """
        raw = {}
        for label in self.labels:
            value = float(self.base[label])
            for input_name, slope in self.slopes.get(label, {}).items():
                value += slope * float(inputs.get(input_name, 0.0))
            raw[label] = min(max(value, 0.0), 1.0)
        total = sum(raw.values())
        if total <= 0:
            raise SpecificationError(
                f"affine response evaluates to all-zero probabilities at {dict(inputs)}"
            )
        return {label: value / total for label, value in raw.items()}

    def slope_as_fraction(self, label: str, input_name: str, scale: int) -> Fraction:
        """The slope expressed in units of molecules-per-input at ``scale``.

        A slope of +0.02 at scale 100 means "each molecule of the input moves
        2 molecules of ``e`` toward this outcome"; the returned fraction is
        that molecule count and must be (close to) an integer for an exact
        pre-processing implementation.
        """
        slope = float(self.slopes.get(label, {}).get(input_name, 0.0))
        return Fraction(slope).limit_denominator(10**6) * scale
