"""Results of adaptive runs: :class:`RunResult` plus the stopping record.

An adaptive run differs from a fixed-budget run only in *how many* trials it
drew and *why* it stopped, so :class:`AdaptiveResult` subclasses
:class:`~repro.api.results.RunResult` and adds one typed record,
:class:`AdaptiveInfo` — the stopping rule, the declared target descriptor,
chunks/rounds consumed, whether the target was met and the achieved
precision (plus the rare-event estimate for importance-splitting runs).

The payload round trip extends the base schema with a single ``"adaptive"``
key, so everything downstream of :meth:`RunResult.to_payload` — the result
store, the campaign manifest, the HTTP service — handles adaptive results
without modification, and cache hits reconstruct the same
:class:`AdaptiveResult` byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.api.results import INTEGER, OBJECT, OBJECT_OR_NULL, RunResult, check_fields

__all__ = ["AdaptiveInfo", "AdaptiveResult"]

#: The types each field of an ``"adaptive"`` payload record allows.
_FIELDS = {
    "rule": (str,), "until": OBJECT, "chunks": INTEGER, "rounds": INTEGER,
    "met": (bool,), "detail": (str,), "achieved": OBJECT_OR_NULL, "rare": OBJECT_OR_NULL,
}


@dataclass
class AdaptiveInfo:
    """How an adaptive run stopped.

    Attributes
    ----------
    rule:
        The stopping rule's type tag (``"ci-half-width"`` / ``"rel-se"`` /
        ``"sprt"`` / ``"splitting"``).
    until:
        The declared target's canonical descriptor — the part of the run's
        store identity that replaces the trial count.
    chunks / rounds:
        Deterministic schedule consumption: total chunks simulated and
        controller rounds taken (splitting runs count stages as rounds).
    met:
        Whether the declared target was satisfied before the trial ceiling.
    detail:
        Short token from the final target evaluation (``"met"``,
        ``"accept-h1"``, ``"estimated"``, ...).
    achieved:
        The final evaluation's statistics (sample size, point estimate,
        half-width / relative SE / LLR), all finite floats.
    rare:
        Importance-splitting record (estimate, CI, levels, per-stage
        probabilities); ``None`` for precision-targeted sampling.
    """

    rule: str
    until: dict
    chunks: int
    rounds: int
    met: bool
    detail: str
    achieved: dict[str, float] = field(default_factory=dict)
    rare: "dict | None" = None

    def to_payload(self) -> dict:
        return {
            "rule": self.rule,
            "until": dict(self.until),
            "chunks": int(self.chunks),
            "rounds": int(self.rounds),
            "met": bool(self.met),
            "detail": self.detail,
            "achieved": dict(self.achieved),
            "rare": dict(self.rare) if self.rare is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "AdaptiveInfo":
        check_fields(payload, _FIELDS, "adaptive")
        return cls(
            rule=str(payload["rule"]),
            until=dict(payload["until"]),
            chunks=int(payload["chunks"]),
            rounds=int(payload["rounds"]),
            met=bool(payload["met"]),
            detail=str(payload["detail"]),
            achieved=dict(payload.get("achieved") or {}),
            rare=dict(payload["rare"]) if payload.get("rare") is not None else None,
        )


@dataclass
class AdaptiveResult(RunResult):
    """A :class:`RunResult` produced by ``Experiment.simulate(until=...)``.

    Everything the base result offers (frequencies, distances, summaries,
    JSON round trip) works unchanged; :attr:`adaptive` carries the stopping
    record and the convenience properties below read it.
    """

    adaptive: "AdaptiveInfo | None" = None

    # -- stopping record ---------------------------------------------------------

    @property
    def stopping_rule(self) -> str:
        """The declared rule's type tag."""
        return self.adaptive.rule if self.adaptive is not None else ""

    @property
    def chunks_consumed(self) -> int:
        """Chunks the sequential controller drew from the deterministic schedule."""
        return self.adaptive.chunks if self.adaptive is not None else 0

    @property
    def rounds(self) -> int:
        """Controller rounds (target evaluations) the run took."""
        return self.adaptive.rounds if self.adaptive is not None else 0

    @property
    def met(self) -> bool:
        """Whether the declared target was reached within the trial ceiling."""
        return bool(self.adaptive is not None and self.adaptive.met)

    @property
    def achieved(self) -> dict[str, float]:
        """The final target evaluation's statistics."""
        return dict(self.adaptive.achieved) if self.adaptive is not None else {}

    # -- rare-event estimate -----------------------------------------------------

    @property
    def rare_probability(self) -> "float | None":
        """Importance-splitting probability estimate (``None`` unless splitting)."""
        if self.adaptive is None or self.adaptive.rare is None:
            return None
        return float(self.adaptive.rare["estimate"])

    @property
    def rare_interval(self) -> "tuple[float, float] | None":
        """The splitting estimate's confidence interval (``None`` unless splitting)."""
        if self.adaptive is None or self.adaptive.rare is None:
            return None
        rare = self.adaptive.rare
        return (float(rare["ci_low"]), float(rare["ci_high"]))

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> str:
        lines = [super().summary()] if self.adaptive is None else []
        if self.adaptive is not None:
            info = self.adaptive
            if info.rare is not None:
                rare = info.rare
                lines = [
                    f"Importance splitting ({rare['outcome']}: "
                    f"{rare['species']} >= {int(rare['threshold'])})",
                    f"  estimate   : {rare['estimate']:.3e}  "
                    f"[{rare['ci_low']:.3e}, {rare['ci_high']:.3e}] "
                    f"@ {rare['confidence']:.0%}",
                    f"  levels     : {len(rare['levels'])} stages x "
                    f"{int(rare['trials_per_level'])} trials",
                    "  stage p    : "
                    + ", ".join(f"{p:.3f}" for p in rare["stage_probabilities"]),
                ]
            else:
                lines = [super().summary()]
                stats = ", ".join(
                    f"{key}={value:.4g}" for key, value in sorted(info.achieved.items())
                )
                lines.append(
                    f"adaptive [{info.rule}] {info.detail}: "
                    f"{self.trials} trials in {info.chunks} chunks "
                    f"({info.rounds} rounds); {stats}"
                )
        return "\n".join(lines)

    # -- JSON round trip ---------------------------------------------------------

    def to_payload(self) -> dict:
        payload = super().to_payload()
        payload["adaptive"] = (
            self.adaptive.to_payload() if self.adaptive is not None else None
        )
        return payload
