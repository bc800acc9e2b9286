"""Results of a facade experiment run.

:class:`RunResult` is what :meth:`repro.api.Experiment.simulate` returns: the
underlying :class:`~repro.sim.ensemble.EnsembleResult` plus the experiment's
metadata (engine, seed, inputs, programmed target distribution, module output
ports), with the paper's analysis quantities exposed lazily — outcome
frequencies, distances to the target (Section 2.1's programmed distribution),
decision-time summaries — and a JSON round trip for archiving runs.

Payload format (``repro.run-result/v3``): the per-trial arrays of the
ensemble (``final_counts``, ``final_times``, ``n_firings``) are *typed
columns*, ``{"dtype": ..., "shape": [...], "data": <base64>}`` holding the
array's little-endian bytes, instead of JSON number lists — so writing,
storing, serving and reading a 10⁴-trial result encodes no per-trial JSON
numbers.  ``final_times`` is ``"<f8"``; the integer columns are written at
the narrowest of ``"<i1"``, ``"<i2"``, ``"<i4"``, ``"<i8"`` that holds their
values (:func:`column_dtype`), and always decode to int64.  Readers still
accept ``repro.run-result/v2`` payloads (every integer column ``"<i8"``)
and ``repro.run-result/v1`` payloads, whose arrays are JSON lists; every
column is validated on read.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.crn.species import as_species
from repro.errors import ExperimentError
from repro.sim.ensemble import EnsembleResult

__all__ = [
    "RunResult",
    "column_dtype",
    "decode_column",
    "encode_column",
    "ensemble_column",
    "ensemble_to_payload",
    "ensemble_from_payload",
]

_SCHEMA = "repro.run-result/v3"
#: Result schemas accepted on input (v2 writes every integer column at
#: ``"<i8"``; v1 carries the arrays as JSON lists).
_ACCEPTED_SCHEMAS = ("repro.run-result/v1", "repro.run-result/v2", _SCHEMA)

#: The in-memory dtype of each per-trial ensemble array.
_COLUMN_DTYPES = {"final_counts": "<i8", "final_times": "<f8", "n_firings": "<i8"}
#: The column dtypes that decode to each in-memory dtype, narrowest first.
_WIDTHS = {"<i8": ("<i1", "<i2", "<i4", "<i8"), "<f8": ("<f8",)}
#: The numpy type each in-memory dtype decodes to.
_NATIVE = {"<i8": np.int64, "<f8": np.float64}


def column_dtype(values: np.ndarray, dtype: str) -> str:
    """The column dtype ``values`` (in-memory ``dtype``) are written at.

    An integer array gets the narrowest width that holds its minimum and
    maximum (``"<i1"`` when empty), so equal arrays always encode to equal
    text; a float array stays ``"<f8"``.
    """
    widths = _WIDTHS[dtype]
    if len(widths) == 1 or values.size == 0:
        return widths[0]
    low, high = int(values.min()), int(values.max())
    return next(
        width for width in widths if np.iinfo(width).min <= low and high <= np.iinfo(width).max
    )


def encode_column(values: np.ndarray, dtype: str) -> dict:
    """A typed column: ``values`` as little-endian ``dtype`` bytes in base64."""
    data = np.ascontiguousarray(values, dtype=dtype)
    return {
        "dtype": dtype,
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def decode_column(column: object, dtype: str, field: str) -> np.ndarray:
    """The in-memory ``dtype`` array of a typed column, validated.

    ``dtype`` is ``"<i8"`` (the column may be any of ``"<i1"`` … ``"<i8"``)
    or ``"<f8"``.  Raises :class:`~repro.errors.ExperimentError` naming
    ``field`` when the column's dtype is not one of those, its shape is
    malformed, its data is not base64 or its byte length is not
    prod(shape) × the column dtype's itemsize.
    """
    if not isinstance(column, Mapping):
        raise ExperimentError(f"{field}: expected a typed column, got {type(column).__name__}")
    label = column.get("dtype")
    if label not in _WIDTHS[dtype]:
        raise ExperimentError(
            f"{field}: column dtype {label!r} is not "
            + " or ".join(repr(width) for width in _WIDTHS[dtype])
        )
    shape = column.get("shape")
    if not isinstance(shape, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
    ):
        raise ExperimentError(f"{field}: column shape {shape!r} is not a list of sizes")
    data = column.get("data")
    try:
        if not isinstance(data, str):
            raise TypeError(type(data).__name__)
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError, binascii.Error) as exc:
        raise ExperimentError(f"{field}: column data is not base64 ({exc})") from None
    itemsize = np.dtype(label).itemsize
    if len(raw) != math.prod(shape) * itemsize:
        raise ExperimentError(
            f"{field}: column holds {len(raw)} bytes, but shape {shape} of "
            f"dtype {label!r} needs {math.prod(shape) * itemsize}"
        )
    return np.frombuffer(raw, dtype=label).astype(_NATIVE[dtype]).reshape(shape)


def ensemble_to_payload(ensemble: EnsembleResult) -> dict:
    """JSON-compatible payload of an :class:`EnsembleResult` (sans trajectories).

    :meth:`RunResult.to_payload` embeds it under its ``"ensemble"`` key.
    The per-trial arrays are typed columns (:func:`encode_column`), the
    integer ones at their narrowest width (:func:`column_dtype`).
    """
    columns = {name: getattr(ensemble, name) for name in _COLUMN_DTYPES}
    return {
        "n_trials": ensemble.n_trials,
        "outcome_counts": dict(ensemble.outcome_counts),
        "species": [s.name for s in ensemble.species],
        **{
            name: encode_column(values, column_dtype(values, _COLUMN_DTYPES[name]))
            for name, values in columns.items()
        },
    }


def ensemble_column(raw: Mapping, name: str) -> np.ndarray:
    """One per-trial array of an ensemble payload, from a typed column or a
    v1 list (``ExperimentError`` naming the field when malformed)."""
    value = raw[name]
    dtype = _COLUMN_DTYPES[name]
    if isinstance(value, list):
        try:
            return np.asarray(value, dtype=_NATIVE[dtype])
        except (TypeError, ValueError) as exc:
            raise ExperimentError(f"ensemble.{name}: malformed list ({exc})") from None
    return decode_column(value, dtype, f"ensemble.{name}")


def ensemble_from_payload(raw: Mapping) -> EnsembleResult:
    """Rebuild an :class:`EnsembleResult` from :func:`ensemble_to_payload` output.

    Accepts typed columns of any width a field allows, and the v1 JSON
    lists; every array decodes to its in-memory dtype (int64 or float64).
    The arrays must agree: one row per trial (or none, for results that
    sample no trajectories) and one ``final_counts`` column per species;
    otherwise :class:`~repro.errors.ExperimentError` names the field.
    Trajectories are not round-tripped; :attr:`EnsembleResult.moments` is
    computed from the final-count matrix when first read.
    """
    n_trials = int(raw["n_trials"])
    species = tuple(as_species(name) for name in raw["species"])
    final_counts = ensemble_column(raw, "final_counts")
    if final_counts.size == 0 and final_counts.ndim < 2:
        final_counts = final_counts.reshape(0, len(species))  # v1: []
    rows = final_counts.shape[0] if final_counts.ndim == 2 else -1
    if rows not in (n_trials, 0) or final_counts.shape[1:] != (len(species),):
        raise ExperimentError(
            f"ensemble.final_counts: shape {list(final_counts.shape)} disagrees "
            f"with n_trials={n_trials} and {len(species)} species"
        )
    arrays = {"final_counts": final_counts}
    for name in ("final_times", "n_firings"):
        arrays[name] = ensemble_column(raw, name)
        if arrays[name].shape != (rows,):
            raise ExperimentError(
                f"ensemble.{name}: shape {list(arrays[name].shape)} disagrees "
                f"with the {rows} rows of ensemble.final_counts"
            )
    return EnsembleResult(
        n_trials=n_trials,
        outcome_counts={str(k): int(v) for k, v in raw["outcome_counts"].items()},
        species=species,
        **arrays,
    )


@dataclass
class RunResult:
    """Aggregated outcome of one :meth:`Experiment.simulate` call.

    Attributes
    ----------
    ensemble:
        The raw :class:`~repro.sim.ensemble.EnsembleResult` (final counts,
        outcome counts, per-species moments, optional trajectories).
    engine / backend / trials / seed / workers:
        How the run was executed (``backend`` is the simulation-kernel
        backend requested for the run — ``"auto"`` unless overridden).
    inputs:
        Programmed input quantities (``Experiment.program``).
    target:
        The distribution the design was programmed to produce, when the
        experiment knows one (synthesized systems; optional for raw
        networks) — the reference for :meth:`distances`.
    outputs:
        Output-port map ``{role: species}`` for module experiments.
    expected_outputs:
        Ideal module outputs at these inputs (``module.expected``), if known.
    label:
        Human-readable experiment label.
    exact:
        Exact outcome probabilities, set when the run used a
        distribution-computing engine (``engine="fsp"``) instead of sampling;
        :attr:`frequencies` then reports these (noise-free) probabilities and
        the ensemble carries nominal rounded counts only.
    exact_info:
        Solver metadata for exact runs (``n_states``, ``n_transient``).
    """

    ensemble: EnsembleResult
    engine: str = "direct"
    backend: str = "auto"
    trials: int = 0
    seed: "int | None" = None
    workers: int = 1
    inputs: dict[str, int] = field(default_factory=dict)
    target: "dict[str, float] | None" = None
    outputs: "dict[str, str] | None" = None
    expected_outputs: "dict[str, float] | None" = None
    label: str = "experiment"
    exact: "dict[str, float] | None" = None
    exact_info: "dict[str, float] | None" = None

    # -- outcome statistics ------------------------------------------------------

    @property
    def frequencies(self) -> dict[str, float]:
        """Outcome frequencies over decided trials.

        Empirical for sampled runs; for exact runs (``exact`` set) these are
        the noise-free absorption probabilities, renormalized over decided
        outcomes.
        """
        if self.exact is not None:
            decided = {
                k: v for k, v in self.exact.items() if k != EnsembleResult.UNDECIDED
            }
            total = sum(decided.values())
            if total <= 0:
                return {}
            return {k: v / total for k, v in sorted(decided.items())}
        return self.ensemble.outcome_distribution()

    def frequency(self, outcome: str) -> float:
        """Empirical frequency of one outcome label."""
        return self.frequencies.get(outcome, 0.0)

    def decided_fraction(self) -> float:
        """Fraction of trials (or exact probability mass) that produced an outcome."""
        if self.exact is not None:
            return 1.0 - self.exact.get(EnsembleResult.UNDECIDED, 0.0)
        return self.ensemble.decided_fraction()

    def _reference(self, target: "Mapping[str, float] | None") -> dict[str, float]:
        reference = dict(target) if target is not None else self.target
        if not reference:
            raise ExperimentError(
                "no target distribution to compare against; the experiment was "
                "built from a raw network — pass target=... explicitly"
            )
        return dict(reference)

    def distances(self, target: "Mapping[str, float] | None" = None) -> dict[str, float]:
        """All distribution distances between the measured and target outcomes.

        Wires :mod:`repro.analysis.distance`: total variation, Jensen–Shannon,
        Hellinger and (possibly infinite) Kullback–Leibler divergence of the
        empirical frequencies from the programmed target.
        """
        from repro.analysis.distance import (
            hellinger,
            jensen_shannon,
            kl_divergence,
            total_variation,
        )

        reference = self._reference(target)
        measured = self.frequencies
        if not measured:
            raise ExperimentError("no decided trials; cannot compute distances")
        return {
            "total_variation": total_variation(measured, reference),
            "jensen_shannon": jensen_shannon(measured, reference),
            "hellinger": hellinger(measured, reference),
            "kl_divergence": kl_divergence(measured, reference),
        }

    def total_variation(self, target: "Mapping[str, float] | None" = None) -> float:
        """Total-variation distance from the target distribution."""
        from repro.analysis.distance import total_variation

        return total_variation(self.frequencies, self._reference(target))

    def chi_squared(self, target: "Mapping[str, float] | None" = None) -> float:
        """Pearson chi-squared statistic of outcome counts vs the target.

        Computed over decided trials against the (normalized) target
        probabilities — the statistic the batch-vs-sequential agreement tests
        use, exposed here so acceptance checks read fluently.
        """
        from repro.analysis.distance import normalize

        reference = normalize(self._reference(target))
        counts = dict(self.ensemble.outcome_counts)
        counts.pop(EnsembleResult.UNDECIDED, None)
        n = sum(counts.values())
        if n == 0:
            raise ExperimentError("no decided trials; cannot compute chi-squared")
        return float(
            sum(
                (counts.get(label, 0) - n * p) ** 2 / (n * p)
                for label, p in reference.items()
                if p > 0
            )
        )

    # -- decision times ----------------------------------------------------------

    def decision_times(self) -> dict[str, float]:
        """Latency summary of decided trials (simulated time units).

        ``mean`` / ``std`` / ``median`` / ``p95`` of the time at which the
        outcome was declared, ``mean_firings`` (the simulation cost) and
        ``n_trials``, the number of trials summarized.  Raises
        when no trial decided.  Per-trial decision labels are not stored, so
        a trial's stop time stands in for its decision time; when some trials
        end undecided (``decided_fraction() < 1``), their cutoff times are
        included in the summary.
        """
        if self.exact is not None:
            raise ExperimentError(
                "exact distribution runs sample no trajectories and have no "
                "decision times; use a sampling engine for latency statistics"
            )
        if self.decided_fraction() == 0.0:
            raise ExperimentError(
                "no trial reached a decision; check the stopping condition"
            )
        decided = self.ensemble.final_times[self.ensemble.final_times > 0.0]
        if decided.size == 0:
            raise ExperimentError(
                "no trial reached a decision; check the stopping condition"
            )
        return {
            "mean": float(np.mean(decided)),
            "std": float(np.std(decided, ddof=1)) if decided.size > 1 else 0.0,
            "median": float(np.median(decided)),
            "p95": float(np.percentile(decided, 95)),
            "mean_firings": float(np.mean(self.ensemble.n_firings)),
            "n_trials": float(decided.size),
        }

    # -- module outputs ----------------------------------------------------------

    def output_values(self, role: str = "y") -> np.ndarray:
        """Per-trial settled values of one module output port."""
        if not self.outputs:
            raise ExperimentError(
                "this run has no output ports; only module experiments "
                "(Experiment.from_module) do"
            )
        try:
            species = self.outputs[role]
        except KeyError:
            raise ExperimentError(
                f"no output port {role!r}; available: {sorted(self.outputs)}"
            ) from None
        return self.ensemble.final_values(species)

    def output_summary(self, role: str = "y") -> dict[str, float]:
        """Mean/std/min/max of one output port (plus the ideal value if known).

        Keys: ``mean``, ``std``, ``min``, ``max``, ``n_trials`` and, when the
        module declares its ideal function, ``expected``.
        """
        values = self.output_values(role).astype(float)
        summary = {
            "mean": float(values.mean()),
            "std": float(values.std(ddof=1)) if values.size > 1 else 0.0,
            "min": float(values.min()),
            "max": float(values.max()),
            "n_trials": float(values.size),
        }
        if self.expected_outputs and role in self.expected_outputs:
            summary["expected"] = float(self.expected_outputs[role])
        return summary

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> str:
        """Multi-line report: ensemble counts, target-vs-measured, TV distance."""
        if self.exact is not None:
            info = self.exact_info or {}
            lines = [
                f"Exact distribution ({self.engine}, "
                f"{int(info.get('n_states', 0))} states, "
                f"{int(info.get('n_transient', 0))} transient)"
            ]
            for label, probability in sorted(self.exact.items()):
                lines.append(f"  {label:<20s}: {probability:8.6f}")
        else:
            lines = [self.ensemble.summary()]
        if self.target:
            measured = self.frequencies
            lines.append("")
            lines.append(f"{'outcome':<14s} {'target':>8s} {'measured':>9s}")
            for outcome in sorted(set(self.target) | set(measured)):
                lines.append(
                    f"{outcome:<14s} {self.target.get(outcome, 0.0):8.4f} "
                    f"{measured.get(outcome, 0.0):9.4f}"
                )
            trials = (
                "exact" if self.exact is not None else f"{self.ensemble.n_trials} trials"
            )
            lines.append(f"TV distance: {self.total_variation():.4f} ({trials})")
        return "\n".join(lines)

    # -- JSON round trip ---------------------------------------------------------

    def to_payload(self) -> dict:
        """The result as a JSON-compatible dictionary (sans trajectories).

        This is exactly what :meth:`to_json` serializes; the result store
        persists this payload verbatim, so a cache hit re-serializes to the
        same canonical JSON the cold run produced.  ``version`` records the
        library version that wrote the payload — the store rejects artifacts
        written by an incompatible schema.
        """
        from repro import __version__

        return {
            "schema": _SCHEMA,
            "version": __version__,
            "label": self.label,
            "engine": self.engine,
            "backend": self.backend,
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "inputs": dict(self.inputs),
            "target": dict(self.target) if self.target is not None else None,
            "outputs": dict(self.outputs) if self.outputs is not None else None,
            "expected_outputs": (
                dict(self.expected_outputs)
                if self.expected_outputs is not None
                else None
            ),
            "exact": dict(self.exact) if self.exact is not None else None,
            "exact_info": dict(self.exact_info) if self.exact_info is not None else None,
            "ensemble": ensemble_to_payload(self.ensemble),
        }

    def to_json(self, path: "str | Path | None" = None, indent: int = 2) -> str:
        """Serialize the result (sans trajectories) to JSON; optionally write it."""
        text = json.dumps(self.to_payload(), indent=indent)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_payload(cls, payload: Mapping) -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_payload` output.

        Payloads carrying an ``"adaptive"`` stopping record (written by
        ``Experiment.simulate(until=...)``) reconstruct as
        :class:`~repro.adaptive.result.AdaptiveResult`, so store and service
        cache hits return the same type the cold run produced.
        """
        if payload.get("schema") not in _ACCEPTED_SCHEMAS:
            raise ExperimentError(
                f"unrecognized result schema {payload.get('schema')!r}; expected "
                f"one of {list(_ACCEPTED_SCHEMAS)}"
            )
        kwargs = dict(
            ensemble=ensemble_from_payload(payload["ensemble"]),
            engine=payload["engine"],
            backend=str(payload.get("backend", "auto")),
            trials=int(payload["trials"]),
            seed=payload["seed"],
            workers=int(payload["workers"]),
            inputs={str(k): int(v) for k, v in payload["inputs"].items()},
            target=payload["target"],
            outputs=payload["outputs"],
            expected_outputs=payload["expected_outputs"],
            label=payload["label"],
            exact=payload.get("exact"),
            exact_info=payload.get("exact_info"),
        )
        if payload.get("adaptive") is not None:
            from repro.adaptive.result import AdaptiveInfo, AdaptiveResult

            return AdaptiveResult(
                adaptive=AdaptiveInfo.from_payload(payload["adaptive"]), **kwargs
            )
        return cls(**kwargs)

    @classmethod
    def from_json(cls, source: "str | Path") -> "RunResult":
        """Rebuild a :class:`RunResult` from :meth:`to_json` output (text or path).

        Trajectories are not round-tripped; the ensemble's ``moments`` are
        computed from the final-count matrix when first read.
        """
        text = source
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        elif isinstance(source, str) and not source.lstrip().startswith("{"):
            text = Path(source).read_text(encoding="utf-8")
        return cls.from_payload(json.loads(text))
