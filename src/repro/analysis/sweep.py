"""Parameter sweeps: run an experiment over a grid and collect tabular results.

A sweep varies one parameter (γ, MOI, trial count), runs a measurement at
each point and reports a table of rows.  Results are plain lists of
dictionaries, renderable as aligned text
(:func:`repro.analysis.tables.format_table`) or CSV.

Grid points are independent measurements, so a sweep parallelizes the same
way an ensemble does: ``ParameterSweep.run(workers=N)`` distributes the grid
across worker processes while keeping the row order of the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.errors import AnalysisError

__all__ = ["SweepResult", "ParameterSweep", "ExperimentMeasure"]


class ExperimentMeasure:
    """Picklable sweep measure built on the fluent facade.

    Wraps *build a per-point* :class:`repro.api.Experiment` *, simulate it,
    extract a row* so that grids of facade experiments plug straight into
    :class:`ParameterSweep` — including its multiprocess path, for which a
    lambda would not pickle (``builder`` and ``row`` must be module-level
    callables or bound methods of picklable objects).

    Parameters
    ----------
    builder:
        Callable mapping one grid value to an :class:`~repro.api.Experiment`.
    row:
        Callable mapping ``(value, RunResult)`` to the row dictionary.
        Default: one ``p[label]`` column per outcome plus ``tv_distance``
        when the experiment knows its target.
    store:
        Optional :class:`~repro.store.ResultStore` (or directory path)
        threaded into every point's ``simulate(store=...)`` call — repeated
        sweeps (and overlapping grids) are then served from the
        content-addressed cache instead of re-simulating.  In multiprocess
        sweeps each worker writes its own artifacts to the shared directory.
    simulate_kwargs:
        Passed to :meth:`~repro.api.Experiment.simulate` at every point
        (``trials=``, ``engine=``, ``seed=``, ``workers=`` ...).
    """

    def __init__(
        self,
        builder: "Callable[[object], object]",
        row: "Callable[[object, object], Mapping[str, object]] | None" = None,
        store: object = None,
        **simulate_kwargs: object,
    ) -> None:
        self.builder = builder
        self.row = row
        self.simulate_kwargs = dict(simulate_kwargs)
        if store is not None:
            self.simulate_kwargs["store"] = store

    def __call__(self, value: object) -> dict[str, object]:
        result = self.builder(value).simulate(**self.simulate_kwargs)
        if self.row is not None:
            return dict(self.row(value, result))
        columns: dict[str, object] = {
            f"p[{label}]": freq for label, freq in result.frequencies.items()
        }
        if result.target:
            columns["tv_distance"] = result.total_variation()
        return columns


@dataclass
class SweepResult:
    """The rows produced by a parameter sweep.

    Attributes
    ----------
    parameter:
        Name of the swept parameter (becomes the first column).
    rows:
        One dictionary per sweep point; all rows share the same keys.
    """

    parameter: str
    rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def columns(self) -> list[str]:
        """Column names, with the swept parameter first."""
        if not self.rows:
            return [self.parameter]
        keys = [self.parameter] + [k for k in self.rows[0] if k != self.parameter]
        return keys

    def column(self, name: str) -> list[object]:
        """All values of one column."""
        if not self.rows:
            return []
        if name not in self.rows[0]:
            raise AnalysisError(f"unknown column {name!r}; have {list(self.rows[0])}")
        return [row[name] for row in self.rows]

    def to_csv(self, path: "str | Path") -> Path:
        """Write the rows to a CSV file and return the path."""
        import csv

        target = Path(path)
        with target.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=self.columns)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({key: row.get(key, "") for key in self.columns})
        return target

    def format(self, floatfmt: str = "{:.4g}") -> str:
        """Render the rows as an aligned text table."""
        from repro.analysis.tables import format_table

        return format_table(self.rows, columns=self.columns, floatfmt=floatfmt)


class ParameterSweep:
    """Run a measurement function over a parameter grid.

    Parameters
    ----------
    parameter:
        Name of the swept parameter.
    values:
        The grid.
    measure:
        Callable taking one grid value and returning a ``{column: value}``
        mapping for that row.
    """

    def __init__(
        self,
        parameter: str,
        values: Iterable[object],
        measure: Callable[[object], Mapping[str, object]],
    ) -> None:
        self.parameter = parameter
        self.values = list(values)
        self.measure = measure
        if not self.values:
            raise AnalysisError("sweep needs at least one parameter value")

    @classmethod
    def over_experiments(
        cls,
        parameter: str,
        values: Iterable[object],
        builder: "Callable[[object], object]",
        row: "Callable[[object, object], Mapping[str, object]] | None" = None,
        store: object = None,
        **simulate_kwargs: object,
    ) -> "ParameterSweep":
        """Sweep a grid of facade experiments.

        ``builder(value)`` returns the :class:`repro.api.Experiment` for one
        grid point; ``simulate_kwargs`` configure every point's
        :meth:`~repro.api.Experiment.simulate` call, and ``store`` makes the
        sweep cache-aware (see :class:`ExperimentMeasure`).  See
        :class:`ExperimentMeasure` for the row format and picklability rules
        (``run(workers=N)`` works when ``builder`` and ``row`` pickle).
        """
        return cls(
            parameter,
            values,
            ExperimentMeasure(builder, row=row, store=store, **simulate_kwargs),
        )

    def run(
        self,
        progress: "Callable[[str], None] | None" = None,
        workers: int = 1,
    ) -> SweepResult:
        """Execute the sweep and return its :class:`SweepResult`.

        ``workers > 1`` evaluates the grid points in a ``multiprocessing``
        pool (the ``measure`` callable must then be picklable — a
        module-level function or a bound method of a picklable object, not a
        lambda).  Row order always follows the grid order.
        """
        if workers < 1:
            raise AnalysisError(f"workers must be positive, got {workers}")
        result = SweepResult(parameter=self.parameter)
        if workers > 1 and len(self.values) > 1:
            from repro.sim.ensemble import pool_context

            if progress is not None:
                progress(
                    f"{self.parameter}: {len(self.values)} points on {workers} workers"
                )
            context = pool_context()
            with context.Pool(processes=min(workers, len(self.values))) as pool:
                measured = pool.map(self.measure, self.values)
            for value, row_mapping in zip(self.values, measured):
                row = dict(row_mapping)
                row.setdefault(self.parameter, value)
                result.rows.append(row)
            return result
        for value in self.values:
            if progress is not None:
                progress(f"{self.parameter} = {value}")
            row = dict(self.measure(value))
            row.setdefault(self.parameter, value)
            result.rows.append(row)
        return result
