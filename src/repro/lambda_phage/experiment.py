"""The Figure-5 experiment: probabilistic response of the lambda models.

Sweep the input quantity MOI from 1 through 10; for each MOI, estimate (by
Monte-Carlo simulation) the percentage of trials in which the cI2 threshold is
reached, for both the natural surrogate and the synthetic model; fit the
``a + b·log2 + c·x`` response to each series; and report the comparison
(table, ASCII chart, fitted coefficients).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.analysis.curvefit import ResponseFit, paper_equation_14
from repro.analysis.empirical import ProportionEstimate
from repro.analysis.plotting import ascii_chart
from repro.analysis.tables import format_table
from repro.api.experiment import Experiment
from repro.lambda_phage.fit import PAPER_MOI_VALUES, fit_response_data
from repro.lambda_phage.natural import NaturalLambdaSurrogate, lysogeny_estimate
from repro.lambda_phage.synthetic import SyntheticLambdaModel

__all__ = ["Figure5Point", "Figure5Result", "run_figure5_experiment", "simulate_synthetic_moi"]


@dataclass(frozen=True)
class Figure5Point:
    """One MOI point of the Figure-5 comparison."""

    moi: float
    equation14_percent: float
    natural: "ProportionEstimate | None"
    synthetic: "ProportionEstimate | None"

    def as_row(self) -> dict[str, object]:
        row: dict[str, object] = {
            "moi": self.moi,
            "eq14_percent": self.equation14_percent,
        }
        if self.natural is not None:
            row["natural_percent"] = self.natural.percent
            row["natural_ci"] = self.natural.half_width * 100.0
        if self.synthetic is not None:
            row["synthetic_percent"] = self.synthetic.percent
            row["synthetic_ci"] = self.synthetic.half_width * 100.0
        return row


@dataclass
class Figure5Result:
    """The full Figure-5 dataset plus fitted response curves."""

    points: list[Figure5Point] = field(default_factory=list)
    natural_fit: "ResponseFit | None" = None
    synthetic_fit: "ResponseFit | None" = None
    n_trials: int = 0

    def table(self) -> str:
        """Aligned text table of the data points."""
        return format_table([p.as_row() for p in self.points], title="Figure 5 data")

    def chart(self) -> str:
        """ASCII rendition of Figure 5."""
        series: dict[str, list[tuple[float, float]]] = {
            "eq14 target": [(p.moi, p.equation14_percent) for p in self.points]
        }
        if all(p.natural is not None for p in self.points):
            series["natural"] = [(p.moi, p.natural.percent) for p in self.points]
        if all(p.synthetic is not None for p in self.points):
            series["synthetic"] = [(p.moi, p.synthetic.percent) for p in self.points]
        return ascii_chart(
            series,
            x_label="MOI",
            y_label="cI2 %",
            title="Figure 5: cI2 threshold reached (%) vs MOI",
        )

    def summary(self) -> str:
        """Table, fits and chart in one report string."""
        lines = [self.table(), ""]
        if self.natural_fit is not None:
            lines.append(f"natural fit   : {self.natural_fit.summary()}")
        if self.synthetic_fit is not None:
            lines.append(f"synthetic fit : {self.synthetic_fit.summary()}")
        lines.append("paper fit     : P ≈ 15.00 + 6.00·log2(MOI) + 0.167·MOI (Eq. 14)")
        lines.append("")
        lines.append(self.chart())
        return "\n".join(lines)


def simulate_synthetic_moi(
    model: SyntheticLambdaModel,
    moi: float,
    n_trials: int,
    seed: "int | None" = None,
    engine: str = "direct",
    max_steps: int = 500_000,
    workers: int = 1,
    engine_options=None,
    backend: str = "auto",
) -> ProportionEstimate:
    """Estimate P(cI2 threshold reached) for the synthetic model at one MOI.

    Runs through the fluent facade: one :class:`~repro.api.Experiment` per
    MOI point, stopped by the model's threshold condition.
    """
    result = (
        Experiment.from_network(model.build(int(moi)), stopping=model.threshold_condition())
        .configure(max_steps=max_steps)
        .simulate(
            trials=n_trials,
            engine=engine,
            seed=seed,
            workers=workers,
            engine_options=engine_options,
            backend=backend,
        )
    )
    return lysogeny_estimate(result)


def run_figure5_experiment(
    moi_values: Sequence[float] = PAPER_MOI_VALUES,
    n_trials: int = 200,
    seed: int = 2007,
    include_natural: bool = True,
    include_synthetic: bool = True,
    engine: str = "direct",
    surrogate: "NaturalLambdaSurrogate | None" = None,
    model: "SyntheticLambdaModel | None" = None,
    engine_options=None,
    backend: str = "auto",
) -> Figure5Result:
    """Run the Figure-5 MOI sweep and return the comparison dataset.

    Parameters
    ----------
    moi_values:
        The MOI grid (the paper uses 1 through 10).
    n_trials:
        Monte-Carlo trials per MOI per model.  The paper's figure uses enough
        trials that the sampling error bars are a few percent; 200 trials give
        ±3–7% (the Wilson intervals are reported alongside the estimates).
    include_natural / include_synthetic:
        Select which series to simulate.
    """
    surrogate = surrogate or NaturalLambdaSurrogate()
    model = model or SyntheticLambdaModel()
    points: list[Figure5Point] = []
    for offset, moi in enumerate(moi_values):
        moi = float(moi)
        natural_estimate = None
        synthetic_estimate = None
        if include_natural:
            natural_estimate = surrogate.simulate_moi(
                moi,
                n_trials=n_trials,
                seed=seed + 10 * offset,
                engine=engine,
                engine_options=engine_options,
                backend=backend,
            )
        if include_synthetic:
            synthetic_estimate = simulate_synthetic_moi(
                model,
                moi,
                n_trials=n_trials,
                seed=seed + 10 * offset + 5,
                engine=engine,
                engine_options=engine_options,
                backend=backend,
            )
        points.append(
            Figure5Point(
                moi=moi,
                equation14_percent=paper_equation_14(moi),
                natural=natural_estimate,
                synthetic=synthetic_estimate,
            )
        )

    natural_fit = None
    synthetic_fit = None
    # The three-coefficient fit needs at least three MOI points.
    if include_natural and len(points) >= 3:
        natural_fit = fit_response_data({p.moi: p.natural.percent for p in points})
    if include_synthetic and len(points) >= 3:
        synthetic_fit = fit_response_data({p.moi: p.synthetic.percent for p in points})
    return Figure5Result(
        points=points,
        natural_fit=natural_fit,
        synthetic_fit=synthetic_fit,
        n_trials=n_trials,
    )
