"""The library's front door: the fluent design → simulate → analyze API.

::

    from repro.api import Experiment

    result = (
        Experiment.from_distribution({"a": 0.3, "b": 0.7}, gamma=1e3)
        .simulate(trials=1000, engine="batch-direct", workers=2, seed=1)
    )
    print(result.summary())

See :class:`Experiment` (the builder) and :class:`RunResult` (the analysis
view).  Engines are resolved by name through the engine table in
:mod:`repro.sim.registry`.
"""

from repro.api.experiment import Experiment
from repro.api.results import RunResult

__all__ = ["Experiment", "RunResult"]
