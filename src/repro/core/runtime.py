"""Running deterministic modules to completion ("settling").

The deterministic modules of Section 2.2 compute ``Y∞ = f(X0)`` — the output
quantity *after the module has finished*.  Some modules genuinely exhaust
(linear, isolation); others keep idling forever because a trigger species is
catalytic (the logarithm module's ``b → a + b``).  :func:`settle_module`
simulates a module until it exhausts or until a time horizon generous enough
for all its rounds to finish, and returns the settled quantities.

Monte-Carlo repetition goes through the fluent facade —
``Experiment.from_module(module).program(inputs).simulate(...)`` — which runs
it on the batched / multiprocess ensemble machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.modules.base import FunctionalModule
from repro.errors import SimulationError

__all__ = ["SettleResult", "settle_module", "default_horizon"]


@dataclass(frozen=True)
class SettleResult:
    """Result of settling a module once.

    Attributes
    ----------
    outputs:
        Final quantities of the module's output ports, keyed by *role*.
    final_state:
        Full final state keyed by species name.
    final_time / n_firings / stop_reason:
        Simulation diagnostics.
    """

    outputs: dict[str, int]
    final_state: dict[str, int]
    final_time: float
    n_firings: int
    stop_reason: str

    def output(self, role: str = "y") -> int:
        """Settled quantity of one output port."""
        return self.outputs[role]


def default_horizon(module: FunctionalModule, rounds: int = 200) -> float:
    """A simulated-time horizon long enough for ``rounds`` slow-tier rounds.

    The slowest reaction in the module sets the pace of its outermost loop;
    allowing ``rounds`` expected firings of that reaction (at unit reactant
    count) is a generous envelope for every module in the paper, whose loop
    counts are bounded by the input quantities (at most a few tens here).
    """
    slowest = min(reaction.rate for reaction in module.network.reactions)
    if slowest <= 0:
        raise SimulationError("module contains a non-positive reaction rate")
    return rounds / slowest


def settle_module(
    module: FunctionalModule,
    inputs: "Mapping[str, int] | None" = None,
    seed: "int | None" = None,
    engine: str = "direct",
    horizon: "float | None" = None,
    max_steps: int = 2_000_000,
    engine_options=None,
    backend: str = "auto",
) -> SettleResult:
    """Run a module once and return its settled output quantities.

    This is ``Experiment.from_module(module, horizon).program(inputs)
    .configure(max_steps=max_steps).run_once(...)``, reduced to the settled
    quantities.

    Parameters
    ----------
    module:
        The functional module to run.
    inputs:
        Initial quantities of the module's input ports, keyed by role
        (``{"x": 8}``, ``{"x": 3, "p": 2}``).
    horizon:
        Simulated-time limit; defaults to :func:`default_horizon`.
    max_steps:
        Safety bound on the number of firings.
    seed / engine / engine_options / backend:
        As for :meth:`repro.api.experiment.Experiment.run_once`: any registry
        engine, including the deterministic ``"ode"`` mean-field baseline.
    """
    from repro.api.experiment import Experiment

    trajectory = (
        Experiment.from_module(module, horizon)
        .program(dict(inputs or {}))
        .configure(max_steps=max_steps)
        .run_once(engine=engine, seed=seed, engine_options=engine_options, backend=backend)
    )
    final = trajectory.final_state.to_dict()
    outputs = {
        role: int(final.get(species, 0)) for role, species in module.outputs.items()
    }
    return SettleResult(
        outputs=outputs,
        final_state={k: int(v) for k, v in final.items()},
        final_time=trajectory.final_time,
        n_firings=int(trajectory.firing_counts.sum()),
        stop_reason=trajectory.stop_reason,
    )
