"""Deterministic mean-field (reaction-rate equation) integration.

For large molecule counts, the expected behaviour of a mass-action CRN is
described by the reaction-rate ODEs ``dx/dt = N · v(x)`` where ``N`` is the
stoichiometry matrix and ``v`` the deterministic mass-action rates.  The
paper's point is precisely that this description *misses* the stochastic
choice behaviour at small counts — the mean-field stochastic module settles to
a blend of outcomes rather than picking one.  The ODE integrator is therefore
useful both as an analysis baseline (what a deterministic designer would
predict) and for quickly checking the bulk behaviour of the deterministic
functional modules.

Integration uses :func:`scipy.integrate.solve_ivp` (LSODA by default, which
copes with the stiff rate separations the synthesis method relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from repro.crn.network import ReactionNetwork
from repro.crn.species import Species, as_species
from repro.crn.state import State
from repro.errors import SimulationError
from repro.sim.base import merge_options, resolve_initial_counts
from repro.sim.propensity import CompiledNetwork
from repro.sim.registry import register_engine

__all__ = ["OdeResult", "OdeIntegrator", "OdeOptions", "OdeEngine", "simulate_ode"]


@dataclass
class OdeResult:
    """Mean-field trajectory.

    Attributes
    ----------
    times:
        Time grid of the solution.
    concentrations:
        Array of shape ``(len(times), n_species)``.
    species:
        Column labels.
    """

    times: np.ndarray
    concentrations: np.ndarray
    species: tuple[Species, ...]

    def series(self, species: "Species | str") -> np.ndarray:
        """Concentration time-series for one species."""
        sp = as_species(species)
        try:
            column = list(self.species).index(sp)
        except ValueError as exc:
            raise SimulationError(f"species {sp.name!r} not in ODE result") from exc
        return self.concentrations[:, column]

    def final(self, species: "Species | str") -> float:
        """Final concentration of one species."""
        return float(self.series(species)[-1])

    def final_state(self) -> dict[str, float]:
        """Final concentrations keyed by species name."""
        return {s.name: float(self.concentrations[-1, i]) for i, s in enumerate(self.species)}


class OdeIntegrator:
    """Mean-field integrator for a reaction network."""

    def __init__(self, network: "ReactionNetwork | CompiledNetwork") -> None:
        self.compiled = (
            network
            if isinstance(network, CompiledNetwork)
            else CompiledNetwork.compile(network)
        )
        # Net stoichiometry matrix (species x reactions) for the RHS.
        compiled = self.compiled
        self._net = np.zeros((compiled.n_species, compiled.n_reactions))
        for j in range(compiled.n_reactions):
            for s, delta in zip(compiled.change_species[j], compiled.change_deltas[j]):
                self._net[s, j] = delta

    def right_hand_side(self, _time: float, concentrations: np.ndarray) -> np.ndarray:
        """dx/dt = N · v(x) under deterministic mass action."""
        rates = self.compiled.mass_action_rates(concentrations)
        return self._net @ rates

    def run(
        self,
        t_final: float,
        initial_state: "State | dict | None" = None,
        n_points: int = 200,
        method: str = "LSODA",
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> OdeResult:
        """Integrate from 0 to ``t_final`` and return an :class:`OdeResult`."""
        if t_final <= 0:
            raise SimulationError(f"t_final must be positive, got {t_final}")
        compiled = self.compiled
        x0 = resolve_initial_counts(compiled, initial_state).astype(float)
        grid = np.linspace(0.0, t_final, max(int(n_points), 2))
        solution = solve_ivp(
            self.right_hand_side,
            (0.0, t_final),
            x0,
            t_eval=grid,
            method=method,
            rtol=rtol,
            atol=atol,
        )
        if not solution.success:
            raise SimulationError(f"ODE integration failed: {solution.message}")
        return OdeResult(
            times=solution.t,
            concentrations=solution.y.T,
            species=compiled.species,
        )


def simulate_ode(
    network: "ReactionNetwork | CompiledNetwork",
    t_final: float,
    initial_state: "State | dict | None" = None,
    n_points: int = 200,
) -> OdeResult:
    """One-call convenience wrapper around :class:`OdeIntegrator`."""
    return OdeIntegrator(network).run(t_final, initial_state=initial_state, n_points=n_points)


@dataclass
class OdeOptions:
    """Tuning knobs for the ``ode`` engine (the ``engine_options`` payload).

    Attributes
    ----------
    method / rtol / atol:
        Passed to :func:`scipy.integrate.solve_ivp` (LSODA copes with the
        stiff rate separations the synthesis method produces).
    n_points:
        Size of the evaluation grid.
    """

    method: str = "LSODA"
    rtol: float = 1e-6
    atol: float = 1e-9
    n_points: int = 200


@register_engine(
    "ode",
    exact=False,
    approximate=True,
    supports_events=False,
    deterministic=True,
    backends=(),
    options_type=OdeOptions,
    options_param="ode_options",
    summary="deterministic mean-field (reaction-rate equation) integration",
)
class OdeEngine:
    """The mean-field integrator behind the engine ``run()`` protocol.

    ``engine="ode"`` works wherever one trajectory is asked for
    (:func:`make_simulator`, ``Experiment.run_once``, ``settle_module``) and
    returns the bulk prediction as a log-free trajectory, counts rounded to
    integers.  It resolves the start and merges options through the helpers
    every engine shares, so an unknown species or option is a
    :class:`~repro.errors.SimulationError`, and so is a mean field that
    diverges past any count.  It is *deterministic* (the seed is ignored, and
    ensembles reject it), takes no stopping condition, and needs a finite
    ``max_time``: the mean field of a catalytic module never exhausts.
    """

    method_name = "ode"

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        seed=None,
        ode_options: "OdeOptions | None" = None,
    ) -> None:
        self._integrator = OdeIntegrator(network)
        self.compiled = self._integrator.compiled
        self.ode_options = ode_options or OdeOptions()

    @property
    def network(self) -> ReactionNetwork:
        """The underlying reaction network."""
        return self.compiled.network

    def run(
        self,
        initial_state: "State | dict | None" = None,
        stopping=None,
        options=None,
        seed=None,
        **option_overrides,
    ):
        """Integrate the mean field to ``options.max_time``; return a Trajectory."""
        from repro.sim.trajectory import StopReason, Trajectory

        if stopping is not None:
            raise SimulationError(
                "the 'ode' engine does not support stopping conditions; "
                "integrate to a finite max_time instead"
            )
        opts = merge_options(options, option_overrides)
        if not math.isfinite(opts.max_time):
            raise SimulationError(
                "the 'ode' engine needs a finite max_time "
                "(pass options=SimulationOptions(max_time=...))"
            )
        ode = self.ode_options
        result = self._integrator.run(
            opts.max_time,
            initial_state=initial_state,
            n_points=ode.n_points,
            method=ode.method,
            rtol=ode.rtol,
            atol=ode.atol,
        )
        # An unbounded mean field overflows; no int64 count can hold it.
        unbounded = np.argwhere(~(np.abs(result.concentrations) < 2.0**63))
        if unbounded.size:
            row, column = unbounded[0]
            raise SimulationError(
                f"the mean field diverged: species {result.species[column].name!r} "
                f"reached {result.concentrations[row, column]:g} at t={result.times[row]:g}"
            )
        counts = np.rint(result.concentrations[-1]).astype(np.int64)
        return Trajectory(
            times=np.empty(0, dtype=float),
            reaction_indices=np.empty(0, dtype=np.int64),
            final_state=self.compiled.counts_to_state(counts),
            final_time=float(result.times[-1]),
            stop_reason=StopReason.MAX_TIME,
            stop_detail="",
            species_order=self.compiled.species,
            snapshot_times=result.times,
            state_snapshots=np.rint(result.concentrations).astype(np.int64),
            firing_counts=np.zeros(self.compiled.n_reactions, dtype=np.int64),
        )
