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
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.integrate import OdeSolver, solve_ivp

from repro.crn.network import ReactionNetwork
from repro.crn.species import Species, as_species
from repro.crn.state import State
from repro.errors import SimulationError
from repro.sim.base import check_number, merge_options, resolve_initial_counts
from repro.sim.propensity import CompiledNetwork
from repro.sim.registry import register_engine

__all__ = ["OdeResult", "OdeIntegrator", "OdeOptions", "OdeEngine", "simulate_ode"]

#: No int64 count can hold a concentration at or past this bound.
_COUNT_BOUND = 2.0**63


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
        self.compiled = CompiledNetwork.coerce(network)
        # Net stoichiometry matrix (species x reactions) for the RHS.
        self._net = np.ascontiguousarray(self.compiled.delta_matrix.T, dtype=np.float64)

    def mass_action_rates(self, concentrations: np.ndarray) -> np.ndarray:
        """Deterministic mass-action rate of each reaction given concentrations.

        Rate ``c * prod(x_s ** n_s)`` (continuous approximation, no
        combinatorial correction).
        """
        rates = np.array(self.compiled.rates, dtype=float)
        for j, reactants in enumerate(self.compiled.py_views()["reactants"]):
            value = 1.0
            for s, n in reactants:
                value *= max(concentrations[s], 0.0) ** n
            rates[j] *= value
        return rates

    def right_hand_side(self, _time: float, concentrations: np.ndarray) -> np.ndarray:
        """dx/dt = N · v(x) under deterministic mass action."""
        return self._net @ self.mass_action_rates(concentrations)

    def run(
        self,
        t_final: float,
        initial_state: "State | dict | None" = None,
        n_points: int = 200,
        method: str = "LSODA",
        rtol: float = 1e-6,
        atol: float = 1e-9,
    ) -> OdeResult:
        """Integrate from 0 to ``t_final`` and return an :class:`OdeResult`.

        A mean field that diverges past any int64 count stops the solve
        there, with a :class:`SimulationError` naming the species.
        """
        if t_final <= 0:
            raise SimulationError(f"t_final must be positive, got {t_final}")
        compiled = self.compiled
        x0 = resolve_initial_counts(compiled, initial_state).astype(float)
        grid = np.linspace(0.0, t_final, max(int(n_points), 2))

        def diverged(_time: float, concentrations: np.ndarray) -> float:
            return _COUNT_BOUND - np.max(np.abs(concentrations))

        diverged.terminal = True
        solution = solve_ivp(
            self.right_hand_side,
            (0.0, t_final),
            x0,
            t_eval=grid,
            method=method,
            rtol=rtol,
            atol=atol,
            events=diverged,
        )
        if not solution.success:
            raise SimulationError(f"ODE integration failed: {solution.message}")
        if solution.status == 1:
            state = solution.y_events[0][0]
            column = int(np.argmax(np.abs(state)))
            raise SimulationError(
                f"the mean field diverged: species {compiled.species[column].name!r} "
                f"reached {state[column]:g} at t={solution.t_events[0][0]:g}"
            )
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


#: The integrators :func:`scipy.integrate.solve_ivp` selects by name.
_SOLVE_IVP_METHODS = ("RK23", "RK45", "DOP853", "Radau", "BDF", "LSODA")


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

    def __post_init__(self) -> None:
        if not (
            self.method in _SOLVE_IVP_METHODS
            or (isinstance(self.method, type) and issubclass(self.method, OdeSolver))
        ):
            raise SimulationError(
                f"method must be one of {list(_SOLVE_IVP_METHODS)} or an OdeSolver "
                f"class, got {self.method!r}"
            )
        check_number("rtol", self.rtol)
        check_number("atol", self.atol)
        if (
            isinstance(self.n_points, bool)
            or not isinstance(self.n_points, numbers.Integral)
            or self.n_points <= 0
        ):
            raise SimulationError(
                f"n_points must be a positive integer, got {self.n_points!r}"
            )


@register_engine(
    "ode",
    kind="mean-field",
    exact=False,
    options_type=OdeOptions,
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
        engine_options: "OdeOptions | None" = None,
    ) -> None:
        self._integrator = OdeIntegrator(network)
        self.compiled = self._integrator.compiled
        self.ode_options = engine_options or OdeOptions()

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
