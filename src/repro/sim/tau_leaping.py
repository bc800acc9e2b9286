"""Explicit tau-leaping: an approximate accelerated stochastic simulator.

Tau-leaping advances the system by a time step ``tau`` during which every
reaction is assumed to fire a Poisson-distributed number of times with its
propensity frozen at the start of the leap.  It trades exactness for speed and
is included as an optional engine: the winner-take-all stochastic module of
the paper relies on *individual* firing order at low molecule counts, so
tau-leaping is a poor fit there (the ablation benchmark demonstrates this),
but it is useful for the deterministic functional modules, whose outputs are
governed by bulk stoichiometry rather than by race outcomes.

The step-size selection follows the standard Cao–Gillespie–Petzold (2006)
bound on the relative change of propensities, with a fallback to exact SSA
steps when the selected ``tau`` would be smaller than a few exact steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.base import (
    SimulationOptions,
    StochasticSimulator,
    merge_options,
    resolve_initial_counts,
)
from repro.sim.events import StoppingCondition
from repro.sim.kernels.backend import validate_backend_request
from repro.sim.registry import register_engine
from repro.sim.rng import make_rng
from repro.sim.trajectory import StopReason, Trajectory

__all__ = ["TauLeapingSimulator", "TauLeapOptions"]


@dataclass
class TauLeapOptions:
    """Tuning knobs for the tau-leaping engine.

    Attributes
    ----------
    epsilon:
        Error-control parameter bounding the relative change of any propensity
        over a leap (smaller = more accurate = slower).  0.03 is the customary
        default.
    critical_threshold:
        Reactions within this many firings of exhausting a reactant are
        "critical" and handled with exact steps to avoid negative counts.
    exact_step_multiplier:
        If the selected tau is smaller than this multiple of the expected
        exact-SSA step, take exact steps instead (avoids degenerate leaps).
    """

    epsilon: float = 0.03
    critical_threshold: int = 10
    exact_step_multiplier: float = 10.0


@register_engine(
    "tau-leaping",
    exact=False,
    approximate=True,
    options_type=TauLeapOptions,
    options_param="leap_options",
    summary="explicit tau-leaping (Cao-Gillespie-Petzold step control)",
)
class TauLeapingSimulator(StochasticSimulator):
    """Approximate accelerated simulation via explicit tau-leaping.

    The public interface matches the exact engines (:meth:`run` with stopping
    conditions, checked at t=0 like theirs), but note that stopping
    conditions are only checked at leap boundaries, so threshold crossings
    are detected with a delay of up to one leap.
    """

    method_name = "tau-leaping"
    # The leap loop is already array-vectorized internally (it applies whole
    # leaps via the kernel layer's dense delta matrix); the per-event kernel
    # backends do not apply to it.
    supported_backends = ()

    def __init__(self, network, seed=None, leap_options: "TauLeapOptions | None" = None):
        super().__init__(network, seed=seed)
        self.leap_options = leap_options or TauLeapOptions()

    # The leaping control flow has no kernel, so this engine overrides run().
    def run(
        self,
        initial_state=None,
        stopping: "StoppingCondition | None" = None,
        options: "SimulationOptions | None" = None,
        seed=None,
        **option_overrides,
    ) -> Trajectory:
        opts = merge_options(options, option_overrides)
        validate_backend_request(opts.backend, self.supported_backends, self.method_name)
        rng = self._default_rng if seed is None else make_rng(seed)
        compiled = self.compiled
        knet = compiled.kernel_network()
        counts = resolve_initial_counts(compiled, initial_state)

        firing_counts = np.zeros(compiled.n_reactions, dtype=np.int64)
        snapshot_times: list[float] = []
        snapshots: list[np.ndarray] = []
        if stopping is not None:
            stopping.reset(compiled)

        time = 0.0
        steps = 0
        stop_reason = StopReason.EXHAUSTED
        stop_detail = ""
        # A stopping condition may already hold at t=0 (threshold met
        # initially); every exit below other than the condition breaks.
        detail = None
        if stopping is not None:
            detail = stopping.check(time, counts, compiled, firing_counts)
            if detail is not None:
                stop_reason, stop_detail = StopReason.CONDITION, detail

        while detail is None:
            # NOTE: stays on the exact-integer propensity path (not the
            # kernel layer's float evaluator): seeded tau-leaping
            # trajectories are pinned, and an ulp-level change in a
            # propensity perturbs the Poisson draws and diverges the whole
            # trajectory.
            propensities = compiled.all_propensities(counts)
            total = float(propensities.sum())
            if total <= 0.0:
                stop_reason = StopReason.EXHAUSTED
                break

            tau = self._select_tau(counts, propensities)
            expected_exact_step = 1.0 / total
            if tau < self.leap_options.exact_step_multiplier * expected_exact_step:
                # Too small to be worth leaping: take a handful of exact steps.
                time, stopped = self._exact_steps(
                    time, counts, firing_counts, stopping, opts, rng
                )
                if stopped is not None:
                    stop_reason, stop_detail = stopped
                    break
            else:
                tau = min(tau, opts.max_time - time)
                if tau <= 0.0:
                    stop_reason = StopReason.MAX_TIME
                    break
                firings = rng.poisson(propensities * tau)
                # One dense matrix-vector product applies every leap firing.
                new_counts = counts + firings.astype(np.int64) @ knet.delta_matrix
                if np.any(new_counts < 0):
                    # Leap overshot a reactant pool: halve tau by retrying with
                    # exact steps this round (simple and robust).
                    time, stopped = self._exact_steps(
                        time, counts, firing_counts, stopping, opts, rng
                    )
                    if stopped is not None:
                        stop_reason, stop_detail = stopped
                        break
                else:
                    counts = new_counts
                    firing_counts += firings.astype(np.int64)
                    time += tau
                    steps += int(firings.sum())

            if opts.record_states:
                snapshot_times.append(time)
                snapshots.append(counts.copy())
            if stopping is not None:
                detail = stopping.check(time, counts, compiled, firing_counts)
                if detail is not None:
                    stop_reason, stop_detail = StopReason.CONDITION, detail
                    break
            if time >= opts.max_time:
                stop_reason = StopReason.MAX_TIME
                break
            if steps >= opts.max_steps:
                stop_reason = StopReason.MAX_STEPS
                break

        return Trajectory(
            times=np.empty(0),
            reaction_indices=np.empty(0, dtype=np.int64),
            final_state=compiled.counts_to_state(counts),
            final_time=float(time),
            stop_reason=stop_reason,
            stop_detail=stop_detail,
            species_order=compiled.species,
            snapshot_times=np.array(snapshot_times, dtype=float),
            state_snapshots=(
                np.array(snapshots, dtype=np.int64)
                if snapshots
                else np.empty((0, compiled.n_species), dtype=np.int64)
            ),
            firing_counts=firing_counts,
        )

    # -- helpers -----------------------------------------------------------------

    def _select_tau(self, counts: np.ndarray, propensities: np.ndarray) -> float:
        """Cao–Gillespie–Petzold step selection (species-based bound)."""
        compiled = self.compiled
        epsilon = self.leap_options.epsilon
        total = float(propensities.sum())
        if total <= 0.0:
            return math.inf

        # Mean and variance of the change of each species per unit time.
        # (Accumulated reaction-by-reaction, not as a matrix product: the
        # summation order is part of the seeded-reproducibility contract —
        # see the propensity note in run().)
        mu = np.zeros(compiled.n_species)
        sigma2 = np.zeros(compiled.n_species)
        for j in range(compiled.n_reactions):
            if propensities[j] <= 0.0:
                continue
            for s, delta in zip(compiled.change_species[j], compiled.change_deltas[j]):
                mu[s] += delta * propensities[j]
                sigma2[s] += delta * delta * propensities[j]

        tau = math.inf
        for s in range(compiled.n_species):
            if mu[s] == 0.0 and sigma2[s] == 0.0:
                continue
            bound = max(epsilon * counts[s], 1.0)
            if mu[s] != 0.0:
                tau = min(tau, bound / abs(mu[s]))
            if sigma2[s] > 0.0:
                tau = min(tau, bound * bound / sigma2[s])
        return tau

    def _exact_steps(
        self, time, counts, firing_counts, stopping, opts, rng, n_steps: int = 20
    ):
        """Advance with a few exact direct-method firings (used when leaping is unsafe).

        Mutates ``counts`` / ``firing_counts`` in place and returns
        ``(time, stopped)``, where ``stopped`` is a ``(StopReason, detail)``
        pair or ``None``.  Each step recomputes the propensity vector, then
        draws ``exponential(1/total)`` and ``random() * total`` from ``rng``
        and inverts the propensity CDF (largest-propensity fallback).
        """
        compiled = self.compiled
        for _ in range(n_steps):
            propensities = compiled.all_propensities(counts)
            total = float(propensities.sum())
            if total <= 0.0:
                return time, (StopReason.EXHAUSTED, "")
            waiting_time = rng.exponential(1.0 / total)
            threshold = rng.random() * total
            chosen = min(
                int(np.searchsorted(np.cumsum(propensities), threshold, side="right")),
                len(propensities) - 1,
            )
            if propensities[chosen] <= 0.0:
                # Floating point placed the threshold past the last positive
                # entry; fall back to the largest-propensity reaction.
                chosen = int(np.argmax(propensities))
                if propensities[chosen] <= 0.0:
                    return time, (StopReason.EXHAUSTED, "")
            if time + waiting_time > opts.max_time:
                return opts.max_time, (StopReason.MAX_TIME, "")
            time += waiting_time
            compiled.apply(chosen, counts)
            firing_counts[chosen] += 1
            if stopping is not None:
                detail = stopping.check(time, counts, compiled, firing_counts)
                if detail is not None:
                    return time, (StopReason.CONDITION, detail)
        return time, None
