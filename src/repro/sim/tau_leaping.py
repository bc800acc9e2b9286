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
steps when the selected ``tau`` would be smaller than a few exact steps, or
when a leap would drive a count negative.

The engine runs through the per-trial protocol every per-trial engine
shares (:meth:`~repro.sim.base.StochasticSimulator.run` and
:meth:`~repro.sim.base.StochasticSimulator.run_slice`, with their t=0
check) and overrides only the per-trial step with its leap loop.  The
exact-step fallback is its own code, not the ``direct`` kernel: it draws
``exponential`` / ``random`` from the trial's generator, one pair per step,
and that stream is pinned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.sim.base import StochasticSimulator, check_number
from repro.sim.events import StoppingCondition
from repro.sim.kernels.numpy_backend import _propensity
from repro.sim.registry import register_engine
from repro.sim.trajectory import StopReason

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
    exact_step_multiplier:
        If the selected tau is smaller than this multiple of the expected
        exact-SSA step, take exact steps instead (avoids degenerate leaps).
    """

    epsilon: float = 0.03
    exact_step_multiplier: float = 10.0

    def __post_init__(self) -> None:
        check_number("epsilon", self.epsilon)
        check_number("exact_step_multiplier", self.exact_step_multiplier, positive=False)


@register_engine(
    "tau-leaping",
    kind="per-trial",
    exact=False,
    options_type=TauLeapOptions,
    summary="explicit tau-leaping (Cao-Gillespie-Petzold step control)",
)
class TauLeapingSimulator(StochasticSimulator):
    """Approximate accelerated simulation via explicit tau-leaping.

    The public interface is the exact engines' (:meth:`run` and
    :meth:`run_slice`, with stopping conditions checked at t=0 like
    theirs), but stopping conditions are otherwise checked only at leap
    boundaries, so threshold crossings are detected with a delay of up to
    one leap.  ``max_steps`` counts every firing: exact steps stop on it as
    the kernels do, and a leap is checked after it lands, so it may
    overshoot the cap by that leap's firings.  A run records no firing log;
    with ``record_states`` it records one snapshot per leap round
    (``snapshot_stride`` does not apply).
    """

    method_name = "tau-leaping"
    # The leap loop has no kernel; the per-event kernel backends do not
    # apply to it.
    supported_backends = ()

    def __init__(self, network, seed=None, engine_options: "TauLeapOptions | None" = None):
        super().__init__(network, seed=seed)
        self.leap_options = engine_options or TauLeapOptions()

    def _trial(
        self,
        setup,
        stopping: "StoppingCondition | None",
        rng: np.random.Generator,
        counts: np.ndarray,
        record: bool,
    ) -> "tuple[str, str, float, np.ndarray]":
        """One leap-loop trial from ``counts``, which it leaves at the final
        state (see :meth:`StochasticSimulator._trial`)."""
        stopped = self._stopped_at_start(setup, stopping, counts)
        if stopped is not None:
            return stopped
        compiled = self.compiled
        opts = setup.opts
        buffers = setup.buffers
        record_states = record and opts.record_states
        firing_counts = np.zeros(compiled.n_reactions, dtype=np.int64)
        time = 0.0
        steps = 0
        while True:
            propensities = self._propensities(counts)
            total = float(propensities.sum())
            if total <= 0.0:
                return StopReason.EXHAUSTED, "", time, firing_counts

            tau = self._select_tau(counts, propensities)
            expected_exact_step = 1.0 / total
            if tau < self.leap_options.exact_step_multiplier * expected_exact_step:
                # Too small to be worth leaping: take a handful of exact steps.
                time, steps, stopped = self._exact_steps(
                    time, steps, counts, firing_counts, stopping, opts, rng
                )
                if stopped is not None:
                    return (*stopped, time, firing_counts)
            else:
                tau = min(tau, opts.max_time - time)
                if tau <= 0.0:
                    return StopReason.MAX_TIME, "", time, firing_counts
                firings = rng.poisson(propensities * tau)
                # One dense matrix-vector product applies every leap firing.
                new_counts = counts + firings.astype(np.int64) @ compiled.delta_matrix
                if np.any(new_counts < 0):
                    # Leap overshot a reactant pool: halve tau by retrying with
                    # exact steps this round (simple and robust).
                    time, steps, stopped = self._exact_steps(
                        time, steps, counts, firing_counts, stopping, opts, rng
                    )
                    if stopped is not None:
                        return (*stopped, time, firing_counts)
                else:
                    counts[:] = new_counts
                    firing_counts += firings.astype(np.int64)
                    time += tau
                    steps += int(firings.sum())

            if record_states:
                if buffers.n_snapshots == buffers.snapshot_capacity:
                    buffers.grow_snapshots()
                buffers.snapshot_times[buffers.n_snapshots] = time
                buffers.snapshots[buffers.n_snapshots] = counts
                buffers.n_snapshots += 1
            if stopping is not None:
                detail = stopping.check(time, counts, compiled, firing_counts)
                if detail is not None:
                    return StopReason.CONDITION, detail, time, firing_counts
            if time >= opts.max_time:
                return StopReason.MAX_TIME, "", time, firing_counts
            if steps >= opts.max_steps:
                return StopReason.MAX_STEPS, "", time, firing_counts

    # -- helpers -----------------------------------------------------------------

    def _propensities(self, counts: np.ndarray) -> np.ndarray:
        """Every reaction's propensity in ``counts``.

        Evaluated in the interpreted kernels' exact-integer arithmetic, not
        by the float evaluator (:meth:`CompiledNetwork.propensities`):
        seeded tau-leaping trajectories are pinned, and an ulp-level change
        in a propensity perturbs the Poisson draws and diverges the whole
        trajectory.
        """
        views = self.compiled.py_views()
        rates, reactants = views["rates"], views["reactants"]
        values = counts.tolist()
        return np.array(
            [_propensity(rates, reactants, values, j) for j in range(len(rates))],
            dtype=float,
        )

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
        # see _propensities.)
        mu = np.zeros(compiled.n_species)
        sigma2 = np.zeros(compiled.n_species)
        for j, changes in enumerate(compiled.py_views()["changes"]):
            if propensities[j] <= 0.0:
                continue
            for s, delta in changes:
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
        self, time, steps, counts, firing_counts, stopping, opts, rng, n_steps: int = 20
    ):
        """Advance with a few exact direct-method firings (used when leaping is unsafe).

        Mutates ``counts`` / ``firing_counts`` in place and returns
        ``(time, steps, stopped)``, where ``stopped`` is a
        ``(StopReason, detail)`` pair or ``None``.  Each step recomputes the
        propensity vector, then draws ``exponential(1/total)`` and
        ``random() * total`` from ``rng`` and inverts the propensity CDF
        (largest-propensity fallback).  Each firing counts one step, checked
        against ``max_steps`` after the stopping condition, as the kernels
        do.
        """
        compiled = self.compiled
        changes = compiled.py_views()["changes"]
        for _ in range(n_steps):
            propensities = self._propensities(counts)
            total = float(propensities.sum())
            if total <= 0.0:
                return time, steps, (StopReason.EXHAUSTED, "")
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
                    return time, steps, (StopReason.EXHAUSTED, "")
            if time + waiting_time > opts.max_time:
                return opts.max_time, steps, (StopReason.MAX_TIME, "")
            time += waiting_time
            for s, delta in changes[chosen]:
                counts[s] += delta
            firing_counts[chosen] += 1
            steps += 1
            if stopping is not None:
                detail = stopping.check(time, counts, compiled, firing_counts)
                if detail is not None:
                    return time, steps, (StopReason.CONDITION, detail)
            if steps >= opts.max_steps:
                return time, steps, (StopReason.MAX_STEPS, "")
        return time, steps, None
