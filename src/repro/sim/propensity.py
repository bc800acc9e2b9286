"""Propensity evaluation under stochastic mass-action kinetics.

Following Gillespie (1977), the propensity of reaction ``R`` with stochastic
rate constant ``c`` in state ``X`` is::

    a(X) = c * h(X)

where ``h(X)`` is the number of distinct combinations of reactant molecules:
for each reactant species ``s`` with stoichiometric coefficient ``n`` it
contributes ``binomial(X_s, n)`` — e.g. ``X`` for a unimolecular reactant,
``X (X - 1) / 2`` for ``2 s``, ``X_a X_b`` for ``a + b``.

:class:`CompiledNetwork` compiles a :class:`~repro.crn.network.ReactionNetwork`
once into the structures every engine reads: padded ``int64``/``float64``
arrays for array-level and JIT-compiled kernels, the batch sweep and FSP
enumeration, and plain-Python views of the same structure for the
interpreted kernels — this is the performance-critical path of the whole
library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.crn.network import ReactionNetwork
from repro.crn.species import Species
from repro.crn.state import State
from repro.errors import PropensityError, SimulationError

__all__ = ["combinations", "reaction_propensity", "CompiledNetwork"]


def combinations(count: int, needed: int) -> int:
    """Number of distinct ways to choose ``needed`` molecules out of ``count``.

    This is ``binomial(count, needed)`` with the convention that the result is
    zero when ``count < needed``.  Only small ``needed`` values occur in
    practice (reaction molecularity is 1–3), so the product form is exact and
    fast.
    """
    if needed < 0:
        raise PropensityError(f"needed must be non-negative, got {needed}")
    if count < needed:
        return 0
    result = 1
    for i in range(needed):
        result = result * (count - i) // (i + 1)
    return result


def reaction_propensity(reaction, state: State) -> float:
    """Propensity of a single reaction in ``state`` (convenience, non-critical path)."""
    h = 1
    for species, coefficient in reaction.reactants.items():
        h *= combinations(state[species], coefficient)
        if h == 0:
            return 0.0
    return reaction.rate * h


def _padded(rows: "tuple[tuple[tuple[int, int], ...], ...]") -> "tuple[np.ndarray, np.ndarray]":
    """``(species, values)`` arrays of per-reaction ``(species, value)`` pairs.

    One row per reaction, as wide as the longest; short rows are padded
    with species ``-1`` (kernels stop at the first ``-1``) and value ``0``.
    """
    width = max(map(len, rows)) or 1
    species = [[s for s, _ in row] + [-1] * (width - len(row)) for row in rows]
    values = [[v for _, v in row] + [0] * (width - len(row)) for row in rows]
    return np.array(species, dtype=np.int64), np.array(values, dtype=np.int64)


@dataclass
class CompiledNetwork:
    """A reaction network compiled once into the arrays every engine reads.

    Reactant and change pairs are listed per reaction in species-name order.

    Attributes
    ----------
    species:
        Species order used for count vectors (matches ``network.species_order``).
    rates:
        float64 ``(n_reactions,)`` stochastic rate constants.
    reactant_species / reactant_coeffs:
        int64 ``(n_reactions, max_reactants)``: each reaction's reactant
        columns and coefficients, padded with ``-1`` / ``0``.
    change_species / change_deltas:
        The same layout for each reaction's net change.
    delta_matrix:
        int64 ``(n_reactions, n_species)`` dense state-change matrix (one
        fancy-indexed add applies a whole batch of firings).
    dep_ptr / dep_idx:
        CSR dependents: ``dep_idx[dep_ptr[r]:dep_ptr[r + 1]]`` are the
        reactions whose propensity may change when ``r`` fires (``r``
        itself included), ascending; used by the incremental-update kernels.
    scan_order:
        int64 CDF-inversion scan order (see :meth:`compile`).
    """

    network: ReactionNetwork
    species: tuple[Species, ...]
    rates: np.ndarray
    reactant_species: np.ndarray
    reactant_coeffs: np.ndarray
    change_species: np.ndarray
    change_deltas: np.ndarray
    delta_matrix: np.ndarray
    dep_ptr: np.ndarray
    dep_idx: np.ndarray
    scan_order: np.ndarray
    _py: dict = field(repr=False)

    @classmethod
    def compile(cls, network: ReactionNetwork) -> "CompiledNetwork":
        """Compile ``network`` (validates that it has at least one reaction)."""
        if network.size == 0:
            raise PropensityError("cannot compile an empty network")
        order = tuple(network.species_order)
        index = {s: i for i, s in enumerate(order)}

        def pairs(terms: dict) -> "tuple[tuple[int, int], ...]":
            return tuple(
                (index[s], int(n)) for s, n in sorted(terms.items(), key=lambda kv: kv[0].name)
            )

        reactions = network.reactions
        rates = tuple(float(r.rate) for r in reactions)
        reactants = tuple(pairs(r.reactants) for r in reactions)
        changes = tuple(pairs(r.net_change()) for r in reactions)
        nr = len(reactions)

        # Reaction dependency: r -> all reactions that consume a species r changes.
        consumers_of: dict[int, set[int]] = {}
        for j, terms in enumerate(reactants):
            for s, _ in terms:
                consumers_of.setdefault(s, set()).add(j)
        dependents = []
        for j, terms in enumerate(changes):
            affected = {j}
            for s, _ in terms:
                affected |= consumers_of.get(s, set())
            dependents.append(tuple(sorted(affected)))

        # CDF-inversion scan order: descending rate constant (ties by index).
        # The synthesis method mixes rates spanning many orders of magnitude
        # (γ ladders up to 10¹⁸), so the highest-rate reactions win almost
        # every selection — probing them first makes the linear CDF scan
        # terminate after one or two comparisons instead of walking the whole
        # reaction list.  Any fixed permutation leaves CDF inversion exact;
        # both kernel backends use this same order, keeping them
        # bit-identical.
        scan_order = tuple(sorted(range(nr), key=lambda j: (-rates[j], j)))

        # Specialized propensity "specs" for the dominant reaction shapes,
        # letting the interpreted kernels skip the generic reactant loop:
        #   (1, s, rate)        a(X) = rate · X_s
        #   (2, s, rate)        a(X) = rate · X_s (X_s - 1) / 2
        #   (3, s1, s2, rate)   a(X) = rate · X_s1 · X_s2
        #   (0,)                generic — evaluate via the reactant pairs
        # Each closed form performs the same integer arithmetic as the
        # generic path, so specialization never changes a propensity bit.
        specs = []
        for terms, rate in zip(reactants, rates):
            if len(terms) == 1 and terms[0][1] in (1, 2):
                specs.append((terms[0][1], terms[0][0], rate))
            elif len(terms) == 2 and terms[0][1] == terms[1][1] == 1:
                specs.append((3, terms[0][0], terms[1][0], rate))
            else:
                specs.append((0,))

        r_species, r_coeffs = _padded(reactants)
        c_species, c_deltas = _padded(changes)
        delta_matrix = np.zeros((nr, len(order)), dtype=np.int64)
        for j, terms in enumerate(changes):
            for s, delta in terms:
                delta_matrix[j, s] = delta
        dep_ptr = np.zeros(nr + 1, dtype=np.int64)
        np.cumsum([len(d) for d in dependents], out=dep_ptr[1:])
        return cls(
            network=network,
            species=order,
            rates=np.array(rates, dtype=np.float64),
            reactant_species=r_species,
            reactant_coeffs=r_coeffs,
            change_species=c_species,
            change_deltas=c_deltas,
            delta_matrix=delta_matrix,
            dep_ptr=dep_ptr,
            dep_idx=np.array([i for d in dependents for i in d], dtype=np.int64),
            scan_order=np.array(scan_order, dtype=np.int64),
            _py={
                "rates": rates,
                "reactants": reactants,
                "changes": changes,
                "dependents": tuple(dependents),
                "scan_order": scan_order,
                "specs": tuple(specs),
            },
        )

    @classmethod
    def coerce(cls, network: "ReactionNetwork | CompiledNetwork") -> "CompiledNetwork":
        """``network`` itself if already compiled, else its compilation.

        Every entry point that takes either form resolves it here (sharing a
        compiled network across engines and ensembles avoids recompiling);
        anything else raises :class:`~repro.errors.SimulationError`.
        """
        if isinstance(network, cls):
            return network
        if isinstance(network, ReactionNetwork):
            return cls.compile(network)
        raise SimulationError(
            f"expected a ReactionNetwork or CompiledNetwork, got {type(network).__name__}"
        )

    # -- basic queries -------------------------------------------------------

    @property
    def n_reactions(self) -> int:
        return self.rates.shape[0]

    @property
    def n_species(self) -> int:
        return len(self.species)

    def species_index(self) -> dict[Species, int]:
        """Mapping from species to its index in the count vector."""
        return {s: i for i, s in enumerate(self.species)}

    def initial_counts(self) -> np.ndarray:
        """The network's initial state as a count vector (fresh copy).

        The vector is computed once and cached — the ensemble runners resolve
        it at the top of every trial, and the ``State`` walk is measurable at
        that call rate.
        """
        cached = getattr(self, "_initial_counts", None)
        if cached is None:
            cached = self.network.initial_state.to_vector(self.species)
            self._initial_counts = cached
        return cached.copy()

    def counts_to_state(self, counts: Sequence[int]) -> State:
        """Convert a count vector back into a :class:`State`.

        Hot path (once per simulated trajectory): the species are known-good
        :class:`Species` objects in compiled order, so this skips the generic
        ``State.from_vector`` validation and fills the count dict directly.
        """
        state = State()
        filled = state._counts
        for species, count in zip(self.species, counts):
            count = int(count)
            if count < 0:
                raise PropensityError(
                    f"negative count {count} for species {species.name!r}"
                )
            if count:
                filled[species] = count
        return state

    def py_views(self) -> dict:
        """Plain-Python mirrors of the reaction structure, built by :meth:`compile`.

        A dict with ``rates`` (tuple of float), ``reactants`` / ``changes``
        (tuple per reaction of ``(species, coeff)`` / ``(species, delta)``
        pairs, in the order of the padded arrays), ``dependents`` (tuple per
        reaction of dependent indices), ``scan_order`` and ``specs`` (closed
        propensity forms, see :meth:`compile`).  CPython iterates these
        considerably faster than padded ndarrays, which is what makes the
        interpreted numpy backend a genuine speedup rather than a wash.
        """
        return self._py

    # -- vectorized propensity evaluation --------------------------------------

    def propensities(self, counts: np.ndarray) -> np.ndarray:
        """Propensity vector for one count vector, fully vectorized.

        Exact for non-negative integer counts: the falling-factorial product
        ``c (c-1) ... (c-n+1) / n!`` self-zeroes whenever ``c < n`` because
        one factor hits zero, so no clamping is needed (the interpreted
        kernels compute the same value through exact integers).
        """
        return self.propensity_matrix(np.asarray(counts)[:, None])[:, 0]

    def propensity_matrix(self, counts: np.ndarray) -> np.ndarray:
        """Propensities of every reaction for every count column.

        ``counts`` has shape ``(n_species, k)``, one column per trial; the
        result has shape ``(n_reactions, k)``, one row per reaction.  This is
        the numpy batch sweep's propensity rebuild: each element is
        ``rate · f(c₁) · f(c₂) …`` evaluated left to right, where ``f(c)`` is
        ``c``, ``c·(c−1)·0.5`` or the running product of ``(c−i)/(i+1)``.  A row is built with one
        multiply per factor, the first one commuted (``f · rate``, which is
        exact); the numba batch kernel evaluates the same expressions element
        by element, so the two agree bit for bit.
        """
        reactant_terms = self._py["reactants"]
        counts = np.asarray(counts, dtype=np.float64)
        k = counts.shape[1]
        matrix = np.empty((self.n_reactions, k))
        factor = np.empty(k)
        # The rates go in as numpy scalars: a Python float operand costs
        # numpy about 1 µs of promotion per call.
        for row, rate, reactants in zip(matrix, self.rates, reactant_terms):
            scaled = False
            for s, n in reactants:
                c = counts[s]
                for i in range(n if n > 2 else 1):
                    if n == 1:
                        f = c
                    elif n == 2:
                        f = np.subtract(c, 1.0, out=factor)
                        f *= c
                        f *= 0.5
                    else:
                        f = np.subtract(c, i, out=factor)
                        f /= i + 1.0
                    if scaled:
                        row *= f
                    else:
                        np.multiply(f, rate, out=row)
                        scaled = True
            if not scaled:
                row.fill(rate)
        return matrix
