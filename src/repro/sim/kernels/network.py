"""Dense, kernel-ready view of a compiled reaction network.

:class:`~repro.sim.propensity.CompiledNetwork` stores its reaction structure
as ragged Python tuples — fine for scalar propensity evaluation, but useless
to an array-level kernel (and unusable from a JIT-compiled one).
:class:`KernelNetwork` flattens that structure into fixed-shape, padded
``int64``/``float64`` ndarrays once per network:

* ``reactant_species`` / ``reactant_coeffs`` — ``(n_reactions, max_arity)``,
  padded with ``-1`` / ``0`` (kernels stop at the first ``-1``);
* ``change_species`` / ``change_deltas`` — same layout for the net change;
* ``delta_matrix`` — dense ``(n_reactions, n_species)`` state-change matrix
  (one fancy-indexed add applies a whole batch of firings);
* ``dependents`` in CSR form (``dep_ptr`` / ``dep_idx``) — the reactions to
  refresh after a firing.

The numpy reference backend additionally wants plain Python containers
(tuples of ints/floats) because CPython indexes a Python list several times
faster than a numpy scalar; those views are built lazily and cached.

One :class:`KernelNetwork` is cached per compiled network
(:meth:`repro.sim.propensity.CompiledNetwork.kernel_network`), so every
engine, backend and ensemble trial shares the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.propensity import CompiledNetwork

__all__ = ["KernelNetwork"]


@dataclass
class KernelNetwork:
    """Flat, padded ndarray encoding of a :class:`CompiledNetwork`."""

    n_reactions: int
    n_species: int
    rates: np.ndarray             # float64 (n_reactions,)
    reactant_species: np.ndarray  # int64 (n_reactions, max_reactants), -1 padded
    reactant_coeffs: np.ndarray   # int64 (n_reactions, max_reactants), 0 padded
    change_species: np.ndarray    # int64 (n_reactions, max_changes), -1 padded
    change_deltas: np.ndarray     # int64 (n_reactions, max_changes), 0 padded
    delta_matrix: np.ndarray      # int64 (n_reactions, n_species)
    dep_ptr: np.ndarray           # int64 (n_reactions + 1,) CSR row pointers
    dep_idx: np.ndarray           # int64 (nnz,) CSR dependents
    scan_order: np.ndarray        # int64 (n_reactions,) CDF scan order (see below)
    _py: "dict | None" = field(default=None, repr=False)

    @classmethod
    def from_compiled(cls, compiled: CompiledNetwork) -> "KernelNetwork":
        nr, ns = compiled.n_reactions, compiled.n_species
        max_r = max((len(r) for r in compiled.reactant_species), default=0) or 1
        max_c = max((len(c) for c in compiled.change_species), default=0) or 1

        r_species = np.full((nr, max_r), -1, dtype=np.int64)
        r_coeffs = np.zeros((nr, max_r), dtype=np.int64)
        c_species = np.full((nr, max_c), -1, dtype=np.int64)
        c_deltas = np.zeros((nr, max_c), dtype=np.int64)
        delta_matrix = np.zeros((nr, ns), dtype=np.int64)
        for j in range(nr):
            for k, (s, n) in enumerate(
                zip(compiled.reactant_species[j], compiled.reactant_coeffs[j])
            ):
                r_species[j, k] = s
                r_coeffs[j, k] = n
            for k, (s, d) in enumerate(
                zip(compiled.change_species[j], compiled.change_deltas[j])
            ):
                c_species[j, k] = s
                c_deltas[j, k] = d
                delta_matrix[j, s] = d

        dep_ptr = np.zeros(nr + 1, dtype=np.int64)
        for j in range(nr):
            dep_ptr[j + 1] = dep_ptr[j] + len(compiled.dependents[j])
        dep_idx = np.empty(int(dep_ptr[-1]), dtype=np.int64)
        for j in range(nr):
            dep_idx[dep_ptr[j] : dep_ptr[j + 1]] = compiled.dependents[j]

        # CDF-inversion scan order: descending rate constant (ties by index).
        # The synthesis method mixes rates spanning many orders of magnitude
        # (γ ladders up to 10¹⁸), so the highest-rate reactions win almost
        # every selection — probing them first makes the linear CDF scan
        # terminate after one or two comparisons instead of walking the whole
        # reaction list.  Any fixed permutation leaves CDF inversion exact;
        # both kernel backends use this same order, keeping them
        # bit-identical.
        rates_arr = np.asarray(compiled.rates, dtype=np.float64)
        scan_order = np.array(
            sorted(range(nr), key=lambda j: (-float(rates_arr[j]), j)), dtype=np.int64
        )

        return cls(
            n_reactions=nr,
            n_species=ns,
            rates=np.asarray(compiled.rates, dtype=np.float64),
            reactant_species=r_species,
            reactant_coeffs=r_coeffs,
            change_species=c_species,
            change_deltas=c_deltas,
            delta_matrix=delta_matrix,
            dep_ptr=dep_ptr,
            dep_idx=dep_idx,
            scan_order=scan_order,
        )

    # -- Python-native views (numpy reference backend hot loop) ----------------

    def py_views(self) -> dict:
        """Plain-Python mirrors of the reaction structure, built once.

        Returns a dict with ``rates`` (tuple of float), ``reactants`` /
        ``changes`` (tuple per reaction of ``(species, coeff)`` /
        ``(species, delta)`` pairs) and ``dependents`` (tuple per reaction of
        dependent indices).  CPython iterates these considerably faster than
        padded ndarrays, which is what makes the interpreted numpy backend a
        genuine speedup rather than a wash.
        """
        if self._py is None:
            reactants = []
            changes = []
            dependents = []
            for j in range(self.n_reactions):
                reactants.append(
                    tuple(
                        (int(s), int(n))
                        for s, n in zip(self.reactant_species[j], self.reactant_coeffs[j])
                        if s >= 0
                    )
                )
                changes.append(
                    tuple(
                        (int(s), int(d))
                        for s, d in zip(self.change_species[j], self.change_deltas[j])
                        if s >= 0
                    )
                )
                dependents.append(
                    tuple(int(i) for i in self.dep_idx[self.dep_ptr[j] : self.dep_ptr[j + 1]])
                )
            # Specialized propensity "specs" for the dominant reaction shapes,
            # letting the interpreted kernels skip the generic reactant loop:
            #   (1, s, rate)        a(X) = rate · X_s
            #   (2, s, rate)        a(X) = rate · X_s (X_s - 1) / 2
            #   (3, s1, s2, rate)   a(X) = rate · X_s1 · X_s2
            #   (0,)                generic — evaluate via the reactant pairs
            # Each closed form performs the same integer arithmetic as the
            # generic path, so specialization never changes a propensity bit.
            specs = []
            for j, pairs in enumerate(reactants):
                rate = float(self.rates[j])
                if len(pairs) == 1 and pairs[0][1] == 1:
                    specs.append((1, pairs[0][0], rate))
                elif len(pairs) == 1 and pairs[0][1] == 2:
                    specs.append((2, pairs[0][0], rate))
                elif len(pairs) == 2 and pairs[0][1] == 1 and pairs[1][1] == 1:
                    specs.append((3, pairs[0][0], pairs[1][0], rate))
                else:
                    specs.append((0,))
            self._py = {
                "rates": tuple(float(r) for r in self.rates),
                "reactants": tuple(reactants),
                "changes": tuple(changes),
                "dependents": tuple(dependents),
                "scan_order": tuple(int(j) for j in self.scan_order),
                "specs": tuple(specs),
            }
        return self._py

    # -- vectorized propensity evaluation --------------------------------------

    def propensities(self, counts: np.ndarray) -> np.ndarray:
        """Propensity vector for one count vector, fully vectorized.

        Exact for non-negative integer counts: the falling-factorial product
        ``c (c-1) ... (c-n+1) / n!`` self-zeroes whenever ``c < n`` because
        one factor hits zero, so no clamping is needed (this mirrors
        :meth:`CompiledNetwork.propensity`, which computes the same value
        through exact integers).
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
        reactant_terms = self.py_views()["reactants"]
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
