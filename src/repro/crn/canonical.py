"""Canonical labeling of reaction networks (isomorphism-aware identity).

Two networks that differ only in species *naming* and reaction *order* are
the same chemical system: every engine produces statistically identical
ensembles for them, and an exact solver produces identical distributions.
This module maps each network to a **canonical form** — a renamed, reordered
copy that is identical for every member of the isomorphism class — plus a
**witness** recording how to translate between canonical and original
species names.  The result store fingerprints the canonical form, so a cache
populated under one naming serves all equivalent namings
(:mod:`repro.store.canonical` does the payload-level threading).

The machinery follows the classic refine-then-individualize scheme (and the
``sirn`` structural-identity package's stoichiometry-matrix framing):

1. **Cheap invariants** (:func:`network_invariants`) — sorted reactant /
   product stoichiometry-matrix row and column profiles, species degree
   vectors and reaction criteria counts.  Equal for isomorphic networks, a
   fast hash-bucket partition for :func:`is_isomorphic`.
2. **Partition refinement** — species start colored by initial count and are
   iteratively split by the multiset of (reaction signature, side,
   coefficient) incidences until the coloring is equitable.
3. **Individualization with backtracking** — remaining symmetric species are
   broken one at a time; each branch is refined and fully ordered, and the
   lexicographically smallest resulting network encoding is the canonical
   form.  Isomorphic inputs reach the same minimum, so their canonical
   encodings are equal.

Reaction ``rate`` / ``name`` / ``category`` and the network's initial counts
participate in the signatures: they are *semantic* identity (a renamed rate
is a different system; reaction names feed outcome classification), so only
species naming and reaction order are quotiented out.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.crn.network import ReactionNetwork
from repro.crn.reaction import Reaction
from repro.errors import NetworkError

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "canonical_species_names",
    "network_invariants",
    "invariant_key",
    "is_isomorphic",
    "isomorphism_witness",
]

#: Safety valve for pathologically symmetric networks: the backtracking
#: search stops exploring new leaves past this budget and keeps the best
#: encoding found.  Equal-encoding branches (true automorphisms) are the
#: common case under symmetry, so truncation can only cost cache *hits*,
#: never correctness — the witness of the returned form is always exact.
_MAX_LEAVES = 20_000


def canonical_species_names(count: int) -> list[str]:
    """Canonical species names ``s000, s001, ...`` for ``count`` species.

    Zero-padding keeps lexicographic order equal to index order (the
    compiled species vector sorts by name), widening past 1000 species.
    """
    width = max(3, len(str(max(count - 1, 0))))
    return [f"s{i:0{width}d}" for i in range(count)]


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical representative of a network's isomorphism class.

    Attributes
    ----------
    network:
        The canonical network: species renamed to ``s000, s001, ...`` and
        reactions sorted into canonical order.  Name and metadata are empty
        (they are not identity).
    witness:
        ``{canonical name: original name}`` species bijection.
    reaction_order:
        ``reaction_order[i]`` is the *original* index of the reaction at
        canonical position ``i``.
    invariants:
        The cheap invariant bundle (:func:`network_invariants`) of the
        original network.
    key:
        SHA-256 hex digest of the canonical encoding — equal exactly for
        isomorphic networks (up to the :data:`_MAX_LEAVES` caveat).
    """

    network: ReactionNetwork
    witness: "dict[str, str]"
    reaction_order: "tuple[int, ...]"
    invariants: "tuple"
    key: str

    @property
    def inverse_witness(self) -> "dict[str, str]":
        """``{original name: canonical name}``."""
        return {original: canonical for canonical, original in self.witness.items()}


# ---------------------------------------------------------------------------
# cheap invariants (hash buckets)
# ---------------------------------------------------------------------------


def network_invariants(network: ReactionNetwork) -> tuple:
    """A naming/order-independent invariant bundle of ``network``.

    Sorted stoichiometry-matrix profiles in the ``sirn`` style: per-species
    rows of the reactant and product matrices (as sorted coefficient
    multisets joined with the initial count and reactant/product degrees)
    and per-reaction columns (coefficient multisets joined with rate, name
    and category), each sorted — so any species renaming or reaction
    reordering yields the same tuple.  Equality is necessary but not
    sufficient for isomorphism; :func:`is_isomorphic` uses it as the cheap
    bucket test before the exact check.
    """
    species = sorted(network.species, key=lambda s: s.name)
    initial = network.initial_state
    rows = []
    for sp in species:
        reactant_coeffs = sorted(r.reactants.get(sp, 0) for r in network.reactions)
        product_coeffs = sorted(r.products.get(sp, 0) for r in network.reactions)
        rows.append(
            (
                int(initial[sp]),
                sum(1 for c in reactant_coeffs if c),
                sum(1 for c in product_coeffs if c),
                tuple(reactant_coeffs),
                tuple(product_coeffs),
            )
        )
    columns = []
    for reaction in network.reactions:
        columns.append(
            (
                float(reaction.rate),
                reaction.name,
                reaction.category,
                tuple(sorted(reaction.reactants.values())),
                tuple(sorted(reaction.products.values())),
            )
        )
    return (
        len(species),
        network.size,
        tuple(sorted(rows)),
        tuple(sorted(columns)),
    )


def invariant_key(network: ReactionNetwork) -> str:
    """Short hex digest of :func:`network_invariants` (hash-bucket label)."""
    text = json.dumps(network_invariants(network), sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# refinement + individualization
# ---------------------------------------------------------------------------


class _Labeler:
    """One canonical-labeling run over a fixed network."""

    def __init__(self, network: ReactionNetwork) -> None:
        self.species = sorted(network.species, key=lambda s: s.name)
        self.n = len(self.species)
        self.index = {sp: i for i, sp in enumerate(self.species)}
        self.initial = [int(network.initial_state[sp]) for sp in self.species]
        self.reactions = list(network.reactions)
        # Incidence lists: per species, (reaction index, side, coefficient).
        self.incidence: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        for r_index, reaction in enumerate(self.reactions):
            for sp, coeff in reaction.reactants.items():
                self.incidence[self.index[sp]].append((r_index, 0, coeff))
            for sp, coeff in reaction.products.items():
                self.incidence[self.index[sp]].append((r_index, 1, coeff))
        self.leaves = 0
        self.best_encoding: "tuple | None" = None
        self.best_order: "list[int] | None" = None

    # -- refinement --------------------------------------------------------------

    def _reaction_signatures(self, colors: Sequence[int]) -> list[tuple]:
        signatures = []
        for reaction in self.reactions:
            signatures.append(
                (
                    reaction.rate,
                    reaction.name,
                    reaction.category,
                    tuple(sorted((colors[self.index[s]], c) for s, c in reaction.reactants.items())),
                    tuple(sorted((colors[self.index[s]], c) for s, c in reaction.products.items())),
                )
            )
        return signatures

    def _refine(self, colors: list[int]) -> list[int]:
        """Iteratively split species colors until the partition is equitable.

        Each round's key embeds the current color, so the new partition
        always *refines* the old one; an unchanged cell count therefore
        means an unchanged partition, and the loop stops there (color
        labels themselves may permute between rounds — they are ranks in a
        deterministic, naming-independent key order, which is all the
        search needs).
        """
        while True:
            r_sigs = self._reaction_signatures(colors)
            keys = []
            for i in range(self.n):
                incident = tuple(
                    sorted((r_sigs[r], side, coeff) for r, side, coeff in self.incidence[i])
                )
                keys.append((colors[i], incident))
            ranked = {key: rank for rank, key in enumerate(sorted(set(keys), key=repr))}
            new_colors = [ranked[key] for key in keys]
            if len(ranked) == len(set(colors)):
                return new_colors
            colors = new_colors

    # -- encoding ----------------------------------------------------------------

    def _encode(self, order: Sequence[int]) -> tuple:
        """Total network encoding under a total species order (position = index)."""
        position = [0] * self.n
        for pos, species_index in enumerate(order):
            position[species_index] = pos
        reaction_codes = []
        for original_index, reaction in enumerate(self.reactions):
            reaction_codes.append(
                (
                    tuple(sorted((position[self.index[s]], c) for s, c in reaction.reactants.items())),
                    tuple(sorted((position[self.index[s]], c) for s, c in reaction.products.items())),
                    reaction.rate,
                    reaction.name,
                    reaction.category,
                    original_index,
                )
            )
        # The trailing original index is a deterministic tie-break for the
        # reaction permutation; it is *excluded* from the comparable
        # encoding (it is naming-dependent).
        ordered = sorted(reaction_codes)
        encoding = (
            tuple(self.initial[i] for i in order),
            tuple(code[:-1] for code in ordered),
        )
        permutation = tuple(code[-1] for code in ordered)
        return encoding, permutation

    def _record_leaf(self, order: list[int]) -> None:
        self.leaves += 1
        encoding, _ = self._encode(order)
        if self.best_encoding is None or encoding < self.best_encoding:
            self.best_encoding = encoding
            self.best_order = list(order)

    # -- search ------------------------------------------------------------------

    def _search(self, colors: list[int]) -> None:
        if self.leaves >= _MAX_LEAVES:
            return
        cells: dict[int, list[int]] = {}
        for i, color in enumerate(colors):
            cells.setdefault(color, []).append(i)
        target_cell = None
        for color in sorted(cells):
            if len(cells[color]) > 1:
                target_cell = cells[color]
                break
        if target_cell is None:
            order = sorted(range(self.n), key=lambda i: colors[i])
            self._record_leaf(order)
            return
        for chosen in target_cell:
            branched = list(colors)
            # Individualize: give `chosen` a color just below its cell's,
            # keeping all other relative orderings intact.
            branched = [2 * c for c in branched]
            branched[chosen] -= 1
            self._search(self._refine(branched))
            if self.leaves >= _MAX_LEAVES:
                return

    def run(self) -> "tuple[list[int], tuple[int, ...], tuple]":
        if self.n == 0:
            encoding, permutation = self._encode([])
            return [], permutation, encoding
        colors = self._refine(self._seed_colors())
        self._search(colors)
        assert self.best_order is not None
        encoding, permutation = self._encode(self.best_order)
        return self.best_order, permutation, encoding

    def _seed_colors(self) -> list[int]:
        ranked = {value: rank for rank, value in enumerate(sorted(set(self.initial)))}
        return [ranked[v] for v in self.initial]


def canonical_form(network: ReactionNetwork) -> CanonicalForm:
    """Compute the :class:`CanonicalForm` of ``network``.

    Deterministic and naming-independent: isomorphic networks yield equal
    ``key`` / canonical ``network`` with (generally different) witnesses.
    Every call runs the labeling search; the result store caches forms by
    network content (:mod:`repro.store.canonical`).
    """
    if not isinstance(network, ReactionNetwork):
        raise NetworkError(
            f"canonical_form expects a ReactionNetwork, got {type(network).__name__}"
        )
    return _compute_canonical_form(network)


def _compute_canonical_form(network: ReactionNetwork) -> CanonicalForm:
    labeler = _Labeler(network)
    order, permutation, encoding = labeler.run()

    names = canonical_species_names(labeler.n)
    rename = {labeler.species[species_index].name: names[pos] for pos, species_index in enumerate(order)}
    witness = {names[pos]: labeler.species[species_index].name for pos, species_index in enumerate(order)}

    canonical_reactions = []
    for original_index in permutation:
        reaction = labeler.reactions[original_index]
        canonical_reactions.append(
            Reaction(
                {rename[s.name]: c for s, c in reaction.reactants.items()},
                {rename[s.name]: c for s, c in reaction.products.items()},
                rate=reaction.rate,
                name=reaction.name,
                category=reaction.category,
            )
        )
    canonical_network = ReactionNetwork(
        canonical_reactions,
        initial_state={
            rename[sp.name]: count
            for sp, count in network.initial_state.items()
            if count
        },
        name="",
        metadata={},
        species=[rename[sp.name] for sp in labeler.species],
    )
    digest = hashlib.sha256(
        json.dumps(encoding, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    return CanonicalForm(
        network=canonical_network,
        witness=witness,
        reaction_order=permutation,
        invariants=network_invariants(network),
        key=digest,
    )


# ---------------------------------------------------------------------------
# isomorphism checks
# ---------------------------------------------------------------------------


def is_isomorphic(a: ReactionNetwork, b: ReactionNetwork) -> bool:
    """Whether two networks are the same system up to species naming / order.

    Cheap invariant buckets first (almost every non-isomorphic pair is
    rejected here), then the exact canonical-encoding comparison.
    """
    if network_invariants(a) != network_invariants(b):
        return False
    return canonical_form(a).key == canonical_form(b).key


def isomorphism_witness(a: ReactionNetwork, b: ReactionNetwork) -> "dict[str, str] | None":
    """A species bijection ``{a name: b name}`` if isomorphic, else ``None``."""
    form_a = canonical_form(a)
    form_b = canonical_form(b)
    if form_a.key != form_b.key:
        return None
    return {
        original_a: form_b.witness[canonical]
        for canonical, original_a in form_a.witness.items()
    }
