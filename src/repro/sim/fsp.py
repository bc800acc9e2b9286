"""Sparse finite-state-projection (FSP) solver for reaction networks.

Monte-Carlo simulation estimates outcome distributions with sampling noise;
the finite state projection of Munsky & Khammash computes them *exactly* (up
to a reported truncation bound) by working on the chemical master equation
directly.  The reachable state space is enumerated breadth-first from the
initial state, the CME generator is assembled as a sparse CSR matrix, and the
time-dependent distribution ``p(t)`` is advanced with
:func:`scipy.sparse.linalg.expm_multiply` over a checkpointed time grid.

Enumeration works one breadth-first layer at a time on the compiled
network's arrays (:class:`~repro.sim.propensity.CompiledNetwork`, the same
arrays the batch sweep uses): one ``propensity_matrix`` call gives every
reaction's propensity on every frontier state, ``delta_matrix`` gives the
successors, and each layer's new states are labelled in one call —
:class:`ThresholdStateClassifier` and :class:`DominantSpeciesClassifier`
label a whole count matrix through ``classify_matrix``; any other classifier
is called once per state.

Truncation is the heart of the method: states beyond the configured bounds
(per-species count caps and a hard ``max_states`` budget) are dropped, and
every transition into a dropped state leaks probability mass out of the
system.  The missing mass ``1 - Σ p(t)`` is therefore a rigorous upper bound
on the truncation error — it is reported on every result, and the solver can
expand the caps adaptively until the bound meets a tolerance.

Two query modes are provided on top of the shared enumeration machinery:

* **transient** (:meth:`FspEngine.solve`) — the full distribution ``p(t)`` at
  checkpoint times, with per-species marginals and moments;
* **absorption** (:meth:`FspEngine.outcome_probabilities`) — exact outcome
  probabilities of a classified CTMC, solving the jump-chain linear system
  over the transient states.  This is the package's one exact oracle:
  ``Experiment.simulate(engine="fsp")``, the conformance suite and the
  benchmarks all reach it here; ``on_overflow="raise"`` asks for the
  complete reachable space or an :class:`~repro.errors.FspError`.
  The system is solved by SuperLU in natural order: breadth-first numbering
  points most edges forward, so it is nearly upper-triangular and a
  fill-reducing ordering only costs time.  Mass that enters a trapped state
  — one with no path to an outcome, a dead end or the truncation boundary,
  such as a closed cycle — reports as :data:`UNDECIDED`, as a sampled trial
  there would end.

The ``fsp`` engine registered from this module (kind ``distribution``) is
*deterministic*, *exact* and *non-trajectory*: it computes distributions,
not sample paths, so ensembles reject it and
:meth:`repro.api.Experiment.simulate` dispatches it to the absorption solver
instead of the Monte-Carlo runners.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import expm_multiply, spsolve

from repro.crn.network import ReactionNetwork
from repro.crn.species import as_species
from repro.errors import FspError
from repro.sim.base import resolve_initial_counts
from repro.sim.descriptors import descriptor_field, integral, mapping, names, sequence, text
from repro.sim.outcomes import UNDECIDED
from repro.sim.propensity import CompiledNetwork
from repro.sim.registry import register_engine

__all__ = [
    "UNDECIDED",
    "FspOptions",
    "StateSpace",
    "AbsorptionResult",
    "FspResult",
    "FspEngine",
    "DominantSpeciesClassifier",
    "ThresholdStateClassifier",
    "state_classifier_from_descriptor",
    "enumerate_states",
    "build_generator",
    "absorption_probabilities",
]

@dataclass(frozen=True)
class FspOptions:
    """Truncation and time-grid knobs of the ``fsp`` engine.

    Attributes
    ----------
    max_states:
        Hard budget on the number of enumerated states.  Enumeration past it
        either truncates (transitions into un-enumerated states leak mass,
        tracked by the error bound) or raises, depending on the query.
    count_caps:
        Optional per-species count caps ``{species name: max count}``; states
        exceeding a cap are truncated away.  Caps are the knob the adaptive
        expansion loop grows.
    tolerance:
        Acceptable truncation-error bound.  A transient solve whose final
        leaked mass exceeds it (after any adaptive expansion) raises
        :class:`~repro.errors.FspError` when ``strict`` is set.
    expand:
        Grow ``count_caps`` geometrically (×2) and re-solve while the error
        bound exceeds ``tolerance`` and the state budget allows.
    checkpoints:
        Number of points on the uniform time grid of a transient solve
        (including ``t = 0`` and ``t_final``).
    strict:
        Raise when the final error bound exceeds ``tolerance``; set to
        ``False`` to get the truncated result with its reported bound.
    """

    max_states: int = 200_000
    count_caps: "Mapping[str, int] | None" = None
    tolerance: float = 1e-6
    expand: bool = True
    checkpoints: int = 21
    strict: bool = True

    def __post_init__(self) -> None:
        _check_integer("max_states", self.max_states, least=1)
        _check_integer("checkpoints", self.checkpoints, least=2)
        tolerance = self.tolerance
        if (
            isinstance(tolerance, bool)
            or not isinstance(tolerance, numbers.Real)
            or not (math.isfinite(tolerance) and tolerance >= 0)
        ):
            raise FspError(
                f"tolerance must be a finite non-negative number, got {tolerance!r}"
            )
        for name in ("expand", "strict"):
            if not isinstance(getattr(self, name), bool):
                raise FspError(f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.count_caps is not None:
            if not isinstance(self.count_caps, Mapping):
                raise FspError(
                    f"count_caps must be None or a mapping, got {self.count_caps!r}"
                )
            for species, cap in self.count_caps.items():
                if not isinstance(species, str):
                    raise FspError(f"count_caps key {species!r} is not a species name")
                _check_integer(f"count_caps[{species!r}]", cap, least=0)


def _check_integer(name: str, value, least: int) -> None:
    """Refuse an options field that is not an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise FspError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise FspError(f"{name} must be at least {least}, got {value!r}")


def _species_column(
    states: np.ndarray, species_names: Sequence[str]
) -> "Callable[[str], np.ndarray]":
    """Column lookup by species name over a count matrix; absent species are 0."""
    position = {name: k for k, name in enumerate(species_names)}
    zeros = np.zeros(states.shape[0], dtype=np.int64)

    def column(name: str) -> np.ndarray:
        k = position.get(name)
        return zeros if k is None else states[:, k]

    return column


def _labels_of(codes: np.ndarray, labels: "list[str]") -> "list[str | None]":
    """Map per-row label positions to labels (``-1`` → ``None``)."""
    lookup = [*labels, None]
    return [lookup[code] for code in codes.tolist()]


class DominantSpeciesClassifier:
    """State classifier labelling the (unique) dominant marker species.

    Maps a ``{species name: count}`` state to the outcome label whose marker
    species has the strictly largest positive count, or ``None`` when no
    marker is present or the lead is tied.  For the paper's stochastic
    modules the markers are the catalysts ``d_i``: starting from a state with
    no catalysts, the first state with a positive catalyst count is the exact
    decision event, so absorption probabilities under this classifier are the
    module's programmed distribution.

    A module-level class (rather than a closure) so it pickles into worker
    processes and serializes into reports.
    """

    def __init__(self, species_by_label: Mapping[str, str]) -> None:
        if not species_by_label:
            raise FspError("species_by_label must not be empty")
        self.species_by_label = {str(k): str(v) for k, v in species_by_label.items()}

    def to_descriptor(self) -> dict:
        return {"type": "dominant-species", "catalysts": dict(self.species_by_label)}

    def renamed(self, species: Mapping[str, str], reactions=None) -> "DominantSpeciesClassifier":
        return DominantSpeciesClassifier({
            label: species.get(name, name) for label, name in self.species_by_label.items()
        })

    def __call__(self, state: Mapping[str, int]) -> "str | None":
        best_label: "str | None" = None
        best_count = 0
        tied = False
        for label, name in self.species_by_label.items():
            count = int(state.get(name, 0))
            if count > best_count:
                best_label, best_count, tied = label, count, False
            elif count == best_count and count > 0:
                tied = True
        if best_label is None or tied:
            return None
        return best_label

    def classify_matrix(
        self, states: np.ndarray, species_names: Sequence[str]
    ) -> "list[str | None]":
        """Label every row of a ``(n_states, n_species)`` count matrix.

        Equal to calling the classifier on each row's ``{name: count}``
        dict, with a species missing from ``species_names`` counting 0.
        """
        states = np.asarray(states, dtype=np.int64)
        column = _species_column(states, species_names)
        best = np.zeros(states.shape[0], dtype=np.int64)
        winner = np.full(states.shape[0], -1, dtype=np.int64)
        tied = np.zeros(states.shape[0], dtype=bool)
        for k, name in enumerate(self.species_by_label.values()):
            count = column(name)
            lead = count > best
            tied |= ~lead & (count == best) & (count > 0)
            tied[lead] = False
            winner[lead] = k
            best[lead] = count[lead]
        winner[tied] = -1
        return _labels_of(winner, list(self.species_by_label))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DominantSpeciesClassifier({self.species_by_label!r})"


class ThresholdStateClassifier:
    """State classifier: the first declared outcome whose threshold holds.

    Each outcome is a ``label → (species, count, comparison)`` entry with
    comparison ``">="`` (default) or ``"<="``; outcomes are evaluated in
    declaration order and the first satisfied one labels the state.  This is
    the state-space mirror of the sampling-side threshold stopping conditions
    (:class:`~repro.sim.events.OutcomeThresholds` /
    :class:`~repro.sim.events.SpeciesThreshold`), so absorption probabilities
    under it are exactly comparable with threshold-stopped trajectory
    ensembles — the contract the conformance corpus relies on.

    A module-level class (rather than a closure) so it pickles into worker
    processes and serializes into store payloads (descriptor type
    ``"threshold-race"``).
    """

    def __init__(
        self, thresholds: Mapping[str, "Sequence"]
    ) -> None:
        if not thresholds:
            raise FspError("thresholds must not be empty")
        normalized: dict[str, tuple[str, int, str]] = {}
        for label, spec in thresholds.items():
            parts = list(spec)
            if len(parts) == 2:
                species, count = parts
                comparison = ">="
            elif len(parts) == 3:
                species, count, comparison = parts
            else:
                raise FspError(
                    f"outcome {label!r}: expected (species, count[, comparison]), "
                    f"got {spec!r}"
                )
            if comparison not in (">=", "<="):
                raise FspError(
                    f"outcome {label!r}: comparison must be '>=' or '<=', "
                    f"got {comparison!r}"
                )
            normalized[str(label)] = (str(species), int(count), str(comparison))
        self.thresholds = normalized

    def to_descriptor(self) -> dict:
        return {
            "type": "threshold-race",
            "thresholds": {label: list(entry) for label, entry in self.thresholds.items()},
        }

    def renamed(self, species: Mapping[str, str], reactions=None) -> "ThresholdStateClassifier":
        return ThresholdStateClassifier({
            label: (species.get(name, name), count, comparison)
            for label, (name, count, comparison) in self.thresholds.items()
        })

    def __call__(self, state: Mapping[str, int]) -> "str | None":
        for label, (name, count, comparison) in self.thresholds.items():
            value = int(state.get(name, 0))
            if comparison == ">=" and value >= count:
                return label
            if comparison == "<=" and value <= count:
                return label
        return None

    def classify_matrix(
        self, states: np.ndarray, species_names: Sequence[str]
    ) -> "list[str | None]":
        """Label every row of a ``(n_states, n_species)`` count matrix.

        Equal to calling the classifier on each row's ``{name: count}``
        dict, with a species missing from ``species_names`` counting 0.
        """
        states = np.asarray(states, dtype=np.int64)
        column = _species_column(states, species_names)
        first = np.full(states.shape[0], -1, dtype=np.int64)
        for k, (name, count, comparison) in enumerate(self.thresholds.values()):
            value = column(name)
            holds = value >= count if comparison == ">=" else value <= count
            first[(first < 0) & holds] = k
        return _labels_of(first, list(self.thresholds))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ThresholdStateClassifier):
            return NotImplemented
        return self.thresholds == other.thresholds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThresholdStateClassifier({self.thresholds!r})"


def state_classifier_from_descriptor(data: "Mapping | None") -> "Callable | None":
    """The state classifier a ``dominant-species`` or ``threshold-race``
    descriptor names (``None`` for a null one); a missing field, or a label,
    species or count of another type, raises ``ValueError`` naming it."""
    if data is None:
        return None
    field = partial(descriptor_field, data)
    if data.get("type") == "dominant-species":
        return DominantSpeciesClassifier(field("catalysts", names))
    if data.get("type") == "threshold-race":
        return ThresholdStateClassifier(field("thresholds", _race))
    raise FspError(f"unknown state-classifier descriptor type {data.get('type')!r}")


def _race(value) -> dict:
    """``{label: [species, count(, comparison)]}`` of a ``threshold-race``."""
    race = {}
    for label, entry in mapping(value).items():
        species, count, *comparison = sequence(entry)
        race[text(label)] = (text(species), integral(count), *map(text, comparison))
    return race


@dataclass
class StateSpace:
    """The truncated reachable state space of a network, with its transitions.

    Attributes
    ----------
    compiled:
        The compiled network the space was enumerated from.
    states:
        Enumerated states as a ``(n_states, n_species)`` count matrix; row 0
        is the initial state.
    index:
        ``{state tuple: row}`` lookup.
    labels:
        Per-state outcome label (``None`` for transient/unclassified states).
        All ``None`` when no classifier was given.
    edge_src / edge_dst / edge_rate:
        In-set transitions as parallel arrays (``src → dst`` at ``rate``).
    outflow:
        Total propensity out of each state, *including* transitions truncated
        away — the difference between ``outflow`` and the kept edge rates is
        exactly the leak that bounds the truncation error.
    truncated:
        Whether any transition was dropped (count cap or state budget).
    """

    compiled: CompiledNetwork
    states: np.ndarray
    index: dict[tuple[int, ...], int]
    labels: list["str | None"]
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_rate: np.ndarray
    outflow: np.ndarray
    truncated: bool = False

    @property
    def n_states(self) -> int:
        return int(self.states.shape[0])

    def species_names(self) -> list[str]:
        return [s.name for s in self.compiled.species]

    def outcome_labels(self) -> list[str]:
        """Distinct classifier labels present, sorted."""
        return sorted({label for label in self.labels if label is not None})

    def leak_rates(self) -> np.ndarray:
        """Per-state propensity flowing through the truncation boundary."""
        kept = np.zeros(self.n_states)
        np.add.at(kept, self.edge_src, self.edge_rate)
        return np.maximum(self.outflow - kept, 0.0)


def _state_labeller(
    classify: "Callable[[Mapping[str, int]], str | None] | None", names: list[str]
) -> "Callable[[np.ndarray], list[str | None]]":
    """Label a block of state rows at once.

    The two built-in classifiers label a whole block through their
    ``classify_matrix``; any other callable is called on each row's
    ``{name: count}`` dict.
    """
    if classify is None:
        return lambda states: [None] * states.shape[0]
    classify_matrix = getattr(classify, "classify_matrix", None)
    if classify_matrix is not None:
        return lambda states: classify_matrix(states, names)
    return lambda states: [classify(dict(zip(names, row))) for row in states.tolist()]


def enumerate_states(
    compiled: CompiledNetwork,
    initial_counts: np.ndarray,
    classify: "Callable[[Mapping[str, int]], str | None] | None" = None,
    count_caps: "Mapping[str, int] | None" = None,
    max_states: int = 200_000,
    on_overflow: str = "truncate",
) -> StateSpace:
    """Breadth-first enumeration of the (truncated) reachable state space.

    Each breadth-first layer is expanded as one matrix: the frontier is a
    ``(states, species)`` block, :meth:`CompiledNetwork.propensity_matrix`
    gives every reaction's propensity on every frontier state, and the
    layer's edges are its positive entries, by reaction and then by frontier
    row.  Successors are numbered through the ``index`` dict in that order of
    first appearance, and a layer's new states are labelled in one call to
    the classifier's ``classify_matrix`` when it has one (both built-in
    state classifiers do), else state by state.  ``classify`` marks
    absorbing states: they are enumerated but not expanded, so their mass
    accumulates.

    Truncation has two sources — per-species ``count_caps`` and the hard
    ``max_states`` budget.  The first new state past the budget, and every
    new state after it, is dropped (``truncated=True``) while successors that
    already have a row still map; when ``on_overflow`` is ``"raise"``
    exceeding the budget raises :class:`~repro.errors.FspError` instead, for
    callers that need the complete reachable space.
    """
    if on_overflow not in ("truncate", "raise"):
        raise FspError(f"on_overflow must be 'truncate' or 'raise', got {on_overflow!r}")
    names = [s.name for s in compiled.species]
    caps = None
    if count_caps:
        unknown = set(count_caps) - set(names)
        if unknown:
            raise FspError(
                f"count_caps mention species not in the network: {sorted(unknown)}"
            )
        caps = np.array(
            [int(count_caps.get(name, np.iinfo(np.int64).max)) for name in names],
            dtype=np.int64,
        )
    label_rows = _state_labeller(classify, names)

    start = np.asarray(initial_counts, dtype=np.int64).reshape(1, -1)
    if caps is not None and np.any(start > caps):
        raise FspError("initial state exceeds the configured count_caps")
    index: dict[tuple[int, ...], int] = {tuple(start[0].tolist()): 0}
    labels: list["str | None"] = label_rows(start)
    blocks = [start]
    no_rows, no_rates = np.empty(0, dtype=np.int64), np.empty(0)
    edge_src, edge_dst, edge_rate = [no_rows], [no_rows], [no_rates]
    outflow_src, outflow_rate = [no_rows], [no_rates]
    truncated = False

    frontier = start if labels[0] is None else start[:0]
    frontier_rows = np.zeros(frontier.shape[0], dtype=np.int64)
    while frontier.shape[0]:
        propensities = compiled.propensity_matrix(frontier.T)
        totals = propensities.sum(axis=0)
        active = totals > 0.0
        outflow_src.append(frontier_rows[active])
        outflow_rate.append(totals[active])

        reaction, column = np.nonzero(propensities > 0.0)
        successors = frontier[column] + compiled.delta_matrix[reaction]
        sources = frontier_rows[column]
        rates = propensities[reaction, column]
        if caps is not None:
            within = np.all(successors <= caps, axis=1)
            if not within.all():
                truncated = True
                successors, sources, rates = (
                    successors[within], sources[within], rates[within]
                )

        # Number the layer's successors: a new state gets the next row the
        # first time it appears.
        first_new = len(index)
        dst = np.fromiter(
            (index.setdefault(key, len(index)) for key in map(tuple, successors.tolist())),
            dtype=np.int64,
            count=successors.shape[0],
        )
        fresh = np.flatnonzero(dst >= first_new)
        new_rows, first_seen = np.unique(dst[fresh], return_index=True)
        new_states = successors[fresh[first_seen]]
        if len(index) > max_states:
            if on_overflow == "raise":
                raise FspError(f"state space exceeds max_states={max_states}")
            truncated = True
            over = new_rows >= max_states
            for key in map(tuple, new_states[over].tolist()):
                del index[key]
            kept = dst < max_states
            sources, dst, rates = sources[kept], dst[kept], rates[kept]
            new_rows, new_states = new_rows[~over], new_states[~over]
        edge_src.append(sources)
        edge_dst.append(dst)
        edge_rate.append(rates)

        new_labels = label_rows(new_states)
        labels.extend(new_labels)
        blocks.append(new_states)
        expand = np.array([label is None for label in new_labels], dtype=bool)
        frontier = new_states[expand]
        frontier_rows = new_rows[expand]

    outflow = np.zeros(len(index))
    outflow[np.concatenate(outflow_src)] = np.concatenate(outflow_rate)
    return StateSpace(
        compiled=compiled,
        states=np.concatenate(blocks),
        index=index,
        labels=labels,
        edge_src=np.concatenate(edge_src),
        edge_dst=np.concatenate(edge_dst),
        edge_rate=np.concatenate(edge_rate),
        outflow=outflow,
        truncated=truncated,
    )


def build_generator(space: StateSpace) -> csr_matrix:
    """Assemble the (truncated) CME generator ``A`` with ``dp/dt = A p``.

    ``A[dst, src]`` carries the transition rate ``src → dst``; the diagonal
    carries minus the *total* outflow of each state, including transitions
    truncated away — so ``1ᵀ A p ≤ 0`` and the lost mass ``1 - Σ p(t)``
    bounds the truncation error from above.  Classified (absorbing) states
    have zero outflow and keep their mass.
    """
    n = space.n_states
    rows = np.concatenate([space.edge_dst, np.arange(n, dtype=np.int64)])
    cols = np.concatenate([space.edge_src, np.arange(n, dtype=np.int64)])
    data = np.concatenate([space.edge_rate, -space.outflow])
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


@dataclass(frozen=True)
class AbsorptionResult:
    """Exact absorption probabilities of a classified state space.

    ``probabilities`` maps each outcome label to the probability of absorbing
    into it, with :data:`UNDECIDED` collecting dead-end, trapped-state and
    truncation-leak mass.  ``n_states`` / ``n_transient`` describe the linear
    system solved; ``truncation_error`` is the share of :data:`UNDECIDED`
    that crossed the truncation boundary (0.0 for a complete state space) —
    the upper bound on how far each probability may sit below its
    untruncated value.
    """

    probabilities: dict[str, float]
    n_states: int
    n_transient: int
    truncation_error: float = 0.0

    def probability(self, label: str) -> float:
        """Probability of one outcome (0.0 if never reached)."""
        return self.probabilities.get(label, 0.0)

    def decided(self) -> dict[str, float]:
        """The distribution conditioned on an outcome being produced."""
        decided = {k: v for k, v in self.probabilities.items() if k != UNDECIDED}
        total = sum(decided.values())
        if total <= 0:
            raise FspError("no probability mass reaches any outcome")
        return {k: v / total for k, v in decided.items()}


#: Largest residual ``|A x - b|`` an absorption solve may leave.  A sound
#: solve of these substochastic systems sits near round-off (~1e-15); a
#: residual this far above it means the factorization broke down.
_RESIDUAL_TOLERANCE = 1e-9


def _reaches_exit(exits: np.ndarray, edge_src: np.ndarray, edge_dst: np.ndarray) -> np.ndarray:
    """Which states have a path to an exit state (exits included).

    One breadth-first search over the reversed edges (``dst → src``, in CSR),
    started from a virtual root, row ``n``, that points at every exit.
    """
    n = exits.size
    roots = np.flatnonzero(exits)
    rows = np.concatenate([edge_dst, np.full(roots.size, n)])
    cols = np.concatenate([edge_src, roots])
    graph = csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n + 1, n + 1))
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(graph, n, directed=True, return_predecessors=False)] = True
    return reached[:n]


def absorption_probabilities(space: StateSpace) -> AbsorptionResult:
    """Absorption probabilities of a classified space, by sparse linear solve.

    Absorption probabilities of a CTMC depend only on the jump chain, so the
    system is built from transition probabilities ``rate / outflow`` (well
    conditioned under the huge rate separations the paper uses) over the
    transient states, one right-hand-side column per outcome label plus one
    for the undecided mass (unlabeled dead ends, and any truncation leak).

    A state with no path to an exit — a labeled state, an unlabeled dead end
    or the truncation boundary — is trapped (say in a closed cycle no outcome
    leaves): like a dead end it is routed to :data:`UNDECIDED`, just as a
    sampled trial there ends undecided, and left out of the system, which
    would otherwise be singular.

    The system is solved by SuperLU in natural order: breadth-first
    numbering leaves it nearly upper-triangular, so a fill-reducing ordering
    only adds work.  A solution that is not finite, or whose residual is far
    above round-off, raises :class:`~repro.errors.FspError`.
    """
    n_states = space.n_states
    labels = space.labels
    if labels[0] is not None:
        return AbsorptionResult(
            probabilities={labels[0]: 1.0}, n_states=n_states, n_transient=0
        )

    unlabeled = np.array([label is None for label in labels])
    expanded = unlabeled & (space.outflow > 0.0)
    leak_rates = space.leak_rates()
    exits = ~expanded | (leak_rates > 0.0)
    transient = np.flatnonzero(
        expanded & _reaches_exit(exits, space.edge_src, space.edge_dst)
    )
    n_transient = int(transient.size)
    rows_of = np.full(n_states, -1, dtype=np.int64)
    rows_of[transient] = np.arange(n_transient)
    if rows_of[0] < 0:
        # The initial state is an unlabeled dead end, or trapped: no outcome
        # is ever produced.
        return AbsorptionResult(
            probabilities={UNDECIDED: 1.0}, n_states=n_states, n_transient=n_transient
        )

    # One RHS column per outcome, one for unlabeled dead ends and trapped
    # states, and one tracking truncation-boundary leak separately so the
    # caller can see how much of the undecided mass is a truncation artefact.
    leak_column = "(leak)"
    columns = space.outcome_labels() + [UNDECIDED, leak_column]
    column_of = {label: k for k, label in enumerate(columns)}
    dst_column = np.array(
        [column_of[label] if label is not None else -1 for label in labels],
        dtype=np.int64,
    )

    src = space.edge_src
    live = rows_of[src] >= 0  # edges out of transient states
    src = src[live]
    dst = space.edge_dst[live]
    probability = space.edge_rate[live] / space.outflow[src]
    src_row = rows_of[src]

    rhs = np.zeros((n_transient, len(columns)))
    leak = leak_rates[transient] / space.outflow[transient]
    rhs[:, column_of[leak_column]] += leak

    to_labeled = dst_column[dst] >= 0
    np.add.at(
        rhs,
        (src_row[to_labeled], dst_column[dst[to_labeled]]),
        probability[to_labeled],
    )
    # Unlabeled destinations outside the system: dead ends and trapped states.
    to_undecided = ~to_labeled & (rows_of[dst] < 0)
    np.add.at(
        rhs,
        (src_row[to_undecided], np.full(int(to_undecided.sum()), column_of[UNDECIDED])),
        probability[to_undecided],
    )
    to_transient = ~to_labeled & (rows_of[dst] >= 0)

    matrix_rows = np.concatenate([src_row[to_transient], np.arange(n_transient)])
    matrix_cols = np.concatenate([rows_of[dst[to_transient]], np.arange(n_transient)])
    matrix_data = np.concatenate(
        [-probability[to_transient], np.ones(n_transient)]
    )
    matrix = coo_matrix(
        (matrix_data, (matrix_rows, matrix_cols)), shape=(n_transient, n_transient)
    ).tocsr()

    # Natural order, not SciPy's default COLAMD: breadth-first numbering
    # points most edges forward, so the system is nearly upper-triangular and
    # a fill-reducing ordering only adds work.  On the 10,401-transient-state
    # gen-k2-L3-x1-c1-n14-seed6 corpus system (2-vCPU Xeon, SciPy 1.17)
    # COLAMD took 457 ms and natural order 9.3 ms, 1.4e-15 apart.
    solution = spsolve(matrix, rhs, permc_spec="NATURAL").reshape(rhs.shape)
    residual = np.abs(matrix @ solution - rhs).max()
    if not (np.isfinite(solution).all() and residual <= _RESIDUAL_TOLERANCE):
        raise FspError(
            f"absorption solve failed over {n_transient} transient states "
            f"(residual {residual:.3e})"
        )

    start_row = int(rows_of[0])
    probabilities = {
        label: float(solution[start_row, column_of[label]]) for label in columns
    }
    truncation_error = probabilities.pop(leak_column)
    probabilities[UNDECIDED] = probabilities.get(UNDECIDED, 0.0) + truncation_error
    if abs(probabilities.get(UNDECIDED, 0.0)) < 1e-12:
        probabilities.pop(UNDECIDED, None)
    return AbsorptionResult(
        probabilities=probabilities,
        n_states=n_states,
        n_transient=n_transient,
        truncation_error=max(truncation_error, 0.0),
    )


@dataclass
class FspResult:
    """Transient solution ``p(t)`` on a checkpointed time grid.

    Attributes
    ----------
    times:
        Checkpoint times (uniform grid including ``t = 0``).
    probabilities:
        ``(len(times), n_states)`` matrix; row ``k`` is the distribution at
        ``times[k]`` over the truncated space.
    space:
        The enumerated :class:`StateSpace` (state vectors, labels, edges).
    """

    times: np.ndarray
    probabilities: np.ndarray
    space: StateSpace

    def error_bounds(self) -> np.ndarray:
        """Truncation-error bound ``1 - Σ p(t)`` at every checkpoint."""
        return np.maximum(1.0 - self.probabilities.sum(axis=1), 0.0)

    def error_bound(self) -> float:
        """Truncation-error bound at the final checkpoint."""
        return float(self.error_bounds()[-1])

    def _time_index(self, time_index: int) -> int:
        return int(np.arange(len(self.times))[time_index])

    def marginal(self, species: "str | object", time_index: int = -1) -> dict[int, float]:
        """Marginal distribution ``{count: probability}`` of one species."""
        sp = as_species(species)
        try:
            column = list(self.space.compiled.species).index(sp)
        except ValueError as exc:
            raise FspError(f"species {sp.name!r} not in the state space") from exc
        weights = self.probabilities[self._time_index(time_index)]
        counts = self.space.states[:, column]
        marginal: dict[int, float] = {}
        for value in np.unique(counts):
            marginal[int(value)] = float(weights[counts == value].sum())
        return marginal

    def mean(self, species: "str | object", time_index: int = -1) -> float:
        """Mean count of one species at a checkpoint."""
        return float(
            sum(count * p for count, p in self.marginal(species, time_index).items())
        )

    def state_probability(
        self, state: Mapping[str, int], time_index: int = -1
    ) -> float:
        """Probability of one full state (0.0 if outside the truncated space)."""
        names = self.space.species_names()
        key = tuple(int(state.get(name, 0)) for name in names)
        row = self.space.index.get(key)
        if row is None:
            return 0.0
        return float(self.probabilities[self._time_index(time_index), row])

    def outcome_probabilities(
        self,
        classify: "Callable[[Mapping[str, int]], str | None] | None" = None,
        time_index: int = -1,
    ) -> dict[str, float]:
        """Mass per outcome label at a checkpoint.

        With no ``classify``, the labels recorded during enumeration are used
        (absorbing classified states); otherwise every state is classified on
        the fly.  Unlabeled mass plus the truncation bound reports as
        :data:`UNDECIDED`.
        """
        weights = self.probabilities[self._time_index(time_index)]
        names = self.space.species_names()
        totals: dict[str, float] = {}
        for row, weight in enumerate(weights):
            if weight == 0.0:
                continue
            if classify is None:
                label = self.space.labels[row]
            else:
                label = classify(
                    {name: int(c) for name, c in zip(names, self.space.states[row])}
                )
            key = UNDECIDED if label is None else str(label)
            totals[key] = totals.get(key, 0.0) + float(weight)
        leaked = float(max(1.0 - weights.sum(), 0.0))
        if leaked > 0.0:
            totals[UNDECIDED] = totals.get(UNDECIDED, 0.0) + leaked
        return totals


@register_engine(
    "fsp",
    kind="distribution",
    exact=True,
    options_type=FspOptions,
    summary="sparse finite-state-projection exact distribution solver",
)
class FspEngine:
    """Exact distribution engine over the truncated reachable state space.

    Unlike every other engine this one produces no trajectories: it computes
    the full time-dependent distribution (:meth:`solve`) or exact outcome
    probabilities (:meth:`outcome_probabilities`).  Its engine kind is
    ``distribution``, so Monte-Carlo ensembles reject it while
    :meth:`repro.api.Experiment.simulate` routes it to the absorption solver
    and returns an exact :class:`~repro.api.results.RunResult`.

    The ``seed`` parameter is accepted (engine-protocol compatibility) and
    ignored — there is nothing random to seed.
    """

    method_name = "fsp"

    def __init__(
        self,
        network: "ReactionNetwork | CompiledNetwork",
        seed=None,
        engine_options: "FspOptions | None" = None,
    ) -> None:
        self.compiled = CompiledNetwork.coerce(network)
        self.options = engine_options or FspOptions()

    @property
    def network(self) -> ReactionNetwork:
        """The underlying reaction network."""
        return self.compiled.network

    # -- queries -----------------------------------------------------------------

    def enumerate(
        self,
        initial_state: "Mapping | None" = None,
        classify: "Callable[[Mapping[str, int]], str | None] | None" = None,
        on_overflow: str = "truncate",
        count_caps: "Mapping[str, int] | None" = None,
    ) -> StateSpace:
        """Enumerate the truncated reachable state space (shared machinery)."""
        start = resolve_initial_counts(self.compiled, initial_state)
        return enumerate_states(
            self.compiled,
            start,
            classify=classify,
            count_caps=count_caps if count_caps is not None else self.options.count_caps,
            max_states=self.options.max_states,
            on_overflow=on_overflow,
        )

    def solve(
        self,
        t_final: float,
        initial_state: "Mapping | None" = None,
        times: "Sequence[float] | None" = None,
    ) -> FspResult:
        """Solve the truncated CME for ``p(t)`` on a checkpointed time grid.

        The grid is ``linspace(0, t_final, options.checkpoints)`` unless an
        explicit increasing ``times`` grid (starting at 0) is given.  While
        the final error bound exceeds ``options.tolerance`` and expansion is
        enabled, the per-species caps are doubled and the solve repeated;
        exhausting ``max_states`` (or having no caps to grow) ends the loop,
        raising under ``options.strict``.
        """
        if t_final <= 0:
            raise FspError(f"t_final must be positive, got {t_final}")
        if times is not None:
            grid = np.asarray(list(times), dtype=float)
            if grid.size < 2 or grid[0] != 0.0 or np.any(np.diff(grid) <= 0):
                raise FspError("times must be an increasing grid starting at 0.0")
        else:
            grid = np.linspace(0.0, float(t_final), self.options.checkpoints)

        options = self.options
        caps = dict(options.count_caps) if options.count_caps else None
        result: "FspResult | None" = None
        while True:
            space = self.enumerate(
                initial_state=initial_state, count_caps=caps, on_overflow="truncate"
            )
            result = self._transient(space, grid)
            if result.error_bound() <= options.tolerance or not space.truncated:
                break
            if not (options.expand and caps) or space.n_states >= options.max_states:
                break
            caps = {name: 2 * cap for name, cap in caps.items()}
        if options.strict and not result.error_bound() <= options.tolerance:
            raise FspError(
                f"truncation error bound {result.error_bound():.3e} exceeds "
                f"tolerance {options.tolerance:.3e} at {result.space.n_states} states; "
                "raise max_states / count_caps, or pass FspOptions(strict=False) "
                "to accept the truncated result"
            )
        return result

    def _transient(self, space: StateSpace, grid: np.ndarray) -> FspResult:
        """Advance the initial distribution over ``grid`` with expm_multiply."""
        generator = build_generator(space)
        p0 = np.zeros(space.n_states)
        p0[0] = 1.0
        steps = np.diff(grid)
        if grid.size > 2 and np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            probabilities = expm_multiply(
                generator,
                p0,
                start=float(grid[0]),
                stop=float(grid[-1]),
                num=int(grid.size),
                endpoint=True,
            )
        else:
            # Non-uniform grid: step checkpoint to checkpoint (p(t+dt) = e^{A dt} p(t)).
            rows = [p0]
            current = p0
            for dt in steps:
                current = expm_multiply(generator * float(dt), current)
                rows.append(current)
            probabilities = np.vstack(rows)
        # expm_multiply's Krylov arithmetic can leave tiny negative entries.
        probabilities = np.maximum(probabilities, 0.0)
        return FspResult(times=grid, probabilities=probabilities, space=space)

    def outcome_probabilities(
        self,
        classify: "Callable[[Mapping[str, int]], str | None]",
        initial_state: "Mapping | None" = None,
        on_overflow: str = "truncate",
    ) -> AbsorptionResult:
        """Exact outcome probabilities with ``classify`` marking absorbing states.

        Solves the jump-chain linear system (no time grid needed — these are
        the ``t → ∞`` absorption probabilities).  Exceeding the truncation
        bounds leaks mass into :data:`UNDECIDED` and is reported as the
        result's ``truncation_error``, which must meet ``options.tolerance``
        under ``options.strict`` (the default); pass ``on_overflow="raise"``
        to reject any truncation outright instead.
        """
        if classify is None:
            raise FspError("outcome_probabilities requires a state classifier")
        space = self.enumerate(
            initial_state=initial_state, classify=classify, on_overflow=on_overflow
        )
        result = absorption_probabilities(space)
        # Written so that a NaN bound fails the check too.
        if self.options.strict and not result.truncation_error <= self.options.tolerance:
            raise FspError(
                f"absorption truncation error {result.truncation_error:.3e} exceeds "
                f"tolerance {self.options.tolerance:.3e} at {result.n_states} states; "
                "raise max_states, or pass FspOptions(strict=False) to accept the "
                "truncated result (the leak reports as undecided mass)"
            )
        return result

    # -- engine protocol ----------------------------------------------------------

    def run(self, *args, **kwargs):
        """The FSP engine computes distributions, not sample trajectories."""
        from repro.errors import SimulationError

        raise SimulationError(
            "the 'fsp' engine computes exact distributions, not trajectories; "
            "use Experiment.simulate(engine='fsp'), FspEngine.solve() or "
            "FspEngine.outcome_probabilities() instead"
        )

    def with_options(self, **changes) -> "FspEngine":
        """A copy of this engine with :class:`FspOptions` fields replaced."""
        return FspEngine(
            self.compiled, engine_options=replace(self.options, **changes)
        )
