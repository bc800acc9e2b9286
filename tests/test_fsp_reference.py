"""The FSP enumeration, batch labels and absorption solve against references.

* **Enumeration** — :func:`enumerate_states` expands a whole breadth-first
  layer through the compiled arrays.  The reference here expands one state
  at a time through the tests-only ``propensity_reference`` (the source
  network's reactions, not the compiled arrays), with the same frontier
  and reaction order, on random networks with reversible reactions and
  coefficients 1–3, with and without count caps, under a small
  ``max_states`` in both ``on_overflow`` modes.  States, labels, edges and
  truncation must be identical; rates and outflows agree to rel 1e-12.
* **Batch labels** — ``classify_matrix`` of both built-in classifiers equals
  calling the classifier on every row's ``{name: count}`` dict.
* **Absorption** — the sparse natural-order solve agrees to 1e-12 with a
  dense ``numpy.linalg.solve`` of the same jump-chain system, on generated
  race networks (upper-triangular systems) and on random reversible networks
  (backward edges).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crn import GeneratorConfig, Reaction, ReactionNetwork, generate_model
from repro.errors import FspError
from repro.sim.fsp import (
    UNDECIDED,
    DominantSpeciesClassifier,
    ThresholdStateClassifier,
    absorption_probabilities,
    enumerate_states,
)
from repro.sim.propensity import CompiledNetwork

import propensity_reference as reference

SPECIES = ("a", "b", "c", "w")
#: Species the classifiers may name: the network's, plus one never present.
NAMED = (*SPECIES, "absent")
OUTCOMES = ("x", "y", "z")

sides = st.dictionaries(st.sampled_from(SPECIES), st.integers(min_value=1, max_value=3),
                        max_size=2)
rates = st.floats(min_value=1e-2, max_value=1e2, allow_nan=False)


@st.composite
def reversible_networks(draw):
    """A small mass-action network whose reactions may also run backward."""
    reactions = []
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        reactants, products = draw(sides), draw(sides)
        if not reactants and not products:
            products = {"a": 1}
        reactions.append(Reaction(reactants, products, rate=draw(rates), name=f"r{i}"))
        if draw(st.booleans()):
            reactions.append(Reaction(products, reactants, rate=draw(rates), name=f"r{i}-back"))
    initial = draw(st.dictionaries(st.sampled_from(SPECIES),
                                   st.integers(min_value=0, max_value=4), max_size=4))
    return ReactionNetwork(reactions, initial_state=initial, name="reversible")


thresholds = st.dictionaries(
    st.sampled_from(OUTCOMES),
    st.tuples(st.sampled_from(NAMED), st.integers(min_value=0, max_value=6),
              st.sampled_from([">=", "<="])),
    min_size=1, max_size=3,
).map(ThresholdStateClassifier)
dominants = st.dictionaries(
    st.sampled_from(OUTCOMES), st.sampled_from(NAMED), min_size=1, max_size=3
).map(DominantSpeciesClassifier)
#: ``None``, the two batch-labelling classifiers, and a plain callable (a
#: bound ``__call__`` has no ``classify_matrix``, so it labels per state).
classifiers = st.none() | thresholds | dominants | thresholds.map(lambda c: c.__call__)


def reference_enumeration(compiled, start, classify, caps, max_states, on_overflow):
    """Breadth-first search expanding one state at a time (the reference).

    Returns ``(states, labels, edges, outflow, truncated)`` with ``edges`` a
    list of ``(src, dst, rate)`` in the order they were found.
    """
    names = [s.name for s in compiled.species]

    def label(state):
        return None if classify is None else classify(dict(zip(names, state)))

    start = tuple(int(c) for c in start)
    index = {start: 0}
    states, labels = [start], [label(start)]
    edges, outflow, truncated = [], {}, False
    frontier = [0] if labels[0] is None else []
    while frontier:
        propensities = {
            row: [reference.propensity(compiled, j, states[row])
                  for j in range(compiled.n_reactions)]
            for row in frontier
        }
        for row in frontier:
            outflow[row] = sum(propensities[row])
        next_frontier = []
        for j in range(compiled.n_reactions):
            for row in frontier:
                rate = propensities[row][j]
                if rate <= 0.0:
                    continue
                successor = list(states[row])
                reference.apply(compiled, j, successor)
                successor = tuple(successor)
                if caps is not None and any(c > cap for c, cap in zip(successor, caps)):
                    truncated = True
                    continue
                dst = index.get(successor)
                if dst is None:
                    if len(index) >= max_states:
                        if on_overflow == "raise":
                            raise FspError(f"state space exceeds max_states={max_states}")
                        truncated = True
                        continue
                    dst = index[successor] = len(states)
                    states.append(successor)
                    labels.append(label(successor))
                    if labels[-1] is None:
                        next_frontier.append(dst)
                edges.append((row, dst, rate))
        frontier = next_frontier
    flows = np.zeros(len(states))
    for row, total in outflow.items():
        flows[row] = total if total > 0.0 else 0.0
    return states, labels, edges, flows, truncated


@settings(max_examples=150, deadline=None)
@given(network=reversible_networks(), classify=classifiers, data=st.data(),
       max_states=st.integers(min_value=1, max_value=150),
       on_overflow=st.sampled_from(["truncate", "raise"]))
def test_enumeration_matches_one_state_reference(network, classify, data, max_states,
                                                 on_overflow):
    compiled = CompiledNetwork.compile(network)
    start = compiled.initial_counts()
    caps = None
    if data.draw(st.booleans(), label="capped"):
        headroom = data.draw(st.lists(st.integers(min_value=0, max_value=4),
                                      min_size=start.size, max_size=start.size))
        caps = {s.name: int(c) + h for s, c, h in zip(compiled.species, start, headroom)}

    cap_list = None if caps is None else [caps[s.name] for s in compiled.species]
    options = dict(classify=classify, count_caps=caps, max_states=max_states,
                   on_overflow=on_overflow)
    try:
        reference = reference_enumeration(compiled, start, classify, cap_list, max_states,
                                          on_overflow)
    except FspError:
        with pytest.raises(FspError, match="max_states"):
            enumerate_states(compiled, start, **options)
        return
    space = enumerate_states(compiled, start, **options)
    states, labels, edges, outflow, truncated = reference
    assert [tuple(row) for row in space.states.tolist()] == states
    assert space.index == {state: row for row, state in enumerate(states)}
    assert space.labels == labels
    assert space.edge_src.tolist() == [src for src, _, _ in edges]
    assert space.edge_dst.tolist() == [dst for _, dst, _ in edges]
    assert space.edge_rate.tolist() == pytest.approx([rate for _, _, rate in edges], rel=1e-12)
    assert space.outflow.tolist() == pytest.approx(outflow.tolist(), rel=1e-12)
    assert space.truncated is truncated


# ---------------------------------------------------------------------------
# batch labels
# ---------------------------------------------------------------------------


@st.composite
def count_matrices(draw):
    """``(states, species_names)``: small counts, so ties and zeros are common."""
    names = draw(st.lists(st.sampled_from(SPECIES), unique=True, max_size=len(SPECIES)))
    rows = draw(st.lists(st.lists(st.integers(min_value=0, max_value=4),
                                  min_size=len(names), max_size=len(names)), max_size=12))
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(names)), names


@settings(max_examples=200, deadline=None)
@given(matrix=count_matrices(), classifier=thresholds | dominants)
def test_classify_matrix_matches_per_row_call(matrix, classifier):
    states, names = matrix
    expected = [classifier(dict(zip(names, row))) for row in states.tolist()]
    assert classifier.classify_matrix(states, names) == expected


def test_classify_matrix_examples():
    names = ["a", "b"]
    states = np.array([[0, 0], [3, 3], [3, 1], [0, 2], [5, 0]])
    dominant = DominantSpeciesClassifier({"x": "a", "y": "b", "z": "absent"})
    # Nothing present and a tie are undecided; the strict leader wins.
    assert dominant.classify_matrix(states, names) == [None, None, "x", "y", "x"]
    threshold = ThresholdStateClassifier(
        {"low": ("b", 0, "<="), "high": ("a", 3), "never": ("absent", 1)}
    )
    # Declaration order decides when two outcomes hold ([5, 0]: low before high).
    assert threshold.classify_matrix(states, names) == ["low", "high", "high", None, "low"]


# ---------------------------------------------------------------------------
# absorption solve vs a dense reference
# ---------------------------------------------------------------------------


def dense_absorption(space) -> "tuple[dict[str, float], float]":
    """Absorption probabilities by a dense solve of the same jump-chain system.

    Returns the probabilities and the system's condition number.
    """
    labels = space.labels
    if labels[0] is not None:
        return {labels[0]: 1.0}, 1.0
    leak = space.leak_rates()
    expanded = [label is None and out > 0.0 for label, out in zip(labels, space.outflow)]
    # Transient states must reach an exit: a labeled state, a dead end or the
    # truncation boundary.  Fixpoint over the edges.
    reaches = [not e or lk > 0.0 for e, lk in zip(expanded, leak)]
    changed = True
    while changed:
        changed = False
        for src, dst in zip(space.edge_src.tolist(), space.edge_dst.tolist()):
            if reaches[dst] and not reaches[src]:
                reaches[src] = changed = True
    transient = [i for i, (e, r) in enumerate(zip(expanded, reaches)) if e and r]
    if 0 not in transient:
        return {UNDECIDED: 1.0}, 1.0
    row = {state: k for k, state in enumerate(transient)}
    columns = sorted({label for label in labels if label is not None}) + [UNDECIDED]
    matrix = np.eye(len(transient))
    rhs = np.zeros((len(transient), len(columns)))
    for src, dst, rate in zip(space.edge_src, space.edge_dst, space.edge_rate):
        if src not in row:
            continue
        probability = rate / space.outflow[src]
        if labels[dst] is not None:
            rhs[row[src], columns.index(labels[dst])] += probability
        elif dst in row:
            matrix[row[src], row[dst]] -= probability
        else:
            rhs[row[src], -1] += probability
    for state in transient:
        rhs[row[state], -1] += leak[state] / space.outflow[state]
    solution = np.linalg.solve(matrix, rhs)
    return dict(zip(columns, solution[row[0]].tolist())), float(np.linalg.cond(matrix))


def assert_matches_dense(space) -> None:
    """The sparse solve equals the dense one to 1e-12.

    Two backward-stable solves of one system agree to about ``cond · ε``, so
    past a condition number of 1e3 the bound widens to ``1e-15 · cond``.
    Random walks that drift away from every exit reach cond ~1e6–1e7, where
    a dense LU itself sits ~1e-11 from the exact answer.
    """
    result = absorption_probabilities(space)
    expected, cond = dense_absorption(space)
    tolerance = max(1e-12, 1e-15 * cond)
    for label in set(expected) | set(result.probabilities):
        assert result.probability(label) == pytest.approx(
            expected.get(label, 0.0), abs=tolerance
        ), f"{label} (cond {cond:.3g})"


@st.composite
def generated_races(draw):
    """A small generated race model (its BFS-ordered system is triangular)."""
    k = draw(st.integers(min_value=2, max_value=3))
    length = draw(st.integers(min_value=1, max_value=2))
    pairs = k * (k - 1) * length * (length + 1) // 2
    config = GeneratorConfig(
        n_outcomes=k,
        chain_length=length,
        cross_edges=draw(st.integers(min_value=0, max_value=pairs)),
        catalytic_edges=draw(st.integers(min_value=0, max_value=min(pairs, 2))),
        scale=draw(st.integers(min_value=2 * k, max_value=8)),
        stiffness=draw(st.sampled_from([0.0, 1.0, 2.0, 4.0])),
    )
    return generate_model(config, seed=draw(st.integers(min_value=0, max_value=2**16)))


@settings(max_examples=40, deadline=None)
@given(model=generated_races())
def test_solve_matches_dense_on_generated_races(model):
    compiled = CompiledNetwork.compile(model.network())
    space = enumerate_states(compiled, compiled.initial_counts(),
                             classify=model.state_classifier())
    assert_matches_dense(space)


@settings(max_examples=80, deadline=None)
@given(network=reversible_networks(), classify=thresholds | dominants,
       max_states=st.integers(min_value=1, max_value=200))
def test_solve_matches_dense_on_reversible_networks(network, classify, max_states):
    compiled = CompiledNetwork.compile(network)
    space = enumerate_states(compiled, compiled.initial_counts(), classify=classify,
                             max_states=max_states)
    assert_matches_dense(space)
