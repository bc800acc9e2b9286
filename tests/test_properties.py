"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import numpy as np

from repro.analysis import hellinger, jensen_shannon, normalize, total_variation
from repro.core import DistributionSpec, quantize_distribution
from repro.core.stochastic_module import build_stochastic_module, expected_first_firing_distribution
from repro.crn import (
    GeneratorConfig,
    Reaction,
    ReactionNetwork,
    State,
    generate_model,
    model_from_dict,
    model_from_json,
    model_from_yaml,
    model_to_dict,
    model_to_json,
    model_to_yaml,
    network_from_dict,
    network_from_json,
    network_to_dict,
    network_to_json,
)
from repro.sim import CompiledNetwork, combinations, reaction_propensity
from repro.sim.kernels.numpy_backend import _propensity

import propensity_reference as reference

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

species_names = st.sampled_from(["a", "b", "c", "d", "e1", "e2", "x", "y"])
side_strategy = st.dictionaries(species_names, st.integers(min_value=1, max_value=3), max_size=3)
counts_strategy = st.dictionaries(species_names, st.integers(min_value=0, max_value=50), max_size=6)

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=6
).filter(lambda values: sum(values) > 1e-6)


def normalized(values):
    total = sum(values)
    return [v / total for v in values]


# ---------------------------------------------------------------------------
# state / reaction invariants
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(counts=counts_strategy, reactants=side_strategy, products=side_strategy)
def test_reaction_application_conserves_stoichiometry(counts, reactants, products):
    assume(reactants or products)
    reaction = Reaction(reactants, products, rate=1.0)
    state = State(counts)
    if not state.can_fire(reaction):
        with pytest.raises(Exception):
            state.apply(reaction)
        return
    before = state.to_dict()
    state.apply(reaction)
    after = state.to_dict()
    for species, delta in reaction.net_change().items():
        assert after.get(species.name, 0) - before.get(species.name, 0) == delta
    untouched = set(before) | set(after)
    for name in untouched:
        if all(name != s.name for s in reaction.net_change()):
            assert before.get(name, 0) == after.get(name, 0)
    # Counts never go negative by construction.
    assert all(v >= 0 for v in after.values())


@settings(max_examples=150, deadline=None)
@given(reactants=side_strategy, products=side_strategy, rate=st.floats(min_value=1e-6, max_value=1e6))
def test_reaction_rename_roundtrip(reactants, products, rate):
    assume(reactants or products)
    reaction = Reaction(reactants, products, rate=rate)
    mapping = {name: f"ns.{name}" for name in {s.name for s in reaction.species}}
    inverse = {v: k for k, v in mapping.items()}
    assert reaction.rename_species(mapping).rename_species(inverse) == reaction


@settings(max_examples=100, deadline=None)
@given(count=st.integers(min_value=0, max_value=200), needed=st.integers(min_value=0, max_value=4))
def test_combinations_matches_binomial(count, needed):
    assert combinations(count, needed) == math.comb(count, needed)


# ---------------------------------------------------------------------------
# quantization and programmed distributions
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(values=probability_lists, scale=st.integers(min_value=1, max_value=500))
def test_quantize_distribution_sums_to_scale(values, scale):
    probabilities = normalized(values)
    counts = quantize_distribution(probabilities, scale)
    assert sum(counts) == scale
    assert all(c >= 0 for c in counts)
    # Every count stays within the number of outcomes of the unconstrained
    # ideal (largest-remainder rounding plus the keep-one-molecule adjustment).
    for probability, count in zip(probabilities, counts):
        assert abs(count - probability * scale) <= len(probabilities) + 1e-9
    # Outcomes with positive probability are never starved when there is room.
    if scale >= len(probabilities):
        for probability, count in zip(probabilities, counts):
            if probability > 1e-3:
                assert count >= 1


@settings(max_examples=100, deadline=None)
@given(values=probability_lists)
def test_programmed_distribution_matches_quantities(values):
    probabilities = normalized(values)
    assume(all(p > 0.01 for p in probabilities))
    labels = [f"o{i}" for i in range(len(probabilities))]
    spec = DistributionSpec(labels, probabilities)
    quantities = spec.initial_quantities(1000)
    programmed = expected_first_firing_distribution(quantities)
    for label, probability in zip(labels, probabilities):
        assert programmed[label] == pytest.approx(probability, abs=2e-3)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=4),
    gamma=st.floats(min_value=1.0, max_value=1e4),
)
def test_stochastic_module_structure_invariants(values, gamma):
    """For any spec, the generated module has the right census and rate ordering."""
    probabilities = normalized(values)
    labels = [f"t{i}" for i in range(len(probabilities))]
    spec = DistributionSpec(labels, probabilities)
    network = build_stochastic_module(spec, gamma=gamma, scale=100)
    n = len(labels)
    assert len(network.reactions_in_category("initializing")) == n
    assert len(network.reactions_in_category("reinforcing")) == n
    assert len(network.reactions_in_category("working")) == n
    assert len(network.reactions_in_category("stabilizing")) == n * (n - 1)
    assert len(network.reactions_in_category("purifying")) == n * (n - 1) // 2
    # Rate ordering: initializing ≈ working ≤ reinforcing = stabilizing ≤ purifying.
    init_rate = network.reactions_in_category("initializing")[0][1].rate
    reinforce_rate = network.reactions_in_category("reinforcing")[0][1].rate
    purify_rate = network.reactions_in_category("purifying")[0][1].rate
    assert init_rate <= reinforce_rate <= purify_rate
    # Input quantities realize the target distribution up to 1/scale granularity.
    total = sum(network.initial_count(f"e_{label}") for label in labels)
    assert total == 100


# ---------------------------------------------------------------------------
# distribution distances
# ---------------------------------------------------------------------------


@st.composite
def paired_distributions(draw):
    """Two distributions over the same label set (as dictionaries)."""
    size = draw(st.integers(min_value=2, max_value=6))
    positive_list = st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=size,
        max_size=size,
    ).filter(lambda values: sum(values) > 1e-6)
    p = normalized(draw(positive_list))
    q = normalized(draw(positive_list))
    labels = [f"l{i}" for i in range(size)]
    return dict(zip(labels, p)), dict(zip(labels, q))


@settings(max_examples=150, deadline=None)
@given(pair=paired_distributions())
def test_total_variation_is_a_metric(pair):
    p_map, q_map = pair
    tv = total_variation(p_map, q_map)
    assert 0.0 <= tv <= 1.0 + 1e-12
    assert tv == pytest.approx(total_variation(q_map, p_map))
    assert total_variation(p_map, p_map) == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(pair=paired_distributions())
def test_hellinger_and_js_bounds(pair):
    p_map, q_map = pair
    assert 0.0 <= hellinger(p_map, q_map) <= 1.0 + 1e-12
    assert 0.0 <= jensen_shannon(p_map, q_map) <= math.log(2) + 1e-12


@settings(max_examples=100, deadline=None)
@given(values=probability_lists)
def test_normalize_produces_distribution(values):
    labels = [f"l{i}" for i in range(len(values))]
    result = normalize(dict(zip(labels, values)))
    assert sum(result.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in result.values())


# ---------------------------------------------------------------------------
# compiled-network propensities vs the reference implementation
# ---------------------------------------------------------------------------


@st.composite
def random_networks(draw):
    """A small random mass-action network with a random initial state."""
    n_reactions = draw(st.integers(min_value=1, max_value=5))
    reactions = []
    for i in range(n_reactions):
        reactants = draw(side_strategy)
        products = draw(side_strategy)
        if not reactants and not products:
            products = {"a": 1}
        rate = draw(st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
        reactions.append(
            Reaction(
                reactants,
                products,
                rate=rate,
                name=f"r{i}",
                category=draw(st.sampled_from(["", "working", "misc"])),
            )
        )
    initial = draw(counts_strategy)
    return ReactionNetwork(reactions, initial_state=initial, name="random-net")


@settings(max_examples=100, deadline=None)
@given(network=random_networks(), counts=counts_strategy)
def test_compiled_propensities_match_reference(network, counts):
    """CompiledNetwork's flat-array fast path equals reaction_propensity.

    The interpreted kernels' exact-integer evaluator over the Python views,
    the tests-only reference vector and the ``propensity_matrix`` column
    (which the batch sweep and FSP enumeration expand through) must all
    agree with the plain per-reaction reference on every (network, state)
    pair.
    """
    compiled = CompiledNetwork.compile(network)
    state = State({s.name: counts.get(s.name, 0) for s in compiled.species})
    vector = state.to_vector(compiled.species)
    expected = [
        reaction_propensity(reaction, state) for reaction in network.reactions
    ]
    views = compiled.py_views()
    for j, value in enumerate(expected):
        exact = _propensity(views["rates"], views["reactants"], vector.tolist(), j)
        assert exact == pytest.approx(value, rel=1e-12)
    assert reference.all_propensities(compiled, vector) == pytest.approx(expected, rel=1e-12)
    matrix = compiled.propensity_matrix(np.asarray([vector], dtype=np.int64).T)
    assert matrix[:, 0] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=100, deadline=None)
@given(network=random_networks(), counts=counts_strategy)
def test_propensities_are_nonnegative_and_zero_without_reactants(network, counts):
    compiled = CompiledNetwork.compile(network)
    state = State({s.name: counts.get(s.name, 0) for s in compiled.species})
    vector = state.to_vector(compiled.species)
    views = compiled.py_views()
    for j, reaction in enumerate(network.reactions):
        propensity = _propensity(views["rates"], views["reactants"], vector.tolist(), j)
        assert propensity >= 0.0
        if not state.can_fire(reaction):
            assert propensity == 0.0


# ---------------------------------------------------------------------------
# serialization round trips
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(network=random_networks())
def test_network_dict_round_trip_preserves_structure(network):
    """serialize → parse keeps stoichiometry, rates, names and initial state."""
    rebuilt = network_from_dict(network_to_dict(network))
    assert len(rebuilt.reactions) == len(network.reactions)
    for original, restored in zip(network.reactions, rebuilt.reactions):
        assert restored == original  # reactants, products, rate, name, category
        assert restored.net_change() == original.net_change()
        assert restored.rate == original.rate
    assert rebuilt.initial_state.to_dict() == network.initial_state.to_dict()
    assert {s.name for s in rebuilt.species} == {s.name for s in network.species}


@settings(max_examples=50, deadline=None)
@given(network=random_networks())
def test_network_json_round_trip_is_stable(network):
    """JSON text round trips exactly (floats survive via repr) and re-serializes
    to the same canonical text."""
    text = network_to_json(network)
    rebuilt = network_from_json(text)
    assert network_to_json(rebuilt) == text
    # A second hop changes nothing (idempotent fixed point).
    assert network_from_json(network_to_json(rebuilt)) == rebuilt


# ---------------------------------------------------------------------------
# declarative model importer: parse → serialize → parse identity over the
# whole space of generator outputs (the conformance corpus round-trip law)
# ---------------------------------------------------------------------------


@st.composite
def generator_models(draw):
    """An arbitrary valid random-CRN generator output."""
    n_outcomes = draw(st.integers(min_value=2, max_value=4))
    chain_length = draw(st.integers(min_value=1, max_value=3))
    max_edges = n_outcomes * (n_outcomes - 1) * chain_length * (chain_length + 1) // 2
    config = GeneratorConfig(
        n_outcomes=n_outcomes,
        chain_length=chain_length,
        cross_edges=draw(st.integers(min_value=0, max_value=min(3, max_edges))),
        catalytic_edges=draw(st.integers(min_value=0, max_value=min(2, max_edges))),
        scale=draw(st.integers(min_value=2 * n_outcomes, max_value=40)),
        stiffness=draw(st.floats(min_value=0.0, max_value=4.0, allow_nan=False)),
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return generate_model(config, seed)


@settings(max_examples=25, deadline=None)
@given(model=generator_models())
def test_importer_round_trip_is_identity_for_generated_models(model):
    """parse(serialize(model)) == model through dict, YAML and JSON forms."""
    assert model_from_dict(model_to_dict(model)) == model
    assert model_from_yaml(model_to_yaml(model)) == model
    assert model_from_json(model_to_json(model)) == model


@settings(max_examples=25, deadline=None)
@given(model=generator_models())
def test_importer_serialized_text_is_a_fixed_point(model):
    """Serialization is canonical: one parse→serialize hop reaches a fixed
    point, so documents can be re-saved without churn."""
    text = model_to_yaml(model)
    assert model_to_yaml(model_from_yaml(text)) == text
    json_text = model_to_json(model)
    assert model_to_json(model_from_json(json_text)) == json_text


@settings(max_examples=25, deadline=None)
@given(model=generator_models())
def test_generated_models_build_consistent_networks(model):
    """The document's network honours its census: declared initial counts,
    closed-model conservation, and every outcome species present."""
    network = model.network()
    for spec in model.species:
        assert network.initial_count(spec.name) == spec.initial
    species_names_set = {s.name for s in network.species}
    for outcome in model.outcomes:
        assert outcome.species in species_names_set
    for reaction in network.reactions:
        consumed = sum(reaction.reactants.values())
        produced = sum(reaction.products.values())
        assert produced <= consumed  # closed by construction
