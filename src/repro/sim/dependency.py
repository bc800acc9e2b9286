"""Reaction dependency graphs (Gibson & Bruck 2000).

The dependency graph has one node per reaction and an edge ``r → s`` whenever
firing ``r`` changes the count of some species that appears among the
reactants of ``s`` (so ``s``'s propensity must be refreshed).  The compiled
network already stores the adjacency (CSR arrays and Python views) for the
kernels; this module exposes the same structure as a :mod:`networkx` digraph
for analysis, visualization and tests, plus a couple of graph-level
statistics that explain *why* the next-reaction method pays off (sparse
graphs → few updates per firing).
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.crn.network import ReactionNetwork
from repro.sim.propensity import CompiledNetwork

__all__ = ["dependency_graph", "DependencyStats", "dependency_stats"]


def dependency_graph(network: "ReactionNetwork | CompiledNetwork") -> nx.DiGraph:
    """Build the reaction dependency graph as a :class:`networkx.DiGraph`.

    Node labels are reaction indices; each node carries the reaction's ``name``
    and ``category`` as attributes.  Self-loops are included (a reaction always
    affects its own propensity), matching the convention of Gibson & Bruck.
    """
    compiled = CompiledNetwork.coerce(network)
    graph = nx.DiGraph()
    for index, reaction in enumerate(compiled.network.reactions):
        graph.add_node(index, name=reaction.name, category=reaction.category)
    for index, affected in enumerate(compiled.py_views()["dependents"]):
        for target in affected:
            graph.add_edge(index, target)
    return graph


@dataclass(frozen=True)
class DependencyStats:
    """Summary statistics of a dependency graph.

    Attributes
    ----------
    n_reactions:
        Number of nodes.
    n_edges:
        Number of dependency edges (including self-loops).
    max_out_degree / mean_out_degree:
        Worst-case and average number of propensity updates per firing.
    density:
        Edge density relative to the complete digraph; close to 1 means the
        next-reaction method cannot beat the direct method.
    """

    n_reactions: int
    n_edges: int
    max_out_degree: int
    mean_out_degree: float
    density: float


def dependency_stats(network: "ReactionNetwork | CompiledNetwork") -> DependencyStats:
    """Compute :class:`DependencyStats` for ``network``."""
    graph = dependency_graph(network)
    n = graph.number_of_nodes()
    edges = graph.number_of_edges()
    out_degrees = [degree for _, degree in graph.out_degree()]
    return DependencyStats(
        n_reactions=n,
        n_edges=edges,
        max_out_degree=max(out_degrees) if out_degrees else 0,
        mean_out_degree=(sum(out_degrees) / n) if n else 0.0,
        density=(edges / (n * n)) if n else 0.0,
    )
