"""Tests for graph views, design reports and decision-time statistics."""

from __future__ import annotations

import pytest

from repro.analysis import decision_time_vs_gamma
from repro.api import Experiment
from repro.core import design_report, synthesize_distribution, verify_by_sampling
from repro.crn import bipartite_graph, graph_summary, parse_network, to_dot
from repro.errors import EnsembleError


class TestBipartiteGraph:
    def test_node_kinds_and_counts(self, example1_network):
        graph = bipartite_graph(example1_network)
        species_nodes = [n for n, d in graph.nodes(data=True) if d["kind"] == "species"]
        reaction_nodes = [n for n, d in graph.nodes(data=True) if d["kind"] == "reaction"]
        assert len(species_nodes) == len(example1_network.species)
        assert len(reaction_nodes) == example1_network.size

    def test_edges_carry_coefficients(self):
        net = parse_network("2 a ->{1} 3 b")
        graph = bipartite_graph(net)
        assert graph["a"]["R0"]["coefficient"] == 2
        assert graph["R0"]["b"]["coefficient"] == 3

    def test_summary(self, example1_network):
        summary = graph_summary(example1_network)
        assert summary.n_reactions == example1_network.size
        assert summary.n_species == len(example1_network.species)
        assert summary.weakly_connected_components == 1
        assert summary.max_species_degree >= 3

    def test_disconnected_components_detected(self):
        net = parse_network("a ->{1} b\nc ->{1} d")
        assert graph_summary(net).weakly_connected_components == 2


class TestDotExport:
    def test_dot_contains_species_and_reactions(self, race_network):
        dot = to_dot(race_network, title="race")
        assert dot.startswith('digraph "race"')
        assert '"e1"' in dot and '"d3"' in dot
        assert '"R0"' in dot and "rate=1" in dot
        assert dot.rstrip().endswith("}")

    def test_dot_labels_non_unit_coefficients(self):
        dot = to_dot(parse_network("2 a ->{5} b"))
        assert '[label="2"]' in dot


class TestDesignReport:
    def test_report_sections(self):
        system = synthesize_distribution({"a": 0.3, "b": 0.7}, gamma=1e3)
        text = design_report(system)
        for heading in ("# Design report", "## Target", "## Rate ladder",
                        "## Programmed initial quantities", "## Reactions by category",
                        "## Size"):
            assert heading in text
        assert "initializing" in text and "purifying" in text
        assert "e_a" in text

    def test_report_with_embedded_verification(self):
        system = synthesize_distribution({"a": 0.5, "b": 0.5}, gamma=1e3, scale=40)
        verification = verify_by_sampling(system, n_trials=120, seed=3, tolerance=0.15)
        text = design_report(system, verification=verification)
        assert "## Verification (Monte-Carlo)" in text
        assert "PASS" in text or "FAIL" in text

    def test_report_with_inline_verification_run(self):
        system = synthesize_distribution({"a": 0.5, "b": 0.5}, gamma=1e3, scale=40)
        text = design_report(system, verify_trials=80, seed=4)
        assert "## Verification (Monte-Carlo)" in text


class TestDecisionTime:
    def test_statistics_shape(self):
        system = synthesize_distribution({"a": 0.4, "b": 0.6}, gamma=1e3, scale=60)
        stats = Experiment.from_system(system).simulate(trials=80, seed=5).decision_times()
        assert stats["n_trials"] > 0
        assert stats["mean"] > 0
        assert stats["p95"] >= stats["median"] > 0
        assert stats["mean_firings"] > 10
        assert set(stats) == {"mean", "std", "median", "p95", "mean_firings", "n_trials"}

    def test_invalid_trials(self):
        with pytest.raises(EnsembleError):
            decision_time_vs_gamma({"a": 0.4, "b": 0.6}, gammas=[10.0], n_trials=0)

    def test_gamma_sweep_latency_accuracy_tradeoff(self):
        rows = decision_time_vs_gamma(
            {"a": 0.3, "b": 0.7}, gammas=[10.0, 1000.0], n_trials=80, seed=6
        )
        assert [row["gamma"] for row in rows] == [10.0, 1000.0]
        # Accuracy improves (TV does not get worse) while the decision time
        # stays on the same order: the slow tier sets the pace at any gamma.
        assert rows[1]["tv_from_target"] <= rows[0]["tv_from_target"] + 0.1
        assert rows[1]["mean_decision_time"] < 10 * rows[0]["mean_decision_time"] + 1.0
        assert all(row["mean_firings"] > 0 for row in rows)
