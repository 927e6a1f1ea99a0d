"""Tests for the PACE graph: T-path indexing, coarsest sequences and path costs."""

from __future__ import annotations

import pytest

from repro.core.distributions import Distribution
from repro.core.errors import GraphError
from repro.core.joint import JointDistribution
from repro.core.pace_graph import PaceGraph
from repro.datasets.paper_example import build_paper_example


class TestTpathManagement:
    def test_tpath_registration_and_lookup(self, paper_example):
        pace = paper_example.pace_graph
        assert pace.num_tpaths == 5
        assert pace.has_tpath((1, 4))
        assert not pace.has_tpath((1, 9))
        assert pace.tpath((1, 4)).distribution.pdf(16) == pytest.approx(0.2)

    def test_unknown_tpath_raises(self, paper_example):
        with pytest.raises(GraphError):
            paper_example.pace_graph.tpath((999,))

    def test_tau_validation(self, paper_example):
        with pytest.raises(GraphError):
            PaceGraph(paper_example.edge_graph, tau=0)

    def test_joint_must_match_path(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([2, 3])
        wrong_joint = JointDistribution((2, 99), {(1.0, 1.0): 1.0})
        with pytest.raises(GraphError):
            pace.add_tpath(path, wrong_joint)

    def test_single_edge_tpath_updates_edge_weight(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([10])
        joint = JointDistribution((10,), {(9.0,): 1.0})
        pace.add_tpath(path, joint)
        assert pace.edge_weight(10).support == (9.0,)
        # restore the original weight for other tests sharing the session fixture
        pace.edge_graph.set_weight(10, Distribution.point(7.0))

    def test_tpaths_from_and_into(self, paper_example):
        pace = paper_example.pace_graph
        from_vs = {t.path.edges for t in pace.tpaths_from(paper_example.source)}
        assert (1, 4) in from_vs
        into_vd = {t.path.edges for t in pace.tpaths_into(paper_example.destination)}
        assert (6, 8) in into_vd and (3, 6, 8) in into_vd

    def test_outgoing_elements_include_edges_and_tpaths(self, paper_example):
        pace = paper_example.pace_graph
        elements = pace.outgoing_elements(paper_example.source)
        kinds = {(e.kind.value, e.path.edges) for e in elements}
        assert ("edge", (1,)) in kinds
        assert ("edge", (2,)) in kinds
        assert ("tpath", (1, 4)) in kinds

    def test_out_degree_with_tpaths(self, paper_example):
        pace = paper_example.pace_graph
        assert pace.out_degree_with_tpaths(paper_example.source) == 3

    def test_incoming_elements(self, paper_example):
        pace = paper_example.pace_graph
        incoming = pace.incoming_elements(paper_example.destination)
        assert {e.path.edges for e in incoming} >= {(8,), (10,), (6, 8), (3, 6, 8)}


class TestEdgeElementMemo:
    """One memoized element per edge, valid while it carries the current ``W(e)``."""

    def test_edge_element_is_memoized(self):
        pace = build_paper_example().pace_graph
        assert pace.edge_element(10) is pace.edge_element(10)

    def test_single_edge_tpath_refreshes_the_element(self):
        example = build_paper_example()
        pace = example.pace_graph
        stale = pace.edge_element(10)
        returned = pace.add_tpath(
            example.network.path_from_edge_ids([10]), JointDistribution((10,), {(9.0,): 1.0})
        )
        assert returned is not stale
        assert pace.edge_element(10) is returned
        assert returned.distribution is pace.edge_weight(10)
        assert returned.distribution.support == (9.0,)

    def test_set_weight_refreshes_the_element(self):
        pace = build_paper_example().pace_graph
        stale = pace.edge_element(10)
        pace.edge_graph.set_weight(10, Distribution.point(11.0))
        fresh = pace.edge_element(10)
        assert fresh is not stale
        assert fresh.distribution.support == (11.0,)
        assert any(
            element.distribution.support == (11.0,)
            for element in pace.outgoing_elements(fresh.source)
            if element.path.edges == (10,)
        )

    def test_memo_does_not_enter_the_fingerprint(self):
        expected = build_paper_example().pace_graph.content_fingerprint()
        pace = build_paper_example().pace_graph
        for vertex in pace.network.vertex_ids():
            pace.outgoing_elements(vertex)
            pace.incoming_elements(vertex)
        assert pace.content_fingerprint() == expected

    def test_element_lists_are_fresh(self, paper_example):
        pace = paper_example.pace_graph
        source = paper_example.source
        assert pace.outgoing_elements(source) is not pace.outgoing_elements(source)
        assert pace.incoming_elements(source) is not pace.incoming_elements(source)
        extended = pace.outgoing_elements(source)
        extended.append(extended[0])
        assert len(pace.outgoing_elements(source)) == len(extended) - 1


class TestCoarsestSequence:
    def test_overlapping_tpaths_preferred(self, paper_example):
        """CPS(<e1, e4, e9>) = (p1, p2), the coarsest combination of the paper."""
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9])
        sequence = pace.coarsest_sequence(path)
        assert [element.path.edges for element in sequence] == [(1, 4), (4, 9)]

    def test_single_edges_used_when_no_tpath(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([2, 3])
        sequence = pace.coarsest_sequence(path)
        assert [element.path.edges for element in sequence] == [(2,), (3,)]

    def test_longest_tpath_wins(self, paper_example):
        """For v4 -> vd the three-edge T-path p5 covers the whole path."""
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([3, 6, 8])
        sequence = pace.coarsest_sequence(path)
        assert [element.path.edges for element in sequence] == [(3, 6, 8)]

    def test_mixed_sequence(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([2, 3, 6, 8])
        sequence = pace.coarsest_sequence(path)
        assert [element.path.edges for element in sequence] == [(2,), (3, 6, 8)]

    def test_sequence_covers_every_edge(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9, 10])
        sequence = pace.coarsest_sequence(path)
        covered = set()
        for element in sequence:
            covered.update(element.path.edges)
        assert covered == set(path.edges)


class TestPathCost:
    def test_joint_distribution_via_assembly(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9])
        joint = pace.path_joint_distribution(path)
        assert joint.edge_ids == (1, 4, 9)
        total = joint.total_cost_distribution()
        assert total.pdf(21) == pytest.approx(0.14)
        assert total.pdf(23) == pytest.approx(0.62)
        assert total.pdf(25) == pytest.approx(0.24)

    def test_incremental_matches_full_joint(self, paper_example):
        pace = paper_example.pace_graph
        for edge_ids in [(1, 4, 9), (1, 4, 9, 10), (2, 3, 6, 8), (1, 5, 6, 8)]:
            path = paper_example.network.path_from_edge_ids(list(edge_ids))
            full = pace.path_joint_distribution(path).total_cost_distribution()
            incremental = pace.path_cost_distribution(path, max_states=None)
            assert full.support == incremental.support
            for value in full.support:
                assert full.pdf(value) == pytest.approx(incremental.pdf(value), abs=1e-9)

    def test_non_overlapping_elements_are_convolved(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 5, 6, 8])
        # CPS = e1, e5, p4 with no overlaps -> plain convolution of their totals.
        expected = (
            pace.edge_weight(1)
            .convolve(pace.edge_weight(5))
            .convolve(pace.tpath((6, 8)).distribution)
        )
        actual = pace.path_cost_distribution(path)
        assert actual == expected

    def test_prob_within_budget_on_full_route(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 5, 6, 8])
        assert pace.path_cost_distribution(path).prob_at_most(30) == pytest.approx(0.94)

    def test_expected_and_min_cost(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9])
        assert pace.path_min_cost(path) == pytest.approx(8 + 6 + 5)
        assert pace.path_expected_cost(path) == pytest.approx(0.14 * 21 + 0.62 * 23 + 0.24 * 25)

    def test_max_support_compression(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9, 10])
        compressed = pace.path_cost_distribution(path, max_support=2)
        assert len(compressed) <= 2

    def test_max_states_pruning_keeps_probability_mass(self, paper_example):
        pace = paper_example.pace_graph
        path = paper_example.network.path_from_edge_ids([1, 4, 9, 10])
        pruned = pace.path_cost_distribution(path, max_states=1)
        assert sum(pruned.probabilities) == pytest.approx(1.0)

    def test_repr(self, paper_example):
        assert "tpaths=5" in repr(paper_example.pace_graph)
