"""Tests for the routing algorithms: baseline, heuristic-guided PACE, and V-path routing."""

from __future__ import annotations

import pytest

from repro.core.distributions import Distribution
from repro.core.errors import ConfigurationError
from repro.datasets.paper_example import V1, V4, VD, VS
from repro.edgemodel.routing import EdgeModelRouter
from repro.heuristics.binary import PaceBinaryHeuristic
from repro.network.algorithms import shortest_path
from repro.routing.dominance import DominancePruner
from repro.routing.engine import METHOD_NAMES, RouterSettings, create_router
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.tpath_routing import HeuristicPaceRouter
from repro.routing.vpath_routing import VPathRouter
from repro.vpaths.updated_graph import UpdatedPaceGraph


@pytest.fixture(scope="module")
def updated_example(paper_example):
    updated, _ = UpdatedPaceGraph.build(paper_example.pace_graph)
    return updated


#: The PACE-optimal answer for the example query (vs -> vd, budget 30) is the
#: route over e1, e5 and the T-path p4 with on-time probability 0.94.
OPTIMAL_EDGES = (1, 5, 6, 8)
OPTIMAL_PROBABILITY = 0.94


class TestQueries:
    def test_query_validation(self):
        with pytest.raises(ConfigurationError):
            RoutingQuery(source=1, destination=1, budget=10)
        with pytest.raises(ConfigurationError):
            RoutingQuery(source=1, destination=2, budget=0)

    def test_result_summary_found(self, paper_example):
        query = RoutingQuery(VS, VD, budget=30)
        router = create_router("T-None", paper_example.pace_graph)
        result = router.route(query)
        assert "P(arrive within" in result.summary()
        assert result.found

    def test_result_summary_not_found(self):
        query = RoutingQuery(0, 1, budget=5)
        result = RoutingResult(
            query=query,
            method="x",
            path=None,
            probability=0.0,
            distribution=None,
            explored=0,
            runtime_seconds=0.0,
        )
        assert "no path" in result.summary()
        assert not result.found


class TestDominancePruner:
    def test_dominated_candidate_rejected(self):
        pruner = DominancePruner()
        strong = Distribution.from_pairs([(5, 0.9), (10, 0.1)])
        weak = Distribution.from_pairs([(5, 0.1), (10, 0.9)])
        assert pruner.admit(1, vertex=7, distribution=strong)
        assert not pruner.admit(2, vertex=7, distribution=weak)
        assert pruner.prunes == 1

    def test_existing_candidate_marked_pruned(self):
        pruner = DominancePruner()
        weak = Distribution.from_pairs([(5, 0.1), (10, 0.9)])
        strong = Distribution.from_pairs([(5, 0.9), (10, 0.1)])
        assert pruner.admit(1, vertex=7, distribution=weak)
        assert pruner.admit(2, vertex=7, distribution=strong)
        assert pruner.is_pruned(1)

    def test_incomparable_candidates_coexist(self):
        pruner = DominancePruner()
        a = Distribution.from_pairs([(1, 0.5), (20, 0.5)])
        b = Distribution.from_pairs([(10, 1.0)])
        assert pruner.admit(1, vertex=3, distribution=a)
        assert pruner.admit(2, vertex=3, distribution=b)
        assert not pruner.is_pruned(1)
        assert not pruner.is_pruned(2)

    def test_different_vertices_do_not_interact(self):
        pruner = DominancePruner()
        strong = Distribution.from_pairs([(5, 0.9), (10, 0.1)])
        weak = Distribution.from_pairs([(5, 0.1), (10, 0.9)])
        assert pruner.admit(1, vertex=7, distribution=strong)
        assert pruner.admit(2, vertex=8, distribution=weak)

    def test_batched_admission_matches_pairwise_reference(self):
        """The array-batched admission sweep is decision- and counter-identical
        to the naive pairwise loop it replaced, on frontiers large enough to
        take the batched path and dense enough to exercise both prune
        directions (including identical and shifted distributions)."""
        import random

        rng = random.Random(11)

        def reference_admit(frontier, pruned, counters, cid, vertex, dist):
            live = [e for e in frontier.get(vertex, []) if e[0] not in pruned]
            if not live:
                frontier[vertex] = [(cid, dist)]
                return True
            for index, (_, other) in enumerate(live):
                if other.stochastically_dominates(dist):
                    counters["checks"] += index + 1
                    counters["prunes"] += 1
                    return False
            counters["checks"] += len(live)
            survivors = []
            for other_id, other in live:
                if dist.stochastically_dominates(other, strict=True):
                    pruned.add(other_id)
                    counters["prunes"] += 1
                else:
                    survivors.append((other_id, other))
            counters["checks"] += len(live)
            survivors.append((cid, dist))
            frontier[vertex] = survivors
            return True

        def random_distribution():
            size = rng.randint(1, 10)
            values = sorted(rng.sample(range(1, 300), size))
            masses = [rng.random() + 0.05 for _ in range(size)]
            total = sum(masses)
            return Distribution.from_pairs(
                [(float(v), mass / total) for v, mass in zip(values, masses)]
            )

        for _ in range(40):
            pruner = DominancePruner()
            frontier, pruned, counters = {}, set(), {"checks": 0, "prunes": 0}
            seen = {}
            for cid in range(60):
                vertex = rng.randint(0, 2)
                if seen and rng.random() < 0.3:
                    base = rng.choice(list(seen.values()))
                    if rng.random() < 0.5:
                        dist = base
                    else:
                        dist = Distribution.from_pairs(
                            [(v + 1.0, p) for v, p in base.items()]
                        )
                else:
                    dist = random_distribution()
                seen[cid] = dist
                admitted = pruner.admit(cid, vertex, dist)
                expected = reference_admit(frontier, pruned, counters, cid, vertex, dist)
                assert admitted == expected
                assert pruner.checks == counters["checks"]
                assert pruner.prunes == counters["prunes"]
            for cid in seen:
                assert pruner.is_pruned(cid) == (cid in pruned)


class TestNaiveRouter:
    def test_finds_optimal_path(self, paper_example):
        router = create_router("T-None", paper_example.pace_graph)
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.path.edges == OPTIMAL_EDGES
        assert result.probability == pytest.approx(OPTIMAL_PROBABILITY)

    def test_large_budget_reaches_probability_one(self, paper_example):
        router = create_router("T-None", paper_example.pace_graph)
        result = router.route(RoutingQuery(VS, VD, budget=60))
        assert result.probability == pytest.approx(1.0)

    def test_tiny_budget_finds_nothing(self, paper_example):
        router = create_router("T-None", paper_example.pace_graph)
        result = router.route(RoutingQuery(VS, VD, budget=10))
        assert not result.found
        assert result.probability == 0.0

    def test_explores_more_than_guided_routers(self, paper_example):
        naive = create_router("T-None", paper_example.pace_graph)
        guided = HeuristicPaceRouter(
            paper_example.pace_graph,
            lambda graph, destination: PaceBinaryHeuristic(graph, destination),
            method_name="T-B-P",
        )
        query = RoutingQuery(VS, VD, budget=30)
        assert naive.route(query).explored > guided.route(query).explored

    def test_max_explored_cap(self, paper_example):
        router = create_router("T-None", paper_example.pace_graph, settings=RouterSettings(max_explored=2))
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.explored <= 2

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="max_support"):
            RouterSettings(max_support=0)
        with pytest.raises(ConfigurationError, match="max_explored"):
            RouterSettings(max_explored=0)
        RouterSettings(max_support=1, max_explored=1)


class TestHeuristicRouter:
    @pytest.mark.parametrize("method", ["T-B-EU", "T-B-E", "T-B-P", "T-BS-3"])
    def test_all_heuristic_methods_find_the_optimum(self, paper_example, updated_example, method):
        router = create_router(
            method,
            paper_example.pace_graph,
            updated_example,
            settings=RouterSettings(max_budget=60),
        )
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.path.edges == OPTIMAL_EDGES
        assert result.probability == pytest.approx(OPTIMAL_PROBABILITY)

    def test_heuristics_are_cached_per_destination(self, paper_example):
        # The router holds no heuristics; create_router's cache reuses them.
        router = create_router("T-B-P", paper_example.pace_graph)
        first = router.heuristic_for(VD)
        second = router.heuristic_for(VD)
        assert first is second

    def test_budget_pruning_returns_empty_result(self, paper_example):
        router = HeuristicPaceRouter(
            paper_example.pace_graph,
            lambda graph, destination: PaceBinaryHeuristic(graph, destination),
            method_name="T-B-P",
        )
        result = router.route(RoutingQuery(VS, VD, budget=20))  # below getMin(vs) = 27
        assert not result.found
        assert result.explored == 0

    def test_intermediate_source(self, paper_example):
        router = HeuristicPaceRouter(
            paper_example.pace_graph,
            lambda graph, destination: PaceBinaryHeuristic(graph, destination),
            method_name="T-B-P",
        )
        result = router.route(RoutingQuery(V1, VD, budget=25))
        assert result.found
        assert result.path.source == V1
        assert result.path.target == VD

    def test_config_validation(self, paper_example):
        with pytest.raises(ConfigurationError):
            create_router(
                "T-B-P", paper_example.pace_graph, settings=RouterSettings(max_support=0)
            )


class TestVPathRouter:
    def test_vnone_matches_naive_optimum(self, paper_example, updated_example):
        router = VPathRouter(updated_example, None, method_name="V-None")
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.path.edges == OPTIMAL_EDGES
        assert result.probability == pytest.approx(OPTIMAL_PROBABILITY)

    def test_guided_router_explores_fewer_candidates(self, paper_example, updated_example):
        unguided = VPathRouter(updated_example, None, method_name="V-None")
        guided = VPathRouter(
            updated_example,
            lambda graph, destination: PaceBinaryHeuristic(graph.pace_graph, destination),
            method_name="V-B-P",
        )
        query = RoutingQuery(VS, VD, budget=30)
        assert guided.route(query).explored <= unguided.route(query).explored

    def test_reported_probability_uses_pace_semantics(self, paper_example, updated_example):
        """Whatever path is returned, its probability must equal the PACE evaluation."""
        router = VPathRouter(
            updated_example,
            lambda graph, destination: PaceBinaryHeuristic(graph.pace_graph, destination),
            method_name="V-B-P",
        )
        result = router.route(RoutingQuery(VS, VD, budget=30))
        exact = paper_example.pace_graph.path_cost_distribution(result.path)
        assert result.probability == pytest.approx(exact.prob_at_most(30))

    def test_dominance_can_be_disabled(self, paper_example, updated_example):
        router = VPathRouter(
            updated_example,
            None,
            method_name="V-None",
            use_dominance=False,
        )
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.found

    def test_budget_pruning(self, paper_example, updated_example):
        router = VPathRouter(
            updated_example,
            lambda graph, destination: PaceBinaryHeuristic(graph.pace_graph, destination),
            method_name="V-B-P",
        )
        result = router.route(RoutingQuery(VS, VD, budget=20))
        assert not result.found

    def test_guided_flag(self, updated_example):
        assert not VPathRouter(updated_example, None).guided
        assert VPathRouter(
            updated_example, lambda graph, destination: PaceBinaryHeuristic(graph.pace_graph, destination)
        ).guided


class TestEngine:
    def test_all_method_names_buildable(self, paper_example, updated_example):
        for method in METHOD_NAMES:
            router = create_router(method, paper_example.pace_graph, updated_example)
            assert router.method_name == method

    def test_vpath_methods_require_updated_graph(self, paper_example):
        with pytest.raises(ConfigurationError):
            create_router("V-BS-60", paper_example.pace_graph, None)

    def test_unknown_method_rejected(self, paper_example, updated_example):
        with pytest.raises(ConfigurationError):
            create_router("X-Files", paper_example.pace_graph, updated_example)

    def test_custom_delta_parsed(self, paper_example, updated_example):
        router = create_router("T-BS-120", paper_example.pace_graph, updated_example)
        assert router.method_name == "T-BS-120"

    def test_results_consistent_across_all_methods(self, paper_example, updated_example):
        """Every method must report a probability achievable by a real path within budget."""
        query = RoutingQuery(VS, VD, budget=32)
        for method in METHOD_NAMES:
            method = method.replace("-60", "-8")  # small delta fits the example's budgets
            router = create_router(
                method, paper_example.pace_graph, updated_example, settings=RouterSettings(max_budget=64)
            )
            result = router.route(query)
            assert result.found, method
            exact = paper_example.pace_graph.path_cost_distribution(result.path)
            assert result.probability == pytest.approx(exact.prob_at_most(32), abs=1e-6), method


class TestEdgeModelRouter:
    def test_edge_router_finds_path(self, paper_example):
        router = EdgeModelRouter(paper_example.edge_graph)
        result = router.route(RoutingQuery(VS, VD, budget=30))
        assert result.found
        assert result.path.source == VS and result.path.target == VD

    def test_edge_router_uses_convolution_semantics(self, paper_example):
        router = EdgeModelRouter(paper_example.edge_graph)
        result = router.route(RoutingQuery(VS, VD, budget=30))
        exact = paper_example.edge_graph.path_cost_distribution(result.path)
        assert result.probability == pytest.approx(exact.prob_at_most(30))

    def test_edge_router_budget_pruning(self, paper_example):
        router = EdgeModelRouter(paper_example.edge_graph)
        result = router.route(RoutingQuery(VS, VD, budget=10))
        assert not result.found

    def test_edge_router_optimality_against_enumeration(self, paper_example):
        """The EDGE router maximises the convolution-based on-time probability."""
        graph = paper_example.edge_graph
        routes = [[1, 5, 6, 8], [1, 4, 9, 10], [2, 3, 6, 8], [1, 4, 7, 8]]
        best = max(
            graph.path_cost_distribution(
                paper_example.network.path_from_edge_ids(route)
            ).prob_at_most(30)
            for route in routes
        )
        result = EdgeModelRouter(graph).route(RoutingQuery(VS, VD, budget=30))
        assert result.probability == pytest.approx(best)

    def test_dominance_pruning_preserves_optimum(self, paper_example):
        with_pruning = EdgeModelRouter(paper_example.edge_graph, use_dominance=True)
        without_pruning = EdgeModelRouter(paper_example.edge_graph, use_dominance=False)
        for budget in (28, 30, 35):
            query = RoutingQuery(VS, VD, budget=budget)
            pruned_result = with_pruning.route(query)
            full_result = without_pruning.route(query)
            assert pruned_result.probability == pytest.approx(full_result.probability)

    def test_dominance_pruning_reduces_exploration_on_larger_graph(self, small_edge_graph):
        network = small_edge_graph.network
        vertices = sorted(network.vertex_ids())
        source, destination = vertices[0], vertices[-1]
        fastest, _ = shortest_path(
            network, source, destination, lambda e: small_edge_graph.expected_cost(e.edge_id)
        )
        budget = small_edge_graph.path_expected_cost(fastest) * 1.3
        query = RoutingQuery(source, destination, budget=budget)
        with_pruning = EdgeModelRouter(small_edge_graph, use_dominance=True)
        without_pruning = EdgeModelRouter(small_edge_graph, use_dominance=False)
        assert with_pruning.route(query).explored <= without_pruning.route(query).explored

    def test_config_validation(self, paper_example):
        with pytest.raises(ConfigurationError):
            EdgeModelRouter(paper_example.edge_graph, RouterSettings(max_explored=0))
