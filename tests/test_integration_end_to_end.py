"""End-to-end integration tests: raw data -> index -> routing, across the whole stack."""

from __future__ import annotations

import pytest

from repro.evaluation.workloads import WorkloadConfig, generate_workload
from repro.heuristics import NoHeuristic, PaceBinaryHeuristic
from repro.routing import RouterSettings, RoutingQuery, create_router
from repro.routing._scalar_reference import route_scalar
from repro.trajectories import GpsSimulatorConfig, HmmMapMatcher, MapMatcherConfig, simulate_gps_trace
from repro.tpaths import TPathMinerConfig, build_pace_graph
from repro.vpaths import UpdatedPaceGraph


class TestEndToEnd:
    def test_all_methods_agree_with_exhaustive_baseline(self, small_dataset, small_pace_graph, small_updated_graph):
        """On real (synthetic) data every guided method must match the exhaustive optimum."""
        edge_graph = small_pace_graph.edge_graph
        workload = generate_workload(
            edge_graph,
            list(small_dataset.peak),
            WorkloadConfig(pairs_per_bucket=1, budget_fractions=(1.0,), seed=3),
        )
        settings = RouterSettings(max_budget=3000.0, max_explored=50000)
        # The exhaustive baseline is PACE's Algorithm 1 through the scalar
        # reference loop, which shares no search code with the routers.
        baseline_settings = RouterSettings(max_explored=50000)
        methods = ("T-B-EU", "T-B-E", "T-B-P", "T-BS-60", "V-BS-60")
        for workload_query in workload.queries[:3]:
            query = workload_query.query
            reference = route_scalar(
                "T-None",
                small_pace_graph,
                small_updated_graph,
                NoHeuristic(query.destination),
                query,
                settings=baseline_settings,
            )
            for method in methods:
                router = create_router(method, small_pace_graph, small_updated_graph, settings=settings)
                result = router.route(query)
                assert result.found == reference.found, (method, query)
                if reference.found:
                    # Guided methods may return a different path of equal or near-equal quality;
                    # they must never be meaningfully worse than the exhaustive baseline.
                    assert result.probability >= reference.probability - 0.05, (method, query)

    def test_gps_to_route_pipeline(self, small_dataset):
        """Raw GPS -> map matching -> mining -> V-paths -> routing, all in one go."""
        network = small_dataset.network
        ground_truth = list(small_dataset.peak)[:60]
        matcher = HmmMapMatcher(network, MapMatcherConfig(candidate_radius=120.0))
        matched = []
        for trajectory in ground_truth:
            trace = simulate_gps_trace(
                network, trajectory, GpsSimulatorConfig(sampling_interval=5.0, noise_sigma=8.0)
            )
            matched.append(matcher.match(trace).to_trajectory(network, trace))
        pace = build_pace_graph(network, matched, TPathMinerConfig(tau=8, resolution=10.0))
        updated, _ = UpdatedPaceGraph.build(pace)
        source = matched[0].path.source
        destination = matched[0].path.target
        router = create_router(
            "V-B-P", pace, updated, settings=RouterSettings(max_budget=3000.0)
        )
        result = router.route(RoutingQuery(source, destination, budget=matched[0].total_cost * 1.5))
        assert result.found
        assert result.path.source == source and result.path.target == destination

    def test_heuristic_reuse_across_queries_to_same_destination(self, small_pace_graph, small_updated_graph):
        """The offline/online split: the second query to a destination must not rebuild tables."""
        router = create_router(
            "T-BS-60", small_pace_graph, small_updated_graph, settings=RouterSettings(max_budget=2000.0)
        )
        vertices = sorted(small_pace_graph.network.vertex_ids())
        destination = vertices[-1]
        sources = [v for v in vertices[:4] if v != destination]
        first = router.route(RoutingQuery(sources[0], destination, budget=900.0))
        heuristic_after_first = router.heuristic_for(destination)
        second = router.route(RoutingQuery(sources[1], destination, budget=900.0))
        assert router.heuristic_for(destination) is heuristic_after_first
        assert first.method == second.method == "T-BS-60"

    def test_peak_and_off_peak_models_can_differ_in_routing(self, small_dataset):
        """Routing against the regime-specific models reflects the congestion difference."""
        miner = TPathMinerConfig(tau=15, resolution=5.0)
        peak_pace = build_pace_graph(small_dataset.network, list(small_dataset.peak), miner)
        off_peak_pace = build_pace_graph(small_dataset.network, list(small_dataset.off_peak), miner)
        source_dest = [
            (t.path.source, t.path.target) for t in small_dataset.peak if t.num_edges >= 4
        ][0]
        heuristic_peak = PaceBinaryHeuristic(peak_pace, source_dest[1])
        heuristic_off = PaceBinaryHeuristic(off_peak_pace, source_dest[1])
        # Peak congestion inflates minimum travel times (weakly, at least not the reverse).
        assert heuristic_peak.min_cost(source_dest[0]) >= heuristic_off.min_cost(source_dest[0]) * 0.9

    @pytest.mark.parametrize("budget_factor,expect_found", [(0.4, False), (3.0, True)])
    def test_budget_extremes(self, small_pace_graph, small_updated_graph, small_dataset, budget_factor, expect_found):
        """Hopeless budgets find nothing; generous budgets find a certain path."""
        trajectory = next(t for t in small_dataset.peak if t.num_edges >= 4)
        query = RoutingQuery(
            trajectory.path.source,
            trajectory.path.target,
            budget=trajectory.total_cost * budget_factor,
        )
        router = create_router(
            "V-BS-60", small_pace_graph, small_updated_graph, settings=RouterSettings(max_budget=6000.0)
        )
        result = router.route(query)
        if expect_found:
            assert result.found
        # A 0.4x budget is usually (not provably always) infeasible; only assert no false certainty.
        if result.found:
            assert result.probability <= 1.0 + 1e-9
