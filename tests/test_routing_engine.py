"""Tests for the batch routing engine and the shared heuristic cache."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict

import pytest

from repro.core.errors import ConfigurationError, DataError
from repro.datasets.paper_example import VD, VS
from repro.evaluation.workloads import WorkloadConfig, generate_workload
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic
from repro.persistence.heuristics import HeuristicEntry, HeuristicSlot
from repro.persistence.store import ArtifactStore
from repro.routing.engine import (
    METHOD_NAMES,
    HeuristicCache,
    RouterSettings,
    RoutingEngine,
    create_router,
)
from repro.routing.queries import RoutingQuery
from repro.routing.residency import heuristic_nbytes
from repro.vpaths.updated_graph import UpdatedPaceGraph


@pytest.fixture(scope="module")
def updated_example(paper_example):
    updated, _ = UpdatedPaceGraph.build(paper_example.pace_graph)
    return updated


def _engine(paper_example, updated_example, **kwargs) -> RoutingEngine:
    settings = kwargs.pop("settings", RouterSettings(max_budget=120.0))
    return RoutingEngine(paper_example.pace_graph, updated_example, settings=settings)


def _example_queries(paper_example) -> list[RoutingQuery]:
    vertices = sorted(paper_example.network.vertex_ids())
    queries = [RoutingQuery(VS, VD, budget=budget) for budget in (24.0, 30.0, 40.0)]
    # A second destination so batches exercise the destination grouping.
    other = next(v for v in vertices if v not in (VS, VD))
    queries.append(RoutingQuery(VS, other, budget=30.0))
    queries.append(RoutingQuery(VS, VD, budget=26.0))
    return queries


class TestUnknownMethodError:
    @pytest.mark.parametrize("method", ["V-B-EU", "V-B-E", "nonsense", "T-BS", "V-BS-"])
    def test_unknown_method_lists_palette(self, paper_example, updated_example, method):
        with pytest.raises(ConfigurationError) as excinfo:
            create_router(method, paper_example.pace_graph, updated_example)
        message = str(excinfo.value)
        assert method in message
        for name in METHOD_NAMES:
            assert name in message
        assert "V-None" in message and "V-B-P" in message

    def test_unknown_v_variant_rejected_even_without_updated_graph(self, paper_example):
        # The name check fires before the missing-updated-graph check, so the
        # user learns the method does not exist rather than being told to
        # build V-paths for it.
        with pytest.raises(ConfigurationError, match="unknown routing method"):
            create_router("V-B-EU", paper_example.pace_graph, None)

    def test_known_methods_still_build(self, paper_example, updated_example):
        for method in METHOD_NAMES:
            router = create_router(method, paper_example.pace_graph, updated_example)
            assert router is not None


class TestHeuristicCache:
    def test_get_or_build_builds_once(self):
        cache = HeuristicCache()
        built = []

        def builder():
            built.append(1)
            return object()

        first = cache.get_or_build(("k", 1), builder)
        second = cache.get_or_build(("k", 1), builder)
        assert first is second
        assert len(built) == 1
        assert cache.misses == 1 and cache.hits == 1

    def test_distinct_keys_do_not_collide(self):
        cache = HeuristicCache()
        a = cache.get_or_build(("a", 1), object)
        b = cache.get_or_build(("b", 1), object)
        assert a is not b
        assert len(cache) == 2


class TestRoutingEngine:
    def test_route_matches_standalone_router(self, paper_example, updated_example):
        engine = _engine(paper_example, updated_example)
        query = RoutingQuery(VS, VD, budget=30.0)
        for method in METHOD_NAMES:
            standalone = create_router(
                method,
                paper_example.pace_graph,
                updated_example,
                settings=RouterSettings(max_budget=120.0),
            ).route(query)
            via_engine = engine.route(query, method=method)
            assert via_engine.probability == pytest.approx(standalone.probability, abs=1e-12)
            assert (via_engine.path is None) == (standalone.path is None)
            if via_engine.path is not None:
                assert via_engine.path.edges == standalone.path.edges

    @pytest.mark.parametrize("method", ["T-B-P", "T-BS-60", "V-BS-60"])
    def test_route_many_matches_per_query_routing(self, paper_example, updated_example, method):
        engine = _engine(paper_example, updated_example)
        queries = _example_queries(paper_example)
        batch = engine.route_many(queries, method=method)
        assert len(batch) == len(queries)
        for query, result in zip(queries, batch):
            single = engine.route(query, method=method)
            assert result.query is query
            assert result.probability == pytest.approx(single.probability, abs=1e-12)
            if result.path is not None:
                assert result.path.edges == single.path.edges

    def test_concurrent_routes_match_serial(self, paper_example, updated_example):
        queries = _example_queries(paper_example)
        serial = _engine(paper_example, updated_example).route_many(queries, method="V-BS-60")
        parallel_engine = _engine(paper_example, updated_example)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda query: parallel_engine.route(query, method="V-BS-60"), queries)
            )
        for a, b in zip(serial, parallel):
            assert a.probability == pytest.approx(b.probability, abs=1e-12)
            assert (a.path is None) == (b.path is None)
            if a.path is not None:
                assert a.path.edges == b.path.edges
        # Concurrent misses on the same destination must serialise on the
        # per-key build lock: exactly one build per distinct destination.
        distinct_destinations = len({q.destination for q in queries})
        assert parallel_engine.heuristic_cache.misses == distinct_destinations

    def test_budget_tables_reuse_the_resident_binary_tree(
        self, paper_example, updated_example, monkeypatch
    ):
        # Algorithm 2 runs once per destination when binary-P is prewarmed
        # first; the cache counters read exactly as if every table had built
        # its own tree (the reuse is a peek: no hit, no miss, no insert).
        import repro.heuristics.binary as binary_module

        trees = []
        original = binary_module.build_pace_shortest_path_tree

        def counting(pace_graph, destination):
            trees.append(destination)
            return original(pace_graph, destination)

        monkeypatch.setattr(binary_module, "build_pace_shortest_path_tree", counting)
        destinations = sorted(paper_example.network.vertex_ids())[:3]
        engine = _engine(paper_example, updated_example)
        for method in ("T-B-P", "T-BS-60", "V-BS-60"):
            engine.prewarm(method, destinations)
        assert sorted(trees) == destinations
        counters = engine.heuristic_cache.counters()
        k = len(destinations)
        assert (counters.entries, counters.hits, counters.misses) == (3 * k, 0, 3 * k)
        config = engine.settings.budget_config(60.0)
        for destination in destinations:
            private = BudgetSpecificHeuristic(updated_example, destination, config)
            shared = engine.router("V-BS-60").heuristic_for(destination)
            assert shared.table.rows == private.table.rows

    def test_budget_prewarm_alone_inserts_no_binary_entry(self, paper_example, updated_example):
        engine = _engine(paper_example, updated_example)
        engine.prewarm("T-BS-60", [VD])
        keys = list(engine.heuristic_cache.snapshot())
        assert [key[0] for key in keys] == ["budget"]
        assert engine.heuristic_cache.counters().misses == 1

    def test_route_many_empty_batch(self, paper_example, updated_example):
        assert _engine(paper_example, updated_example).route_many([], method="T-B-P") == []

    def test_heuristics_shared_across_methods(self, paper_example, updated_example):
        # T-B-P and V-B-P both use the PACE binary heuristic over the same
        # underlying graph: with a shared cache the second method is a cache hit.
        engine = _engine(paper_example, updated_example)
        query = RoutingQuery(VS, VD, budget=30.0)
        engine.route(query, method="T-B-P")
        assert engine.heuristic_cache.misses == 1
        engine.route(query, method="V-B-P")
        assert engine.heuristic_cache.misses == 1
        assert engine.heuristic_cache.hits >= 1

    def test_budget_tables_not_shared_across_graphs(self, paper_example, updated_example):
        # T-BS and V-BS build their Eq. 5 tables over different graphs (plain
        # vs V-path closure), so they must *not* share entries.
        engine = _engine(paper_example, updated_example)
        query = RoutingQuery(VS, VD, budget=30.0)
        engine.route(query, method="T-BS-60")
        misses_after_t = engine.heuristic_cache.misses
        engine.route(query, method="V-BS-60")
        assert engine.heuristic_cache.misses == misses_after_t + 1

    def test_repeated_queries_reuse_cached_heuristic(self, paper_example, updated_example):
        engine = _engine(paper_example, updated_example)
        queries = [RoutingQuery(VS, VD, budget=budget) for budget in (24.0, 30.0, 40.0)]
        engine.route_many(queries, method="T-BS-60")
        assert engine.heuristic_cache.misses == 1

    def test_cache_counters_snapshot_matches_stats(self, paper_example, updated_example):
        """Regression: stats() read cache counters field-by-field without the
        cache lock; counters() takes them in one locked snapshot."""
        engine = _engine(paper_example, updated_example)
        # T-B-P and V-B-P share the PACE binary heuristic: one miss, then hits.
        engine.route(RoutingQuery(VS, VD, budget=30.0), method="T-B-P")
        engine.route(RoutingQuery(VS, VD, budget=30.0), method="V-B-P")
        cache = engine.heuristic_cache
        counters = cache.counters()
        assert counters.entries == len(cache) == 1
        assert (counters.hits, counters.misses) == (cache.hits, cache.misses)
        assert (counters.hits, counters.misses) == (1, 1)
        assert counters.build_seconds == cache.build_seconds >= 0.0
        # An unbounded eager cache never faults or evicts, but the resident
        # footprint is accounted regardless of budget.
        assert (counters.faults, counters.evictions) == (0, 0)
        assert counters.resident_bytes > 0
        stats = engine.stats()
        assert (stats.cache_entries, stats.cache_hits, stats.cache_misses) == (1, 1, 1)
        assert stats.cache_resident_bytes == counters.resident_bytes
        assert (stats.cache_faults, stats.cache_evictions) == (0, 0)

    def test_cache_counters_do_not_depend_on_the_residency_mode(
        self, paper_example, updated_example
    ):
        """The cache is the only holder of heuristics, bounded or not.

        An unbounded engine and a bounded one whose byte budget holds every
        table count the same lookups: one per guided query.
        """
        queries = _example_queries(paper_example)
        methods = ("T-B-P", "V-B-P", "T-BS-60", "V-BS-60", "T-None", "V-None")
        settings = RouterSettings(max_budget=120.0)

        def run(cache_bytes):
            engine = RoutingEngine(
                paper_example.pace_graph,
                updated_example,
                settings=settings,
                cache_bytes=cache_bytes,
            )
            for method in methods:
                for query in queries:
                    engine.route(query, method=method)
            return engine

        unbounded = run(None)
        total = sum(heuristic_nbytes(h) for h in unbounded.heuristic_cache.snapshot().values())
        bounded = run(total)
        expected = unbounded.heuristic_cache.counters()
        got = bounded.heuristic_cache.counters()
        assert got.evictions == 0 and got.entries == expected.entries
        assert (got.hits, got.misses) == (expected.hits, expected.misses)
        # Four guided methods, five queries each, over two destinations; the
        # binary-P tree is shared by T-B-P and V-B-P.
        assert expected.misses == 3 * 2
        assert expected.hits + expected.misses == 4 * len(queries)

    def test_prewarm_builds_heuristics(self, paper_example, updated_example):
        engine = _engine(paper_example, updated_example)
        assert engine.prewarm("T-BS-60", [VD]) == 1
        assert engine.heuristic_cache.misses == 1
        engine.route(RoutingQuery(VS, VD, budget=30.0), method="T-BS-60")
        assert engine.heuristic_cache.misses == 1

    @pytest.mark.parametrize("method", ["T-None", "V-None"])
    def test_prewarm_rejects_heuristic_free_methods(
        self, paper_example, updated_example, method
    ):
        # These methods have nothing to prewarm; silently returning 0 used to
        # make an offline investment step a no-op without telling anyone.
        engine = _engine(paper_example, updated_example)
        with pytest.raises(ConfigurationError) as excinfo:
            engine.prewarm(method, [VD])
        message = str(excinfo.value)
        assert method in message
        for supported in ("T-B-EU", "T-B-E", "T-B-P", "V-B-P", "T-BS-<delta>", "V-BS-<delta>"):
            assert supported in message

    def test_prewarm_accepts_method_specs(self, paper_example, updated_example):
        from repro.routing.methods import MethodSpec

        engine = _engine(paper_example, updated_example)
        spec = MethodSpec(graph="pace", heuristic="budget", delta=60.0)
        assert engine.prewarm(spec, [VD]) == 1

    def test_router_instances_are_cached(self, paper_example, updated_example):
        engine = _engine(paper_example, updated_example)
        assert engine.router("T-B-P") is engine.router("T-B-P")


def _store_with_entries(root, pace, updated, settings, entries) -> ArtifactStore:
    """A store over ``pace``/``updated`` holding exactly the given tagged entries."""
    store = ArtifactStore(root)
    store.save(
        graph=updated if updated is not None else pace,
        fingerprints={
            "pace": pace.content_fingerprint(),
            "updated": None if updated is None else updated.content_fingerprint(),
        },
        settings=asdict(settings),
        heuristic_entries=entries,
    )
    return store


class TestHeuristicPersistenceRoundTrip:
    """Acceptance check: booting from a store replaces the offline rebuild.

    An engine booted from persisted heuristics must answer every query
    identically to one that built them fresh, without a single cache miss —
    and every entry the boot cannot serve admissibly is skipped or refused.
    """

    # V-B-P is included deliberately: its binary heuristic is requested through
    # the V-path router but keyed (and persisted) under the *pace* graph's
    # fingerprint, shared with T-B-P — the round-trip must preserve that.
    METHODS = ("T-B-P", "V-B-P", "T-BS-60", "V-BS-60")

    def test_store_boot_matches_fresh_build(self, paper_example, updated_example, tmp_path):
        queries = _example_queries(paper_example)
        fresh = _engine(paper_example, updated_example)
        fresh_results = {
            method: fresh.route_many(queries, method=method) for method in self.METHODS
        }
        manifest = fresh.save_artifacts(tmp_path / "store")
        assert manifest.provenance["heuristic_entries"] == len(fresh.heuristic_cache)

        warmed = RoutingEngine.from_artifacts(str(tmp_path / "store"))
        assert len(warmed.heuristic_cache) == len(fresh.heuristic_cache)
        for method in self.METHODS:
            for query, expected in zip(queries, fresh_results[method]):
                result = warmed.route(query, method=method)
                assert result.probability == expected.probability
                assert (result.path is None) == (expected.path is None)
                if result.path is not None:
                    assert result.path.edges == expected.path.edges
        # Nothing was rebuilt: every heuristic came from disk.
        assert warmed.heuristic_cache.misses == 0
        assert warmed.heuristic_cache.hits > 0

    def test_undersized_budget_tables_are_skipped_not_served(
        self, paper_example, updated_example, tmp_path
    ):
        """A table that cannot answer the engine's budgets must not be loaded.

        Serving it would cap residual budgets at the table's own grid and
        under-estimate the admissible bound, silently changing routing
        results; skipping it makes the engine rebuild a correct table.
        """
        small = RoutingEngine(
            paper_example.pace_graph, updated_example, settings=RouterSettings(max_budget=24.0)
        )
        small.prewarm("T-BS-6", [VD])
        small.save_artifacts(tmp_path / "small")

        big = RoutingEngine.from_artifacts(
            tmp_path / "small", settings=RouterSettings(max_budget=120.0)
        )
        assert len(big.heuristic_cache) == 0  # undersized table skipped
        query = RoutingQuery(VS, VD, budget=40.0)
        warmed_result = big.route(query, method="T-BS-6")
        assert big.heuristic_cache.misses == 1  # rebuilt, not served stale
        fresh = RoutingEngine(
            paper_example.pace_graph, updated_example, settings=RouterSettings(max_budget=120.0)
        )
        fresh_result = fresh.route(query, method="T-BS-6")
        assert warmed_result.probability == fresh_result.probability
        assert warmed_result.path.edges == fresh_result.path.edges

    def test_floor_built_tables_are_skipped_not_served(
        self, paper_example, updated_example, tmp_path
    ):
        """Floor-built cells may under-estimate; routing needs admissible bounds."""
        pace = paper_example.pace_graph
        floor_heuristic = BudgetSpecificHeuristic(
            pace, VD, BudgetHeuristicConfig(delta=60, max_budget=120, grid_rounding="floor")
        )
        entry = HeuristicEntry(
            HeuristicSlot("budget", 60.0, "pace", VD),
            floor_heuristic,
            graph_fingerprint=pace.content_fingerprint(),
        )
        settings = RouterSettings(max_budget=120.0)
        _store_with_entries(tmp_path / "floor", pace, updated_example, settings, [entry])
        engine = RoutingEngine.from_artifacts(tmp_path / "floor")
        assert len(engine.heuristic_cache) == 0
        engine.route(RoutingQuery(VS, VD, budget=30.0), method="T-BS-60")
        assert engine.heuristic_cache.misses == 1  # rebuilt with ceil rounding

    def test_entries_from_different_graph_are_rejected(
        self, paper_example, updated_example, small_pace_graph, tmp_path
    ):
        engine = _engine(paper_example, updated_example)
        engine.prewarm("T-BS-60", [VD])
        engine.save_artifacts(tmp_path / "example")
        entries = ArtifactStore.open(tmp_path / "example").load_heuristic_entries()
        settings = RouterSettings(max_budget=120.0)
        _store_with_entries(tmp_path / "other", small_pace_graph, None, settings, entries)
        with pytest.raises(DataError, match="different graph"):
            RoutingEngine.from_artifacts(tmp_path / "other")

    def test_updated_graph_tables_skipped_without_vpaths(
        self, paper_example, updated_example, tmp_path
    ):
        # Entries saved with the V-path closure, booted over a store without one.
        full = _engine(paper_example, updated_example)
        full.prewarm("V-BS-60", [VD])
        full.prewarm("T-BS-60", [VD])
        full.save_artifacts(tmp_path / "full")
        entries = ArtifactStore.open(tmp_path / "full").load_heuristic_entries()
        assert len(entries) == 2
        pace = paper_example.pace_graph
        _store_with_entries(tmp_path / "plain", pace, None, full.settings, entries)
        plain = RoutingEngine.from_artifacts(tmp_path / "plain")
        assert plain.updated_graph is None
        # Only the plain-graph table is loadable; the V-path one is skipped.
        assert len(plain.heuristic_cache) == 1
        plain.route(RoutingQuery(VS, VD, budget=30.0), method="T-BS-60")
        assert plain.heuristic_cache.misses == 0


class TestFig13StyleWorkload:
    """Acceptance check: batching is purely an execution strategy.

    On a fig13-style workload (source–destination pairs from observed trips,
    budgets as fractions of the least expected travel time), ``route_many``
    must report identical best-path probabilities to routing each query
    individually through a standalone router.
    """

    @pytest.mark.parametrize("method", ["T-B-P", "T-BS-60", "V-BS-60"])
    def test_route_many_matches_per_query_routing(
        self, method, small_dataset, small_edge_graph, small_pace_graph, small_updated_graph
    ):
        workload = generate_workload(
            small_edge_graph,
            list(small_dataset.peak),
            WorkloadConfig(pairs_per_bucket=1, num_buckets=2, budget_fractions=(0.75, 1.0, 1.25)),
        )
        queries = [wq.query for wq in workload.queries]
        assert queries, "workload generation produced no queries"
        settings = RouterSettings(
            max_budget=max(q.budget for q in queries) + 60.0, max_explored=2000
        )
        engine = RoutingEngine(small_pace_graph, small_updated_graph, settings=settings)
        batch = engine.route_many(queries, method=method)

        standalone = create_router(
            method, small_pace_graph, small_updated_graph, settings=settings
        )
        for query, batched in zip(queries, batch):
            single = standalone.route(query)
            assert batched.probability == single.probability
            assert (batched.path is None) == (single.path is None)
            if batched.path is not None:
                assert batched.path.edges == single.path.edges


class TestArrivalProbabilityIsAProbability:
    """Regression: summed support probabilities overshot 1 by an ulp or two.

    On the tiny city these queries returned ``0x1.0000000000001p+0`` (and
    ``...2p+0`` for T-None 0→20).  Every router's answer is clamped once, in
    :class:`RoutingResult`; the distributions the search compares are not.
    """

    CASES = (
        ("T-B-P", 0, 35, 500.0, (2, 22, 26, 28, 34, 54, 71, 67, 68, 88, 94, 108, 110, 112)),
        ("T-BS-60", 0, 35, 500.0, (2, 22, 26, 28, 34, 54, 71, 67, 68, 88, 94, 108, 110, 112)),
        ("V-None", 0, 35, 500.0, (2, 24, 42, 64, 86, 104, 106, 108, 110, 112)),
        ("T-None", 0, 35, 500.0, (2, 24, 42, 64, 86, 104, 106, 108, 110, 112)),
        ("T-None", 0, 20, 350.0, (0, 6, 23, 24, 42, 62, 66)),
    )

    @pytest.fixture(scope="class")
    def tiny_engine(self):
        from repro.routing import DatasetRecipe

        recipe = DatasetRecipe(dataset="tiny", regime="peak", tau=20)
        return recipe.build_engine(settings=RouterSettings(max_budget=900.0, max_explored=2000))

    @pytest.mark.parametrize(("method", "source", "destination", "budget", "edges"), CASES)
    def test_probability_is_at_most_one_and_paths_are_unchanged(
        self, tiny_engine, method, source, destination, budget, edges
    ):
        result = tiny_engine.route(RoutingQuery(source, destination, budget), method=method)
        assert result.path.edges == edges
        assert result.probability <= 1.0
