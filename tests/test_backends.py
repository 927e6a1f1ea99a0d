"""Tests for the execution backends and the multiprocess serving path.

These cover the route_many edge cases the serving layer relies on: duplicate
queries in one batch, input-order preservation under every backend, worker
exceptions propagating instead of hanging the pool, and persisted heuristics
crossing process boundaries via the graph content fingerprint.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError, GraphError, ReproError
from repro.routing.backends import (
    ArtifactRef,
    DatasetRecipe,
    EngineSpec,
    ProcessBackend,
    SerialBackend,
    balanced_destination_chunks,
    destination_grouped_order,
)
from repro.routing.engine import RouterSettings, RoutingEngine
from repro.routing.queries import RoutingQuery

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

TINY_SPEC = DatasetRecipe(dataset="tiny", regime="peak", tau=20)
SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000)


@pytest.fixture(scope="module")
def spec_engine():
    return TINY_SPEC.build_engine(settings=SETTINGS)


@pytest.fixture(scope="module")
def tiny_queries(spec_engine):
    vertices = sorted(spec_engine.pace_graph.network.vertex_ids())
    a, b, c, d = vertices[0], vertices[-1], vertices[len(vertices) // 2], vertices[1]
    queries = [
        RoutingQuery(a, b, budget=400.0),
        RoutingQuery(a, c, budget=300.0),
        RoutingQuery(a, b, budget=400.0),  # exact duplicate of the first
        RoutingQuery(d, b, budget=350.0),
        RoutingQuery(a, c, budget=250.0),
        RoutingQuery(a, b, budget=200.0),
    ]
    # Destinations deliberately interleaved so grouped execution must reorder.
    assert [q.destination for q in queries] != sorted(q.destination for q in queries)
    return queries


def _assert_same_results(expected, actual, queries):
    assert len(actual) == len(expected) == len(queries)
    for query, a, b in zip(queries, expected, actual):
        assert b.query is query  # input order and identity preserved
        assert b.probability == pytest.approx(a.probability, abs=1e-12)
        assert (a.path is None) == (b.path is None)
        if a.path is not None:
            assert b.path.edges == a.path.edges


class TestOrderAndDuplicates:
    def test_destination_grouped_order_is_stable(self, tiny_queries):
        order = destination_grouped_order(tiny_queries)
        assert sorted(order) == list(range(len(tiny_queries)))
        destinations = [tiny_queries[i].destination for i in order]
        assert destinations == sorted(destinations)
        # Ties keep input order (indices 0, 2, 5 share a destination with equal keys).
        same_destination = [i for i in order if tiny_queries[i].destination == tiny_queries[0].destination]
        assert same_destination == sorted(same_destination)

    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessBackend(workers=2)],
        ids=["serial", "process"],
    )
    def test_every_backend_preserves_input_order(
        self, spec_engine, tiny_queries, backend_factory
    ):
        serial = spec_engine.route_many(tiny_queries, method="T-BS-60")
        backend = backend_factory()
        try:
            results = spec_engine.route_many(tiny_queries, method="T-BS-60", backend=backend)
        finally:
            if isinstance(backend, ProcessBackend):
                backend.close()
        _assert_same_results(serial, results, tiny_queries)

    def test_balanced_chunks_split_a_dominant_destination(self, tiny_queries):
        hot = tiny_queries[0].destination
        queries = [
            *(RoutingQuery(1, hot, budget=100.0 + i) for i in range(10)),
            RoutingQuery(1, hot + 1, budget=100.0),
            RoutingQuery(1, hot + 2, budget=100.0),
        ]
        order = destination_grouped_order(queries)
        chunks = balanced_destination_chunks(queries, order, workers=4)
        # ceil(12 / 4) = 3: the hot destination's 10 queries split into shares.
        assert max(len(chunk) for chunk in chunks) == 3
        # No piece ever interleaves destinations (one heuristic per piece).
        for chunk in chunks:
            assert len({queries[i].destination for i in chunk}) == 1
        # Longest-first submission, and nothing lost or duplicated.
        assert [len(c) for c in chunks] == sorted((len(c) for c in chunks), reverse=True)
        assert sorted(i for chunk in chunks for i in chunk) == list(range(len(queries)))

    def test_balanced_chunks_leave_single_worker_batches_alone(self, tiny_queries):
        order = destination_grouped_order(tiny_queries)
        chunks = balanced_destination_chunks(tiny_queries, order, workers=1)
        destinations = [tiny_queries[chunk[0]].destination for chunk in chunks]
        assert len(destinations) == len(set(destinations))  # one chunk per destination

    def test_balanced_chunks_split_hot_destination_even_in_tiny_batches(self):
        # 4 queries, one destination, 4 workers: the even share is 1, so the
        # chunk must split into singletons — not serialise on one worker.
        queries = [RoutingQuery(1, 9, budget=100.0 + i) for i in range(4)]
        order = destination_grouped_order(queries)
        chunks = balanced_destination_chunks(queries, order, workers=4)
        assert [len(chunk) for chunk in chunks] == [1, 1, 1, 1]

    def test_process_backend_parity_on_a_skewed_batch(self, spec_engine):
        vertices = sorted(spec_engine.pace_graph.network.vertex_ids())
        hot, cold = vertices[-1], vertices[len(vertices) // 2]
        queries = [
            *(RoutingQuery(vertices[i % 3], hot, budget=250.0 + 25.0 * i) for i in range(9)),
            RoutingQuery(vertices[0], cold, budget=300.0),
        ]
        serial = spec_engine.route_many(queries, method="T-BS-60")
        with ProcessBackend(workers=2) as backend:
            results = spec_engine.route_many(queries, method="T-BS-60", backend=backend)
        _assert_same_results(serial, results, queries)

    def test_duplicate_queries_answer_identically(self, spec_engine, tiny_queries):
        results = spec_engine.route_many(tiny_queries, method="T-B-P")
        first, duplicate = results[0], results[2]
        assert duplicate.probability == first.probability
        assert (duplicate.path is None) == (first.path is None)
        if first.path is not None:
            assert duplicate.path.edges == first.path.edges
        # Each result is bound to its own query object even when queries are equal.
        assert results[0].query is tiny_queries[0]
        assert results[2].query is tiny_queries[2]


class TestWorkerFailures:
    @pytest.mark.parametrize(
        "backend_factory",
        [SerialBackend, lambda: ProcessBackend(workers=2)],
        ids=["serial", "process"],
    )
    def test_routing_failure_propagates_instead_of_hanging(
        self, spec_engine, backend_factory
    ):
        vertices = sorted(spec_engine.pace_graph.network.vertex_ids())
        bad = max(vertices) + 1000  # passes query validation, unknown to the graph
        queries = [
            RoutingQuery(vertices[0], vertices[-1], budget=400.0),
            RoutingQuery(vertices[0], bad, budget=400.0),
        ]
        backend = backend_factory()
        try:
            with pytest.raises((GraphError, ReproError)):
                spec_engine.route_many(queries, method="T-B-P", backend=backend)
        finally:
            if isinstance(backend, ProcessBackend):
                backend.close()

    def test_process_backend_requires_an_engine_spec(self, paper_example):
        engine = RoutingEngine(paper_example.pace_graph, None, settings=SETTINGS)
        assert engine.spec is None
        queries = [RoutingQuery(0, 1, budget=30.0)]
        with ProcessBackend(workers=2) as backend:
            with pytest.raises(ConfigurationError, match="DatasetRecipe"):
                engine.route_many(queries, method="T-B-P", backend=backend)


class TestCrossProcessHeuristics:
    def test_store_round_trips_between_independently_built_engines(
        self, spec_engine, tiny_queries, tmp_path
    ):
        """The acceptance path: fingerprint-keyed entries need zero rebuilds.

        The booted engine's graphs are new objects loaded from disk — exactly
        what a worker process sees — so this only passes because cache keys
        and persisted entries use content fingerprints instead of
        ``id(graph)``.
        """
        destinations = sorted({q.destination for q in tiny_queries})
        spec_engine.prewarm("T-BS-60", destinations)
        spec_engine.prewarm("V-BS-60", destinations)
        manifest = spec_engine.save_artifacts(tmp_path / "store")
        assert manifest.provenance["heuristic_entries"] == len(spec_engine.heuristic_cache)

        fresh = RoutingEngine.from_artifacts(tmp_path / "store")
        assert fresh.pace_graph is not spec_engine.pace_graph
        assert (
            fresh.pace_graph.content_fingerprint()
            == spec_engine.pace_graph.content_fingerprint()
        )
        assert (
            fresh.updated_graph.content_fingerprint()
            == spec_engine.updated_graph.content_fingerprint()
        )
        assert len(fresh.heuristic_cache) == len(spec_engine.heuristic_cache)
        for method in ("T-BS-60", "V-BS-60"):
            expected = spec_engine.route_many(tiny_queries, method=method)
            warmed = fresh.route_many(tiny_queries, method=method)
            _assert_same_results(expected, warmed, tiny_queries)
        assert fresh.heuristic_cache.misses == 0  # nothing was rebuilt
        assert fresh.heuristic_cache.hits > 0

    def test_process_workers_boot_from_artifacts(self, spec_engine, tiny_queries, tmp_path):
        """The deployment fan-out: every worker cold-boots from the store.

        The parent engine is itself booted via ``from_artifacts``, so its spec
        is an :class:`ArtifactRef` carrying the expected fingerprints, and the
        worker processes initialise from the same store — fingerprint-verified,
        zero re-mining, zero heuristic rebuilds.
        """
        destinations = sorted({q.destination for q in tiny_queries})
        spec_engine.prewarm("T-BS-60", destinations)
        store = tmp_path / "store"
        spec_engine.save_artifacts(store)
        parent = RoutingEngine.from_artifacts(store)
        assert isinstance(parent.spec, ArtifactRef)
        assert isinstance(parent.spec, EngineSpec)  # the union covers both forms
        serial = spec_engine.route_many(tiny_queries, method="T-BS-60")
        with ProcessBackend(workers=2) as backend:
            results = parent.route_many(tiny_queries, method="T-BS-60", backend=backend)
        _assert_same_results(serial, results, tiny_queries)
        assert parent.heuristic_cache.misses == 0


class TestEngineStats:
    def test_stats_report_cache_and_query_counters(self):
        engine = TINY_SPEC.build_engine(settings=SETTINGS)
        vertices = sorted(engine.pace_graph.network.vertex_ids())
        queries = [
            RoutingQuery(vertices[0], vertices[-1], budget=400.0),
            RoutingQuery(vertices[1], vertices[-1], budget=400.0),
        ]
        engine.route_many(queries, method="T-BS-60")
        engine.route(queries[0], method="T-B-P")
        # V-B-P shares the PACE binary heuristic with T-B-P through the
        # engine-wide cache: a hit, not a rebuild.
        engine.route(queries[0], method="V-B-P")
        stats = engine.stats()
        assert stats.queries_total == 4
        assert stats.queries_by_method == {"T-BS-60": 2, "T-B-P": 1, "V-B-P": 1}
        assert stats.cache_misses == 2  # one budget table + one binary getMin tree
        assert stats.cache_entries == 2
        assert stats.heuristic_build_seconds > 0.0
        assert stats.cache_hits >= 1
