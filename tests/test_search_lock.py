"""One in-process search at a time: the engine's search lock.

Overlapping GIL-bound searches on one engine cost more CPU each than running
them in turn, so :class:`~repro.routing.engine.RoutingEngine` serialises them
under ``search_lock``.  These tests wrap the engine's routers with an overlap
probe and drive them from several threads through every in-process entry
point — ``route``, ``route_many`` and a serial :class:`RouteServer` — then
check that no two searches ever ran at once, that the answers equal a serial
pass, and that the waits are reported in ``EngineStats`` and ``/stats``.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.routing import RoutingEngine
from repro.routing.queries import RoutingQuery
from repro.serving import RouteServer, ServerConfig
from tests.test_serving import http_get, http_post
from tests.test_serving_faults import wait_until

METHODS = ("T-B-P", "V-BS-60")
PAIRS = ((0, 35), (35, 0), (0, 5), (5, 30), (30, 5), (6, 29), (12, 23), (1, 34))
QUERIES = [RoutingQuery(source, destination, budget=600.0) for source, destination in PAIRS]


class OverlapProbe:
    """Counts how many wrapped ``route`` calls are inside a search at once."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0
        self.calls = 0

    def wrap(self, engine: RoutingEngine) -> None:
        for method in METHODS:
            router = engine.router(method)
            router.route = self._wrapped(router.route)

    def _wrapped(self, route):
        def probed(query):
            with self._lock:
                self._active += 1
                self.calls += 1
                self.peak = max(self.peak, self._active)
            try:
                time.sleep(0.002)  # widen the window an overlap would show in
                return route(query)
            finally:
                with self._lock:
                    self._active -= 1

        return probed


@pytest.fixture(scope="module")
def serial_answers(tiny_artifact_store):
    """Every (method, query) answered one by one on a private engine."""
    engine = RoutingEngine.from_artifacts(tiny_artifact_store)
    return {
        (method, index): engine.route(query, method=method)
        for method in METHODS
        for index, query in enumerate(QUERIES)
    }


def assert_same_answer(expected, path_edges, probability) -> None:
    if expected.path is None:
        assert path_edges is None
    else:
        assert tuple(path_edges) == expected.path.edges
        assert probability == pytest.approx(expected.probability, abs=1e-12)


class TestOneSearchAtATime:
    def test_concurrent_route_calls_take_turns(self, tiny_artifact_store, serial_answers):
        engine = RoutingEngine.from_artifacts(tiny_artifact_store)
        probe = OverlapProbe()
        probe.wrap(engine)
        jobs = [(method, index) for method in METHODS for index in range(len(QUERIES))]
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda job: engine.route(QUERIES[job[1]], method=job[0]), jobs)
            )
        assert probe.calls == len(jobs)
        assert probe.peak == 1
        for job, result in zip(jobs, results):
            path_edges = None if result.path is None else result.path.edges
            assert_same_answer(serial_answers[job], path_edges, result.probability)

    def test_concurrent_batches_take_turns(self, tiny_artifact_store, serial_answers):
        engine = RoutingEngine.from_artifacts(tiny_artifact_store)
        probe = OverlapProbe()
        probe.wrap(engine)
        methods = [METHODS[thread % len(METHODS)] for thread in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            batches = list(
                pool.map(lambda method: engine.route_many(QUERIES, method=method), methods)
            )
        assert probe.calls == 4 * len(QUERIES)
        assert probe.peak == 1
        for method, batch in zip(methods, batches):
            for index, result in enumerate(batch):
                path_edges = None if result.path is None else result.path.edges
                assert_same_answer(serial_answers[(method, index)], path_edges, result.probability)

    def test_a_serial_server_searches_one_request_at_a_time(
        self, tiny_artifact_store, serial_answers
    ):
        server = RouteServer(
            tiny_artifact_store,
            ServerConfig(max_concurrency=4, queue_limit=8, reload_poll_seconds=3600.0),
        )
        server.start()
        try:
            probe = OverlapProbe()
            probe.wrap(server.reloader.service.engine)
            jobs = [(method, index) for method in METHODS for index in range(len(QUERIES))]
            answers: dict[tuple[str, int], tuple[int, dict]] = {}

            def client(share):
                for method, index in share:
                    query = QUERIES[index]
                    payload = {
                        "source": query.source,
                        "destination": query.destination,
                        "budget": query.budget,
                        "method": method,
                    }
                    answers[(method, index)] = http_post(server.url, "/route", payload)

            clients = [threading.Thread(target=client, args=(jobs[i::4],)) for i in range(4)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=60)
            assert all(not thread.is_alive() for thread in clients)
        finally:
            server.stop()
        assert probe.calls == len(jobs)
        assert probe.peak == 1
        for job in jobs:
            status, body = answers[job]
            assert status == 200
            assert_same_answer(
                serial_answers[job], body.get("path_edges"), body.get("probability")
            )


class TestSearchLockAttribution:
    def test_waits_are_zero_serially_and_counted_in_a_burst(self, tiny_artifact_store):
        engine = RoutingEngine.from_artifacts(tiny_artifact_store)
        for query in QUERIES[:3]:
            engine.route(query, method="T-B-P")
        engine.route_many(QUERIES, method="T-B-P")
        stats = engine.stats()
        assert stats.search_lock_waits == 0
        assert stats.search_lock_wait_seconds == 0.0

        # A 4-thread burst arriving while a search holds the lock: every
        # thread finds it held and waits.
        with engine.search_lock:
            burst = [
                threading.Thread(target=engine.route, args=(query,), kwargs={"method": "T-B-P"})
                for query in QUERIES[:4]
            ]
            for thread in burst:
                thread.start()
            assert wait_until(lambda: engine.stats().search_lock_waits == 4, timeout=10.0)
            time.sleep(0.01)
        for thread in burst:
            thread.join(timeout=30)
        stats = engine.stats()
        assert stats.search_lock_waits == 4
        assert stats.search_lock_wait_seconds > 0.0

    def test_stats_endpoint_reports_the_waits(self, tiny_artifact_store):
        server = RouteServer(
            tiny_artifact_store,
            ServerConfig(max_concurrency=4, queue_limit=0, reload_poll_seconds=3600.0),
        )
        server.start()
        try:
            url = server.url
            status, body = http_post(url, "/route", {"source": 0, "destination": 5, "budget": 500.0})
            assert status == 200 and body["ok"] is True
            engine_stats = http_get(url, "/stats")[1]["engine"]
            assert engine_stats["search_lock_waits"] == 0
            assert engine_stats["search_lock_wait_seconds"] == 0.0

            results: list[tuple[int, object]] = []
            engine = server.reloader.service.engine
            with engine.search_lock:
                burst = [
                    threading.Thread(
                        target=lambda: results.append(
                            http_post(url, "/route", {"source": 0, "destination": 5, "budget": 500.0})
                        )
                    )
                    for _ in range(4)
                ]
                for thread in burst:
                    thread.start()
                assert wait_until(
                    lambda: http_get(url, "/stats")[1]["engine"]["search_lock_waits"] == 4,
                    timeout=10.0,
                )
            for thread in burst:
                thread.join(timeout=30)
            assert [status for status, _ in results] == [200] * 4
            engine_stats = http_get(url, "/stats")[1]["engine"]
            assert engine_stats["search_lock_waits"] == 4
            assert engine_stats["search_lock_wait_seconds"] > 0.0
        finally:
            server.stop()
