"""Tests for the serving tier: building blocks, wire extensions, HTTP surface.

The chaos scenarios (worker crashes, queue saturation, deadline expiry,
corrupt reloads) live in ``test_serving_faults.py``; this module covers the
components in isolation — deadlines, fault switchboard, admission control —
the wire-format extensions (``overloaded`` / ``deadline_exceeded`` codes,
``retry_after_ms``, ``deadline_ms``), the silent-degradation regression on
:meth:`RoutingService.stats`, and the happy-path HTTP API of
:class:`~repro.serving.server.RouteServer`.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.core.errors import ConfigurationError, DataError
from repro.routing import RoutingEngine, RoutingService
from repro.routing.service import ERROR_CODES, RouteError, RouteRequest
from repro.serving import (
    AdmissionController,
    Deadline,
    FaultInjector,
    RouteServer,
    ServerConfig,
)


def http_get(url: str, path: str) -> tuple[int, dict | list]:
    try:
        with urllib.request.urlopen(url + path, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def http_post(url: str, path: str, payload: object, *, raw: bytes | None = None) -> tuple[int, dict | list]:
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url + path, data=data, method="POST", headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _raw_post(url: str, rest: bytes, *, timeout: float = 10) -> bytes:
    """POST ``/route`` over a raw socket: ``rest`` follows the Host header.

    Returns everything the server sends until it closes the connection —
    reading to EOF proves the server closed it.
    """
    parts = urllib.parse.urlsplit(url)
    head = f"POST /route HTTP/1.1\r\nHost: {parts.hostname}\r\n".encode("ascii")
    with socket.create_connection((parts.hostname, parts.port), timeout=timeout) as sock:
        sock.sendall(head + rest)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


# --------------------------------------------------------------------------- #
# Deadlines
# --------------------------------------------------------------------------- #
class TestDeadline:
    def test_counts_down_on_the_injected_clock(self):
        now = [100.0]
        deadline = Deadline.after_ms(250.0, clock=lambda: now[0])
        assert deadline.remaining_seconds() == pytest.approx(0.25)
        assert not deadline.expired()
        now[0] += 0.2
        assert deadline.remaining_seconds() == pytest.approx(0.05)
        now[0] += 0.1
        assert deadline.expired()
        assert deadline.remaining_seconds() == pytest.approx(-0.05)

    @pytest.mark.parametrize("bad", [0.0, -5.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite_budgets(self, bad):
        with pytest.raises(ConfigurationError):
            Deadline.after_ms(bad)


# --------------------------------------------------------------------------- #
# Fault switchboard
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_disabled_injector_never_arms_and_never_fires(self):
        faults = FaultInjector()
        with pytest.raises(ConfigurationError, match="disabled"):
            faults.arm("fill-queue")
        assert faults.take("fill-queue") is False

    def test_armed_count_is_consumed_exactly(self):
        faults = FaultInjector(enabled=True)
        faults.arm("crash-next-worker", count=2)
        assert faults.take("crash-next-worker") is True
        assert faults.take("crash-next-worker") is True
        assert faults.take("crash-next-worker") is False
        snapshot = faults.snapshot()
        assert snapshot["fired"] == {"crash-next-worker": 2}
        assert snapshot["armed"] == {}

    def test_rejects_unknown_faults_and_bad_parameters(self):
        faults = FaultInjector(enabled=True)
        with pytest.raises(ConfigurationError, match="unknown fault"):
            faults.arm("meteor-strike")
        with pytest.raises(ConfigurationError):
            faults.arm("fill-queue", count=0)
        with pytest.raises(ConfigurationError):
            faults.arm("delay-response", delay_seconds=-1.0)

    def test_delay_and_disarm(self):
        faults = FaultInjector(enabled=True)
        faults.arm("delay-response", delay_seconds=0.25)
        assert faults.delay_seconds() == pytest.approx(0.25)
        faults.disarm_all()
        assert faults.take("delay-response") is False


# --------------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------------- #
class TestAdmissionController:
    def test_rejects_beyond_capacity_and_recovers(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=1)
        release = threading.Event()
        running = threading.Event()

        def blocker():
            running.set()
            release.wait(timeout=30)
            return "done"

        try:
            first = admission.admit(blocker)
            assert first is not None
            assert running.wait(timeout=10)
            queued = admission.admit(lambda: "queued")
            assert queued is not None  # fills the queue slot
            assert admission.admit(lambda: "overflow") is None  # over capacity
            snapshot = admission.snapshot()
            assert snapshot["rejected"] == 1
            assert snapshot["admitted"] == 2
            assert snapshot["in_flight"] == 2
            assert snapshot["queue_depth"] == 1
            release.set()
            assert first.result(timeout=10) == "done"
            assert queued.result(timeout=10) == "queued"
            # Capacity freed: admission works again.
            assert admission.admit(lambda: "again") is not None
        finally:
            release.set()
            admission.shutdown()
        assert admission.snapshot()["in_flight"] == 0

    def test_retry_hint_is_bounded_and_integer(self):
        admission = AdmissionController(max_concurrency=2, queue_limit=4)
        try:
            hint = admission.retry_after_hint_ms()
            assert isinstance(hint, int)
            assert 50 <= hint <= 5_000
        finally:
            admission.shutdown()

    def test_validates_limits(self):
        with pytest.raises(ConfigurationError):
            AdmissionController(max_concurrency=0, queue_limit=1)
        with pytest.raises(ConfigurationError):
            AdmissionController(max_concurrency=1, queue_limit=-1)

    def test_admit_after_shutdown_is_a_rejection(self):
        admission = AdmissionController(max_concurrency=1, queue_limit=1)
        admission.shutdown()
        assert admission.admit(lambda: "late") is None
        snapshot = admission.snapshot()
        assert snapshot["rejected"] == 1
        assert snapshot["in_flight"] == 0


# --------------------------------------------------------------------------- #
# Wire-format extensions
# --------------------------------------------------------------------------- #
class TestWireExtensions:
    def test_taxonomy_gained_the_serving_codes(self):
        assert "overloaded" in ERROR_CODES
        assert "deadline_exceeded" in ERROR_CODES

    def test_retry_after_ms_round_trips(self):
        error = RouteError("overloaded", "full", retry_after_ms=125)
        payload = error.to_dict()
        assert payload["retry_after_ms"] == 125
        assert RouteError.from_dict(payload) == error
        # Omitted from the wire form when absent.
        assert "retry_after_ms" not in RouteError("not_found", "nope").to_dict()

    @pytest.mark.parametrize("bad", [-1, 1.5, True, "100"])
    def test_retry_after_ms_must_be_a_non_negative_integer(self, bad):
        with pytest.raises((ConfigurationError, DataError)):
            RouteError("overloaded", "full", retry_after_ms=bad)

    def test_deadline_ms_round_trips_on_requests(self):
        request = RouteRequest(source=1, destination=2, budget=100.0, deadline_ms=750.0)
        payload = request.to_dict()
        assert payload["deadline_ms"] == 750.0
        assert RouteRequest.from_dict(payload) == request
        assert "deadline_ms" not in RouteRequest(source=1, destination=2, budget=9.0).to_dict()

    @pytest.mark.parametrize("bad", [0, -10.0, float("nan"), True, "fast"])
    def test_deadline_ms_must_be_a_positive_number(self, bad):
        with pytest.raises(DataError):
            RouteRequest.from_dict(
                {"source": 1, "destination": 2, "budget": 100.0, "deadline_ms": bad}
            )


# --------------------------------------------------------------------------- #
# Silent-degradation regression: backend failures must show up in stats()
# --------------------------------------------------------------------------- #
class _ExplodingBackend:
    """An execution backend that always fails as a unit."""

    def __init__(self):
        self.calls = 0

    def run(self, engine, method, queries):
        self.calls += 1
        raise RuntimeError("worker pool exploded")


class TestServiceDegradationStats:
    def test_batch_backend_failure_is_counted_not_silent(self, tiny_artifact_store):
        engine = RoutingEngine.from_artifacts(tiny_artifact_store)
        service = RoutingService(engine, default_method="V-BS-60")
        assert service.stats().backend_failures == 0
        assert service.stats().fallback_queries == 0

        backend = _ExplodingBackend()
        requests = [
            {"source": 0, "destination": 5, "budget": 500.0},
            {"source": 1, "destination": 5, "budget": 500.0},
            {"source": 2, "destination": 5, "budget": 500.0},
        ]
        responses = service.handle_batch(requests, backend=backend)
        # Every request still got a real answer through the serial fallback...
        assert backend.calls == 1
        assert all(response.ok for response in responses)
        # ...and the degradation is visible, not silent.
        stats = service.stats()
        assert stats.backend_failures == 1
        assert stats.fallback_queries == len(requests)
        # The counters accumulate across batches.
        service.handle_batch(requests[:1], backend=backend)
        stats = service.stats()
        assert stats.backend_failures == 2
        assert stats.fallback_queries == len(requests) + 1
        # The engine's own stats stay untouched; the counters live on the
        # service (stats() merges them into the snapshot it returns).
        assert engine.stats().backend_failures == 0

    def test_healthy_batches_leave_the_counters_at_zero(self, tiny_artifact_store):
        engine = RoutingEngine.from_artifacts(tiny_artifact_store)
        service = RoutingService(engine, default_method="V-BS-60")
        responses = service.handle_batch(
            [{"source": 0, "destination": 5, "budget": 500.0}]
        )
        assert responses[0].ok
        stats = service.stats()
        assert stats.backend_failures == 0
        assert stats.fallback_queries == 0


# --------------------------------------------------------------------------- #
# HTTP surface (happy paths; chaos lives in test_serving_faults.py)
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def serving_url(tiny_artifact_store):
    server = RouteServer(
        tiny_artifact_store,
        ServerConfig(max_concurrency=2, queue_limit=4, reload_poll_seconds=3600.0),
    )
    server.start()
    try:
        yield server.url
    finally:
        server.stop()


class TestRouteServerHTTP:
    def test_single_request_round_trip(self, serving_url):
        status, body = http_post(
            serving_url,
            "/route",
            {"source": 0, "destination": 5, "budget": 500.0, "request_id": "req-1"},
        )
        assert status == 200
        assert body["ok"] is True
        assert body["request_id"] == "req-1"
        assert body["method"] == "V-BS-60"
        assert body["path_vertices"][0] == 0
        assert body["path_vertices"][-1] == 5
        assert 0.0 < body["probability"] <= 1.0

    def test_batch_preserves_order_and_mixes_outcomes(self, serving_url):
        status, body = http_post(
            serving_url,
            "/route",
            [
                {"source": 0, "destination": 5, "budget": 500.0, "request_id": "a"},
                {"source": 0, "destination": 999999, "budget": 500.0, "request_id": "b"},
                {"source": 0, "destination": 5, "budget": 500.0, "method": "bogus"},
            ],
        )
        assert status == 200
        assert [item.get("request_id") for item in body] == ["a", "b", None]
        assert body[0]["ok"] is True
        assert body[1]["error"]["code"] == "unknown_vertex"
        assert body[2]["error"]["code"] == "invalid_method"

    def test_per_request_deadline_is_accepted(self, serving_url):
        status, body = http_post(
            serving_url,
            "/route",
            {"source": 0, "destination": 5, "budget": 500.0, "deadline_ms": 20_000.0},
        )
        assert status == 200
        assert body["ok"] is True

    def test_malformed_body_is_a_structured_400(self, serving_url):
        status, body = http_post(serving_url, "/route", None, raw=b"{not json")
        assert status == 400
        assert body["ok"] is False
        assert body["error"]["code"] == "invalid_request"

    def test_empty_batch_is_rejected(self, serving_url):
        status, body = http_post(serving_url, "/route", [])
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_unknown_path_is_a_structured_404(self, serving_url):
        status, body = http_get(serving_url, "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_stats_exposes_every_subsystem(self, serving_url):
        status, stats = http_get(serving_url, "/stats")
        assert status == 200
        for section in (
            "server",
            "engine",
            "admission",
            "deadlines",
            "resilience",
            "reload",
            "faults",
        ):
            assert section in stats
        assert stats["engine"]["provenance"]["source"] == "artifacts"
        assert stats["admission"]["max_concurrency"] == 2
        assert stats["reload"]["generation"] == 1
        assert stats["resilience"]["backend"] == "serial"
        assert stats["faults"]["enabled"] is False

    def test_healthz_is_ok_when_nothing_is_degraded(self, serving_url):
        status, body = http_get(serving_url, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["backend_healthy"] is True
        assert body["reload_healthy"] is True

    def test_faults_endpoint_is_hidden_unless_enabled(self, serving_url):
        status, body = http_post(serving_url, "/faults", {"fault": "fill-queue"})
        assert status == 404
        assert body["error"]["code"] == "invalid_request"

    def test_oversized_body_is_rejected(self, tiny_artifact_store):
        server = RouteServer(
            tiny_artifact_store,
            ServerConfig(max_body_bytes=64, reload_poll_seconds=3600.0),
        )
        with server:
            status, body = http_post(
                server.url,
                "/route",
                [{"source": 0, "destination": 5, "budget": 500.0}] * 50,
            )
        assert status == 413
        assert body["error"]["code"] == "invalid_request"

    def test_keep_alive_round_trips_are_not_stalled(self, serving_url):
        """Headers and body go out in two writes; Nagle must not hold the body."""
        url = urllib.parse.urlsplit(serving_url)
        connection = http.client.HTTPConnection(url.hostname, url.port, timeout=30)
        try:
            seconds = []
            for _ in range(10):
                started = time.perf_counter()
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                seconds.append(time.perf_counter() - started)
                assert response.status == 200
        finally:
            connection.close()
        assert statistics.median(seconds) < 0.020

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_invalid_content_length_is_a_structured_400(self, serving_url, length):
        _, before = http_get(serving_url, "/stats")
        reply = _raw_post(serving_url, f"Content-Length: {length}\r\n\r\n".encode("ascii"))
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"connection: close" in head.lower()
        payload = json.loads(body)
        assert payload["ok"] is False
        assert payload["error"]["code"] == "invalid_request"
        # Each /stats read counts itself; the rejected request counts once.
        _, after = http_get(serving_url, "/stats")
        assert after["server"]["http_requests"] == before["server"]["http_requests"] + 2

    def test_short_body_is_answered_within_the_deadline(self, tiny_artifact_store):
        """A body shorter than its Content-Length must not pin a handler thread."""
        config = ServerConfig(default_deadline_ms=500, reload_poll_seconds=3600.0)
        with RouteServer(tiny_artifact_store, config) as server:
            started = time.monotonic()
            reply = _raw_post(server.url, b"Content-Length: 10\r\n\r\n{}", timeout=5)
            assert time.monotonic() - started < 5
            head, _, body = reply.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 408 ")
            assert b"connection: close" in head.lower()
            payload = json.loads(body)
            assert payload["ok"] is False
            assert payload["error"]["code"] == "invalid_request"
            assert "2 of 10" in payload["error"]["message"]
            assert server.stats()["server"]["http_requests"] == 1


class TestServerLifecycle:
    def test_address_requires_start(self, tiny_artifact_store):
        def serving_threads() -> set[int]:
            return {
                thread.ident
                for thread in threading.enumerate()
                if thread.name.startswith("repro-serve") and thread.ident is not None
            }

        baseline = serving_threads()
        server = RouteServer(tiny_artifact_store, ServerConfig(reload_poll_seconds=3600.0))
        with pytest.raises(ConfigurationError, match="not started"):
            _ = server.address
        with server:
            host, port = server.address
            assert host == "127.0.0.1"
            assert port > 0
        # stop() tears every thread this server started back down (other
        # servers from module fixtures may still be running).
        assert serving_threads() <= baseline

    def test_boot_fails_fast_on_a_missing_store(self, tmp_path):
        with pytest.raises(DataError):
            RouteServer(tmp_path / "no-such-store")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServerConfig(backend="quantum")
        with pytest.raises(ConfigurationError):
            ServerConfig(default_deadline_ms=0.0)


class TestServeCLI:
    def test_parser_wires_the_serve_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--artifacts", "some/store"])
        assert args.command == "serve"
        assert args.artifacts == "some/store"
        assert args.port == 8080
        assert args.backend == "serial"
        assert args.enable_fault_injection is False

    def test_serve_exits_2_on_a_missing_store(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["serve", "--artifacts", str(tmp_path / "missing"), "--port", "0"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
