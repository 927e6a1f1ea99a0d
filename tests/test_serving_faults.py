"""Chaos suite for the serving tier: every injected fault, end to end.

Each scenario drives a real :class:`~repro.serving.server.RouteServer` over
HTTP and injects one of the deterministic faults from
:mod:`repro.serving.faults`, asserting the robustness contract of the tier:

* a **worker crash mid-batch** (``crash-next-worker``) answers every request
  through the serial fallback — structured responses, never errors — while
  the pool respawns with bounded backoff and recovers;
* **queue saturation** (``fill-queue``, and genuine overload) answers an
  immediate structured ``overloaded`` rejection with a ``retry_after_ms``
  hint;
* **deadline expiry** (``delay-response``) answers ``deadline_exceeded`` at
  the deadline and *discards* (counts, never delivers) the late result;
* a **corrupt reload** (``corrupt-reload``, and genuinely corrupt bytes on
  disk) keeps the old engine serving, surfaces the failure on ``/healthz``,
  and recovers on a later poll once the store is good again;

and in every case the server shuts down cleanly afterwards — no hung threads.
"""

from __future__ import annotations

import json
import shutil
import threading
import time

import pytest

from repro.serving import RouteServer, ServerConfig
from tests.test_serving import http_get, http_post

OK_REQUEST = {"source": 0, "destination": 5, "budget": 500.0}


def wait_until(predicate, *, timeout: float = 30.0, interval: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def serving_thread_ids() -> set[int]:
    return {
        thread.ident
        for thread in threading.enumerate()
        if thread.name.startswith("repro-serve") and thread.ident is not None
    }


@pytest.fixture()
def chaos_server(tiny_artifact_store):
    """A serial-backend server with the fault switchboard enabled."""
    server = RouteServer(
        tiny_artifact_store,
        ServerConfig(
            max_concurrency=1,
            queue_limit=0,
            reload_poll_seconds=3600.0,
            enable_fault_injection=True,
        ),
    )
    baseline = serving_thread_ids()
    server.start()
    try:
        yield server
    finally:
        server.stop()
        assert serving_thread_ids() <= baseline, "server left threads running"


class TestWorkerCrash:
    def test_crash_mid_batch_falls_back_then_recovers(self, tiny_artifact_store):
        baseline = serving_thread_ids()
        server = RouteServer(
            tiny_artifact_store,
            ServerConfig(
                backend="process",
                workers=1,
                max_concurrency=2,
                queue_limit=4,
                reload_poll_seconds=3600.0,
                enable_fault_injection=True,
                max_respawn_attempts=5,
                backoff_base_seconds=0.01,
                backoff_cap_seconds=0.1,
            ),
        )
        server.start()
        try:
            url = server.url
            # First batch spawns the worker pool.
            status, body = http_post(url, "/route", [OK_REQUEST, OK_REQUEST])
            assert status == 200
            assert all(item["ok"] for item in body)

            # Hard-kill a worker right before the next batch runs.
            status, _ = http_post(url, "/faults", {"fault": "crash-next-worker"})
            assert status == 200
            status, body = http_post(
                url, "/route", [OK_REQUEST, dict(OK_REQUEST, request_id="survivor")]
            )
            # The pool genuinely broke, yet every request was answered (serial
            # fallback), structured and in order.
            assert status == 200
            assert all(item["ok"] for item in body)
            assert body[1]["request_id"] == "survivor"
            _, stats = http_get(url, "/stats")
            assert stats["resilience"]["backend_failures"] >= 1
            assert stats["resilience"]["fallback_queries"] >= 2
            assert stats["faults"]["fired"].get("crash-next-worker") == 1

            # Recovery: the respawn loop restores the pool within its bounded
            # retries, and /healthz goes back to 200.
            assert server.backend.await_recovery(timeout=60.0)
            assert wait_until(lambda: http_get(url, "/healthz")[0] == 200)
            _, health = http_get(url, "/healthz")
            assert health["status"] == "ok"
            assert health["resilience"]["pool_generation"] >= 1
            assert health["resilience"]["respawns_succeeded"] >= 1

            # The respawned pool serves again.
            status, body = http_post(url, "/route", OK_REQUEST)
            assert status == 200
            assert body["ok"] is True
        finally:
            server.stop()
        assert serving_thread_ids() <= baseline, "server left threads running"


class TestQueueSaturation:
    def test_injected_saturation_answers_structured_overloaded(self, chaos_server):
        url = chaos_server.url
        status, _ = http_post(url, "/faults", {"fault": "fill-queue"})
        assert status == 200
        status, body = http_post(url, "/route", dict(OK_REQUEST, request_id="shed"))
        assert status == 429
        assert body["ok"] is False
        assert body["request_id"] == "shed"
        assert body["error"]["code"] == "overloaded"
        assert isinstance(body["error"]["retry_after_ms"], int)
        assert body["error"]["retry_after_ms"] >= 50
        _, stats = http_get(url, "/stats")
        assert stats["admission"]["rejected"] >= 1
        # The shed request never reached the engine; the next one does.
        status, body = http_post(url, "/route", OK_REQUEST)
        assert status == 200
        assert body["ok"] is True

    def test_genuine_saturation_rejects_while_a_slow_request_runs(self, chaos_server):
        url = chaos_server.url
        # Stall the next admitted job for 1 s: with max_concurrency=1 and
        # queue_limit=0 the server is then genuinely at capacity.
        status, _ = http_post(
            url, "/faults", {"fault": "delay-response", "delay_seconds": 1.0}
        )
        assert status == 200
        slow_result: list[tuple[int, object]] = []
        slow = threading.Thread(
            target=lambda: slow_result.append(http_post(url, "/route", OK_REQUEST))
        )
        slow.start()
        try:
            assert wait_until(
                lambda: http_get(url, "/stats")[1]["admission"]["in_flight"] >= 1,
                timeout=10.0,
            )
            status, body = http_post(url, "/route", OK_REQUEST)
            assert status == 429
            assert body["error"]["code"] == "overloaded"
            assert body["error"]["retry_after_ms"] >= 50
        finally:
            slow.join(timeout=30)
        assert not slow.is_alive()
        status, body = slow_result[0]
        assert status == 200  # the slow request itself still completed fine
        assert body["ok"] is True


class TestDeadlineExpiry:
    def test_expiry_answers_504_and_discards_the_late_result(self, chaos_server):
        url = chaos_server.url
        status, _ = http_post(
            url, "/faults", {"fault": "delay-response", "delay_seconds": 0.6}
        )
        assert status == 200
        started = time.monotonic()
        status, body = http_post(
            url, "/route", dict(OK_REQUEST, request_id="late", deadline_ms=150.0)
        )
        waited = time.monotonic() - started
        assert status == 504
        assert body["ok"] is False
        assert body["request_id"] == "late"
        assert body["error"]["code"] == "deadline_exceeded"
        # The caller was released at its deadline, not after the full delay.
        assert waited < 0.6
        # The stalled job eventually finishes; its result is discarded and
        # counted, never delivered.
        assert wait_until(
            lambda: http_get(url, "/stats")[1]["deadlines"]["discarded_late_results"] >= 1
        )
        _, stats = http_get(url, "/stats")
        assert stats["deadlines"]["deadline_exceeded"] >= 1

    def test_a_request_queued_behind_a_search_expires_unrouted(self, tiny_artifact_store):
        # Two requests are admitted at once, but a serial server searches one
        # at a time: B waits behind A's (stalled) search, and that wait is
        # queueing, so B expires there and is never routed.
        baseline = serving_thread_ids()
        server = RouteServer(
            tiny_artifact_store,
            ServerConfig(
                max_concurrency=2,
                queue_limit=0,
                reload_poll_seconds=3600.0,
                enable_fault_injection=True,
            ),
        )
        server.start()
        try:
            url = server.url
            status, _ = http_post(
                url, "/faults", {"fault": "delay-response", "delay_seconds": 1.0}
            )
            assert status == 200
            slow_result: list[tuple[int, object]] = []
            slow = threading.Thread(
                target=lambda: slow_result.append(
                    http_post(url, "/route", dict(OK_REQUEST, method="V-BS-60"))
                )
            )
            slow.start()
            try:
                # A holds the search lock once it has taken the stall.
                assert wait_until(
                    lambda: http_get(url, "/stats")[1]["faults"]["fired"].get("delay-response")
                    == 1,
                    timeout=10.0,
                )
                started = time.monotonic()
                status, body = http_post(
                    url,
                    "/route",
                    dict(OK_REQUEST, method="T-B-P", request_id="queued", deadline_ms=200.0),
                )
                waited = time.monotonic() - started
            finally:
                slow.join(timeout=30)
            assert not slow.is_alive()
            assert status == 504
            assert body["request_id"] == "queued"
            assert body["error"]["code"] == "deadline_exceeded"
            assert 0.2 <= waited < 0.8
            assert slow_result[0][0] == 200 and slow_result[0][1]["ok"] is True
            # B's job runs once A releases the lock, finds its deadline gone
            # and skips routing: no query counted, no late result discarded.
            assert wait_until(
                lambda: http_get(url, "/stats")[1]["admission"]["in_flight"] == 0,
                timeout=10.0,
            )
            _, stats = http_get(url, "/stats")
            assert stats["engine"]["queries_by_method"] == {"V-BS-60": 1}
            assert stats["deadlines"]["deadline_exceeded"] == 1
            assert stats["deadlines"]["discarded_late_results"] == 0
        finally:
            server.stop()
        assert serving_thread_ids() <= baseline, "server left threads running"

    def test_a_generous_deadline_is_not_triggered(self, chaos_server):
        status, body = http_post(
            chaos_server.url, "/route", dict(OK_REQUEST, deadline_ms=30_000.0)
        )
        assert status == 200
        assert body["ok"] is True


class TestCorruptReload:
    @pytest.fixture()
    def reload_server(self, tiny_artifact_store, tmp_path):
        """A chaos server over a *private copy* of the store (it mutates it)."""
        root = tmp_path / "store"
        shutil.copytree(tiny_artifact_store, root)
        baseline = serving_thread_ids()
        server = RouteServer(
            root,
            ServerConfig(reload_poll_seconds=3600.0, enable_fault_injection=True),
        )
        server.start()
        try:
            yield server, root
        finally:
            server.stop()
            assert serving_thread_ids() <= baseline, "server left threads running"

    @staticmethod
    def republish(root) -> None:
        """Touch the manifest the way a writer would: new provenance, same build."""
        manifest_path = root / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload.setdefault("provenance", {})["republish"] = (
            payload.get("provenance", {}).get("republish", 0) + 1
        )
        manifest_path.write_text(json.dumps(payload, allow_nan=False))

    def test_reload_swaps_generations_without_dropping_service(self, reload_server):
        server, root = reload_server
        url = server.url
        assert http_get(url, "/stats")[1]["reload"]["generation"] == 1
        self.republish(root)
        assert server.reloader.poll_once() is True
        _, stats = http_get(url, "/stats")
        assert stats["reload"]["generation"] == 2
        assert stats["reload"]["reloads"] == 1
        status, body = http_post(url, "/route", OK_REQUEST)
        assert status == 200 and body["ok"] is True

    def test_injected_corrupt_reload_keeps_old_engine_and_degrades(self, reload_server):
        server, root = reload_server
        url = server.url
        status, _ = http_post(url, "/faults", {"fault": "corrupt-reload"})
        assert status == 200
        self.republish(root)
        assert server.reloader.poll_once() is False
        # Old engine keeps serving...
        status, body = http_post(url, "/route", OK_REQUEST)
        assert status == 200 and body["ok"] is True
        # ...and the failure is on /healthz, not hidden.
        status, health = http_get(url, "/healthz")
        assert status == 503
        assert health["status"] == "degraded"
        assert health["reload_healthy"] is False
        assert "corrupt-reload" in health["reload"]["last_error"]
        assert health["reload"]["reload_failures"] == 1
        assert health["reload"]["generation"] == 1
        # The fault fired once; the next poll retries the reload and heals.
        assert server.reloader.poll_once() is True
        status, health = http_get(url, "/healthz")
        assert status == 200
        assert health["reload"]["generation"] == 2

    def test_genuinely_corrupt_manifest_degrades_then_heals_on_restore(self, reload_server):
        server, root = reload_server
        url = server.url
        manifest_path = root / "manifest.json"
        good_bytes = manifest_path.read_bytes()
        manifest_path.write_bytes(b"this is not a manifest")
        assert server.reloader.poll_once() is False
        status, health = http_get(url, "/healthz")
        assert status == 503
        assert health["reload"]["reload_failures"] == 1
        assert health["reload"]["generation"] == 1
        status, body = http_post(url, "/route", OK_REQUEST)
        assert status == 200 and body["ok"] is True
        # Restoring the original bytes matches the served generation's
        # fingerprint again: no reload needed, health clears.
        manifest_path.write_bytes(good_bytes)
        assert server.reloader.poll_once() is False
        status, health = http_get(url, "/healthz")
        assert status == 200
        assert health["reload"]["generation"] == 1

    def test_requests_in_flight_survive_a_swap(self, reload_server):
        server, root = reload_server
        url = server.url
        stop = threading.Event()
        failures: list[object] = []
        answered = [0]

        def storm():
            while not stop.is_set():
                status, body = http_post(url, "/route", OK_REQUEST)
                if status != 200 or not body.get("ok"):
                    failures.append((status, body))
                answered[0] += 1

        threads = [threading.Thread(target=storm) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(3):
                self.republish(root)
                assert server.reloader.poll_once() is True
                time.sleep(0.05)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        assert all(not thread.is_alive() for thread in threads)
        assert failures == []
        assert answered[0] > 0
        assert server.reloader.generation == 4
