"""``repro serve``: the fault-tolerant HTTP serving tier over a routing engine.

:class:`RouteServer` is the long-lived process the offline pipeline hands its
artifact store to.  It composes the serving building blocks — admission
control (:mod:`repro.serving.admission`), per-request deadlines
(:mod:`repro.serving.deadlines`), pool supervision
(:mod:`repro.serving.resilience`), hot reload (:mod:`repro.serving.reload`)
and deterministic chaos (:mod:`repro.serving.faults`) — behind a small,
strict-JSON HTTP surface on a stdlib :class:`~http.server.ThreadingHTTPServer`:

* ``POST /route``   — one request object or an array of them; answers the
  wire-format :class:`~repro.routing.service.RouteResponse` shape(s).  Routed
  outcomes (including per-request taxonomy errors) are HTTP 200; whole-call
  failures use dedicated statuses: 400 malformed body, 408 body not received
  within the deadline, 413 oversized body, 429 ``overloaded`` (with
  ``retry_after_ms``), 504 ``deadline_exceeded``, 500 ``internal``.
* ``GET /stats``    — engine counters and provenance plus admission, deadline,
  resilience, reload and fault-injection sections.
* ``GET /healthz``  — 200 while the preferred backend is serving and the last
  reload poll was clean; 503 (with the reasons) when degraded.
* ``POST /faults``  — the chaos switchboard; 404 unless the server was
  started with fault injection enabled.

The request path never leaks an exception or a traceback: every failure is a
structured error from the service taxonomy.  Results that outlive their
deadline are *discarded* (counted, never delivered late).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from concurrent.futures import Future
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import TYPE_CHECKING, cast

from repro.core.errors import ConfigurationError, DataError
from repro.persistence.codecs import strict_json_dumps, strict_json_loads
from repro.routing.backends import ProcessBackend
from repro.routing.service import RouteError, RouteResponse
from repro.serving.admission import AdmissionController
from repro.serving.deadlines import Clock, Deadline
from repro.serving.faults import FaultInjector
from repro.serving.reload import EngineReloader
from repro.serving.resilience import ResilientBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.engine import RouterSettings

__all__ = ["ServerConfig", "RouteServer"]

_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ServerConfig:
    """Everything tunable about a :class:`RouteServer`, validated up front.

    ``max_concurrency`` requests are admitted at once, but in-process
    searches run one at a time (the engine's search lock); use
    ``backend="process"`` to route on more cores.
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free ephemeral port
    default_method: str = "V-BS-60"
    backend: str = "serial"
    workers: int = 2
    max_concurrency: int = 4
    queue_limit: int = 16
    default_deadline_ms: float = 10_000.0
    reload_poll_seconds: float = 2.0
    drain_timeout_seconds: float = 30.0
    max_body_bytes: int = 8_000_000
    enable_fault_injection: bool = False
    max_respawn_attempts: int = 5
    backoff_base_seconds: float = 0.1
    backoff_cap_seconds: float = 5.0
    #: Boot-time heuristic residency: ``"all"`` eagerly loads every persisted
    #: table (classic boot), ``"none"`` starts empty and faults tables in on
    #: first touch — the country-scale boot.  ``cache_bytes`` bounds the
    #: resident tier (LRU); ``None`` keeps everything resident.
    prewarm: str = "all"
    cache_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown serving backend {self.backend!r}; choose from {_BACKENDS}"
            )
        if self.default_deadline_ms <= 0:
            raise ConfigurationError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )
        if self.max_body_bytes < 1:
            raise ConfigurationError(f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if self.prewarm not in ("all", "none"):
            raise ConfigurationError(
                f"prewarm must be 'all' or 'none', got {self.prewarm!r}"
            )
        if self.cache_bytes is not None and self.cache_bytes <= 0:
            raise ConfigurationError(
                f"cache_bytes must be a positive byte budget or None, got {self.cache_bytes}"
            )


class _ExpiredInQueue(Exception):
    """The request's deadline had already passed when a worker picked it up."""


class RouteServer:
    """The composed serving tier: boot from a store, serve until stopped."""

    def __init__(
        self,
        store_root: str | Path,
        config: ServerConfig | None = None,
        *,
        settings: "RouterSettings | None" = None,
        clock: Clock = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServerConfig()
        self._clock = clock
        self._sleep = sleep
        self.faults = FaultInjector(enabled=self.config.enable_fault_injection)
        self.reloader = EngineReloader(
            store_root,
            settings=settings,
            default_method=self.config.default_method,
            poll_seconds=self.config.reload_poll_seconds,
            drain_timeout_seconds=self.config.drain_timeout_seconds,
            faults=self.faults,
            prewarm=self.config.prewarm,
            cache_bytes=self.config.cache_bytes,
        )
        inner = (
            ProcessBackend(self.config.workers) if self.config.backend == "process" else None
        )
        self.backend = ResilientBackend(
            inner,
            max_respawn_attempts=self.config.max_respawn_attempts,
            backoff_base_seconds=self.config.backoff_base_seconds,
            backoff_cap_seconds=self.config.backoff_cap_seconds,
            faults=self.faults,
            sleep=sleep,
        )
        self.admission = AdmissionController(
            self.config.max_concurrency,
            self.config.queue_limit,
            faults=self.faults,
            clock=clock,
        )
        self._lock = threading.Lock()
        self._httpd: _HTTPServer | None = None
        self._serve_thread: threading.Thread | None = None
        self._http_requests = 0
        self._deadline_exceeded = 0
        self._discarded_late_results = 0
        self._started_at = clock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RouteServer":
        """Bind the listening socket and start serving (idempotent)."""
        with self._lock:
            if self._httpd is not None:
                return self
            httpd = _HTTPServer((self.config.host, self.config.port), _Handler)
            httpd.route_server = self
            thread = threading.Thread(
                target=httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="repro-serve-http",
                daemon=True,
            )
            self._httpd = httpd
            self._serve_thread = thread
        self.reloader.start()
        thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting connections, drain the pools, release the workers."""
        with self._lock:
            httpd = self._httpd
            thread = self._serve_thread
            self._httpd = None
            self._serve_thread = None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=10.0)
        self.reloader.stop()
        self.admission.shutdown(wait=True)
        self.backend.close()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; raises unless :meth:`start` has run."""
        with self._lock:
            httpd = self._httpd
        if httpd is None:
            raise ConfigurationError("the server is not started; call start() first")
        host, port = httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self) -> "RouteServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Endpoint logic (transport-independent; the handler just dispatches)
    # ------------------------------------------------------------------ #
    def count_http_request(self) -> None:
        with self._lock:
            self._http_requests += 1

    def handle_route(self, body: bytes) -> tuple[int, object]:
        """``POST /route``: returns ``(http_status, wire_payload)``."""
        try:
            payload = strict_json_loads(body, what="route request body")
        except DataError as exc:
            return 400, _error_body("invalid_request", str(exc))
        single = isinstance(payload, dict)
        items: list[object] = [payload] if single else payload if isinstance(payload, list) else []
        if not items:
            return 400, _error_body(
                "invalid_request",
                "route body must be a request object or a non-empty array of them",
            )
        deadline = Deadline.after_ms(self._effective_deadline_ms(items), clock=self._clock)
        future = self.admission.admit(lambda: self._route_job(items, deadline))
        if future is None:
            hint = self.admission.retry_after_hint_ms()
            error = RouteError(
                "overloaded",
                f"server at capacity ({self.config.max_concurrency} running, "
                f"{self.config.queue_limit} queued); retry after {hint} ms",
                retry_after_ms=hint,
            )
            return 429, self._per_item(items, error, single)
        try:
            responses = future.result(timeout=max(0.0, deadline.remaining_seconds()))
        except TimeoutError:
            self._note_deadline_exceeded(future)
            error = RouteError(
                "deadline_exceeded",
                f"no result within the {deadline.budget_ms:g} ms deadline; "
                "any late result was discarded",
            )
            return 504, self._per_item(items, error, single)
        except _ExpiredInQueue:
            self._note_deadline_exceeded(None)
            error = RouteError(
                "deadline_exceeded",
                f"the {deadline.budget_ms:g} ms deadline expired while the request "
                "was still queued; routing was skipped",
            )
            return 504, self._per_item(items, error, single)
        except Exception as exc:  # noqa: BLE001 - transport boundary: answer, never raise
            error = RouteError("internal", f"request execution failed: {exc}")
            return 500, self._per_item(items, error, single)
        return 200, responses[0] if single else responses

    def _route_job(self, items: list[object], deadline: Deadline) -> list[dict]:
        """The admitted unit of work; a serial server queues for the search lock first."""
        with self.reloader.lease() as service:
            serial = self.config.backend == "serial"
            with service.engine.searching() if serial else nullcontext():
                if deadline.expired():
                    # Picked out of the queue too late: the answer could only
                    # be late, so skip the routing work entirely.
                    raise _ExpiredInQueue()
                if self.faults.take("delay-response"):
                    # Simulated slow routing: the handler times out at the
                    # deadline and the (late) result below is discarded.
                    self._sleep(self.faults.delay_seconds())
                responses = service.handle_batch(
                    cast("list[dict]", items), backend=self.backend
                )
        return [response.to_dict() for response in responses]

    def _effective_deadline_ms(self, items: list[object]) -> float:
        """The server's default deadline, tightened by any per-item budget."""
        budget_ms = self.config.default_deadline_ms
        for item in items:
            if isinstance(item, dict):
                value = item.get("deadline_ms")
                if isinstance(value, (int, float)) and not isinstance(value, bool) and value > 0:
                    budget_ms = min(budget_ms, float(value))
        return budget_ms

    @staticmethod
    def _per_item(items: list[object], error: RouteError, single: bool) -> object:
        """The same structured error for every request in the call, ids echoed."""
        responses = []
        for item in items:
            request_id = item.get("request_id") if isinstance(item, dict) else None
            responses.append(
                RouteResponse(
                    ok=False,
                    request_id=request_id if isinstance(request_id, str) else None,
                    error=error,
                ).to_dict()
            )
        return responses[0] if single else responses

    def _note_deadline_exceeded(self, future: "Future[list[dict]] | None") -> None:
        with self._lock:
            self._deadline_exceeded += 1
        if future is not None and not future.cancel():
            # The job is already running (or just finished): its result must
            # not be delivered late, only counted as discarded.
            future.add_done_callback(self._note_late_result)

    def _note_late_result(self, future: "Future[list[dict]]") -> None:
        if future.cancelled() or future.exception() is not None:
            return
        with self._lock:
            self._discarded_late_results += 1

    def stats(self) -> dict:
        """``GET /stats``: every serving subsystem's counters in one document."""
        with self.reloader.lease() as service:
            engine_stats = asdict(service.stats())
        with self._lock:
            http_requests = self._http_requests
            deadline_exceeded = self._deadline_exceeded
            discarded = self._discarded_late_results
        return {
            "server": {
                "uptime_seconds": self._clock() - self._started_at,
                "http_requests": http_requests,
                "default_method": self.config.default_method,
            },
            "engine": engine_stats,
            "admission": self.admission.snapshot(),
            "deadlines": {
                "default_deadline_ms": self.config.default_deadline_ms,
                "deadline_exceeded": deadline_exceeded,
                "discarded_late_results": discarded,
            },
            "resilience": self.backend.snapshot(),
            "reload": self.reloader.snapshot(),
            "faults": self.faults.snapshot(),
        }

    def health(self) -> tuple[int, dict]:
        """``GET /healthz``: 200 only when nothing is degraded."""
        backend_healthy = self.backend.healthy()
        reload_healthy = self.reloader.healthy()
        healthy = backend_healthy and reload_healthy
        return 200 if healthy else 503, {
            "status": "ok" if healthy else "degraded",
            "backend_healthy": backend_healthy,
            "reload_healthy": reload_healthy,
            "resilience": self.backend.snapshot(),
            "reload": self.reloader.snapshot(),
        }

    def handle_faults(self, body: bytes) -> tuple[int, object]:
        """``POST /faults``: arm or disarm chaos (only when enabled)."""
        if not self.faults.enabled:
            return 404, _error_body(
                "invalid_request",
                "fault injection is disabled; start the server with --enable-fault-injection",
            )
        try:
            payload = strict_json_loads(body, what="fault request body")
        except DataError as exc:
            return 400, _error_body("invalid_request", str(exc))
        if not isinstance(payload, dict):
            return 400, _error_body("invalid_request", "fault body must be a JSON object")
        try:
            if payload.get("disarm"):
                self.faults.disarm_all()
            else:
                fault = payload.get("fault")
                if not isinstance(fault, str):
                    raise ConfigurationError("fault body needs a string 'fault' field")
                count = payload.get("count", 1)
                if isinstance(count, bool) or not isinstance(count, int):
                    raise ConfigurationError("'count' must be an integer")
                delay = payload.get("delay_seconds")
                if delay is not None and (
                    isinstance(delay, bool) or not isinstance(delay, (int, float))
                ):
                    raise ConfigurationError("'delay_seconds' must be a number")
                self.faults.arm(
                    fault, count=count, delay_seconds=None if delay is None else float(delay)
                )
        except ConfigurationError as exc:
            return 400, _error_body("invalid_request", str(exc))
        return 200, self.faults.snapshot()


def _error_body(code: str, message: str) -> dict:
    """A whole-call structured failure (nothing was routed)."""
    return {"ok": False, "error": RouteError(code, message).to_dict()}


class _HTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the backref handlers dispatch through."""

    daemon_threads = True
    route_server: RouteServer


class _Handler(BaseHTTPRequestHandler):
    """Thin dispatch onto :class:`RouteServer`; all logic lives there."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1.0"
    # The headers and the body go out in separate writes; with Nagle's
    # algorithm on, a keep-alive client's delayed ACK holds the body back
    # by tens of milliseconds.
    disable_nagle_algorithm = True

    @property
    def _route_server(self) -> RouteServer:
        return cast(_HTTPServer, self.server).route_server

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        """Silence the default stderr access log; /stats is the observable."""

    def _send_json(self, status: int, payload: object, *, close: bool = False) -> None:
        data = strict_json_dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            # Also sets close_connection: the unread body must not be
            # parsed as the next request on this connection.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _dispatch(self, handler: Callable[[], tuple[int, object]]) -> None:
        try:
            status, payload = handler()
            self._send_json(status, payload)
        except Exception as exc:  # noqa: BLE001 - never leak a traceback to the wire
            try:
                self._send_json(500, _error_body("internal", f"unexpected failure: {exc}"))
            except OSError:  # pragma: no cover - client already gone
                pass

    def _reject(self, status: int, message: str) -> None:
        """Answer a request whose body cannot be read, and close the connection."""
        try:
            self._send_json(status, _error_body("invalid_request", message), close=True)
        except OSError:  # pragma: no cover - client already gone
            self.close_connection = True

    def _read_body(self) -> bytes | None:
        """The request body, or ``None`` (already answered) when unreadable.

        A ``Content-Length`` that is not a non-negative integer is a 400, an
        oversized one a 413, and a body that does not arrive in full within
        ``default_deadline_ms`` a 408; each closes the connection.  Only the
        body read is bounded — an idle keep-alive connection waits as before.
        """
        config = self._route_server.config
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            self._reject(400, f"invalid Content-Length {header!r}")
            return None
        if length > config.max_body_bytes:
            self._reject(
                413,
                f"request body of {length} bytes exceeds the "
                f"{config.max_body_bytes} byte limit",
            )
            return None
        deadline = Deadline.after_ms(config.default_deadline_ms)
        chunks: list[bytes] = []
        received = 0
        try:
            while received < length and not deadline.expired():
                self.connection.settimeout(deadline.remaining_seconds())
                chunk = self.rfile.read1(length - received)
                if not chunk:
                    break
                chunks.append(chunk)
                received += len(chunk)
        except OSError:  # the socket timed out (TimeoutError) or broke
            pass
        finally:
            self.connection.settimeout(self.timeout)
        if received < length:
            self._reject(
                408,
                f"received {received} of {length} body bytes within the "
                f"{config.default_deadline_ms:g} ms deadline",
            )
            return None
        return b"".join(chunks)

    def do_GET(self) -> None:
        self._route_server.count_http_request()
        path = self.path.split("?", 1)[0]
        if path == "/stats":
            self._dispatch(lambda: (200, self._route_server.stats()))
        elif path == "/healthz":
            self._dispatch(self._route_server.health)
        else:
            self._dispatch(lambda: (404, _error_body("not_found", f"unknown path {path!r}")))

    def do_POST(self) -> None:
        self._route_server.count_http_request()
        path = self.path.split("?", 1)[0]
        body = self._read_body()
        if body is None:
            return
        if path == "/route":
            self._dispatch(lambda: self._route_server.handle_route(body))
        elif path == "/faults":
            self._dispatch(lambda: self._route_server.handle_faults(body))
        else:
            self._dispatch(lambda: (404, _error_body("not_found", f"unknown path {path!r}")))
