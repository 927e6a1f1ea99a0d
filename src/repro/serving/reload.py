"""Graceful hot reload: swap the served engine when its artifact store changes.

The offline pipeline (``repro pipeline``) periodically re-mines a city and
republishes its :class:`~repro.persistence.store.ArtifactStore`; a long-lived
server should pick the new build up **without dropping a request**.
:class:`EngineReloader` owns the live :class:`~repro.routing.service.RoutingService`
and makes that safe:

* change detection is the store's *manifest fingerprint* (a checksum of the
  manifest bytes).  Writers replace the manifest atomically and **last**, so
  a changed fingerprint means a complete new build is on disk — the watcher
  never boots off a half-written store;
* on change, the new engine is booted **off the request path** (in the poll
  thread), then swapped in atomically under a lock.  Request handlers hold a
  :meth:`lease` on the generation they started with, and the old generation
  is drained (waited idle) after the swap — in-flight requests finish on the
  engine that admitted them;
* a reload that fails to boot — corrupt artifact, truncated file, the
  injected ``corrupt-reload`` fault — **keeps the old engine serving**,
  counts the failure and surfaces the error on ``/healthz``; it is retried on
  every subsequent poll, so fixing the store heals the server with no
  restart.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from repro.persistence.store import ArtifactStore, StoreSummary
from repro.routing.engine import RoutingEngine
from repro.routing.service import RoutingService
from repro.serving.faults import FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.engine import RouterSettings

__all__ = ["EngineReloader"]


class _Generation:
    """One booted engine plus the count of requests still running on it."""

    def __init__(
        self,
        number: int,
        service: RoutingService,
        fingerprint: str | None,
        summary: StoreSummary | None = None,
    ) -> None:
        self.number = number
        self.service = service
        self.fingerprint = fingerprint
        #: The StoreSummary the generation booted from (None when the
        #: manifest vanished between the fingerprint check and the boot).
        self.summary = summary
        self._lock = threading.Lock()
        self._active = 0
        self._idle = threading.Event()
        self._idle.set()

    def acquire(self) -> None:
        with self._lock:
            self._active += 1
            self._idle.clear()

    def release(self) -> None:
        with self._lock:
            self._active = max(0, self._active - 1)
            if self._active == 0:
                self._idle.set()

    def active(self) -> int:
        with self._lock:
            return self._active

    def drain(self, timeout: float | None) -> bool:
        """Wait until no request still runs on this generation."""
        return self._idle.wait(timeout)


class EngineReloader:
    """Owns the live service and swaps it when the artifact store republishes."""

    def __init__(
        self,
        store_root: str | Path,
        *,
        settings: "RouterSettings | None" = None,
        default_method: str = "V-BS-60",
        poll_seconds: float = 2.0,
        drain_timeout_seconds: float = 30.0,
        faults: FaultInjector | None = None,
        prewarm: str = "all",
        cache_bytes: int | None = None,
    ) -> None:
        self.store_root = str(store_root)
        self.poll_seconds = poll_seconds
        self.drain_timeout_seconds = drain_timeout_seconds
        self._settings = settings
        self._default_method = default_method
        self._prewarm = prewarm
        self._cache_bytes = cache_bytes
        self._faults = faults or FaultInjector()
        self._stop = threading.Event()
        self._lock = threading.Lock()
        # Fail fast at boot: a server that cannot load its store should not
        # start.  Reload failures after this point keep the old engine.  The
        # summary is the same store accessor the fleet catalog syncs from —
        # one manifest read yields the change-detection fingerprint plus the
        # identity /stats surfaces (format version, graph fingerprints).
        summary = ArtifactStore(self.store_root).summary()
        self._current = _Generation(1, self._boot(), summary.manifest_fingerprint, summary)
        self._poll_thread: threading.Thread | None = None
        self._reloads = 0
        self._reload_failures = 0
        self._last_error: str | None = None

    def _boot(self) -> RoutingService:
        engine = RoutingEngine.from_artifacts(
            self.store_root,
            settings=self._settings,
            prewarm=self._prewarm,
            cache_bytes=self._cache_bytes,
        )
        # Pay the one-time frontier-accelerator flattening at (re)boot, not
        # on the first query after a generation swap.
        engine.build_accelerators()
        return RoutingService(engine, default_method=self._default_method)

    # ------------------------------------------------------------------ #
    # Request-path API
    # ------------------------------------------------------------------ #
    @contextmanager
    def lease(self) -> Iterator[RoutingService]:
        """The current service, pinned for the duration of one request.

        A swap that happens mid-request does not affect the leased service;
        the old generation is only retired once every lease on it is released.
        """
        with self._lock:
            generation = self._current
            generation.acquire()
        try:
            yield generation.service
        finally:
            generation.release()

    @property
    def service(self) -> RoutingService:
        """The current service (unpinned — prefer :meth:`lease` on request paths)."""
        with self._lock:
            return self._current.service

    @property
    def generation(self) -> int:
        """The swap count of the live engine (1 = the boot engine)."""
        with self._lock:
            return self._current.number

    # ------------------------------------------------------------------ #
    # Reload machinery
    # ------------------------------------------------------------------ #
    def poll_once(self) -> bool:
        """Check the store once; swap if it changed.  Returns ``True`` on swap."""
        fingerprint = ArtifactStore(self.store_root).manifest_fingerprint()
        with self._lock:
            current_fingerprint = self._current.fingerprint
        if fingerprint is None:
            # The manifest vanished or turned unreadable under us.  The loaded
            # engine is self-contained, so keep serving it — but say so.
            with self._lock:
                self._last_error = (
                    f"artifact store manifest at {self.store_root} is unreadable; "
                    "still serving the previously loaded engine"
                )
            return False
        if fingerprint == current_fingerprint:
            with self._lock:
                self._last_error = None
            return False
        try:
            if self._faults.take("corrupt-reload"):
                raise OSError("fault injection: corrupt-reload armed, boot aborted")
            summary = ArtifactStore(self.store_root).summary()
            service = self._boot()
        except Exception as exc:  # noqa: BLE001 - any boot failure keeps the old engine
            with self._lock:
                self._reload_failures += 1
                self._last_error = f"reload from {self.store_root} failed: {exc}"
            return False
        with self._lock:
            old = self._current
            # The summary's fingerprint, not the probe's: the two reads can
            # straddle a republish, and the summary is what actually booted.
            self._current = _Generation(
                old.number + 1, service, summary.manifest_fingerprint, summary
            )
            self._reloads += 1
            self._last_error = None
        # Drain outside the lock: new requests already land on the new
        # generation; we only wait for stragglers on the old one.
        old.drain(self.drain_timeout_seconds)
        return True

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_seconds):
            try:
                self.poll_once()
            except Exception as exc:  # noqa: BLE001 - the watcher must not die
                with self._lock:
                    self._last_error = f"reload poll failed: {exc}"

    def start(self) -> None:
        """Start the background store watcher (idempotent)."""
        with self._lock:
            if self._poll_thread is not None:
                return
            thread = threading.Thread(
                target=self._poll_loop, name="repro-serve-reload", daemon=True
            )
            self._poll_thread = thread
        self._stop.clear()
        thread.start()

    def stop(self) -> None:
        """Stop the watcher and wait for it to exit."""
        self._stop.set()
        with self._lock:
            thread = self._poll_thread
            self._poll_thread = None
        if thread is not None:
            thread.join(timeout=10.0)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def healthy(self) -> bool:
        """True while the last poll saw a loadable, current store."""
        with self._lock:
            return self._last_error is None

    def snapshot(self) -> dict:
        """Reload state for ``/stats`` and ``/healthz``."""
        with self._lock:
            summary = self._current.summary
            return {
                "store": self.store_root,
                "generation": self._current.number,
                "manifest_fingerprint": self._current.fingerprint,
                "store_format_version": (
                    None if summary is None else summary.index_format_version
                ),
                "pace_fingerprint": None if summary is None else summary.pace_fingerprint,
                "active_leases": self._current.active(),
                "reloads": self._reloads,
                "reload_failures": self._reload_failures,
                "last_error": self._last_error,
                "watching": self._poll_thread is not None,
            }
