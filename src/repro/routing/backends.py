"""Execution backends for batch routing: serial and processes.

:meth:`repro.routing.engine.RoutingEngine.route_many` separates *what* a batch
means (per-query results identical to one :meth:`~RoutingEngine.route` call
per query) from *how* it is executed.  A backend receives the engine, the
parsed :class:`~repro.routing.methods.MethodSpec` and the query batch, and
returns results **in input order**:

* :class:`SerialBackend` — one destination-grouped pass in the calling thread
  (the default; heuristics stay hot across same-destination queries), and
* :class:`ProcessBackend` — fan-out over worker *processes*.  The pure-Python
  best-first search loops are GIL-bound, so threads cannot scale them;
  processes can, but they cannot share live graph objects.  Each worker
  therefore initialises once from the engine's :data:`EngineSpec` — either a
  :class:`DatasetRecipe` (re-run generation and T-path mining; deterministic,
  verified via the content fingerprint) or an :class:`ArtifactRef` (load the
  persisted index and heuristics from an on-disk
  :class:`~repro.persistence.store.ArtifactStore`, fingerprint-verified, zero
  rebuilds) — and then answers destination-grouped chunks.

Every backend preserves input order and result parity with the serial
evaluation, because each router's search is deterministic given its
(deterministically built or loaded) heuristic.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.errors import ConfigurationError, DataError
from repro.routing.methods import MethodSpec
from repro.routing.queries import RoutingQuery, RoutingResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.routing.engine import RouterSettings, RoutingEngine

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "DatasetRecipe",
    "ArtifactRef",
    "EngineSpec",
    "destination_grouped_order",
    "balanced_destination_chunks",
]


def destination_grouped_order(queries: Sequence[RoutingQuery]) -> list[int]:
    """Query indices sorted by destination (ties keep input order).

    Batches are evaluated grouped by destination so each destination-specific
    heuristic is built (or loaded) once and stays hot for all its queries.
    """
    return sorted(range(len(queries)), key=lambda i: (queries[i].destination, i))


def _destination_chunks(queries: Sequence[RoutingQuery], order: Sequence[int]) -> list[list[int]]:
    """Split a destination-grouped order into per-destination index chunks."""
    chunks: list[list[int]] = []
    current_destination: int | None = None
    for index in order:
        destination = queries[index].destination
        if not chunks or destination != current_destination:
            chunks.append([])
            current_destination = destination
        chunks[-1].append(index)
    return chunks


def balanced_destination_chunks(
    queries: Sequence[RoutingQuery], order: Sequence[int], workers: int
) -> list[list[int]]:
    """Per-destination chunks, with dominant destinations split across workers.

    Purely per-destination chunking leaves workers idle on skewed batches: one
    hot destination (a stadium after the match, the airport at 6 am) forms a
    single chunk that serialises on one worker while the others finish their
    small chunks and wait.  Any chunk larger than an even per-worker share
    (``ceil(len(order) / workers)``) is therefore split into shares, so a hot
    destination spreads over idle workers.  Splitting never interleaves
    destinations — every piece still holds queries of exactly one destination,
    so each worker builds (or loads) at most one heuristic per piece; with
    heuristics prewarmed from an artifact store the extra per-worker lookup
    is free.  Chunks are returned longest first (LPT) so the
    largest pieces are scheduled before the pool fills up.
    """
    chunks = _destination_chunks(queries, order)
    if workers > 1:
        share = -(-len(order) // workers)  # ceil division
        split: list[list[int]] = []
        for chunk in chunks:
            if len(chunk) <= share:
                split.append(chunk)
            else:
                split.extend(chunk[start : start + share] for start in range(0, len(chunk), share))
        chunks = split
    chunks.sort(key=len, reverse=True)
    return chunks


@runtime_checkable
class ExecutionBackend(Protocol):
    """How a batch of routing queries is executed.

    Implementations must return one :class:`RoutingResult` per query, aligned
    with the input order, and must propagate (not swallow) the first failure.
    """

    def run(
        self,
        engine: "RoutingEngine",
        method: MethodSpec,
        queries: Sequence[RoutingQuery],
    ) -> list[RoutingResult]:
        """Evaluate ``queries`` with ``method`` on ``engine``, in input order."""
        ...  # pragma: no cover - protocol


class SerialBackend:
    """Destination-grouped evaluation in the calling thread, holding the engine's search lock."""

    def run(
        self,
        engine: "RoutingEngine",
        method: MethodSpec,
        queries: Sequence[RoutingQuery],
    ) -> list[RoutingResult]:
        router = engine.router(method)
        results: list[RoutingResult | None] = [None] * len(queries)
        with engine.searching():
            for index in destination_grouped_order(queries):
                results[index] = router.route(queries[index])
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return "SerialBackend()"


@dataclass(frozen=True)
class DatasetRecipe:
    """A serialisable recipe that *re-mines* a :class:`RoutingEngine` anywhere.

    The recipe names one of the bundled deterministic datasets and the offline
    pipeline parameters; :meth:`build_engine` re-runs generation, T-path
    mining and (optionally) the V-path closure, producing graphs whose
    :meth:`~repro.core.pace_graph.PaceGraph.content_fingerprint` matches any
    other engine built from the same recipe — which is what lets multiprocess
    workers share heuristic cache keys and persisted entries with the parent
    process.  Re-mining is the right tool for tests and experiments; a
    deployment should mine once, persist the results with
    :meth:`~repro.routing.engine.RoutingEngine.save_artifacts` and boot
    workers from the resulting :class:`ArtifactRef` instead.
    """

    dataset: str
    regime: str = "peak"
    tau: int = 20
    resolution: float = 5.0
    max_cardinality: int = 4
    build_vpaths: bool = True

    def build_engine(self, settings: "RouterSettings | None" = None) -> "RoutingEngine":
        """Generate the dataset, mine the models and wrap them in an engine."""
        from repro.datasets.synthetic import dataset_by_name
        from repro.routing.engine import RoutingEngine
        from repro.tpaths.extraction import TPathMinerConfig, build_pace_graph
        from repro.vpaths.updated_graph import UpdatedPaceGraph

        dataset = dataset_by_name(self.dataset)
        trajectories = list(dataset.regime(self.regime))
        pace = build_pace_graph(
            dataset.network,
            trajectories,
            TPathMinerConfig(
                tau=self.tau,
                max_cardinality=self.max_cardinality,
                resolution=self.resolution,
            ),
        )
        updated = None
        if self.build_vpaths:
            updated, _ = UpdatedPaceGraph.build(pace)
        return RoutingEngine(
            pace,
            updated,
            settings=settings,
            spec=self,
            provenance={
                "source": "recipe",
                "dataset": dataset.provenance(),
                "regime": self.regime,
                "tau": self.tau,
            },
        )


@dataclass(frozen=True)
class ArtifactRef:
    """A pointer to an on-disk :class:`~repro.persistence.store.ArtifactStore`.

    The artifact counterpart of :class:`DatasetRecipe`: instead of re-running
    the offline pipeline, :meth:`build_engine` loads the persisted index (and
    any persisted heuristics) from the store at ``path`` — cold-starting in
    seconds instead of re-mining minutes, which is what lets a deployment
    mine once and fan out many workers.  The optional expected fingerprints
    pin the ref to specific graph *content*: a parent engine hands workers a
    ref carrying its own fingerprints, and a worker whose store was swapped
    or corrupted fails loudly instead of serving a different city.
    """

    path: str
    pace_fingerprint: str | None = None
    updated_fingerprint: str | None = None
    #: Boot-time residency policy, mirrored into every worker this ref
    #: spawns: which persisted heuristics to make resident up front
    #: (``"all"``, ``"none"`` or a tuple of store entry keys) and the
    #: resident tier's byte budget (``None`` = unbounded).  Kept hashable
    #: (tuple, not list) because worker-pool respawn decisions compare refs.
    prewarm: "str | tuple[str, ...]" = "all"
    cache_bytes: int | None = None

    def build_engine(self, settings: "RouterSettings | None" = None) -> "RoutingEngine":
        """Load the engine from the artifact store, verifying fingerprints."""
        from repro.routing.engine import RoutingEngine

        engine = RoutingEngine.from_artifacts(
            self.path,
            settings=settings,
            prewarm=self.prewarm,
            cache_bytes=self.cache_bytes,
        )
        if (
            self.pace_fingerprint is not None
            and engine.pace_graph.content_fingerprint() != self.pace_fingerprint
        ):
            raise DataError(
                f"artifact store {self.path} holds a different PACE graph than this "
                f"ref expects (content fingerprint "
                f"{engine.pace_graph.content_fingerprint()} != {self.pace_fingerprint})"
            )
        if self.updated_fingerprint is not None and (
            engine.updated_graph is None
            or engine.updated_graph.content_fingerprint() != self.updated_fingerprint
        ):
            raise DataError(
                f"artifact store {self.path} holds a different V-path closure than "
                f"this ref expects (fingerprint {self.updated_fingerprint})"
            )
        return engine


#: Everything a :class:`RoutingEngine` can be (re)built from: re-mine from a
#: deterministic dataset recipe, or boot from a persisted artifact store.
EngineSpec = DatasetRecipe | ArtifactRef


@dataclass(frozen=True)
class _WorkerConfig:
    """Everything a worker process needs to become a routing engine."""

    spec: EngineSpec
    settings: "RouterSettings"
    pace_fingerprint: str | None
    updated_fingerprint: str | None


#: Per-process engine, populated once by :func:`_initialise_worker`.
_worker_engine: "RoutingEngine | None" = None


def _initialise_worker(config: _WorkerConfig) -> None:
    """Build this worker process's engine, once."""
    global _worker_engine
    engine = config.spec.build_engine(settings=config.settings)
    if (
        config.pace_fingerprint is not None
        and engine.pace_graph.content_fingerprint() != config.pace_fingerprint
    ):
        raise DataError(
            f"worker built a different PACE graph from spec {config.spec!r}: "
            "the spec does not reproduce the parent engine's graphs"
        )
    if config.updated_fingerprint is not None and (
        engine.updated_graph is None
        or engine.updated_graph.content_fingerprint() != config.updated_fingerprint
    ):
        raise DataError(
            f"worker built a different V-path closure from spec {config.spec!r}: "
            "the spec does not reproduce the parent engine's graphs"
        )
    engine.build_accelerators()
    _worker_engine = engine


def _route_chunk(method_name: str, queries: list[RoutingQuery]) -> list[RoutingResult]:
    """Answer one destination-grouped chunk on this worker's engine."""
    if _worker_engine is None:  # pragma: no cover - initializer always ran first
        raise RuntimeError("routing worker used before initialisation")
    return [_worker_engine.route(query, method=method_name) for query in queries]


def _worker_ping() -> int:
    """A trivial round-trip proving a worker is alive and initialised."""
    return os.getpid()


def _crash_worker() -> None:  # pragma: no cover - runs (and dies) in a worker
    """Kill the worker process that picks this task up — fault injection only.

    ``os._exit`` skips every ``finally``/``atexit`` hook, exactly like a
    segfault or an OOM kill would, so the parent observes a genuine
    ``BrokenProcessPool``, not a polite exception.
    """
    os._exit(3)


class ProcessBackend:
    """Worker-process fan-out for the GIL-bound pure-Python search loops.

    Workers are spawned lazily on the first :meth:`run` and **kept alive**
    across batches (the pool is the unit of serving, like the paper's
    offline/online split): each worker initialises exactly once from the
    parent engine's :data:`EngineSpec` — re-mining from a
    :class:`DatasetRecipe`, or cold-booting the persisted index and
    heuristics from an :class:`ArtifactRef` with zero rebuilds; either way
    verified against the parent's graph content fingerprints — so
    steady-state batches pay only for routing.  Use :meth:`close` (or a ``with`` block) to
    release the workers.

    A query failing in a worker propagates its exception to the caller (the
    pool survives); a worker failing to initialise surfaces as a
    ``BrokenProcessPool`` instead of hanging the batch.
    """

    def __init__(
        self,
        workers: int = 4,
        *,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"ProcessBackend needs at least 1 worker, got {workers}")
        self.workers = workers
        self.start_method = start_method
        self._pool: ProcessPoolExecutor | None = None
        self._pool_config: _WorkerConfig | None = None
        self._generation = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Pool lifecycle
    # ------------------------------------------------------------------ #
    def _worker_config(self, engine: "RoutingEngine") -> _WorkerConfig:
        spec = engine.spec
        if spec is None:
            raise ConfigurationError(
                "ProcessBackend workers rebuild the engine in their own process, which "
                "needs a serialisable spec: construct the engine via "
                "DatasetRecipe(...).build_engine(), RoutingEngine.from_artifacts(store), "
                "or RoutingEngine(..., spec=...)."
            )
        return _WorkerConfig(
            spec=spec,
            settings=engine.settings,
            pace_fingerprint=engine.pace_graph.content_fingerprint(),
            updated_fingerprint=(
                None
                if engine.updated_graph is None
                else engine.updated_graph.content_fingerprint()
            ),
        )

    def _ensure_pool(self, engine: "RoutingEngine") -> ProcessPoolExecutor:
        config = self._worker_config(engine)
        with self._lock:
            if self._pool is not None and self._pool_config != config:
                # The backend was handed a different engine; old workers answer
                # for the wrong graphs, so start over.
                self._pool.shutdown(wait=True)
                self._pool = None
            if self._pool is None:
                context = multiprocessing.get_context(self.start_method)
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=context,
                    initializer=_initialise_worker,
                    initargs=(config,),
                )
                self._pool_config = config
            return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
                self._pool_config = None

    # ------------------------------------------------------------------ #
    # Respawn hooks (the serving tier's recovery path; see repro.serving)
    # ------------------------------------------------------------------ #
    @property
    def generation(self) -> int:
        """How many times the pool has been discarded for a fresh spawn."""
        with self._lock:
            return self._generation

    def respawn(self) -> int:
        """Discard the current pool so the next :meth:`run` spawns a fresh one.

        The supervisor's recovery hook after a ``BrokenProcessPool``: a broken
        executor can never accept work again, so the only way back to process
        fan-out is a new pool.  The old executor is shut down without waiting
        (its futures are already failed); returns the new generation number.
        """
        with self._lock:
            pool = self._pool
            self._pool = None
            self._pool_config = None
            self._generation += 1
            generation = self._generation
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        return generation

    def ensure_ready(self, engine: "RoutingEngine", *, timeout: float | None = 60.0) -> int:
        """Spawn the pool for ``engine`` (if needed) and prove a worker answers.

        Initialisation failures (a worker that cannot rebuild the engine, a
        store that vanished) surface here — as ``BrokenProcessPool`` — instead
        of on the first real batch, which is what lets a respawn loop probe
        health without risking caller traffic.  Returns the answering worker's
        pid.
        """
        pool = self._ensure_pool(engine)
        return pool.submit(_worker_ping).result(timeout=timeout)

    def kill_one_worker(self, *, wait: bool = True, timeout: float = 30.0) -> bool:
        """Hard-kill one live worker process (fault injection only).

        Submits a task that ``os._exit``\\ s whichever worker picks it up, so
        the pool genuinely breaks the way it would under a segfault or OOM
        kill.  Returns ``False`` when no pool is live (nothing to kill).  With
        ``wait`` the call blocks until the executor has noticed the death, so
        callers can deterministically exercise the broken-pool path.
        """
        with self._lock:
            pool = self._pool
        if pool is None:
            return False
        future = pool.submit(_crash_worker)
        if wait:
            try:
                future.result(timeout=timeout)
            except (BrokenProcessPool, TimeoutError):
                pass  # BrokenProcessPool is the expected outcome of the kill
        return True

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        engine: "RoutingEngine",
        method: MethodSpec,
        queries: Sequence[RoutingQuery],
    ) -> list[RoutingResult]:
        pool = self._ensure_pool(engine)
        order = destination_grouped_order(queries)
        chunks = balanced_destination_chunks(queries, order, self.workers)
        futures = [
            pool.submit(_route_chunk, method.canonical_name, [queries[i] for i in chunk])
            for chunk in chunks
        ]
        results: list[RoutingResult | None] = [None] * len(queries)
        for chunk, future in zip(chunks, futures):
            for index, result in zip(chunk, future.result()):
                # Workers return pickled copies; rebind each result to the
                # caller's query object so identity semantics match the
                # serial backend.
                results[index] = replace(result, query=queries[index])
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"
