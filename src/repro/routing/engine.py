"""Router factory and batch routing engine.

The evaluation compares a fixed palette of methods (Section 5.1); the
structured form of a method — which graph, which heuristic family, which δ —
is :class:`~repro.routing.methods.MethodSpec`, and every entry point here
accepts a spec or its paper-style name (``"V-BS-60"``) interchangeably.
:func:`create_router` maps a method onto a configured router instance so the
evaluation harness, the examples and user code all build methods the same way.

:class:`RoutingEngine` is the serving facade on top of the factory: it owns
one PACE graph (plus its V-path closure), builds routers lazily, and shares a
single destination-keyed :class:`HeuristicCache` across *all* of them, so the
expensive destination-specific pre-computations (reverse shortest-path trees,
Eq. 5 budget tables) are built once per destination rather than once per
router instance.  Cache keys and persisted heuristic entries are keyed by the
graphs' *content fingerprints* rather than object identity, which makes them
portable: any engine over structurally identical graphs — another engine
instance, another process rebuilt from the same
:class:`~repro.routing.backends.EngineSpec` — shares them without rebuilding.

Batches enter through :meth:`RoutingEngine.route_many`, whose execution
strategy is pluggable via :mod:`repro.routing.backends` (serial or a
multiprocess worker pool); results are identical to routing each query
alone, in input order.  :meth:`RoutingEngine.stats`
reports serving introspection (cache hits/misses, heuristic build seconds,
per-method query counts, engine provenance).

:meth:`RoutingEngine.save_artifacts` / :meth:`RoutingEngine.from_artifacts`
are the deployment cycle: persist the graphs and every cached heuristic into
a content-addressed :class:`~repro.persistence.store.ArtifactStore` once,
then cold-boot serving engines — and multiprocess workers — from it with
fingerprint verification and zero rebuilds.
"""

from __future__ import annotations

import threading
import time
import warnings
from collections import Counter, OrderedDict
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ConfigurationError, DataError
from repro.core.pace_graph import PaceGraph
from repro.heuristics.base import Heuristic
from repro.heuristics.binary import (
    EdgeOnlyBinaryHeuristic,
    EuclideanBinaryHeuristic,
    PaceBinaryHeuristic,
)
from repro.heuristics.budget import BudgetSpecificHeuristic
from repro.persistence.heuristics import HeuristicEntry, HeuristicSlot
from repro.routing.accel import accelerator_for
from repro.routing.backends import ExecutionBackend, SerialBackend
from repro.routing.methods import METHOD_NAMES, MethodSpec
from repro.routing.residency import (
    CacheCounters,
    PrewarmPolicy,
    heuristic_nbytes,
    normalise_prewarm,
)
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.settings import RouterSettings
from repro.routing.tpath_routing import HeuristicPaceRouter
from repro.routing.vpath_routing import VPathRouter
from repro.vpaths.updated_graph import UpdatedPaceGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.persistence.store import ArtifactManifest

__all__ = [
    "RouterSettings",
    "METHOD_NAMES",
    "MethodSpec",
    "create_router",
    "HeuristicCache",
    "CacheCounters",
    "EngineStats",
    "RoutingEngine",
    "StoreMigration",
    "migrate_store",
]


class HeuristicCache:
    """Two-tier destination-keyed cache of heuristic instances.

    Heuristics are destination-specific pre-computations (Section 3).  Without
    sharing, every router instance pays for its own copies: ``T-B-P`` and
    ``V-B-P`` each build the same reverse shortest-path tree, and every
    ``BudgetSpecificHeuristic`` Bellman table is rebuilt per router.  The cache
    is keyed by ``(heuristic kind, graph content fingerprint, destination)``
    so different heuristic families and graphs never collide — and because
    the fingerprint depends only on graph *content*, keys are meaningful
    across engines and across processes, not just for one object graph.  It
    is thread-safe so a worker pool can share it, and it is the only holder
    of heuristics: routers keep none and look theirs up here on every query.

    The *resident* tier is this in-memory map, optionally bounded to
    ``cache_bytes`` (:func:`~repro.routing.residency.heuristic_nbytes` per
    entry) with least-recently-used eviction; ``None`` keeps everything
    resident, which is the classic unbounded behaviour.  The optional
    *fault* tier is a loader (:meth:`set_loader`) consulted before the
    builder on every miss — the engine points it at the artifact store's
    per-entry documents, so a miss for a persisted destination streams the
    table from disk instead of re-running the offline computation.  An
    entry larger than the whole budget is served un-cached (build or fault
    again next time) with a loud :class:`RuntimeWarning` rather than
    silently evicting everything else.
    """

    def __init__(self, *, cache_bytes: int | None = None) -> None:
        if cache_bytes is not None and cache_bytes <= 0:
            raise ConfigurationError(
                f"cache_bytes must be a positive byte budget or None (unbounded), "
                f"got {cache_bytes!r}"
            )
        self._cache_bytes = cache_bytes
        self._entries: OrderedDict[tuple, Heuristic] = OrderedDict()
        self._sizes: dict[tuple, int] = {}
        self._lock = threading.Lock()
        self._building: dict[tuple, threading.Lock] = {}
        self._loader: Callable[[tuple], Heuristic | None] | None = None
        self._oversize_warned: set[tuple] = set()
        self.hits = 0
        self.misses = 0
        self.faults = 0
        self.evictions = 0
        self.resident_bytes = 0
        self.build_seconds = 0.0

    @property
    def cache_bytes(self) -> int | None:
        """The resident-tier byte budget (``None`` = unbounded)."""
        return self._cache_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def counters(self) -> CacheCounters:
        """One consistent :class:`~repro.routing.residency.CacheCounters` snapshot.

        Readers that want more than one counter must take them together:
        reading ``hits`` and ``misses`` in two unlocked steps can observe a
        miss that has been counted while its entry is still being inserted.
        """
        with self._lock:
            return CacheCounters(
                entries=len(self._entries),
                hits=self.hits,
                misses=self.misses,
                faults=self.faults,
                evictions=self.evictions,
                resident_bytes=self.resident_bytes,
                build_seconds=self.build_seconds,
            )

    def set_loader(self, loader: Callable[[tuple], Heuristic | None] | None) -> None:
        """Attach the fault tier: ``loader(key)`` returns a persisted heuristic
        or ``None`` when the key has no (admissible) persisted entry.  A
        loader signalling corruption must raise
        :class:`~repro.core.errors.DataError`; the cache propagates it and
        stays consistent (nothing is inserted, later lookups retry).
        """
        with self._lock:
            self._loader = loader

    def insert(self, key: tuple, heuristic: Heuristic) -> None:
        """Seed the cache with an already built heuristic (e.g. loaded from disk).

        Counts as neither a hit nor a miss; subsequent :meth:`get_or_build`
        calls for ``key`` are hits and never invoke their builder.  Budget
        accounting and eviction apply exactly as for built entries.
        """
        with self._lock:
            warn_size = self._admit_locked(key, heuristic)
        self._warn_oversize(key, warn_size)

    def _admit_locked(self, key: tuple, heuristic: Heuristic) -> int | None:
        """Store ``heuristic`` under ``key`` and evict down to budget.

        Caller holds ``self._lock``.  Returns the entry's size when it
        exceeds the whole budget and was *not* stored (the caller warns
        outside the lock; ``None`` otherwise).
        """
        size = heuristic_nbytes(heuristic)
        budget = self._cache_bytes
        if budget is not None and size > budget:
            if key in self._oversize_warned:
                return None
            self._oversize_warned.add(key)
            return size
        previous = self._sizes.pop(key, None)
        if previous is not None:
            self.resident_bytes -= previous
        self._entries[key] = heuristic
        self._entries.move_to_end(key)
        self._sizes[key] = size
        self.resident_bytes += size
        while budget is not None and self.resident_bytes > budget:
            evicted_key, _ = self._entries.popitem(last=False)
            self.resident_bytes -= self._sizes.pop(evicted_key)
            self.evictions += 1
        return None

    def _warn_oversize(self, key: tuple, size: int | None) -> None:
        if size is None:
            return
        warnings.warn(
            f"heuristic {key!r} is {size} bytes but the cache budget is only "
            f"{self._cache_bytes} bytes; it will be rebuilt or re-faulted on "
            "every lookup — raise cache_bytes to keep it resident",
            RuntimeWarning,
            stacklevel=3,
        )

    def peek(self, key: tuple) -> Heuristic | None:
        """The resident entry for ``key``, or ``None``, without a lookup's effects.

        Counts no hit, leaves the LRU order alone and never faults or builds:
        it is for a builder that can reuse an entry when one happens to be
        resident (a budget table reusing its destination's binary-P tree)
        without changing what the counters or the eviction order report.
        """
        with self._lock:
            return self._entries.get(key)

    def snapshot(self) -> dict[tuple, Heuristic]:
        """A point-in-time copy of the resident entries (used for persistence)."""
        with self._lock:
            return dict(self._entries)

    def get_or_build(self, key: tuple, builder: Callable[[], Heuristic]) -> Heuristic:
        """Return the cached heuristic for ``key``, faulting or building on a miss.

        Misses consult the fault-tier loader first (when attached) and fall
        back to ``builder``.  Concurrent misses on the *same* key serialise
        on a per-key lock so the expensive build or disk fault runs exactly
        once (same-destination queries are adjacent in a batch and land on
        different workers simultaneously); different keys proceed in
        parallel.
        """
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return cached
            key_lock = self._building.setdefault(key, threading.Lock())
            loader = self._loader
        with key_lock:
            with self._lock:
                cached = self._entries.get(key)
                if cached is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return cached
            faulted = loader(key) if loader is not None else None
            if faulted is not None:
                with self._lock:
                    warn_size = self._admit_locked(key, faulted)
                    self.faults += 1
                    self._building.pop(key, None)
                self._warn_oversize(key, warn_size)
                return faulted
            started = time.perf_counter()
            built = builder()
            elapsed = time.perf_counter() - started
            with self._lock:
                warn_size = self._admit_locked(key, built)
                self.misses += 1
                self.build_seconds += elapsed
                self._building.pop(key, None)
            self._warn_oversize(key, warn_size)
        return built


def _binary_factory(kind: str, cache: HeuristicCache):
    def factory(graph, destination: int) -> Heuristic:
        pace_graph = graph.pace_graph if isinstance(graph, UpdatedPaceGraph) else graph

        def build() -> Heuristic:
            if kind == "EU":
                return EuclideanBinaryHeuristic(pace_graph.network, destination)
            if kind == "E":
                return EdgeOnlyBinaryHeuristic(pace_graph, destination)
            return PaceBinaryHeuristic(pace_graph, destination)

        return cache.get_or_build(
            ("binary", kind, pace_graph.content_fingerprint(), destination), build
        )

    return factory


def _budget_factory(delta: float, settings: RouterSettings, cache: HeuristicCache):
    def factory(graph, destination: int) -> Heuristic:
        def build() -> Heuristic:
            # A resident binary-P heuristic for this destination holds the
            # very Algorithm 2 tree the table would otherwise rebuild; reuse
            # it.  Without one, build a private tree and insert nothing.
            pace_graph = graph.pace_graph if isinstance(graph, UpdatedPaceGraph) else graph
            binary = cache.peek(("binary", "P", pace_graph.content_fingerprint(), destination))
            return BudgetSpecificHeuristic(
                graph, destination, settings.budget_config(delta), binary=binary
            )

        # Budget tables depend on the graph the router searches (plain vs V-path
        # closure), so the graph's content fingerprint is part of the key.
        return cache.get_or_build(
            ("budget", delta, graph.content_fingerprint(), destination), build
        )

    return factory


def create_router(
    method: str | MethodSpec,
    pace_graph: PaceGraph,
    updated_graph: UpdatedPaceGraph | None = None,
    *,
    settings: RouterSettings | None = None,
    heuristic_cache: HeuristicCache | None = None,
):
    """Build the router implementing ``method`` (a name or a :class:`MethodSpec`).

    ``updated_graph`` (the V-path closure of ``pace_graph``) is required for
    the V-graph methods and ignored otherwise.  ``heuristic_cache`` holds the
    destination-keyed heuristics the router looks up on every query; without
    one the router gets a private unbounded cache.  Entries are keyed by
    graph content fingerprint, so a cache may even be shared across engines
    over equal graphs (a :class:`RoutingEngine` manages one automatically).
    """
    spec = MethodSpec.coerce(method)
    settings = settings or RouterSettings()
    cache = heuristic_cache if heuristic_cache is not None else HeuristicCache()
    name = spec.canonical_name
    if spec.heuristic == "none":
        factory = None
    elif spec.heuristic == "budget":
        factory = _budget_factory(spec.delta, settings, cache)
    else:
        factory = _binary_factory(spec.binary_kind, cache)
    if spec.graph == "pace":
        return HeuristicPaceRouter(pace_graph, factory, method_name=name, settings=settings)
    if updated_graph is None:
        raise ConfigurationError(f"method {name!r} needs the updated PACE graph (V-paths)")
    return VPathRouter(updated_graph, factory, method_name=name, settings=settings)


@dataclass(frozen=True)
class EngineStats:
    """A point-in-time snapshot of a :class:`RoutingEngine`'s serving counters.

    ``cache_hits`` / ``cache_misses`` count heuristic-cache lookups — one per
    guided query and one per prewarmed destination, whatever the residency
    mode (a miss triggers a build whose wall-clock cost accumulates into
    ``heuristic_build_seconds``; entries loaded from an artifact store count as
    neither).  ``queries_by_method`` counts queries accepted through
    :meth:`RoutingEngine.route` / :meth:`RoutingEngine.route_many` per
    canonical method name.  The residency trio — ``cache_faults`` (misses
    answered by streaming the persisted table from the artifact store),
    ``cache_evictions`` (entries dropped to stay under the byte budget) and
    ``cache_resident_bytes`` (the resident tier's current footprint) — is
    zero for classic unbounded eager engines.
    """

    cache_entries: int
    cache_hits: int
    cache_misses: int
    heuristic_build_seconds: float
    queries_total: int
    queries_by_method: dict[str, int]
    cache_faults: int = 0
    cache_evictions: int = 0
    cache_resident_bytes: int = 0
    #: Where this engine's graphs came from: ``{"source": "artifacts", "path":
    #: ..., ...}`` for engines booted via :meth:`RoutingEngine.from_artifacts`,
    #: ``{"source": "recipe", ...}`` for re-mined engines, ``{"source":
    #: "memory"}`` for engines wrapped around in-process graphs.
    provenance: dict = field(default_factory=lambda: {"source": "memory"})
    #: Degradation counters, populated by :meth:`RoutingService.stats`: batches
    #: whose execution backend failed as a unit (``backend_failures``) and the
    #: requests re-routed through the in-process serial fallback
    #: (``fallback_queries``).  Zero for engines queried directly.
    backend_failures: int = 0
    fallback_queries: int = 0
    #: Acquisitions of the search lock that found another search holding it,
    #: and the seconds they waited: the queueing behind in-process searches.
    search_lock_waits: int = 0
    search_lock_wait_seconds: float = 0.0


class RoutingEngine:
    """Batch query serving facade over one PACE graph and its V-path closure.

    The engine owns the graphs, builds routers for the paper's named methods
    lazily, and shares a single :class:`HeuristicCache` across all of them.
    Queries are answered one at a time with :meth:`route` or in batches with
    :meth:`route_many`; batches are evaluated grouped by destination (so each
    destination's heuristic is built exactly once and then reused while hot)
    and can fan out over worker processes via
    :class:`~repro.routing.backends.ProcessBackend`.

    Batch evaluation is purely an execution strategy: per-query results —
    best path, arrival probability, cost distribution — are identical to
    calling :meth:`route` once per query, because every router's search is
    deterministic given its (deterministically built, cached) heuristic.

    The engine is the unit of persistence: :meth:`save_artifacts`
    writes the index (graphs) plus every cached heuristic (binary ``getMin``
    maps and Eq. 5 budget tables) into a content-addressed
    :class:`~repro.persistence.store.ArtifactStore`, and
    :meth:`from_artifacts` boots an engine from such a store — fingerprints
    verified, zero T-path mining, zero heuristic rebuilds.  Persisted
    entries are tagged with the content fingerprint of the graph they were
    built over, so a store saved by one engine boots any process whose
    graphs have equal content.

    ``spec`` optionally records the :data:`~repro.routing.backends.EngineSpec`
    this engine was built from (a :class:`~repro.routing.backends.DatasetRecipe`
    or an :class:`~repro.routing.backends.ArtifactRef`); a
    :class:`ProcessBackend` uses it to initialise its workers.  ``provenance``
    is the free-form origin record surfaced by :meth:`stats`.
    """

    def __init__(
        self,
        pace_graph: PaceGraph,
        updated_graph: UpdatedPaceGraph | None = None,
        *,
        settings: RouterSettings | None = None,
        spec=None,
        provenance: dict | None = None,
        cache_bytes: int | None = None,
    ):
        self._pace_graph = pace_graph
        self._updated_graph = updated_graph
        self._settings = settings or RouterSettings()
        self._cache = HeuristicCache(cache_bytes=cache_bytes)
        self._heuristic_source = None
        self._routers: dict[str, object] = {}
        self._router_lock = threading.Lock()
        self._query_counts: Counter[str] = Counter()
        self._stats_lock = threading.Lock()
        #: One in-process search at a time: overlapping GIL-bound searches cost more CPU.
        self.search_lock = threading.RLock()
        self._lock_waits = 0
        self._lock_wait_seconds = 0.0
        self.spec = spec
        self.provenance = dict(provenance) if provenance is not None else {"source": "memory"}

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #
    @property
    def pace_graph(self) -> PaceGraph:
        return self._pace_graph

    @property
    def updated_graph(self) -> UpdatedPaceGraph | None:
        return self._updated_graph

    @property
    def settings(self) -> RouterSettings:
        return self._settings

    @property
    def heuristic_cache(self) -> HeuristicCache:
        """The destination-keyed heuristic cache shared by every router."""
        return self._cache

    def stats(self) -> EngineStats:
        """A snapshot of the serving counters (cache behaviour, query mix)."""
        with self._stats_lock:
            counts = dict(self._query_counts)
            lock_waits, lock_wait_seconds = self._lock_waits, self._lock_wait_seconds
        counters = self._cache.counters()
        return EngineStats(
            cache_entries=counters.entries,
            cache_hits=counters.hits,
            cache_misses=counters.misses,
            heuristic_build_seconds=counters.build_seconds,
            queries_total=sum(counts.values()),
            queries_by_method=counts,
            cache_faults=counters.faults,
            cache_evictions=counters.evictions,
            cache_resident_bytes=counters.resident_bytes,
            provenance=dict(self.provenance),
            search_lock_waits=lock_waits,
            search_lock_wait_seconds=lock_wait_seconds,
        )

    @contextmanager
    def searching(self) -> Iterator[None]:
        """Hold :attr:`search_lock`, counting the wait when another search holds it."""
        if not self.search_lock.acquire(blocking=False):
            with self._stats_lock:
                self._lock_waits += 1
            started = time.perf_counter()
            self.search_lock.acquire()
            with self._stats_lock:
                self._lock_wait_seconds += time.perf_counter() - started
        try:
            yield
        finally:
            self.search_lock.release()

    def _count_queries(self, method_name: str, count: int) -> None:
        with self._stats_lock:
            self._query_counts[method_name] += count

    # -------------------------------------------------------------- #
    # Routers
    # -------------------------------------------------------------- #
    def router(self, method: str | MethodSpec):
        """The (lazily built, cached) router implementing ``method``."""
        spec = MethodSpec.coerce(method)
        name = spec.canonical_name
        with self._router_lock:
            if name not in self._routers:
                self._routers[name] = create_router(
                    spec,
                    self._pace_graph,
                    self._updated_graph,
                    settings=self._settings,
                    heuristic_cache=self._cache,
                )
            return self._routers[name]

    def build_accelerators(self) -> int:
        """Build (or re-attach to) the frontier accelerators of this engine's graphs.

        The routers lazily build one
        :class:`~repro.routing.accel.FrontierAccelerator` per graph on the
        first query; serving processes call this at boot instead so the
        one-time flattening cost is paid before traffic arrives.  Returns the
        number of accelerators made hot.
        """
        accelerator_for(self._pace_graph)
        count = 1
        if self._updated_graph is not None:
            accelerator_for(self._updated_graph)
            count += 1
        return count

    def prewarm(self, method: str | MethodSpec, destinations: Sequence[int]) -> int:
        """Build the heuristics of ``method`` for ``destinations`` ahead of traffic.

        This is the offline investment: ``method`` is a name or
        :class:`MethodSpec`, and every built heuristic lands in the shared
        cache, from where :meth:`save_artifacts` persists it.  Methods without
        destination-specific heuristics (``T-None``, ``V-None``) have nothing
        to prewarm and are rejected with a
        :class:`~repro.core.errors.ConfigurationError` rather than silently
        warming nothing.  Returns the number of heuristics made hot.
        """
        spec = MethodSpec.coerce(method)
        if not spec.supports_prewarm:
            raise ConfigurationError(
                f"method {spec.canonical_name!r} uses no destination-specific heuristic, "
                "so there is nothing to prewarm; prewarming applies to the guided methods "
                "T-B-EU, T-B-E, T-B-P, V-B-P, T-BS-<delta> and V-BS-<delta>"
            )
        router = self.router(spec)
        for destination in destinations:
            router.heuristic_for(destination)
        return len(destinations)

    # -------------------------------------------------------------- #
    # Heuristic entries (the persisted form of the cache)
    # -------------------------------------------------------------- #
    def _graph_flavour(self, fingerprint: str) -> str | None:
        if fingerprint == self._pace_graph.content_fingerprint():
            return "pace"
        if (
            self._updated_graph is not None
            and fingerprint == self._updated_graph.content_fingerprint()
        ):
            return "updated"
        return None

    def _graph_fingerprint(self, flavour: str) -> str:
        if flavour == "updated":
            assert self._updated_graph is not None
            return self._updated_graph.content_fingerprint()
        return self._pace_graph.content_fingerprint()

    def _graph_signature(self, flavour: str) -> tuple[int, ...]:
        """A cheap structural fingerprint of the graph heuristics were built over.

        The content fingerprint is the authoritative identity; the signature
        (vertex/edge/T-path/V-path counts) is kept alongside it because it
        yields a *readable* mismatch message and keeps entries written before
        fingerprinting — which reach the engine only through
        :func:`migrate_store` — loadable.
        """
        network = self._pace_graph.network
        signature = (network.num_vertices, network.num_edges, self._pace_graph.num_tpaths)
        if flavour == "updated" and self._updated_graph is not None:
            signature += (self._updated_graph.num_vpaths,)
        return signature

    def _slot(self, key: tuple) -> HeuristicSlot | None:
        """The store slot of a cache key (``None`` for keys over foreign graphs).

        Cache keys carry the graph content fingerprint; store slots carry the
        graph *flavour*, recovered through this engine's own graphs.
        """
        kind, variant, fingerprint, destination = key
        flavour = self._graph_flavour(fingerprint)
        if flavour is None:
            return None
        return HeuristicSlot(kind, variant, flavour, destination)

    def _cache_key(self, slot: HeuristicSlot) -> tuple:
        """The cache key of a store slot over this engine's graphs."""
        return (slot.kind, slot.variant, self._graph_fingerprint(slot.graph), slot.destination)

    def _heuristic_entries(self) -> list[HeuristicEntry]:
        """The cache snapshot as tagged, portable heuristic entries.

        Each entry is tagged with its store slot and the content fingerprint
        and structural signature of the graph it was built over — what is
        needed to re-key and validate it on load, in this process or any
        other.
        """
        entries: list[HeuristicEntry] = []
        for key, heuristic in sorted(self._cache.snapshot().items(), key=lambda kv: str(kv[0])):
            slot = self._slot(key)
            if slot is None:
                continue
            entries.append(
                HeuristicEntry(
                    slot,
                    heuristic,
                    graph_fingerprint=self._graph_fingerprint(slot.graph),
                    graph_signature=self._graph_signature(slot.graph),
                )
            )
        return entries

    def _load_heuristic_entries(self, entries: Sequence[HeuristicEntry]) -> int:
        """Validate tagged entries and seed the cache with them.

        Entries written over a graph with different *content* (other dataset,
        regime, τ, edge weights, or V-path closure) are rejected with a
        :class:`~repro.core.errors.DataError` — via the content fingerprint
        when the entry carries one, falling back to the structural signature
        for entries written before fingerprinting.  Budget tables that cannot
        provide admissible bounds here are skipped — tables that do not cover
        this engine's ``settings.max_budget`` (residual budgets would cap at
        their grid) and tables built with ``grid_rounding="floor"`` (cells
        may under-estimate).  Skipped heuristics are simply rebuilt on
        demand.  Returns the number of entries loaded.
        """
        loaded = 0
        for entry in entries:
            validated = self._validated_heuristic(entry)
            if validated is None:
                continue
            key, heuristic = validated
            self._cache.insert(key, heuristic)
            loaded += 1
        return loaded

    def _validated_heuristic(self, entry: HeuristicEntry) -> tuple[tuple, Heuristic] | None:
        """Validate one tagged heuristic entry against this engine's graphs.

        Returns the ``(cache key, heuristic)`` pair ready for the cache, or
        ``None`` when the entry cannot serve this engine admissibly and
        should simply be (re)built on demand.  Raises
        :class:`~repro.core.errors.DataError` when the entry was built over
        *different* graph content — both the eager boot and the lazy fault
        tier apply exactly this validation, so a lazily faulted table can
        never answer a query an eagerly loaded one would have refused.
        """
        slot, heuristic = entry.slot, entry.heuristic
        flavour = slot.graph
        if flavour == "updated" and self._updated_graph is None:
            # Tables built over the V-path closure are useless without one;
            # skip rather than mis-key them.
            return None
        if isinstance(heuristic, BudgetSpecificHeuristic):
            # Exact comparison intended: both sides are the floats the
            # builder wrote, so any difference means the entry's tag and its
            # table genuinely disagree.
            if slot.variant != heuristic.table.delta:  # repro: ignore[float-equality]
                raise DataError(
                    f"bundle entry delta {slot.variant!r} does not match "
                    f"its table delta {heuristic.table.delta!r}"
                )
            if heuristic.table.max_budget < self._settings.max_budget - 1e-9:
                # The table cannot answer this engine's largest budgets.
                return None
            if heuristic.grid_rounding != "ceil":
                # Floor-built cells may under-estimate (inadmissible);
                # routing needs upper bounds, so rebuild instead.
                return None
        fingerprint = self._graph_fingerprint(flavour)
        signature = self._graph_signature(flavour)
        if entry.graph_fingerprint is not None:
            if entry.graph_fingerprint != fingerprint:
                raise DataError(
                    "heuristic bundle was built over a different graph "
                    f"(content fingerprint {entry.graph_fingerprint} != {fingerprint}, "
                    f"structural signature {entry.graph_signature} vs {signature}); "
                    "rebuild or load the matching index"
                )
        elif entry.graph_signature is not None and entry.graph_signature != signature:
            raise DataError(
                f"heuristic bundle was built over a different graph "
                f"(signature {entry.graph_signature} != {signature}); "
                "rebuild or load the matching index"
            )
        return self._cache_key(slot), heuristic

    # -------------------------------------------------------------- #
    # Tiered residency (fault heuristics from the artifact store)
    # -------------------------------------------------------------- #
    def _attach_heuristic_store(self, handle) -> None:
        """Back the cache's fault tier with an artifact store handle.

        After this, a cache miss for a destination whose table is persisted
        streams the per-entry document from disk (one mmap'd read, validated
        like an eager load) instead of re-running the offline computation.
        """
        self._heuristic_source = handle
        self._cache.set_loader(self._fault_heuristic)

    def _fault_heuristic(self, key: tuple) -> Heuristic | None:
        """The cache's fault tier: load ``key``'s persisted entry on demand.

        Returns ``None`` (→ build) when the store holds no admissible entry
        for the key; raises :class:`~repro.core.errors.DataError` on
        corruption, leaving the cache untouched.
        """
        handle = self._heuristic_source
        if handle is None:
            return None
        slot = self._slot(key)
        if slot is None or slot.key not in handle:
            return None
        validated = self._validated_heuristic(handle.load_entry(slot.key))
        if validated is None:
            return None
        loaded_key, heuristic = validated
        if loaded_key != key:
            # The persisted entry decodes into a different cache slot than
            # the one that asked for it; building is always safe.
            return None
        return heuristic

    # -------------------------------------------------------------- #
    # Artifact persistence (mine once, boot engines from disk forever)
    # -------------------------------------------------------------- #
    def save_artifacts(self, store, *, provenance: dict | None = None):
        """Persist this engine's offline artifacts to an artifact store.

        Writes the routable index (road network, edge weights, T-paths,
        V-path closure) plus every cached heuristic into ``store`` (an
        :class:`~repro.persistence.store.ArtifactStore` or a directory path),
        together with a manifest recording the graph content fingerprints,
        the :class:`RouterSettings`, the originating
        :class:`~repro.routing.backends.DatasetRecipe` (when this engine was
        built from one) and build provenance.  ``provenance`` adds caller
        metadata (e.g. mining wall-clock) to the manifest.  Returns the
        written :class:`~repro.persistence.store.ArtifactManifest`.
        """
        from repro.persistence.store import ArtifactStore
        from repro.routing.backends import DatasetRecipe

        if not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        graph = self._updated_graph if self._updated_graph is not None else self._pace_graph
        fingerprints = {
            "pace": self._pace_graph.content_fingerprint(),
            "updated": (
                None
                if self._updated_graph is None
                else self._updated_graph.content_fingerprint()
            ),
        }
        entries = self._heuristic_entries()
        build_provenance = {
            "builder": "RoutingEngine.save_artifacts",
            "heuristic_entries": len(entries),
            "heuristic_build_seconds": round(self._cache.counters().build_seconds, 6),
            "heuristic_sweeps": self._settings.heuristic_sweeps,
            # A shallow origin record; "build" (the previous manifest's
            # provenance) is dropped so repeated re-saves don't nest forever.
            "engine": {k: v for k, v in self.provenance.items() if k != "build"},
        }
        # An artifact-booted engine re-saving (``prewarm --artifacts``) keeps
        # the previous manifest's build record — the index is unchanged, so
        # its provenance (mine_seconds in particular, which the benchmark
        # cache contract reads) must survive; freshly computed keys win.
        for key, value in self.provenance.get("build", {}).items():
            if key != "created_at":
                build_provenance.setdefault(key, value)
        build_provenance.update(provenance or {})
        if isinstance(self.spec, DatasetRecipe):
            recipe = asdict(self.spec)
        else:
            # An artifact-booted engine re-saving (e.g. ``prewarm --artifacts``)
            # keeps the original mining recipe the store recorded.
            recipe = self.provenance.get("recipe")
        return store.save(
            graph=graph,
            fingerprints=fingerprints,
            settings=asdict(self._settings),
            heuristic_entries=entries or None,
            recipe=recipe,
            provenance=build_provenance,
        )

    @classmethod
    def from_artifacts(
        cls,
        store,
        *,
        settings: RouterSettings | None = None,
        prewarm: str | Sequence[str] = "all",
        cache_bytes: int | None = None,
    ) -> "RoutingEngine":
        """Boot an engine from a persisted artifact store — never re-mine.

        Loads the index (checksum- and fingerprint-verified) and wires the
        heuristic cache's fault tier to the store, so every persisted table
        can be streamed in on demand.  ``prewarm`` controls the *resident*
        tier at boot: ``"all"`` (the default) eagerly loads every persisted
        heuristic — the classic cold boot, first queries see zero cache
        misses; ``"none"`` starts empty — boot cost scales with the index
        alone and each table faults in on first touch; an explicit sequence
        of store entry keys (``["budget-60.0-pace-35", ...]``) warms exactly
        those.  ``cache_bytes`` bounds the resident tier (LRU eviction,
        see :class:`HeuristicCache`); ``None`` keeps everything resident.

        ``settings`` defaults to the :class:`RouterSettings` the artifacts
        were built for (recorded in the manifest) — overriding them is
        allowed, but heuristics that cannot serve the override admissibly
        (e.g. budget tables below a larger ``max_budget``) are skipped and
        rebuilt on demand.  The returned engine's ``spec`` is an
        :class:`~repro.routing.backends.ArtifactRef` pinned to the loaded
        fingerprints *and* this boot policy, so a
        :class:`~repro.routing.backends.ProcessBackend` boots every worker
        from the same store with the same residency discipline.
        """
        from repro.persistence.store import ArtifactStore
        from repro.routing.backends import ArtifactRef

        policy = normalise_prewarm(prewarm)
        if not isinstance(store, ArtifactStore):
            store = ArtifactStore.open(store)
        manifest = store.manifest
        pace, updated = store.load_index()
        spec = ArtifactRef(
            path=str(store.root),
            pace_fingerprint=manifest.fingerprints["pace"],
            updated_fingerprint=manifest.fingerprints.get("updated"),
            prewarm=policy,
            cache_bytes=cache_bytes,
        )
        engine = cls._over_store(
            store, pace, updated, settings=settings, spec=spec, cache_bytes=cache_bytes
        )
        handle = store.open_heuristics()
        if len(handle):
            engine._attach_heuristic_store(handle)
            engine._prewarm_from_store(handle, policy)
        return engine

    @classmethod
    def _over_store(
        cls,
        store,
        pace: PaceGraph,
        updated: UpdatedPaceGraph | None,
        *,
        settings: RouterSettings | None = None,
        spec=None,
        cache_bytes: int | None = None,
    ) -> "RoutingEngine":
        """An engine over a store's loaded index, carrying the store's identity.

        ``settings`` defaults to the manifest's; the manifest's recipe and
        build provenance ride along so a re-save preserves them.
        """
        manifest = store.manifest
        if settings is None:
            settings = RouterSettings.from_manifest(manifest.settings)
        return cls(
            pace,
            updated,
            settings=settings,
            spec=spec,
            cache_bytes=cache_bytes,
            provenance={
                "source": "artifacts",
                "path": str(store.root),
                "fingerprints": dict(manifest.fingerprints),
                "recipe": None if manifest.recipe is None else dict(manifest.recipe),
                "build": dict(manifest.provenance),
            },
        )

    def _prewarm_from_store(self, handle, policy: PrewarmPolicy) -> int:
        """Load the ``policy``-selected persisted entries into the resident tier.

        Entries are faulted one at a time (each per-entry document is decoded
        and dropped before the next), so even an eager ``"all"`` boot never
        holds the whole store's raw bytes alongside the decoded tables.
        """
        if policy == "none":
            return 0
        if policy == "all":
            keys = handle.keys()
        else:
            missing = [key for key in policy if key not in handle]
            if missing:
                raise DataError(
                    f"prewarm keys {missing!r} are not persisted in the artifact "
                    f"store (available: {sorted(handle.keys())!r})"
                )
            keys = policy
        loaded = 0
        for key in keys:
            loaded += self._load_heuristic_entries([handle.load_entry(key)])
        return loaded

    # -------------------------------------------------------------- #
    # Routing
    # -------------------------------------------------------------- #
    def route(self, query: RoutingQuery, *, method: str | MethodSpec) -> RoutingResult:
        """Evaluate one arriving-on-time query with ``method``, holding :attr:`search_lock`."""
        spec = MethodSpec.coerce(method)
        self._count_queries(spec.canonical_name, 1)
        with self.searching():
            return self.router(spec).route(query)

    def route_many(
        self,
        queries: Sequence[RoutingQuery],
        *,
        method: str | MethodSpec,
        backend: ExecutionBackend | None = None,
    ) -> list[RoutingResult]:
        """Evaluate a batch of queries, returning results in input order.

        Queries are processed grouped by destination so that each
        destination-specific heuristic is built once and stays hot for all its
        queries.  The execution strategy is the ``backend``
        (:mod:`repro.routing.backends`): serial by default, or e.g.
        ``ProcessBackend(workers=4)`` to scale the GIL-bound search loops
        across processes.  A serial batch holds :attr:`search_lock` throughout,
        so it runs after (never beside) other in-process searches.  Every
        backend returns results identical to (and ordered like) the serial
        evaluation.
        """
        spec = MethodSpec.coerce(method)
        queries = list(queries)
        if not queries:
            return []
        if backend is None:
            backend = SerialBackend()
        self._count_queries(spec.canonical_name, len(queries))
        return backend.run(self, spec, queries)


@dataclass(frozen=True)
class StoreMigration:
    """What :func:`migrate_store` found and wrote."""

    #: The manifest before and after the rewrite.
    before: ArtifactManifest
    after: ArtifactManifest
    #: Heuristic entries the store held before the rewrite (the new
    #: manifest's ``heuristic_entries`` provenance counts those re-written).
    persisted_entries: int


def migrate_store(store) -> StoreMigration:
    """Rewrite an artifact store in place in the current format.

    The one reader of older stores: the index and heuristics are read through
    :mod:`repro.persistence.legacy` (a current store reads as itself), the
    entries are validated exactly as a boot would — the content fingerprint,
    or the structural signature for entries written before fingerprinting —
    and :meth:`RoutingEngine.save_artifacts` writes the store back with its
    fingerprints, settings, recipe and build provenance preserved.  Entries
    the engine cannot serve (e.g. floor-built tables) are dropped from an
    older store; a current store keeps them on disk if none loads.
    Re-running it on a migrated store rewrites the same bytes.
    """
    from repro.persistence import legacy
    from repro.persistence.store import ArtifactStore

    if not isinstance(store, ArtifactStore):
        store = ArtifactStore.open(store)
    before = store.manifest
    engine = RoutingEngine._over_store(store, *legacy.load_index(store))
    entries = legacy.load_heuristic_entries(store)
    engine._load_heuristic_entries(entries)
    return StoreMigration(
        before=before, after=engine.save_artifacts(store), persisted_entries=len(entries)
    )
