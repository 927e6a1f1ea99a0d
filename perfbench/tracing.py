"""Layer spans recorded from outside the program.

:func:`install` replaces the public entry points listed in :data:`TARGETS`
with wrappers that time each call.  Nothing under ``src/`` is edited: the
wrappers are set on the imported classes and modules of the process they
run in, so the benchmark installs them in its own worker processes (and, for
``serve_http``, through ``launcher.py`` before the server starts).

Every call becomes a span: name, start, end, parent span and request id.
A span's *self time* is its duration minus the time its child spans cover;
a layer's self time is the sum over the spans named after it (the part of
each name before the first dot).  Calls made many thousand times per second
(joint assembly, convolution, dominance admission) are only counted and
timed in aggregate; every other span is also kept as a record in memory and
written out when the process ends.

Spans nest per thread.  The server hands each request from its HTTP thread
to an admission worker thread, so :data:`TARGETS` also wraps
``AdmissionController.admit`` to carry the caller's open span over to the
thread that runs the job; that wrapper records no span of its own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import re
import threading
import time
from collections.abc import Callable
from typing import Any

#: ``(span name, module, attribute path, keep a record per call)``.  The span
#: name's first component is the layer the call is charged to.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("tpaths.build_pace_graph", "repro.tpaths.extraction", "build_pace_graph", True),
    ("vpaths.UpdatedPaceGraph.build", "repro.vpaths.updated_graph", "UpdatedPaceGraph.build", True),
    ("core.JointDistribution.assemble", "repro.core.joint", "JointDistribution.assemble", False),
    ("core.Distribution.convolve", "repro.core.distributions", "Distribution.convolve", False),
    ("heuristics.PaceBinaryHeuristic", "repro.heuristics.binary", "PaceBinaryHeuristic.__init__", True),
    (
        "heuristics.BudgetSpecificHeuristic",
        "repro.heuristics.budget",
        "BudgetSpecificHeuristic.__init__",
        True,
    ),
    ("routing.RoutingEngine.prewarm", "repro.routing.engine", "RoutingEngine.prewarm", True),
    ("routing.RoutingEngine.route", "repro.routing.engine", "RoutingEngine.route", True),
    (
        "routing.RoutingEngine.build_accelerators",
        "repro.routing.engine",
        "RoutingEngine.build_accelerators",
        True,
    ),
    ("routing.DominancePruner.admit", "repro.routing.dominance", "DominancePruner.admit", False),
    (
        "routing.RoutingService.handle_batch",
        "repro.routing.service",
        "RoutingService.handle_batch",
        True,
    ),
    (
        "persistence.RoutingEngine.save_artifacts",
        "repro.routing.engine",
        "RoutingEngine.save_artifacts",
        True,
    ),
    (
        "persistence.RoutingEngine.from_artifacts",
        "repro.routing.engine",
        "RoutingEngine.from_artifacts",
        True,
    ),
    ("persistence.ArtifactStore.load_index", "repro.persistence.store", "ArtifactStore.load_index", True),
    (
        "persistence.HeuristicStoreHandle.load_entry",
        "repro.persistence.store",
        "HeuristicStoreHandle.load_entry",
        True,
    ),
    ("serving.RouteServer.handle_route", "repro.serving.server", "RouteServer.handle_route", True),
)

#: The layers a span can be charged to, in report order.
LAYERS = ("core", "tpaths", "vpaths", "heuristics", "routing", "persistence", "serving")

_REQUEST_ID = re.compile(rb'"request_id"\s*:\s*"([^"\\]*)"')


class _Frame:
    """One open span: its child time so far, its parent, its record id and request."""

    __slots__ = ("child", "parent", "span_id", "request_id")

    def __init__(self, parent: "_Frame | None", span_id: int | None, request_id: str | None):
        self.child = 0.0
        self.parent = parent
        self.span_id = span_id
        self.request_id = request_id


class Tracer:
    """Collects spans in memory; one per process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, list[float]]] = []
        self._ids = itertools.count(1)
        self.records: list[tuple[int, str, float, float, int | None, str | None]] = []

    # -- per-thread state ------------------------------------------------ #
    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.totals = {}
            self._local.base = None
            self._local.request_id = None
            with self._lock:
                self._per_thread.append(self._local.totals)
        return stack

    def set_request(self, request_id: str | None) -> None:
        """Tag the spans this thread opens from now on with ``request_id``."""
        self._stack()
        self._local.request_id = request_id

    # -- spans ------------------------------------------------------------ #
    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        record: bool,
        request_of: Callable[[tuple], str | None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` timed as span ``name``."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            local = tracer._local
            parent = stack[-1] if stack else local.base
            request_id = request_of(args) if request_of is not None else None
            if request_id is None:
                request_id = parent.request_id if parent is not None else local.request_id
            if record:
                span_id: int | None = next(tracer._ids)
            else:
                span_id = parent.span_id if parent is not None else None
            frame = _Frame(parent, span_id, request_id)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child += duration
                entry = local.totals.get(name)
                if entry is None:
                    entry = local.totals[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame.child
                entry[2] += duration
                if record:
                    tracer.records.append(
                        (
                            span_id,  # type: ignore[arg-type]
                            name,
                            start,
                            end,
                            parent.span_id if parent is not None else None,
                            request_id,
                        )
                    )

        return spanned

    def carry(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """``fn`` run on another thread as a child of this thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else self._local.base
        tracer = self

        def carried() -> Any:
            tracer._stack()
            previous = tracer._local.base
            tracer._local.base = parent
            try:
                return fn()
            finally:
                tracer._local.base = previous

        return carried

    # -- results ---------------------------------------------------------- #
    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed duration."""
        merged: dict[str, list[float]] = {}
        with self._lock:
            tables = list(self._per_thread)
        for totals in tables:
            for name, (count, self_s, total_s) in list(totals.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += count
                entry[1] += self_s
                entry[2] += total_s
        return {
            name: {"calls": int(count), "self_s": self_s, "total_s": total_s}
            for name, (count, self_s, total_s) in sorted(merged.items())
        }

    def dump(self, path: str) -> None:
        """Write the summary and every kept span record as one JSON document."""
        spans = [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "request": r}
            for i, n, s, e, p, r in list(self.records)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"summary": self.summary(), "spans": spans}, handle)


def _request_from_body(args: tuple) -> str | None:
    """The ``request_id`` of a ``handle_route(self, body)`` call, if it has one."""
    body = args[1] if len(args) > 1 else b""
    match = _REQUEST_ID.search(body) if isinstance(body, (bytes, bytearray)) else None
    return match.group(1).decode("utf-8", "replace") if match else None


def install(tracer: Tracer) -> Tracer:
    """Wrap every entry point in :data:`TARGETS` (and the admission hand-off)."""
    for name, module_name, path, record in TARGETS:
        owner: Any = importlib.import_module(module_name)
        *owners, attribute = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        request_of = _request_from_body if name.startswith("serving.") else None
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(
                tracer.wrap(name, raw.__func__, record=record, request_of=request_of)
            )
        else:
            wrapped = tracer.wrap(name, raw, record=record, request_of=request_of)
        setattr(owner, attribute, wrapped)

    from repro.serving.admission import AdmissionController

    admit = AdmissionController.admit

    @functools.wraps(admit)
    def admit_carrying(self: Any, fn: Callable[[], Any]) -> Any:
        return admit(self, tracer.carry(fn))

    AdmissionController.admit = admit_carrying  # type: ignore[method-assign]
    return tracer


def layer_self_seconds(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Summed self time per layer from a :meth:`Tracer.summary`."""
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    return layers


def merge_summaries(summaries: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    """Several processes' summaries added together."""
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = merged.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            for key in target:
                target[key] += entry[key]
    return merged
