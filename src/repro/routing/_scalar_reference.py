"""Scalar reference implementation of the routers' search loops.

This module preserves the original per-element Python loops of
:class:`~repro.routing.tpath_routing.HeuristicPaceRouter` (guided, and
unguided as PACE's Algorithm 1 for T-None) and
:class:`~repro.routing.vpath_routing.VPathRouter` — one cycle check, budget
prune, path evaluation and priority per successor element, each loop with
its own heap — from before the routers shared the
:func:`~repro.routing.search.best_first` loop and the batched
:class:`~repro.routing.accel.ExpansionKernel`.  It exists for three reasons:

* the property-based tests in ``tests/test_expansion_parity.py`` check that
  the routers return bitwise the same results as these loops (same path,
  probability, distribution and explored count) on random cyclic graphs,
  including under ``max_explored`` truncation,
* tests that need an exhaustive ground truth (T-None's loop with a
  :class:`~repro.heuristics.base.NoHeuristic`) use it as an oracle that
  shares no code with the search it checks, and
* the benchmark in ``benchmarks/test_query_latency_bench.py`` measures the
  routers' speed-up against them on city-scale queries and re-checks parity
  there for every method family.

The functions take the graph, the destination's heuristic and the limits as
explicit arguments; :func:`route_scalar` maps a method name and
:class:`~repro.routing.engine.RouterSettings` onto them the way
:func:`~repro.routing.engine.create_router` configures the routers.

It is deliberately *not* exported from :mod:`repro.routing`: production code
must use the routers.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import TYPE_CHECKING

from repro.core.distributions import Distribution
from repro.core.pace_graph import PaceGraph
from repro.core.paths import Path
from repro.heuristics.base import Heuristic, max_prob
from repro.routing.dominance import DominancePruner
from repro.routing.methods import MethodSpec
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.vpaths.updated_graph import UpdatedPaceGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.engine import RouterSettings

__all__ = ["route_scalar", "route_tpath_scalar", "route_vpath_scalar"]


def route_scalar(
    method: str | MethodSpec,
    pace_graph: PaceGraph,
    updated_graph: UpdatedPaceGraph,
    heuristic: Heuristic,
    query: RoutingQuery,
    *,
    settings: RouterSettings,
) -> RoutingResult:
    """Route ``query`` with the scalar loop of the router ``method`` runs on.

    ``heuristic`` is the destination's heuristic (a :class:`NoHeuristic` for
    T-None and V-None); ``settings`` supplies ``max_support`` and
    ``max_explored``.
    """
    spec = MethodSpec.coerce(method)
    if spec.graph == "pace":
        return route_tpath_scalar(
            pace_graph,
            heuristic,
            query,
            method_name=spec.canonical_name,
            guided=spec.heuristic != "none",
            max_support=settings.max_support,
            max_explored=settings.max_explored,
        )
    return route_vpath_scalar(
        updated_graph,
        heuristic,
        query,
        method_name=spec.canonical_name,
        guided=spec.heuristic != "none",
        max_support=settings.max_support,
        max_explored=settings.max_explored,
    )


def route_tpath_scalar(
    graph: PaceGraph,
    heuristic: Heuristic,
    query: RoutingQuery,
    *,
    method_name: str,
    guided: bool,
    max_support: int,
    max_explored: int,
) -> RoutingResult:
    """The seed's per-element PACE search (T-None, T-B-*, T-BS-δ).

    ``guided`` selects best-first ``maxProb`` order with early stop (a real
    heuristic) over PACE's Algorithm 1 (T-None): exhaustive expected-cost
    order keeping the best arrival probability, where only candidates whose
    minimum cost exceeds the budget are dropped.
    """
    start = time.perf_counter()
    budget = query.budget
    explored = 0
    counter = 0
    heap: list[tuple[float, int, tuple[Path, Distribution, float]]] = []

    def priority_of(path: Path, distribution: Distribution) -> float | None:
        """The heap key, or ``None`` when the candidate cannot arrive on time."""
        if guided:
            bound = max_prob(distribution, heuristic, path.target, budget)
            return -bound if bound > 0 else None
        return distribution.expectation() if distribution.min() <= budget else None

    for element in graph.outgoing_elements(query.source):
        path = element.path
        if not path.is_simple():
            continue
        distribution = element.distribution
        if distribution.min() + heuristic.min_cost(path.target) > budget:
            continue
        priority = priority_of(path, distribution)
        if priority is None:
            continue
        counter += 1
        heapq.heappush(
            heap,
            (priority, counter, (path, distribution, graph.path_min_cost(path))),
        )

    best_path = None
    best_prob = 0.0
    best_distribution = None
    while heap and explored < max_explored:
        _, _, (path, distribution, min_cost) = heapq.heappop(heap)
        explored += 1
        if path.target == query.destination:
            probability = distribution.prob_at_most(budget)
            if guided:
                # Admissible priorities: nothing left in the queue can beat this path.
                best_path, best_prob, best_distribution = path, probability, distribution
                break
            if probability > best_prob:
                best_path, best_prob, best_distribution = path, probability, distribution
            continue
        for element in graph.outgoing_elements(path.target):
            if any(path.visits(v) for v in element.path.vertices[1:]):
                continue
            # Candidate min-cost is carried incrementally: parent minimum
            # plus the element's own minimum, instead of re-summing the
            # whole path per expansion.
            new_min_cost = min_cost + graph.path_min_cost(element.path)
            if new_min_cost + heuristic.min_cost(element.path.target) > budget:
                continue
            new_path = path.concat(element.path)
            new_distribution = graph.path_cost_distribution(new_path, max_support=max_support)
            priority = priority_of(new_path, new_distribution)
            if priority is None:
                continue
            counter += 1
            heapq.heappush(
                heap, (priority, counter, (new_path, new_distribution, new_min_cost))
            )

    return RoutingResult(
        query=query,
        method=method_name,
        path=best_path,
        probability=best_prob,
        distribution=best_distribution,
        explored=explored,
        runtime_seconds=time.perf_counter() - start,
    )


def route_vpath_scalar(
    graph: UpdatedPaceGraph,
    heuristic: Heuristic,
    query: RoutingQuery,
    *,
    method_name: str,
    guided: bool,
    max_support: int,
    max_explored: int,
) -> RoutingResult:
    """The seed's per-element Algorithm 5 loop (V-None, V-B-P, V-BS-δ).

    ``guided`` selects best-first ``maxProb`` order with early stop (a real
    heuristic) over exhaustive expected-cost order (V-None).  The returned
    path is re-evaluated under PACE semantics, as the router does.
    """
    start = time.perf_counter()
    budget = query.budget
    pruner = DominancePruner()
    candidate_ids = itertools.count()
    explored = 0
    heap: list[tuple[float, int, Path, Distribution]] = []

    def priority_of(path: Path, distribution: Distribution) -> float:
        if guided:
            return -max_prob(distribution, heuristic, path.target, budget)
        return distribution.expectation()

    def push(path: Path, distribution: Distribution) -> None:
        candidate_id = next(candidate_ids)
        if not pruner.admit(candidate_id, path.target, distribution):
            return
        heapq.heappush(heap, (priority_of(path, distribution), candidate_id, path, distribution))

    for element in graph.outgoing_elements(query.source):
        path = element.path
        if not path.is_simple():
            continue
        if element.distribution.min() + heuristic.min_cost(path.target) > budget:
            continue
        if guided and max_prob(element.distribution, heuristic, path.target, budget) <= 0:
            continue
        push(path, element.distribution)

    best_path = None
    best_prob = 0.0
    best_distribution = None
    while heap and explored < max_explored:
        _, candidate_id, path, distribution = heapq.heappop(heap)
        if pruner.is_pruned(candidate_id):
            continue
        explored += 1
        if path.target == query.destination:
            probability = distribution.prob_at_most(budget)
            if guided:
                best_path, best_prob, best_distribution = path, probability, distribution
                break
            if probability > best_prob:
                best_path, best_prob, best_distribution = path, probability, distribution
            continue
        for element in graph.outgoing_elements(path.target):
            if any(path.visits(v) for v in element.path.vertices[1:]):
                continue
            minimum = distribution.min() + element.distribution.min()
            if minimum + heuristic.min_cost(element.target) > budget:
                continue
            new_path = path.concat(element.path)
            new_distribution = distribution.convolve(element.distribution, max_support=max_support)
            if guided:
                bound = max_prob(new_distribution, heuristic, new_path.target, budget)
                if bound <= 0:
                    continue
            push(new_path, new_distribution)

    if best_path is not None:
        best_distribution = graph.pace_graph.path_cost_distribution(
            best_path, max_support=max_support
        )
        best_prob = best_distribution.prob_at_most(budget)

    return RoutingResult(
        query=query,
        method=method_name,
        path=best_path,
        probability=best_prob,
        distribution=best_distribution,
        explored=explored,
        runtime_seconds=time.perf_counter() - start,
    )
