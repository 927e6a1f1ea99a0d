"""The baseline stochastic router in PACE (Algorithm 1, method "T-None").

This is the routing strategy of the original PACE work that the paper sets
out to accelerate: candidate paths are explored from the source in order of
their expected cost, every candidate reaching the destination updates the
best-known arrival probability, and the search only stops when no candidate
is left.  The only pruning available is the budget test — a candidate whose
minimum possible cost already exceeds the budget can never arrive on time —
because stochastic dominance is unsound in plain PACE and no heuristic
estimates the remaining cost.
"""

from __future__ import annotations

import heapq
import time

from repro.core.pace_graph import PaceGraph
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.settings import RouterSettings

__all__ = ["NaivePaceRouter"]


class NaivePaceRouter:
    """Algorithm 1: expected-cost ordered exploration without heuristics or dominance."""

    method_name = "T-None"

    def __init__(self, pace_graph: PaceGraph, settings: RouterSettings | None = None):
        self._graph = pace_graph
        self._settings = settings or RouterSettings()

    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query."""
        start = time.perf_counter()
        graph = self._graph
        budget = query.budget
        best_prob = 0.0
        best_path = None
        best_distribution = None
        explored = 0
        counter = 0

        heap: list[tuple[float, int, object]] = []
        for element in graph.outgoing_elements(query.source):
            path = element.path
            if not path.is_simple():
                continue
            distribution = element.distribution
            if distribution.min() > budget:
                continue
            counter += 1
            heapq.heappush(heap, (distribution.expectation(), counter, (path, distribution)))

        while heap and explored < self._settings.max_explored:
            _, _, (path, distribution) = heapq.heappop(heap)
            explored += 1
            if path.target == query.destination:
                probability = distribution.prob_at_most(budget)
                if probability > best_prob:
                    best_prob = probability
                    best_path = path
                    best_distribution = distribution
                continue
            for element in graph.outgoing_elements(path.target):
                if any(path.visits(v) for v in element.path.vertices[1:]):
                    continue
                new_path = path.concat(element.path)
                if graph.path_min_cost(new_path) > budget:
                    continue
                new_distribution = graph.path_cost_distribution(
                    new_path, max_support=self._settings.max_support
                )
                if new_distribution.min() > budget:
                    continue
                counter += 1
                heapq.heappush(
                    heap,
                    (new_distribution.expectation(), counter, (new_path, new_distribution)),
                )

        return RoutingResult(
            query=query,
            method=self.method_name,
            path=best_path,
            probability=best_prob,
            distribution=best_distribution,
            explored=explored,
            runtime_seconds=time.perf_counter() - start,
        )
