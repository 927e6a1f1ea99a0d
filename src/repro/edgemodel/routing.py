"""Stochastic routing in the edge-centric (EDGE) model.

The paper's speed-up techniques exist to bring the PACE model's routing cost
down to (and below) what the classical EDGE model achieves with
stochastic-dominance pruning.  This router implements that classical
algorithm — best-first exploration by arrival probability with convolution
costs, dominance pruning and budget pruning — both as a reference point and
as the substrate behind the T-B-E heuristic intuition.
"""

from __future__ import annotations

import heapq
import itertools
import time

from repro.core.edge_graph import EdgeGraph
from repro.network.algorithms import single_source_costs
from repro.routing.dominance import DominancePruner
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.settings import RouterSettings

__all__ = ["EdgeModelRouter"]


class EdgeModelRouter:
    """Arriving-on-time routing under the EDGE model with dominance pruning."""

    method_name = "EDGE"

    def __init__(
        self,
        edge_graph: EdgeGraph,
        settings: RouterSettings | None = None,
        *,
        use_dominance: bool = True,
    ):
        self._graph = edge_graph
        self._settings = settings or RouterSettings()
        self._use_dominance = use_dominance
        self._min_cost_cache: dict[int, dict[int, float]] = {}

    def _min_costs_to(self, destination: int) -> dict[int, float]:
        """Minimum remaining cost to the destination for every vertex (budget pruning)."""
        if destination not in self._min_cost_cache:
            reversed_network = self._graph.network.reversed()
            self._min_cost_cache[destination] = single_source_costs(
                reversed_network,
                destination,
                lambda edge: self._graph.weight(edge.edge_id).min(),
            )
        return self._min_cost_cache[destination]

    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query in the EDGE model."""
        start = time.perf_counter()
        graph = self._graph
        budget = query.budget
        min_to_destination = self._min_costs_to(query.destination)
        pruner = DominancePruner() if self._use_dominance else None
        candidate_ids = itertools.count()
        heap = []
        explored = 0

        def remaining(vertex: int) -> float:
            return min_to_destination.get(vertex, float("inf"))

        def push(path, distribution) -> None:
            candidate_id = next(candidate_ids)
            if pruner is not None and not pruner.admit(candidate_id, path.target, distribution):
                return
            priority = -distribution.prob_at_most(budget)
            heapq.heappush(heap, (priority, candidate_id, path, distribution))

        for element in graph.outgoing_elements(query.source):
            if element.distribution.min() + remaining(element.target) > budget:
                continue
            push(element.path, element.distribution)

        best_path, best_prob, best_distribution = None, 0.0, None
        while heap and explored < self._settings.max_explored:
            negative_probability, candidate_id, path, distribution = heapq.heappop(heap)
            if pruner is not None and pruner.is_pruned(candidate_id):
                continue
            explored += 1
            if path.target == query.destination:
                # The priority (probability of the candidate itself) can only shrink when
                # the path is extended, so the first destination pop is optimal.
                best_path = path
                best_prob = -negative_probability
                best_distribution = distribution
                break
            for element in graph.outgoing_elements(path.target):
                if any(path.visits(v) for v in element.path.vertices[1:]):
                    continue
                if (
                    distribution.min() + element.distribution.min() + remaining(element.target)
                    > budget
                ):
                    continue
                new_path = path.concat(element.path)
                new_distribution = distribution.convolve(
                    element.distribution, max_support=self._settings.max_support
                )
                push(new_path, new_distribution)

        return RoutingResult(
            query=query,
            method=self.method_name,
            path=best_path,
            probability=best_prob,
            distribution=best_distribution,
            explored=explored,
            runtime_seconds=time.perf_counter() - start,
        )
