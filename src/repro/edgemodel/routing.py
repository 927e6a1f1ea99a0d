"""Stochastic routing in the edge-centric (EDGE) model.

The paper's speed-up techniques exist to bring the PACE model's routing cost
down to (and below) what the classical EDGE model achieves with
stochastic-dominance pruning.  This router implements that classical
algorithm — best-first exploration by arrival probability with convolution
costs, dominance pruning and budget pruning — both as a reference point and
as the substrate behind the T-B-E heuristic intuition.  It runs the same
:func:`~repro.routing.search.best_first` loop as the PACE routers.
"""

from __future__ import annotations

from repro.core.edge_graph import EdgeGraph
from repro.network.algorithms import single_source_costs
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.search import Candidate, best_first
from repro.routing.settings import RouterSettings

__all__ = ["EdgeModelRouter"]


class _EdgeFrontier:
    """Edge-by-edge expansion prioritised by each candidate's own arrival probability.

    The priority can only shrink when a path is extended, so it is an
    admissible bound and the first destination pop is optimal (``guided``).
    """

    guided = True

    def __init__(
        self, graph: EdgeGraph, min_to_destination: dict[int, float], budget: float, max_support: int
    ):
        self._graph = graph
        self._min_to_destination = min_to_destination
        self._budget = budget
        self._max_support = max_support

    def _remaining(self, vertex: int) -> float:
        return self._min_to_destination.get(vertex, float("inf"))

    def _entry(self, candidate: Candidate) -> tuple[float, Candidate]:
        return -candidate.distribution.prob_at_most(self._budget), candidate

    def seed(self, source: int) -> list[tuple[float, Candidate]]:
        return [
            self._entry(Candidate(element.path, element.distribution))
            for element in self._graph.outgoing_elements(source)
            if element.distribution.min() + self._remaining(element.target) <= self._budget
        ]

    def expand(self, candidate: Candidate) -> list[tuple[float, Candidate]]:
        path, distribution = candidate.path, candidate.distribution
        children = []
        for element in self._graph.outgoing_elements(path.target):
            if any(path.visits(v) for v in element.path.vertices[1:]):
                continue
            if (
                distribution.min() + element.distribution.min() + self._remaining(element.target)
                > self._budget
            ):
                continue
            new_distribution = distribution.convolve(
                element.distribution, max_support=self._max_support
            )
            children.append(self._entry(Candidate(path.concat(element.path), new_distribution)))
        return children


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
        settings = self._settings
        return best_first(
            query,
            self.method_name,
            lambda: _EdgeFrontier(
                self._graph,
                self._min_costs_to(query.destination),
                query.budget,
                settings.max_support,
            ),
            max_explored=settings.max_explored,
            dominance=self._use_dominance,
        )
