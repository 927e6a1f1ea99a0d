"""V-path based stochastic routing (Algorithm 5: V-None, V-B-P, V-BS-δ).

Routing on the updated PACE graph ``G_p+`` differs from the plain PACE
routers in two ways that together give the paper's largest speed-ups:

* candidate cost distributions are maintained *incrementally by convolution*
  — extending a candidate with an edge, T-path or V-path convolves the
  candidate's distribution with the element's total-cost distribution, which
  Lemma 4.1 shows is exact, and
* because the pieces are independent, **stochastic-dominance pruning** among
  candidates ending at the same vertex becomes sound again and is applied on
  every extension.

With a heuristic (V-B-P, V-BS-δ) the search is best-first on ``maxProb`` and
stops when the top of the queue reaches the destination; without one (V-None)
it explores exhaustively in expected-cost order, exactly like the T-None
baseline but with convolution and dominance pruning.

Like the T-path routers, the frontier is expanded through the kernels of
:mod:`repro.routing.accel`, which mask cycles, apply the budget prune and
price Eq. 3 for a popped candidate's whole successor slice in bulk ndarray
ops.  Dominance admission stays sequential — its outcome depends on
admission order — and candidate distributions stay incremental
convolutions.  The per-element loop the kernels replace lives on as the
test reference in :mod:`repro.routing._scalar_reference`.

The returned path's distribution and probability are re-computed under
exact PACE semantics (coarsest T-path assembly) before being reported: a
candidate may correspond to a finer-than-coarsest decomposition of its road
path, whose convolution estimate differs slightly from the PACE cost of
that path, and re-evaluating makes the reported numbers directly comparable
with the T-path routers.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections.abc import Callable

from repro.core.distributions import Distribution
from repro.core.paths import Path
from repro.heuristics.base import Heuristic, NoHeuristic
from repro.routing.accel import VExpansionKernel, accelerator_for
from repro.routing.dominance import DominancePruner
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.settings import RouterSettings
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = ["VPathRouter"]

VPathHeuristicFactory = Callable[[UpdatedPaceGraph, int], Heuristic]


class VPathRouter:
    """Algorithm 5 on the updated PACE graph, with optional heuristic guidance."""

    def __init__(
        self,
        graph: UpdatedPaceGraph,
        heuristic_factory: VPathHeuristicFactory | None = None,
        *,
        method_name: str | None = None,
        settings: RouterSettings | None = None,
        use_dominance: bool = True,
    ):
        self._graph = graph
        self._factory = heuristic_factory
        self.method_name = method_name or ("V-None" if heuristic_factory is None else "V-heuristic")
        self._settings = settings or RouterSettings()
        self._use_dominance = use_dominance

    def heuristic_for(self, destination: int) -> Heuristic:
        """The destination-specific heuristic, from the factory on every call.

        The router holds no heuristics of its own (see
        :meth:`HeuristicPaceRouter.heuristic_for
        <repro.routing.tpath_routing.HeuristicPaceRouter.heuristic_for>`);
        V-None gets a fresh trivial :class:`NoHeuristic`, which holds no table.
        """
        if self._factory is None:
            return NoHeuristic(destination)
        return self._factory(self._graph, destination)

    @property
    def guided(self) -> bool:
        """True when an informative heuristic guides the search (early stop allowed)."""
        return self._factory is not None

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query on the updated PACE graph."""
        start = time.perf_counter()
        graph = self._graph
        budget = query.budget
        heuristic = self.heuristic_for(query.destination)
        pruner = DominancePruner() if self._use_dominance else None
        candidate_ids = itertools.count()
        explored = 0
        heap: list[tuple[float, int, Path, Distribution]] = []
        kernel = VExpansionKernel(
            graph,
            accelerator_for(graph),
            heuristic,
            budget,
            max_support=self._settings.max_support,
            guided=self.guided,
        )

        def push(path: Path, distribution: Distribution, priority: float) -> None:
            candidate_id = next(candidate_ids)
            if pruner is not None and not pruner.admit(candidate_id, path.target, distribution):
                return
            heapq.heappush(heap, (priority, candidate_id, path, distribution))

        for path, distribution, priority in kernel.seed(query.source):
            push(path, distribution, priority)

        best_path = None
        best_prob = 0.0
        best_distribution = None
        while heap and explored < self._settings.max_explored:
            _, candidate_id, path, distribution = heapq.heappop(heap)
            if pruner is not None and pruner.is_pruned(candidate_id):
                continue
            explored += 1
            if path.target == query.destination:
                probability = distribution.prob_at_most(budget)
                if self.guided:
                    best_path, best_prob, best_distribution = path, probability, distribution
                    break
                if probability > best_prob:
                    best_path, best_prob, best_distribution = path, probability, distribution
                continue
            for new_path, new_distribution, priority in kernel.expand(path, distribution):
                push(new_path, new_distribution, priority)

        if best_path is not None:
            best_distribution = graph.pace_graph.path_cost_distribution(
                best_path, max_support=self._settings.max_support
            )
            best_prob = best_distribution.prob_at_most(budget)

        runtime = time.perf_counter() - start
        return RoutingResult(
            query=query,
            method=self.method_name,
            path=best_path,
            probability=best_prob,
            distribution=best_distribution,
            explored=explored,
            runtime_seconds=runtime,
        )
