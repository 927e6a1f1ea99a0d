"""Heuristic-guided stochastic routing on the plain PACE graph (T-B-*, T-BS-δ).

These routers keep the PACE cost semantics (candidate distributions are
evaluated through the coarsest T-path assembly), but order and prune the
exploration with an admissible heuristic:

* candidates are prioritised by ``maxProb`` (Eq. 3) — the probability of the
  candidate itself combined with the heuristic's bound on the remaining
  travel,
* candidates whose minimum cost plus ``getMin`` of their end vertex exceeds
  the budget are discarded, and
* the search stops as soon as the most promising candidate already ends at
  the destination (admissibility makes this safe).

Stochastic-dominance pruning is *not* used here: without V-paths it is
unsound in PACE (Section 2.3).

Each popped candidate's whole successor slice is evaluated through the
ndarray kernels of :mod:`repro.routing.accel`, which resume PACE chain
evaluation from per-candidate chain trails.  The per-element loop they
replace lives on as the test reference in
:mod:`repro.routing._scalar_reference`; the two return bitwise identical
results.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable

from repro.core.distributions import Distribution
from repro.core.pace_graph import PaceGraph
from repro.core.paths import Path
from repro.heuristics.base import Heuristic
from repro.routing.accel import TCandidate, TExpansionKernel, accelerator_for
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.settings import RouterSettings

__all__ = ["HeuristicPaceRouter"]

HeuristicFactory = Callable[[PaceGraph, int], Heuristic]


class HeuristicPaceRouter:
    """Best-first PACE routing guided by an admissible heuristic."""

    def __init__(
        self,
        pace_graph: PaceGraph,
        heuristic_factory: HeuristicFactory,
        *,
        method_name: str,
        settings: RouterSettings | None = None,
    ):
        self._graph = pace_graph
        self._factory = heuristic_factory
        self.method_name = method_name
        self._settings = settings or RouterSettings()

    def heuristic_for(self, destination: int) -> Heuristic:
        """The destination-specific heuristic, from the factory on every call.

        The router holds no heuristics of its own.  Reuse across queries to
        the same destination — the scenario the paper's offline/online split
        targets — is the factory's job: the ones
        :func:`~repro.routing.engine.create_router` builds look the heuristic
        up in a :class:`~repro.routing.engine.HeuristicCache`.
        """
        return self._factory(self._graph, destination)

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query."""
        start = time.perf_counter()
        heuristic = self.heuristic_for(query.destination)
        best_path, best_prob, best_distribution, explored = self._search(query, heuristic)
        return RoutingResult(
            query=query,
            method=self.method_name,
            path=best_path,
            probability=best_prob,
            distribution=best_distribution,
            explored=explored,
            runtime_seconds=time.perf_counter() - start,
        )

    def _search(
        self, query: RoutingQuery, heuristic: Heuristic
    ) -> tuple[Path | None, float, Distribution | None, int]:
        budget = query.budget
        kernel = TExpansionKernel(
            self._graph,
            accelerator_for(self._graph),
            heuristic,
            budget,
            max_support=self._settings.max_support,
        )
        explored = 0
        counter = 0
        heap: list[tuple[float, int, TCandidate]] = []
        for priority, candidate in kernel.seed(query.source):
            counter += 1
            heapq.heappush(heap, (-priority, counter, candidate))

        while heap and explored < self._settings.max_explored:
            _, _, candidate = heapq.heappop(heap)
            explored += 1
            if candidate.path.target == query.destination:
                # Admissible priorities: nothing left in the queue can beat this path.
                return (
                    candidate.path,
                    candidate.distribution.prob_at_most(budget),
                    candidate.distribution,
                    explored,
                )
            for priority, child in kernel.expand(candidate):
                counter += 1
                heapq.heappush(heap, (-priority, counter, child))
        return None, 0.0, None, explored
