"""Stochastic routing on the plain PACE graph (T-None, T-B-*, T-BS-δ).

These routers keep the PACE cost semantics: candidate distributions are
evaluated through the coarsest T-path assembly.  With an admissible
heuristic (T-B-*, T-BS-δ) the exploration is ordered and pruned by it:

* candidates are prioritised by ``maxProb`` (Eq. 3) — the probability of the
  candidate itself combined with the heuristic's bound on the remaining
  travel,
* candidates whose minimum cost plus ``getMin`` of their end vertex exceeds
  the budget are discarded, and
* the search stops as soon as the most promising candidate already ends at
  the destination (admissibility makes this safe).

Without one (T-None, PACE's own Algorithm 1) candidates are explored in
expected-cost order, only the budget test prunes, and every candidate that
reaches the destination competes until none is left.

Stochastic-dominance pruning is *not* used here: without V-paths it is
unsound in PACE (Section 2.3).

The search is :func:`~repro.routing.search.best_first` over an
:class:`~repro.routing.accel.ExpansionKernel`, whose ndarray kernels expand a
popped candidate's whole successor slice and resume the PACE chain fold of
:mod:`repro.core.chain` from per-candidate chain trails.  The per-element
loops they replace live on as the test oracle in ``tests/oracles/routing.py``;
the two return bitwise identical results.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.pace_graph import PaceGraph
from repro.heuristics.base import Heuristic, NoHeuristic
from repro.routing.accel import ExpansionKernel
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.search import best_first
from repro.routing.settings import RouterSettings

__all__ = ["HeuristicPaceRouter"]

HeuristicFactory = Callable[[PaceGraph, int], Heuristic]


class HeuristicPaceRouter:
    """Best-first PACE routing, guided by an admissible heuristic when given one."""

    def __init__(
        self,
        pace_graph: PaceGraph,
        heuristic_factory: HeuristicFactory | None = None,
        *,
        method_name: str | None = None,
        settings: RouterSettings | None = None,
    ):
        self._graph = pace_graph
        self._factory = heuristic_factory
        self.method_name = method_name or ("T-None" if heuristic_factory is None else "T-heuristic")
        self._settings = settings or RouterSettings()

    def heuristic_for(self, destination: int) -> Heuristic:
        """The destination-specific heuristic, from the factory on every call.

        The router holds no heuristics of its own.  Reuse across queries to
        the same destination — the scenario the paper's offline/online split
        targets — is the factory's job: the ones
        :func:`~repro.routing.engine.create_router` builds look the heuristic
        up in a :class:`~repro.routing.engine.HeuristicCache`.  T-None gets a
        fresh trivial :class:`NoHeuristic`, which holds no table.
        """
        if self._factory is None:
            return NoHeuristic(destination)
        return self._factory(self._graph, destination)

    @property
    def guided(self) -> bool:
        """True when an informative heuristic guides the search (early stop allowed)."""
        return self._factory is not None

    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query."""
        settings = self._settings
        return best_first(
            query,
            self.method_name,
            lambda: ExpansionKernel(
                self._graph,
                self.heuristic_for(query.destination),
                query.budget,
                max_support=settings.max_support,
                guided=self.guided,
            ),
            max_explored=settings.max_explored,
        )
