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

The search is the same :func:`~repro.routing.search.best_first` loop and
:class:`~repro.routing.accel.ExpansionKernel` the T-path routers run, here
with dominance admission (sequential: its outcome depends on admission
order) and memoized convolutions in place of PACE chain trails.  The
per-element loop the kernel replaces lives on as the test reference in
:mod:`repro.routing._scalar_reference`.

The returned path's distribution and probability are re-computed under
exact PACE semantics (coarsest T-path assembly) before being reported: a
candidate may correspond to a finer-than-coarsest decomposition of its road
path, whose convolution estimate differs slightly from the PACE cost of
that path, and re-evaluating makes the reported numbers directly comparable
with the T-path routers.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.distributions import Distribution
from repro.core.paths import Path
from repro.heuristics.base import Heuristic, NoHeuristic
from repro.routing.accel import ExpansionKernel
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.search import best_first
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

    def route(self, query: RoutingQuery) -> RoutingResult:
        """Evaluate one arriving-on-time query on the updated PACE graph."""
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
            dominance=self._use_dominance,
            reevaluate=self._pace_distribution,
        )

    def _pace_distribution(self, path: Path) -> Distribution:
        """The answer's cost distribution under exact PACE semantics."""
        return self._graph.pace_graph.path_cost_distribution(
            path, max_support=self._settings.max_support
        )
