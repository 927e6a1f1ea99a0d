"""The one best-first search behind every router (PACE Algorithm 1 and its variants).

The paper's routers differ from Algorithm 1 in four choices, and
:func:`best_first` takes each from its caller:

* the **priority** (``-maxProb`` of Eq. 3, or the expected cost) comes with
  each candidate the frontier returns;
* the **stop rule** follows the frontier's ``guided`` flag: admissible
  priorities make the first pop at the destination optimal; an unguided
  search (T-None, V-None) runs until the frontier or ``max_explored`` runs
  out and keeps the strictly best ``prob_at_most``;
* the **admission rule**, stochastic-dominance pruning, is ``dominance``
  (sound only on the updated graph ``G_p+`` and in the EDGE model);
* the **final re-evaluation** (Algorithm 5 reports PACE numbers) is
  ``reevaluate``.

Heap entries are ``(priority, insertion counter, candidate)``: the counter
breaks priority ties in push order and is the candidate's dominance id.
"""

from __future__ import annotations

import heapq
import time
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING, NamedTuple, Protocol

from repro.core.distributions import Distribution
from repro.core.paths import Path
from repro.routing.dominance import DominancePruner
from repro.routing.queries import RoutingQuery, RoutingResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.routing.accel import ChainTrail

__all__ = ["Candidate", "Frontier", "best_first"]


class Candidate(NamedTuple):
    """A heap entry's payload: a candidate path from the query source."""

    path: Path
    distribution: Distribution
    #: A lower bound on the path's cost, carried incrementally for the
    #: budget prune (unused by frontiers that prune on the distribution).
    min_cost: float = 0.0
    #: The PACE chain trail behind ``distribution`` (plain PACE graph only).
    trail: ChainTrail | None = None


class Frontier(Protocol):
    """What :func:`best_first` pops from: seeds and expansions with priorities."""

    #: True when priorities are admissible bounds (first destination pop wins).
    guided: bool

    def seed(self, source: int) -> Iterable[tuple[float, Candidate]]: ...

    def expand(self, candidate: Candidate) -> Iterable[tuple[float, Candidate]]: ...


def best_first(
    query: RoutingQuery,
    method: str,
    open_frontier: Callable[[], Frontier],
    *,
    max_explored: int,
    dominance: bool = False,
    reevaluate: Callable[[Path], Distribution] | None = None,
) -> RoutingResult:
    """Answer ``query`` by best-first search over the frontier ``open_frontier`` builds.

    The timed span covers opening the frontier (which looks up the
    destination's heuristic), the search and the re-evaluation.
    """
    start = time.perf_counter()
    frontier = open_frontier()
    guided = frontier.guided
    destination = query.destination
    budget = query.budget
    pruner = DominancePruner() if dominance else None
    heap: list[tuple[float, int, Candidate]] = []
    counter = 0

    def push(entries: Iterable[tuple[float, Candidate]]) -> None:
        nonlocal counter
        for priority, candidate in entries:
            counter += 1
            if pruner is not None and not pruner.admit(
                counter, candidate.path.target, candidate.distribution
            ):
                continue
            heapq.heappush(heap, (priority, counter, candidate))

    push(frontier.seed(query.source))
    found: Candidate | None = None
    probability = 0.0
    explored = 0
    while heap and explored < max_explored:
        _, candidate_id, candidate = heapq.heappop(heap)
        if pruner is not None and pruner.is_pruned(candidate_id):
            continue
        explored += 1
        if candidate.path.target == destination:
            arrival = candidate.distribution.prob_at_most(budget)
            if guided:
                found, probability = candidate, arrival
                break
            if arrival > probability:
                found, probability = candidate, arrival
            continue
        push(frontier.expand(candidate))

    path: Path | None = None
    distribution: Distribution | None = None
    if found is not None:
        path, distribution = found.path, found.distribution
        if reevaluate is not None:
            distribution = reevaluate(path)
            probability = distribution.prob_at_most(budget)
    return RoutingResult(
        query=query,
        method=method,
        path=path,
        probability=probability,
        distribution=distribution,
        explored=explored,
        runtime_seconds=time.perf_counter() - start,
    )
