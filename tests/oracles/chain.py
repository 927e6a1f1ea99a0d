"""Reference implementation of the PACE chain fold.

:meth:`repro.core.pace_graph.PaceGraph.path_cost_distribution` walks a
path's coarsest sequence (CPS) with the array fold of
:mod:`repro.core.chain`.  This module keeps the same walk as plain nested
dicts — state shape (cost vector of the last CPS element) -> {accumulated
total -> probability} — which is how the fold reads in the paper's terms.
It exists for three reasons:

* ``tests/test_chain_fold.py`` checks that the array fold is bitwise equal
  to it on random graphs, with and without state pruning,
* the scalar search loops of :mod:`tests.oracles.routing` evaluate their
  candidates with it, so the routers' parity tests compare against a fold
  that shares no code with theirs, and
* those loops are the baseline ``benchmarks/test_query_latency_bench.py``
  times the routers against.

Pruning is not re-implemented: both folds prune with
:func:`repro.core.chain._prune_states`, which defines what pruning means.
"""

from __future__ import annotations

from repro.core.chain import DEFAULT_MAX_CHAIN_STATES, _prune_states
from repro.core.distributions import Distribution
from repro.core.elements import WeightedElement
from repro.core.errors import PathError
from repro.core.pace_graph import PaceGraph
from repro.core.paths import Path

__all__ = [
    "chain_step",
    "finish_chain_states",
    "path_cost_distribution",
    "seed_chain_states",
]

#: Chain states: (cost vector of the last CPS element) -> {total -> probability}.
ChainStates = dict[tuple[float, ...], dict[float, float]]


def path_cost_distribution(
    graph: PaceGraph,
    path: Path,
    *,
    max_support: int | None = None,
    max_states: int | None = DEFAULT_MAX_CHAIN_STATES,
) -> Distribution:
    """``graph.path_cost_distribution(path, ...)`` computed with the dict fold."""
    sequence = graph.coarsest_sequence(path)
    states = seed_chain_states(sequence[0])
    previous = sequence[0]
    for element in sequence[1:]:
        states = chain_step(states, previous, element, max_states)
        previous = element
    return finish_chain_states(states, max_support)


def seed_chain_states(first: WeightedElement) -> ChainStates:
    """The chain state after the first CPS element."""
    states: ChainStates = {}
    for costs, prob in first.joint_distribution().items():
        states.setdefault(costs, {})[sum(costs)] = states.get(costs, {}).get(sum(costs), 0.0) + prob
    return states


def chain_step(
    states: ChainStates,
    previous: WeightedElement,
    element: WeightedElement,
    max_states: int | None,
) -> ChainStates:
    """Advance the chain by one CPS element (conditioning on the overlap)."""
    overlap = previous.path.overlap_with(element.path)
    element_joint = element.joint_distribution()
    new_states: ChainStates = {}
    if overlap is None:
        for costs_next, prob_next in element_joint.items():
            added = sum(costs_next)
            bucket = new_states.setdefault(costs_next, {})
            for totals in states.values():
                for total, prob in totals.items():
                    key = total + added
                    bucket[key] = bucket.get(key, 0.0) + prob * prob_next
    else:
        overlap_edges = overlap.edges
        overlap_count = len(overlap_edges)
        prev_positions = [previous.path.edges.index(e) for e in overlap_edges]
        overlap_marginal = element_joint.marginal(overlap_edges)
        for costs_next, prob_next in element_joint.items():
            overlap_costs = costs_next[:overlap_count]
            denominator = overlap_marginal.probability_of(overlap_costs)
            if denominator <= 0:
                continue
            added = sum(costs_next[overlap_count:])
            conditional = prob_next / denominator
            bucket = new_states.setdefault(costs_next, {})
            for costs_prev, totals in states.items():
                if tuple(costs_prev[i] for i in prev_positions) != overlap_costs:
                    continue
                for total, prob in totals.items():
                    key = total + added
                    bucket[key] = bucket.get(key, 0.0) + prob * conditional
    result = {costs: totals for costs, totals in new_states.items() if totals}
    if not result:
        raise PathError(
            "path cost evaluation lost all probability mass; the T-path joints are "
            "mutually inconsistent on their overlaps"
        )
    if max_states is not None:
        result = _prune_states(result, max_states)
    return result


def finish_chain_states(states: ChainStates, max_support: int | None) -> Distribution:
    """Collapse chain states into the path's total-cost distribution."""
    accumulator: dict[float, float] = {}
    for totals in states.values():
        for total, prob in totals.items():
            accumulator[total] = accumulator.get(total, 0.0) + prob
    result = Distribution(accumulator.items(), normalise=True)
    if max_support is not None and len(result) > max_support:
        result = result.compress(max_support)
    return result
