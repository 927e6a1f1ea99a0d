"""The PACE chain fold: a path's total-cost distribution along its coarsest sequence.

Eq. 1 evaluates a path by assembling the joints of its coarsest T-path
sequence (CPS).  :meth:`~repro.core.pace_graph.PaceGraph.path_cost_distribution`
never materialises that joint: it walks the CPS and keeps, for every possible
cost vector of the *last* element, the distribution of the accumulated total
(the chain *states*).  Folding in the next element conditions on the edges it
shares with the last one, which are a subset of the last element's edges, so
the walk is exact for Eq. 1.  This module is that walk, the only one in the
package; the routers' frontier kernel (:mod:`repro.routing.accel`) resumes it
from per-candidate checkpoints.

* :class:`ArrayChainStates` holds the states as one flat support with
  per-outcome slices (CSR layout).
* :func:`seed_states`, :func:`chain_step` and :func:`finish_states` are the
  three steps of the walk: the states after the first CPS element, the fold
  of one more element, and the collapse into the path's distribution.
* :class:`FoldPlans` memoizes everything about a fold that does not depend
  on the states; each :class:`~repro.core.pace_graph.PaceGraph` holds one
  (:attr:`~repro.core.pace_graph.PaceGraph.fold_plans`).

A fold runs per overlap-projection group as one grouping (``np.unique``)
plus a 2-D broadcast and one flat segment accumulation (``np.bincount``,
which adds repeated indices one at a time in array order).  Groups too small
to amortize numpy's fixed call costs run a plain dict loop instead.  Either
way every total is accumulated in the same order, with the same float
operations, as the textbook dict-of-dicts fold that ``tests/oracles/chain.py``
keeps as the test oracle; ``tests/test_chain_fold.py`` pins the two bitwise
equal, pruning included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.distributions import Distribution
from repro.core.elements import WeightedElement
from repro.core.errors import PathError

__all__ = [
    "DEFAULT_MAX_CHAIN_STATES",
    "ArrayChainStates",
    "FoldPlans",
    "chain_step",
    "finish_states",
    "seed_states",
]

#: Default bound on the (last-element outcome, total) states kept while
#: walking a coarsest sequence (see :meth:`PaceGraph.path_cost_distribution`).
#: The frontier accelerator resumes chains from checkpoints and must prune
#: with exactly the same bound to stay result-identical.
DEFAULT_MAX_CHAIN_STATES = 4096

#: Chain states in dict form: (cost vector of the last CPS element) ->
#: {accumulated total -> probability}.  Only pruning works on this form.
ChainStates = dict[tuple[float, ...], dict[float, float]]


@dataclass(frozen=True)
class ArrayChainStates:
    """Chain states as one flat support with per-outcome slices (CSR layout).

    ``totals[offsets[k]:offsets[k + 1]]`` (and the same slice of ``probs``)
    holds the accumulated-total support of outcome ``outcomes[k]`` in
    *first-encounter order*, and the outcomes appear in the order the fold
    first produced them, so the flat arrays read end to end in the fold's
    accumulation order.  That makes finishing a chain (one segment sum over
    the whole support) and disjoint folds (every state participates)
    zero-copy.  Arrays are never mutated after construction, so one state is
    safely shared by every child that resumes a chain from it.
    """

    outcomes: tuple[tuple[float, ...], ...]
    offsets: tuple[int, ...]
    totals: np.ndarray
    probs: np.ndarray


def _states_from_dicts(states: ChainStates) -> ArrayChainStates:
    """Dict-of-dicts chain states -> flat arrays (iteration order kept)."""
    flat_totals: list[float] = []
    flat_probs: list[float] = []
    offsets = [0]
    for bucket in states.values():
        flat_totals.extend(bucket.keys())
        flat_probs.extend(bucket.values())
        offsets.append(len(flat_totals))
    return ArrayChainStates(
        tuple(states.keys()),
        tuple(offsets),
        np.asarray(flat_totals, dtype=float),
        np.asarray(flat_probs, dtype=float),
    )


def _states_to_dicts(states: ArrayChainStates) -> ChainStates:
    """Flat arrays -> dict-of-dicts (insertion order = first-encounter order)."""
    totals = states.totals.tolist()
    probs = states.probs.tolist()
    return {
        outcome: dict(zip(totals[start:stop], probs[start:stop]))
        for outcome, start, stop in zip(states.outcomes, states.offsets, states.offsets[1:])
    }


def seed_states(element: WeightedElement) -> ArrayChainStates:
    """The chain state after the first CPS element."""
    states: ChainStates = {}
    for costs, prob in element.joint_distribution().items():
        bucket = states.setdefault(costs, {})
        total = sum(costs)
        bucket[total] = bucket.get(total, 0.0) + prob
    return _states_from_dicts(states)


def _ordered_segment_sum(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum ``values`` per distinct key, exactly like a sequential dict loop.

    Returns the distinct keys in first-encounter order with their per-key
    sums accumulated in array order — bitwise identical to
    ``d[k] = d.get(k, 0.0) + v`` over ``zip(keys, values)``: ``np.bincount``
    adds repeated bins one element at a time in array order, so every
    per-key addition chain associates exactly as the dict loop does.
    """
    unique, first_index, inverse = np.unique(keys, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=values, minlength=len(unique))
    order = np.argsort(first_index)
    return unique[order], sums[order]


# ---------------------------------------------------------------------- #
# Fold plans: the state-independent half of a fold, memoized per graph
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _FoldGroupPlan:
    """The outcomes of a fold plan that share one overlap projection.

    ``weights[j]`` is the factor every matching state probability is scaled
    by for the group's ``j``-th outcome — the outcome's own probability for
    a disjoint fold, or its conditional probability given the overlap.
    ``added[j]`` is the constant every accumulated total is shifted by (the
    outcome's cost mass past the overlap).  Both are cached because they
    only depend on the element pair.  ``positions`` are the outcomes'
    indices in the plan-wide emit order (the element joint's iteration
    order), which the fold must reproduce because it is the downstream
    accumulation order.
    """

    projection: tuple[float, ...]
    costs: tuple[tuple[float, ...], ...]
    weights: np.ndarray
    added: np.ndarray
    positions: tuple[int, ...]


@dataclass(frozen=True)
class _FoldPlan:
    """The state-independent part of one chain fold, cached per element pair.

    ``prev_positions`` is empty for a disjoint fold (all states form one
    group under the empty projection).  ``count`` is the number of surviving
    outcomes across all groups; outcomes whose overlap marginal carries no
    mass are dropped here, since they can never be reached.
    """

    prev_positions: tuple[int, ...]
    count: int
    groups: tuple[_FoldGroupPlan, ...]


def _build_fold_plan(previous: WeightedElement, element: WeightedElement) -> _FoldPlan:
    """Precompute a fold's per-outcome constants for one element pair."""
    overlap = previous.path.overlap_with(element.path)
    joint = element.joint_distribution()
    if overlap is None:
        prev_positions: tuple[int, ...] = ()
        survivors = [((), costs, prob, sum(costs)) for costs, prob in joint.items()]
    else:
        overlap_edges = overlap.edges
        overlap_count = len(overlap_edges)
        prev_positions = tuple(previous.path.edges.index(e) for e in overlap_edges)
        marginal = joint.marginal(overlap_edges)
        survivors = []
        for costs, prob in joint.items():
            overlap_costs = costs[:overlap_count]
            denominator = marginal.probability_of(overlap_costs)
            if denominator <= 0:
                continue
            survivors.append((overlap_costs, costs, prob / denominator, sum(costs[overlap_count:])))
    by_projection: dict[tuple[float, ...], list[tuple[int, tuple[float, ...], float, float]]] = {}
    for position, (projection, costs, weight, added) in enumerate(survivors):
        by_projection.setdefault(projection, []).append((position, costs, weight, added))
    groups = tuple(
        _FoldGroupPlan(
            projection=projection,
            costs=tuple(entry[1] for entry in entries),
            weights=np.array([entry[2] for entry in entries]),
            added=np.array([entry[3] for entry in entries]),
            positions=tuple(entry[0] for entry in entries),
        )
        for projection, entries in by_projection.items()
    )
    return _FoldPlan(prev_positions, len(survivors), groups)


class FoldPlans:
    """The fold plans of one graph's consecutive CPS element pairs.

    A plan is a pure function of the two elements' paths and joints, so it
    is computed once per pair (keyed by the edge tuples: CPS construction
    re-derives elements as fresh objects) and shared by every chain step
    and every query over the graph.  The graph replaces its memo whenever
    its content changes.

    Threads share it without a lock, which would also keep the graph from
    pickling: ``dict.get`` and ``dict.setdefault`` are each atomic, and two
    threads that miss on the same pair both build the same pure plan and
    return the one inserted first.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple[tuple[int, ...], tuple[int, ...]], _FoldPlan] = {}

    def get(self, previous: WeightedElement, element: WeightedElement) -> _FoldPlan:
        """The plan of folding ``element`` onto a chain whose last element is ``previous``."""
        key = (previous.path.edges, element.path.edges)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans.setdefault(key, _build_fold_plan(previous, element))
        return plan


# ---------------------------------------------------------------------- #
# The fold
# ---------------------------------------------------------------------- #

#: Below this many (state entry x outcome) products, a fold group runs a
#: plain dict loop instead of the 2-D ndarray path: numpy's fixed per-group
#: cost (unique + argsort + broadcasts + bincount, ~20us) dwarfs a few
#: hundred Python float operations, and fragmented overlap folds shatter
#: into dozens of such tiny groups.  Both paths accumulate in the same
#: order, so the choice cannot change a bit.  Tuned on the city workload's
#: T-B-P queries (the measured crossover sits between 256 and 512
#: entry-products).
_VECTOR_FOLD_MIN_WORK = 256


def chain_step(
    plans: FoldPlans,
    states: ArrayChainStates,
    previous: WeightedElement,
    element: WeightedElement,
    max_states: int | None,
) -> ArrayChainStates:
    """Advance the chain by one CPS element, conditioning on the overlap.

    Every (outcome, total) entry of the states whose last-element costs
    agree with an outcome of ``element`` on the shared edges moves to that
    outcome: its total is shifted by the outcome's added cost and its
    probability scaled by the outcome's (conditional) weight, and equal keys
    merge as they go.  All outcomes of one overlap projection fold together
    over the flat state support (for a disjoint fold that is the whole
    ``states.totals`` array, zero-copy): the matching entries are
    deduplicated once (``np.unique``), the shift/scale runs as a single 2-D
    broadcast over (outcome, entry), and the merges are one flat
    ``np.bincount`` whose row-major order adds every bucket's contributions
    in entry order.  Groups whose total work is tiny (see
    :data:`_VECTOR_FOLD_MIN_WORK`) run a plain dict loop instead, and
    outcomes where the vector path could merge *differently* — two distinct
    totals colliding onto one key after a shift — are replayed through the
    dict loop as well.  When more than ``max_states`` entries remain, the
    folded result is pruned (:func:`_prune_states`).
    """
    plan = plans.get(previous, element)
    count = plan.count
    out_outcomes: list[tuple[float, ...] | None] = [None] * count
    out_totals: list[np.ndarray | list[float] | None] = [None] * count
    out_probs: list[np.ndarray | list[float] | None] = [None] * count
    members: dict[tuple[float, ...], list[int]] | None = None
    if plan.prev_positions:
        members = {}
        for position, costs_prev in enumerate(states.outcomes):
            projection = tuple(costs_prev[i] for i in plan.prev_positions)
            members.setdefault(projection, []).append(position)
    offsets = states.offsets
    for group in plan.groups:
        if members is None:
            # Disjoint fold: every state matches every outcome, and the flat
            # layout already concatenates them in accumulation order.
            totals_flat = states.totals
            probs_flat = states.probs
        else:
            positions = members.get(group.projection)
            if positions is None:
                continue  # no state agrees on the overlap: these outcomes stay empty
            if len(positions) == 1:
                i = positions[0]
                totals_flat = states.totals[offsets[i] : offsets[i + 1]]
                probs_flat = states.probs[offsets[i] : offsets[i + 1]]
            else:
                totals_flat = np.concatenate(
                    [states.totals[offsets[i] : offsets[i + 1]] for i in positions]
                )
                probs_flat = np.concatenate(
                    [states.probs[offsets[i] : offsets[i + 1]] for i in positions]
                )
        outcome_count = len(group.costs)
        entries = len(totals_flat)
        if entries * outcome_count < _VECTOR_FOLD_MIN_WORK:
            # Tiny group: a plain dict loop beats numpy's fixed costs.
            totals_list = totals_flat.tolist()
            probs_list = probs_flat.tolist()
            added_list = group.added.tolist()
            weights_list = group.weights.tolist()
            for j in range(outcome_count):
                added = added_list[j]
                weight = weights_list[j]
                bucket: dict[float, float] = {}
                get = bucket.get
                for total, prob in zip(totals_list, probs_list):
                    key = total + added
                    bucket[key] = get(key, 0.0) + prob * weight
                position = group.positions[j]
                out_outcomes[position] = group.costs[j]
                out_totals[position] = list(bucket.keys())
                out_probs[position] = list(bucket.values())
            continue
        unique, first_index, inverse = np.unique(totals_flat, return_index=True, return_inverse=True)
        order = np.argsort(first_index)
        bins = len(unique)
        # Shifted keys stay sorted ascending unless the shift collides.
        keys = unique[None, :] + group.added[:, None]
        scaled = probs_flat[None, :] * group.weights[:, None]
        flat_bins = (np.arange(outcome_count, dtype=np.int64)[:, None] * bins + inverse[None, :]).ravel()
        sums = np.bincount(flat_bins, weights=scaled.ravel(), minlength=outcome_count * bins).reshape(
            outcome_count, bins
        )
        keys_ordered = keys[:, order]
        sums_ordered = sums[:, order]
        collides = (
            (keys[:, 1:] == keys[:, :-1]).any(axis=1) if bins > 1 else np.zeros(outcome_count, dtype=bool)
        )
        if outcome_count == count and not collides.any():
            # One group covering every outcome with uniform support: the
            # ordered rows concatenate into the CSR arrays directly.
            total_entries = outcome_count * bins
            if max_states is None or total_entries <= max_states:
                return ArrayChainStates(
                    group.costs,
                    tuple(range(0, total_entries + 1, bins)),
                    keys_ordered.ravel(),
                    sums_ordered.ravel(),
                )
        for j in range(outcome_count):
            position = group.positions[j]
            out_outcomes[position] = group.costs[j]
            if collides[j]:
                fallback: dict[float, float] = {}
                for key, value in zip((totals_flat + group.added[j]).tolist(), scaled[j].tolist()):
                    fallback[key] = fallback.get(key, 0.0) + value
                out_totals[position] = list(fallback.keys())
                out_probs[position] = list(fallback.values())
            else:
                out_totals[position] = keys_ordered[j]
                out_probs[position] = sums_ordered[j]
    survivors = [k for k in range(count) if out_totals[k] is not None]
    if not survivors:
        raise PathError(
            "path cost evaluation lost all probability mass; the T-path joints are "
            "mutually inconsistent on their overlaps"
        )
    pieces_totals = [out_totals[k] for k in survivors]
    pieces_probs = [out_probs[k] for k in survivors]
    out_offsets = [0] * (len(survivors) + 1)
    for index, piece in enumerate(pieces_totals):
        out_offsets[index + 1] = out_offsets[index] + len(piece)  # type: ignore[arg-type]
    if len(pieces_totals) == 1:
        flat_totals = np.asarray(pieces_totals[0], dtype=float)
        flat_probs = np.asarray(pieces_probs[0], dtype=float)
    elif out_offsets[-1] < 512:
        # Fragmented steps produce dozens of tiny list pieces; extending one
        # flat list and converting once beats np.concatenate's per-piece
        # conversion overhead.
        totals_acc: list[float] = []
        probs_acc: list[float] = []
        for piece_t, piece_p in zip(pieces_totals, pieces_probs):
            totals_acc.extend(piece_t if type(piece_t) is list else piece_t.tolist())
            probs_acc.extend(piece_p if type(piece_p) is list else piece_p.tolist())
        flat_totals = np.asarray(totals_acc, dtype=float)
        flat_probs = np.asarray(probs_acc, dtype=float)
    else:
        flat_totals = np.concatenate(pieces_totals)  # type: ignore[arg-type]
        flat_probs = np.concatenate(pieces_probs)  # type: ignore[arg-type]
    result = ArrayChainStates(
        tuple(out_outcomes[k] for k in survivors),  # type: ignore[misc]
        tuple(out_offsets),
        flat_totals,
        flat_probs,
    )
    if max_states is not None and out_offsets[-1] > max_states:
        # Far above any bounded workload's state count; pruning works on
        # the dict form.
        return _states_from_dicts(_prune_states(_states_to_dicts(result), max_states))
    return result


def finish_states(states: ArrayChainStates, max_support: int | None) -> Distribution:
    """Collapse chain states into the path's total-cost distribution.

    The CSR layout makes this a single segment sum over the already-flat
    support, accumulated in the fold's order.  ``max_support`` optionally
    compresses the result.
    """
    totals, sums = _ordered_segment_sum(states.totals, states.probs)
    result = Distribution.from_support_arrays(totals, sums, normalise=True)
    if max_support is not None and len(result) > max_support:
        result = result.compress(max_support)
    return result


def _prune_states(states: ChainStates, max_states: int) -> ChainStates:
    """Keep at most ``max_states`` (outcome, total) entries, merging the rest.

    Low-probability totals are folded into the most likely total of the same
    outcome so probability mass (and approximately the mean) is preserved.
    """
    flat = [(prob, costs, total) for costs, totals in states.items() for total, prob in totals.items()]
    if len(flat) <= max_states:
        return states
    flat.sort(reverse=True)
    kept = flat[:max_states]
    dropped = flat[max_states:]
    pruned: ChainStates = {}
    for prob, costs, total in kept:
        pruned.setdefault(costs, {})[total] = pruned.get(costs, {}).get(total, 0.0) + prob
    for prob, costs, total in dropped:
        bucket = pruned.get(costs)
        if bucket:
            # merge onto the nearest surviving total of the same outcome
            nearest = min(bucket, key=lambda t, total=total: abs(t - total))
            bucket[nearest] += prob
        else:
            # outcome lost entirely: fold into the globally most likely state
            top_costs = kept[0][1]
            top_total = kept[0][2]
            pruned[top_costs][top_total] += prob
    return pruned
