"""Batched frontier expansion: the per-query search hot path as ndarray kernels.

The best-first routers (:mod:`repro.routing.tpath_routing`,
:mod:`repro.routing.vpath_routing`) pop one candidate at a time but then
iterate its successor elements in pure Python: cycle check, budget prune,
path-cost evaluation and one Eq. 3 ``maxProb`` call *per edge*.  This module
compiles that inner loop into bulk operations over a pre-enumerated layout:

* :class:`FrontierAccelerator` — built once per graph (cached by content
  fingerprint via :func:`accelerator_for`), it flattens every vertex's
  ``outgoing_elements`` into CSR-style ndarrays: successor targets, element
  min-costs (distribution minima and edge-graph minima), simple-path flags,
  the elements' inner vertices for cycle masking, and the concatenated
  support value/probability columns of the element distributions.  A popped
  candidate's entire successor set is one slice.

* :class:`TExpansionKernel` / :class:`VExpansionKernel` — per-query kernels
  that evaluate the budget prune (``path_min_cost + getMin > B``), the
  incremental candidate min-cost, and the ``maxProb`` priorities of *all*
  surviving successors in a handful of ndarray ops — one segmented
  :func:`~repro.heuristics.base.max_prob_segments` call per expansion
  (reduced with ``np.add.reduceat``) instead of one ``max_prob`` per edge.

* :class:`ChainTrail` — the T-kernel's PACE-evaluation cache.  The dominant
  per-expansion cost is :meth:`PaceGraph.path_cost_distribution`, which
  walks the coarsest T-path sequence (CPS) from scratch for every pushed
  successor.  Each candidate instead carries its whole CPS with the chain
  states after every milestone, and a successor reuses the longest prefix
  that provably survives the extension: when no graph element contains the
  junction edge pair (pre-indexed in ``crossing_pairs``), the parent's
  *entire* CPS survives and the child chain-steps only its own new
  elements; otherwise milestones up to ``len(parent) - L`` survive
  unconditionally (no element is long enough to reach the junction from
  there) and deeper ones are verified against the child's re-derived greedy
  choices.  Finished evaluations additionally memoize on the accelerator:
  a path's cost distribution depends only on the graph, never on the query,
  so candidates, queries and routers sharing one accelerator skip chain
  walks other searches already performed.

* :class:`ArrayChainStates` — the chain folds themselves run array-native.
  The reference fold (:meth:`PaceGraph.chain_step`) shifts and scales every
  live (outcome, total) entry through Python dicts; the kernel keeps the
  states as one flat support with per-outcome slices (CSR layout) and
  performs each fold per overlap-projection group as one grouping
  (``np.unique``) plus a 2-D broadcast and one flat segment accumulation
  (``np.bincount``, which adds repeated indices one at a time in array
  order — exactly the dict loop's accumulation order); groups too small to
  amortize numpy's fixed call costs run the reference dict loop verbatim
  instead.  Every float operation matches the reference fold bitwise.

Every kernel decision is arithmetically identical to the per-element loop it
replaces (same float operations in the same order), so the routers return
bitwise the same results as the scalar reference loops kept in
:mod:`repro.routing._scalar_reference` — property-tested in
``tests/test_expansion_parity.py``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.distributions import Distribution
from repro.core.elements import WeightedElement
from repro.core.errors import PathError
from repro.core.pace_graph import DEFAULT_MAX_CHAIN_STATES, PaceGraph
from repro.core.paths import Path
from repro.heuristics.base import Heuristic, max_prob_segments
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "FrontierAccelerator",
    "accelerator_for",
    "ArrayChainStates",
    "ChainTrail",
    "TCandidate",
    "TExpansionKernel",
    "VExpansionKernel",
]

#: Chain states: (cost vector of the last CPS element) -> {total -> probability}.
ChainStates = dict[tuple[float, ...], dict[float, float]]

#: Graphs the accelerator can be built over.
GraphLike = PaceGraph | UpdatedPaceGraph


class FrontierAccelerator:
    """CSR-style flat ndarray layout over a graph's ``outgoing_elements``.

    Built once per graph content (see :func:`accelerator_for`); all arrays are
    indexed by *slot*, where the slots of vertex ``v``'s successor elements
    are the contiguous range ``offsets[row(v)] : offsets[row(v) + 1]``, in
    exactly the order ``graph.outgoing_elements(v)`` yields them (so the
    kernels push candidates in the same heap order as the scalar reference).
    """

    def __init__(self, graph: GraphLike) -> None:
        pace = graph.pace_graph if isinstance(graph, UpdatedPaceGraph) else graph
        self.fingerprint: str = graph.content_fingerprint()
        #: Upper bound on how many edges any CPS element can span (the
        #: trail stability window of the T-kernel).
        self.max_cardinality: int = pace.max_element_cardinality()
        #: Every consecutive edge pair occurring inside a T-path.  An element
        #: of a path's CPS can only straddle the junction where an extension
        #: was appended if its own edges contain the two junction edges
        #: back to back — single-edge elements never can, and single-edge
        #: T-paths are folded into the edge weights — so a junction pair
        #: absent from this set proves the parent's whole CPS survives the
        #: extension (the T-kernel's fast path).
        self.crossing_pairs: frozenset[tuple[int, int]] = frozenset(
            pair for tpath in pace.tpaths() for pair in itertools.pairwise(tpath.path.edges)
        )
        vertex_ids = sorted(pace.network.vertex_ids())
        self._row_of: dict[int, int] = {v: i for i, v in enumerate(vertex_ids)}
        elements: list[WeightedElement] = []
        offsets = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        for row, vertex in enumerate(vertex_ids):
            elements.extend(graph.outgoing_elements(vertex))
            offsets[row + 1] = len(elements)
        self.offsets: np.ndarray = offsets
        self.elements: list[WeightedElement] = elements
        count = len(elements)
        self.targets: np.ndarray = np.fromiter(
            (e.path.target for e in elements), dtype=np.int64, count=count
        )
        self.dist_min: np.ndarray = np.fromiter(
            (e.distribution.min() for e in elements), dtype=float, count=count
        )
        self.edge_min: np.ndarray = np.fromiter(
            (pace.path_min_cost(e.path) for e in elements), dtype=float, count=count
        )
        self.simple: np.ndarray = np.fromiter(
            (e.path.is_simple() for e in elements), dtype=bool, count=count
        )
        #: Per slot: the element's vertices past its source — what a cycle
        #: check needs to test against the candidate path's visited set.
        self.inner_vertices: list[tuple[int, ...]] = [e.path.vertices[1:] for e in elements]
        support_offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum([len(e.distribution) for e in elements], out=support_offsets[1:])
        self.support_offsets: np.ndarray = support_offsets
        self.support_values: np.ndarray = (
            np.concatenate([e.distribution.values_array for e in elements])
            if elements
            else np.empty(0)
        )
        self.support_probs: np.ndarray = (
            np.concatenate([e.distribution.probabilities_array for e in elements])
            if elements
            else np.empty(0)
        )
        self._lock = threading.Lock()
        self._target_min_costs: weakref.WeakKeyDictionary[Heuristic, np.ndarray] = (
            weakref.WeakKeyDictionary()
        )
        self._fold_plans: dict[tuple[tuple[int, ...], tuple[int, ...]], _FoldPlan] = {}
        self._evaluations: OrderedDict[
            tuple[tuple[int, ...], int], tuple[Distribution, "ChainTrail"]
        ] = OrderedDict()
        self._convolutions: OrderedDict[tuple[bytes, bytes, int, int], Distribution] = OrderedDict()

    def slot_range(self, vertex: int) -> tuple[int, int]:
        """The slot range ``[lo, hi)`` of a vertex's successor elements."""
        row = self._row_of.get(vertex)
        if row is None:
            return 0, 0
        return int(self.offsets[row]), int(self.offsets[row + 1])

    def target_min_costs(self, heuristic: Heuristic) -> np.ndarray:
        """``getMin(target)`` per slot, cached per heuristic instance.

        One vectorized ``min_cost_many`` over all slots per (graph,
        heuristic) pair; thereafter every expansion prices its successor
        slice with a plain array slice.  Keyed weakly so evicted heuristics
        release their column.
        """
        with self._lock:
            cached = self._target_min_costs.get(heuristic)
        if cached is not None:
            return cached
        values = np.asarray(heuristic.min_cost_many(self.targets), dtype=float)
        values.setflags(write=False)
        with self._lock:
            existing = self._target_min_costs.get(heuristic)
            if existing is not None:
                return existing
            self._target_min_costs[heuristic] = values
        return values

    def fold_plan(self, previous: WeightedElement, element: WeightedElement) -> "_FoldPlan":
        """The cached fold plan of one consecutive CPS element pair.

        Everything state-independent about the fold — the overlap structure,
        the conditional weights and total shifts per element outcome — is a
        pure function of the two elements' paths and joints, so it is
        computed once per pair (keyed by the edge tuples: elements are
        re-derived as fresh objects during CPS construction) and shared by
        every chain step and every query over this graph.
        """
        key = (previous.path.edges, element.path.edges)
        with self._lock:
            plan = self._fold_plans.get(key)
        if plan is not None:
            return plan
        built = _build_fold_plan(previous, element)
        with self._lock:
            return self._fold_plans.setdefault(key, built)

    def evaluation_get(
        self, key: tuple[tuple[int, ...], int]
    ) -> tuple[Distribution, "ChainTrail"] | None:
        """A memoized chain evaluation, keyed by ``(path edges, max_support)``.

        A path's cost distribution (and the chain trail behind it) is a pure
        function of the immutable graph content the accelerator was built
        over — not of any query — so evaluations memoize across candidates,
        queries and routers sharing this accelerator.  This is the path-level
        analogue of :meth:`fold_plan`: repeated queries over the same network
        re-explore largely the same frontier, and a hit skips the whole chain
        walk.  Capacity-bounded LRU (:data:`_EVALUATION_CACHE_SIZE`); trail
        states are shared tuples, so an entry's marginal footprint is one
        chain state plus one distribution.
        """
        with self._lock:
            entry = self._evaluations.get(key)
            if entry is not None:
                self._evaluations.move_to_end(key)
            return entry

    def evaluation_put(
        self, key: tuple[tuple[int, ...], int], value: tuple[Distribution, "ChainTrail"]
    ) -> None:
        """Memoize one chain evaluation (first insert wins, LRU-bounded)."""
        with self._lock:
            self._evaluations.setdefault(key, value)
            while len(self._evaluations) > _EVALUATION_CACHE_SIZE:
                self._evaluations.popitem(last=False)

    def convolution_get(self, key: tuple[bytes, bytes, int, int]) -> Distribution | None:
        """A memoized candidate convolution, the V-router analogue of
        :meth:`evaluation_get`.

        A V-path candidate's distribution is the convolution chain of its
        element decomposition (Lemma 4.1), so extending a parent distribution
        by a slot's element is a pure function of ``(parent content, slot,
        max_support)`` — the parent's support arrays serve as the content key
        (two paths with bitwise-equal distributions convolve to bitwise-equal
        results).  Repeated queries over the same network — the same
        source–destination pair at several budgets, most obviously — re-walk
        the same candidates and skip the convolution outright.
        """
        with self._lock:
            entry = self._convolutions.get(key)
            if entry is not None:
                self._convolutions.move_to_end(key)
            return entry

    def convolution_put(self, key: tuple[bytes, bytes, int, int], value: Distribution) -> None:
        """Memoize one candidate convolution (first insert wins, LRU-bounded)."""
        with self._lock:
            self._convolutions.setdefault(key, value)
            while len(self._convolutions) > _EVALUATION_CACHE_SIZE:
                self._convolutions.popitem(last=False)

    def clear_evaluations(self) -> None:
        """Drop the evaluation + convolution memos (benchmarks isolating the cold hot path)."""
        with self._lock:
            self._evaluations.clear()
            self._convolutions.clear()

    def support_segments(
        self, slots: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The concatenated distribution supports of the given slots.

        Returns ``(values, probabilities, offsets)`` ready for
        :func:`~repro.heuristics.base.max_prob_segments`.
        """
        starts = self.support_offsets[slots]
        counts = self.support_offsets[slots + 1] - starts
        offsets = np.zeros(len(slots) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        positions = np.arange(offsets[-1], dtype=np.int64) + np.repeat(
            starts - offsets[:-1], counts
        )
        return self.support_values[positions], self.support_probs[positions], offsets


# ---------------------------------------------------------------------- #
# Fingerprint-keyed accelerator cache (shared across routers and engines)
# ---------------------------------------------------------------------- #

#: Bound on memoized chain evaluations per accelerator.  Sized for a serving
#: tier's working set (a few thousand distinct frontier paths per workload);
#: entries share their trail-prefix arrays, so the marginal footprint per
#: entry is a few kilobytes.
_EVALUATION_CACHE_SIZE = 16384

_MAX_CACHED_ACCELERATORS = 8
_cache_lock = threading.Lock()
_accelerators: OrderedDict[str, FrontierAccelerator] = OrderedDict()


def accelerator_for(graph: GraphLike) -> FrontierAccelerator:
    """The (cached) frontier accelerator of a graph, keyed by content fingerprint.

    Routers over structurally identical graphs — every router of one engine,
    or several engines booted from the same artifact store — share one
    accelerator; graphs mutated after acceleration (``add_tpath``) get a
    fresh one because their fingerprint changes.  The cache keeps the most
    recently used few and is thread-safe (a concurrent duplicate build is
    benign: the first insert wins).
    """
    fingerprint = graph.content_fingerprint()
    with _cache_lock:
        cached = _accelerators.get(fingerprint)
        if cached is not None:
            _accelerators.move_to_end(fingerprint)
            return cached
    built = FrontierAccelerator(graph)
    with _cache_lock:
        cached = _accelerators.get(fingerprint)
        if cached is not None:
            return cached
        _accelerators[fingerprint] = built
        while len(_accelerators) > _MAX_CACHED_ACCELERATORS:
            _accelerators.popitem(last=False)
    return built


# ---------------------------------------------------------------------- #
# Array-native PACE chain folds (bitwise equal to PaceGraph's dict fold)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ArrayChainStates:
    """Chain states as one flat support with per-outcome slices (CSR layout).

    ``totals[offsets[k]:offsets[k + 1]]`` (and the same slice of ``probs``)
    holds the accumulated-total support of outcome ``outcomes[k]`` in
    *first-encounter order* — exactly the insertion order of the reference
    fold's inner dicts — and the outcomes appear in the reference's
    outer-dict order, so the flat arrays read end to end exactly as the
    reference iterates its buckets.  That makes finishing a chain (one
    segment sum over the whole support) and disjoint folds (every state
    participates) zero-copy.  Arrays are never mutated after construction,
    so one state is safely shared by every child that resumes a chain from
    it.
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
        for outcome, start, stop in zip(
            states.outcomes, states.offsets, states.offsets[1:]
        )
    }


def _seed_states(element: WeightedElement) -> ArrayChainStates:
    """The chain state after the first CPS element (mirrors ``seed_chain_states``)."""
    states: ChainStates = {}
    for costs, prob in element.joint_distribution().items():
        bucket = states.setdefault(costs, {})
        total = sum(costs)
        bucket[total] = bucket.get(total, 0.0) + prob
    return _states_from_dicts(states)


def _ordered_segment_sum(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass(frozen=True)
class _FoldGroupPlan:
    """The outcomes of a fold plan that share one overlap projection.

    ``weights[j]`` is the factor every matching state probability is scaled
    by for the group's ``j``-th outcome — the outcome's own probability for
    a disjoint fold, or its conditional probability given the overlap.
    ``added[j]`` is the constant every accumulated total is shifted by (the
    outcome's cost mass past the overlap).  Both are the exact floats the
    reference fold computes per step, cached because they only depend on
    the element pair.  ``positions`` are the outcomes' indices in the
    plan-wide emit order (the element joint's iteration order), which the
    fold must reproduce because it is the downstream accumulation order.
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
    mass are dropped here, exactly as the reference skips them.
    """

    prev_positions: tuple[int, ...]
    count: int
    groups: tuple[_FoldGroupPlan, ...]


def _build_fold_plan(previous: WeightedElement, element: WeightedElement) -> _FoldPlan:
    """Precompute the reference fold's per-outcome constants for one element pair."""
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
            survivors.append(
                (overlap_costs, costs, prob / denominator, sum(costs[overlap_count:]))
            )
    by_projection: dict[
        tuple[float, ...], list[tuple[int, tuple[float, ...], float, float]]
    ] = {}
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


#: Below this many (state entry x outcome) products, a fold group runs the
#: reference dict loop directly instead of the 2-D ndarray path: numpy's
#: fixed per-group cost (unique + argsort + broadcasts + bincount, ~20us)
#: dwarfs a few hundred Python float operations, and fragmented overlap
#: folds shatter into dozens of such tiny groups.  The dict loop *is* the
#: reference, so the hybrid cannot disturb parity.  Tuned on the city
#: workload's T-B-P queries (the measured crossover sits between 256 and
#: 512 entry-products).
_VECTOR_FOLD_MIN_WORK = 256


def _chain_step(
    graph: PaceGraph,
    accel: FrontierAccelerator,
    states: ArrayChainStates,
    previous: WeightedElement,
    element: WeightedElement,
    max_states: int | None,
) -> ArrayChainStates:
    """Advance the chain by one CPS element, bitwise like ``PaceGraph.chain_step``.

    The reference shifts every accumulated total by the new outcome's added
    cost and scales every probability by its (conditional) weight, merging
    equal keys as it goes.  Here all outcomes of one overlap projection fold
    together over the flat state support (for a disjoint fold that is the
    whole ``states.totals`` array, zero-copy): the matching entries are
    deduplicated once (``np.unique``), the shift/scale runs as a single 2-D
    broadcast over (outcome, entry), and the merges are one flat
    ``np.bincount`` whose row-major order adds every bucket's contributions
    exactly as the reference dict loop does.  Two escape hatches keep this
    both fast and exact: groups whose total work is tiny (see
    :data:`_VECTOR_FOLD_MIN_WORK`) run the reference dict loop verbatim
    instead of paying numpy's fixed per-call cost, and outcomes where the
    vector path could merge *differently* — two distinct totals colliding
    onto one key after a shift — are detected and replayed through the dict
    loop as well.
    """
    plan = accel.fold_plan(previous, element)
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
            # layout already concatenates them in the reference's order.
            totals_flat = states.totals
            probs_flat = states.probs
        else:
            positions = members.get(group.projection)
            if positions is None:
                continue  # the reference leaves an empty, filtered bucket per outcome
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
            # Tiny group: the reference dict loop beats numpy's fixed costs.
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
        unique, first_index, inverse = np.unique(
            totals_flat, return_index=True, return_inverse=True
        )
        order = np.argsort(first_index)
        bins = len(unique)
        # Shifted keys stay sorted ascending unless the shift collides.
        keys = unique[None, :] + group.added[:, None]
        scaled = probs_flat[None, :] * group.weights[:, None]
        flat_bins = (
            np.arange(outcome_count, dtype=np.int64)[:, None] * bins + inverse[None, :]
        ).ravel()
        sums = np.bincount(
            flat_bins, weights=scaled.ravel(), minlength=outcome_count * bins
        ).reshape(outcome_count, bins)
        keys_ordered = keys[:, order]
        sums_ordered = sums[:, order]
        collides = (
            (keys[:, 1:] == keys[:, :-1]).any(axis=1)
            if bins > 1
            else np.zeros(outcome_count, dtype=bool)
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
                for key, value in zip(
                    (totals_flat + group.added[j]).tolist(), scaled[j].tolist()
                ):
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
    if max_states is not None and out_offsets[-1] > max_states:
        # State pruning fires (far above any bounded workload's state count):
        # replay the reference step, which folds and prunes in dict form.
        return _states_from_dicts(
            graph.chain_step(_states_to_dicts(states), previous, element, max_states)
        )
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
    return ArrayChainStates(
        tuple(out_outcomes[k] for k in survivors),  # type: ignore[misc]
        tuple(out_offsets),
        flat_totals,
        flat_probs,
    )


def _finish_states(states: ArrayChainStates, max_support: int | None) -> Distribution:
    """Collapse array chain states, bitwise like ``PaceGraph.finish_chain_states``.

    The CSR layout makes this a single segment sum over the already-flat
    support: the reference's bucket iteration order is the array order.
    """
    totals, sums = _ordered_segment_sum(states.totals, states.probs)
    result = Distribution.from_support_arrays(totals, sums, normalise=True)
    if max_support is not None and len(result) > max_support:
        result = result.compress(max_support)
    return result


# ---------------------------------------------------------------------- #
# T-router kernel: checkpointed PACE evaluation + batched expansion
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class ChainTrail:
    """A candidate path's full CPS with the chain states after every milestone.

    ``elements[k]`` is the ``k``-th element of the candidate's coarsest
    sequence, ``ends[k]`` the number of leading path edges covered once it is
    appended (the CPS milestone), and ``states[k]`` the
    :meth:`~repro.core.pace_graph.PaceGraph.path_cost_distribution` chain
    states after folding it in.  Successors reuse the longest trail prefix
    that provably survives the extension (see
    :meth:`TExpansionKernel._evaluate`) and chain-step only past it.  States
    are never mutated after capture (each chain step builds fresh arrays),
    so one trail is safely shared by all children.

    Seed candidates carry the empty trail: their first expansion walks the
    one- or two-element CPS from scratch, which is cheaper than eagerly
    evaluating seeds that may never be popped.
    """

    elements: tuple[WeightedElement, ...]
    ends: tuple[int, ...]
    states: tuple[ArrayChainStates, ...]


_EMPTY_TRAIL = ChainTrail((), (), ())


@dataclass(frozen=True)
class TCandidate:
    """A heap entry of the T-path router."""

    path: Path
    distribution: Distribution
    #: Sum of minimum edge costs of ``path``, carried incrementally
    #: (parent min + element edge-min) instead of re-summed per expansion.
    min_cost: float
    trail: ChainTrail


class TExpansionKernel:
    """Per-query batched frontier expansion for :class:`HeuristicPaceRouter`."""

    def __init__(
        self,
        graph: PaceGraph,
        accelerator: FrontierAccelerator,
        heuristic: Heuristic,
        budget: float,
        *,
        max_support: int,
    ) -> None:
        self._graph = graph
        self._accel = accelerator
        self._heuristic = heuristic
        self._budget = budget
        self._max_support = max_support
        self._target_min = accelerator.target_min_costs(heuristic)

    def seed(self, source: int) -> list[tuple[float, TCandidate]]:
        """The initial frontier: one candidate per admissible element leaving ``source``."""
        accel = self._accel
        lo, hi = accel.slot_range(source)
        if hi == lo:
            return []
        keep = accel.simple[lo:hi] & ~(
            accel.dist_min[lo:hi] + self._target_min[lo:hi] > self._budget
        )
        slots = np.flatnonzero(keep) + lo
        if len(slots) == 0:
            return []
        values, probabilities, offsets = accel.support_segments(slots)
        priorities = max_prob_segments(
            values, probabilities, offsets, accel.targets[slots], self._heuristic, self._budget
        )
        candidates: list[tuple[float, TCandidate]] = []
        for position, slot in enumerate(slots.tolist()):
            priority = float(priorities[position])
            if priority <= 0:
                continue
            element = accel.elements[slot]
            candidates.append(
                (
                    priority,
                    TCandidate(
                        path=element.path,
                        distribution=element.distribution,
                        min_cost=float(accel.edge_min[slot]),
                        trail=_EMPTY_TRAIL,
                    ),
                )
            )
        return candidates

    def expand(self, candidate: TCandidate) -> list[tuple[float, TCandidate]]:
        """All surviving successors of a popped candidate, in element order."""
        accel = self._accel
        path = candidate.path
        lo, hi = accel.slot_range(path.target)
        if hi == lo:
            return []
        visited = set(path.vertices)
        has_cycle = np.fromiter(
            (
                any(vertex in visited for vertex in accel.inner_vertices[slot])
                for slot in range(lo, hi)
            ),
            dtype=bool,
            count=hi - lo,
        )
        new_min_costs = candidate.min_cost + accel.edge_min[lo:hi]
        keep = ~has_cycle & ~(new_min_costs + self._target_min[lo:hi] > self._budget)
        slots = np.flatnonzero(keep)
        if len(slots) == 0:
            return []
        extended: list[tuple[int, Path, Distribution, ChainTrail]] = []
        for slot in (slots + lo).tolist():
            element = accel.elements[slot]
            new_path = path.concat(element.path)
            distribution, trail = self._evaluate(new_path, path, candidate.trail)
            extended.append((slot, new_path, distribution, trail))
        counts = np.fromiter(
            (len(entry[2]) for entry in extended), dtype=np.int64, count=len(extended)
        )
        offsets = np.zeros(len(extended) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        values = np.concatenate([entry[2].values_array for entry in extended])
        probabilities = np.concatenate([entry[2].probabilities_array for entry in extended])
        priorities = max_prob_segments(
            values,
            probabilities,
            offsets,
            accel.targets[slots + lo],
            self._heuristic,
            self._budget,
        )
        children: list[tuple[float, TCandidate]] = []
        for position, (slot, new_path, distribution, trail) in enumerate(extended):
            priority = float(priorities[position])
            if priority <= 0:
                continue
            children.append(
                (
                    priority,
                    TCandidate(
                        path=new_path,
                        distribution=distribution,
                        min_cost=float(new_min_costs[slot - lo]),
                        trail=trail,
                    ),
                )
            )
        return children

    def _evaluate(
        self, new_path: Path, parent: Path, trail: ChainTrail
    ) -> tuple[Distribution, ChainTrail]:
        """PACE-evaluate ``new_path`` reusing the parent's chain trail.

        Bitwise identical to
        ``graph.path_cost_distribution(new_path, max_support=...)``: the CPS
        greedy is deterministic and Markovian in ``covered``, so whenever a
        prefix of the parent's CPS is provably also the prefix of the
        child's, the child's from-scratch walk would fold exactly those
        elements into exactly those states — we resume after the prefix and
        perform the remaining chain folds verbatim.  Three reuse tiers:

        * **junction fast path** — the only way a CPS element can straddle
          the index where the extension was appended is to contain the two
          junction edges consecutively within its own path; if that pair
          occurs in no T-path (``accel.crossing_pairs``), every greedy
          choice the parent made is unaffected (including candidates the
          parent rejected for overrunning its own end — those would straddle
          too), so the parent's *whole* CPS is the child's CPS prefix;
        * **guaranteed prefix** — otherwise, the choice made at ``covered``
          edges only sees ``edges[:covered + L]``, so trail entries produced
          at ``covered <= len(parent) - L`` survive unconditionally;
        * **verified matches** — deeper entries are compared against the
          re-derived greedy tail; a choice with the same span (milestone end
          and element edges) is the *same* deterministic choice, so its
          states carry over, until the first divergence.
        """
        graph = self._graph
        accel = self._accel
        edges = new_path.edges
        memo_key = (edges, self._max_support)
        memoized = accel.evaluation_get(memo_key)
        if memoized is not None:
            return memoized
        parent_len = len(parent.edges)
        elements = trail.elements
        ends = trail.ends
        reused = -1  # deepest trail index whose milestone/states carry over
        if (
            elements
            and ends[-1] == parent_len
            and (edges[parent_len - 1], edges[parent_len]) not in accel.crossing_pairs
        ):
            reused = len(elements) - 1
        else:
            boundary = parent_len - accel.max_cardinality
            while (
                reused + 1 < len(elements)
                and (ends[reused] if reused >= 0 else 0) <= boundary
            ):
                reused += 1
        covered = ends[reused] if reused >= 0 else 0
        tail = graph.coarsest_tail(edges, covered)
        index = 0
        while (
            index < len(tail)
            and reused + 1 < len(elements)
            and tail[index][1] == ends[reused + 1]
            and tail[index][0].path.edges == elements[reused + 1].path.edges
        ):
            reused += 1
            index += 1
        new_elements = list(elements[: reused + 1])
        new_ends = list(ends[: reused + 1])
        new_states = list(trail.states[: reused + 1])
        states: ArrayChainStates | None = new_states[-1] if new_states else None
        previous = new_elements[-1] if new_elements else None
        for element, end in tail[index:]:
            if states is None:
                states = _seed_states(element)
            else:
                assert previous is not None
                states = _chain_step(
                    graph, accel, states, previous, element, DEFAULT_MAX_CHAIN_STATES
                )
            previous = element
            new_elements.append(element)
            new_ends.append(end)
            new_states.append(states)
        assert states is not None
        distribution = _finish_states(states, self._max_support)
        result = (
            distribution,
            ChainTrail(tuple(new_elements), tuple(new_ends), tuple(new_states)),
        )
        accel.evaluation_put(memo_key, result)
        return result


# ---------------------------------------------------------------------- #
# V-router kernel: batched prune + one maxProb call per expansion
# ---------------------------------------------------------------------- #


class VExpansionKernel:
    """Per-query batched frontier expansion for :class:`VPathRouter`.

    Candidate distributions stay incremental convolutions (Lemma 4.1) and
    dominance admission stays sequential (its outcome depends on admission
    order); the kernel batches everything around them — cycle masking, the
    min-cost budget prune and the Eq. 3 priorities of a whole successor
    slice.
    """

    def __init__(
        self,
        graph: UpdatedPaceGraph,
        accelerator: FrontierAccelerator,
        heuristic: Heuristic,
        budget: float,
        *,
        max_support: int,
        guided: bool,
    ) -> None:
        self._graph = graph
        self._accel = accelerator
        self._heuristic = heuristic
        self._budget = budget
        self._max_support = max_support
        self._guided = guided
        self._target_min = accelerator.target_min_costs(heuristic)

    def seed(self, source: int) -> list[tuple[Path, Distribution, float]]:
        """Admissible elements leaving ``source`` with their heap priorities.

        The priority is ``-maxProb`` for guided searches and the expected
        cost for unguided ones (V-None explores in expected-cost order).
        """
        accel = self._accel
        lo, hi = accel.slot_range(source)
        if hi == lo:
            return []
        keep = accel.simple[lo:hi] & ~(
            accel.dist_min[lo:hi] + self._target_min[lo:hi] > self._budget
        )
        slots = np.flatnonzero(keep) + lo
        if len(slots) == 0:
            return []
        if not self._guided:
            elements = [accel.elements[slot] for slot in slots.tolist()]
            return [(e.path, e.distribution, e.distribution.expectation()) for e in elements]
        values, probabilities, offsets = accel.support_segments(slots)
        priorities = max_prob_segments(
            values, probabilities, offsets, accel.targets[slots], self._heuristic, self._budget
        )
        seeds: list[tuple[Path, Distribution, float]] = []
        for position, slot in enumerate(slots.tolist()):
            priority = float(priorities[position])
            if priority <= 0:
                continue
            element = accel.elements[slot]
            seeds.append((element.path, element.distribution, -priority))
        return seeds

    def expand(
        self, path: Path, distribution: Distribution
    ) -> list[tuple[Path, Distribution, float]]:
        """All surviving successors of a popped candidate, in element order."""
        accel = self._accel
        lo, hi = accel.slot_range(path.target)
        if hi == lo:
            return []
        visited = set(path.vertices)
        has_cycle = np.fromiter(
            (
                any(vertex in visited for vertex in accel.inner_vertices[slot])
                for slot in range(lo, hi)
            ),
            dtype=bool,
            count=hi - lo,
        )
        minimum = distribution.min() + accel.dist_min[lo:hi]
        keep = ~has_cycle & ~(minimum + self._target_min[lo:hi] > self._budget)
        slots = np.flatnonzero(keep) + lo
        if len(slots) == 0:
            return []
        extended: list[tuple[int, Path, Distribution]] = []
        parent_values = distribution.values_array.tobytes()
        parent_probs = distribution.probabilities_array.tobytes()
        for slot in slots.tolist():
            element = accel.elements[slot]
            new_path = path.concat(element.path)
            memo_key = (parent_values, parent_probs, slot, self._max_support)
            new_distribution = accel.convolution_get(memo_key)
            if new_distribution is None:
                new_distribution = distribution.convolve(
                    element.distribution, max_support=self._max_support
                )
                accel.convolution_put(memo_key, new_distribution)
            extended.append((slot, new_path, new_distribution))
        if not self._guided:
            return [
                (new_path, new_distribution, new_distribution.expectation())
                for _, new_path, new_distribution in extended
            ]
        counts = np.fromiter(
            (len(entry[2]) for entry in extended), dtype=np.int64, count=len(extended)
        )
        offsets = np.zeros(len(extended) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        values = np.concatenate([entry[2].values_array for entry in extended])
        probabilities = np.concatenate([entry[2].probabilities_array for entry in extended])
        bounds = max_prob_segments(
            values, probabilities, offsets, accel.targets[slots], self._heuristic, self._budget
        )
        children: list[tuple[Path, Distribution, float]] = []
        for position, (_, new_path, new_distribution) in enumerate(extended):
            bound = float(bounds[position])
            if bound <= 0:
                continue
            children.append((new_path, new_distribution, -bound))
        return children
