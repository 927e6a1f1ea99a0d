"""Batched frontier expansion: the per-query search hot path as ndarray kernels.

Every router runs one best-first loop (:func:`repro.routing.search.best_first`)
that pops one candidate at a time; this module is the frontier it pops from.
Expanding a candidate means a cycle check, a budget prune, a path-cost
evaluation and an Eq. 3 ``maxProb`` priority for each of its successor
elements, and this module compiles that inner loop into bulk operations over
a pre-enumerated layout:

* :class:`FrontierAccelerator` — built once per graph (cached by content
  fingerprint via :func:`accelerator_for`), it reads every vertex's
  ``outgoing_elements`` as CSR slots from the graph's one
  :class:`~repro.core.layout.ElementLayout` (successor targets and
  distribution minima) and adds the search-only columns: edge-graph minima,
  simple-path flags and the elements' inner vertices for cycle masking.  A
  popped candidate's entire successor set is one slice.

* :class:`ExpansionKernel` — the per-query kernel of both graph families.
  It seeds the frontier and evaluates the cycle mask, the budget prune
  (``min_cost + getMin > B``) and the priorities of *all* surviving
  successors in a handful of ndarray ops — one segmented
  :func:`~repro.heuristics.base.max_prob_segments` call per expansion
  (reduced with ``np.add.reduceat``) instead of one ``max_prob`` per edge,
  or the expected cost when no heuristic guides the search.  The families
  differ only in how a child's distribution is obtained: by resuming the
  parent's PACE chain trail on the plain PACE graph, or by a memoized
  convolution on the updated graph ``G_p+``.

* :class:`ChainTrail` — the PACE-evaluation cache.  The dominant
  per-expansion cost on the plain PACE graph is the PACE evaluation of every
  pushed successor, the chain fold of :mod:`repro.core.chain` over the
  coarsest T-path sequence (CPS) that
  :meth:`PaceGraph.path_cost_distribution` walks from scratch.  Each
  candidate instead carries its whole CPS with the chain states after every
  milestone, and a successor reuses the longest prefix that provably
  survives the extension: when no graph element contains the junction edge
  pair (pre-indexed in ``crossing_pairs``), the parent's *entire* CPS
  survives and the child chain-steps only its own new elements; otherwise
  milestones up to ``len(parent) - L`` survive unconditionally (no element
  is long enough to reach the junction from there) and deeper ones are
  verified against the child's re-derived greedy choices.  The steps are
  the same :func:`~repro.core.chain.chain_step` calls over the graph's one
  :attr:`~PaceGraph.fold_plans` memo that
  :meth:`PaceGraph.path_cost_distribution` makes.  Finished evaluations
  additionally memoize on the accelerator: a path's cost distribution
  depends only on the graph, never on the query, so candidates, queries and
  routers sharing one accelerator skip chain walks other searches already
  performed.

Every kernel decision is arithmetically identical to the per-element loop it
replaces (same float operations in the same order), so the routers return
bitwise the same results as the scalar reference loops kept as test oracles
in ``tests/oracles/routing.py`` — property-tested in
``tests/test_expansion_parity.py``.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.chain import (
    DEFAULT_MAX_CHAIN_STATES,
    ArrayChainStates,
    chain_step,
    finish_states,
    seed_states,
)
from repro.core.distributions import Distribution
from repro.core.elements import WeightedElement
from repro.core.layout import ElementLayout, element_layout
from repro.core.pace_graph import PaceGraph
from repro.core.paths import Path
from repro.heuristics.base import Heuristic, max_prob_segments
from repro.routing.search import Candidate
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "FrontierAccelerator",
    "accelerator_for",
    "ChainTrail",
    "ExpansionKernel",
]

#: Graphs the accelerator can be built over.
GraphLike = PaceGraph | UpdatedPaceGraph


class FrontierAccelerator:
    """The search's per-slot columns over a graph's :class:`ElementLayout`.

    Built once per graph content (see :func:`accelerator_for`); the slots,
    their elements, targets and distribution minima are the graph's cached
    :func:`~repro.core.layout.element_layout` (vertex ``v``'s successor
    elements are the contiguous slot range of :meth:`ElementLayout.slot_range`,
    in exactly the order ``graph.outgoing_elements(v)`` yields them, so the
    kernels push candidates in the same heap order as the scalar reference).
    On top of it the accelerator keeps what only the search reads: edge-sum
    minima, simple-path flags, cycle-check vertices and the memos.
    """

    def __init__(self, graph: GraphLike) -> None:
        pace = graph.pace_graph if isinstance(graph, UpdatedPaceGraph) else graph
        #: Upper bound on how many edges any CPS element can span (the
        #: trail stability window of PACE evaluation).
        self.max_cardinality: int = pace.max_element_cardinality()
        #: Every consecutive edge pair occurring inside a T-path.  An element
        #: of a path's CPS can only straddle the junction where an extension
        #: was appended if its own edges contain the two junction edges
        #: back to back — single-edge elements never can, and single-edge
        #: T-paths are folded into the edge weights — so a junction pair
        #: absent from this set proves the parent's whole CPS survives the
        #: extension (the trail's fast path).
        self.crossing_pairs: frozenset[tuple[int, int]] = frozenset(
            pair for tpath in pace.tpaths() for pair in itertools.pairwise(tpath.path.edges)
        )
        self.layout: ElementLayout = element_layout(graph)
        elements = self.layout.elements
        count = len(elements)
        self.edge_min: np.ndarray = np.fromiter(
            (pace.path_min_cost(e.path) for e in elements), dtype=float, count=count
        )
        self.simple: np.ndarray = np.fromiter(
            (e.path.is_simple() for e in elements), dtype=bool, count=count
        )
        #: Per slot: the element's vertices past its source — what a cycle
        #: check needs to test against the candidate path's visited set.
        self.inner_vertices: list[tuple[int, ...]] = [e.path.vertices[1:] for e in elements]
        self._lock = threading.Lock()
        self._target_min_costs: weakref.WeakKeyDictionary[Heuristic, np.ndarray] = (
            weakref.WeakKeyDictionary()
        )
        self._evaluations: OrderedDict[
            tuple[tuple[int, ...], int], tuple[Distribution, "ChainTrail"]
        ] = OrderedDict()
        self._convolutions: OrderedDict[tuple[bytes, bytes, int, int], Distribution] = OrderedDict()

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
        values = np.asarray(heuristic.min_cost_many(self.layout.targets), dtype=float)
        values.setflags(write=False)
        with self._lock:
            existing = self._target_min_costs.get(heuristic)
            if existing is not None:
                return existing
            self._target_min_costs[heuristic] = values
        return values

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
        """A memoized candidate convolution, the updated-graph analogue of
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
# The expansion kernel: batched prune + one maxProb call per expansion
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
    :meth:`ExpansionKernel._evaluate`) and chain-step only past it.  States
    are never mutated after capture (each chain step builds fresh arrays),
    so one trail is safely shared by all children.

    Seed candidates carry no trail: their first expansion walks the one- or
    two-element CPS from scratch, which is cheaper than eagerly evaluating
    seeds that may never be popped.
    """

    elements: tuple[WeightedElement, ...]
    ends: tuple[int, ...]
    states: tuple[ArrayChainStates, ...]


_EMPTY_TRAIL = ChainTrail((), (), ())


class ExpansionKernel:
    """Per-query batched frontier expansion over either graph family.

    The kernel owns everything the routers' searches share: seeding, the
    cycle mask, the min-cost budget prune (``min_cost + getMin > B``) and the
    priority rule — ``-maxProb`` (Eq. 3, one segmented
    :func:`~repro.heuristics.base.max_prob_segments` call per expansion) for
    guided searches, which also drop candidates with ``maxProb <= 0``, and
    the expected cost for unguided ones (T-None, V-None), which drop
    candidates whose minimum cost already exceeds the budget.

    The graph families differ only in how a child's distribution and
    min-cost are obtained.  On the plain PACE graph the child is
    PACE-evaluated by resuming its parent's :class:`ChainTrail` and its
    min-cost is the parent's plus the element's edge minimum.  On the
    updated graph ``G_p+`` it is the memoized convolution of the parent's
    distribution with the element's (Lemma 4.1), and its min-cost is that
    distribution's minimum.
    """

    def __init__(
        self,
        graph: GraphLike,
        heuristic: Heuristic,
        budget: float,
        *,
        max_support: int,
        guided: bool,
    ) -> None:
        self._graph = graph
        self._accel = accel = accelerator_for(graph)
        self._heuristic = heuristic
        self._budget = budget
        self._max_support = max_support
        #: True when priorities are admissible Eq. 3 bounds, so the search
        #: may stop at its first pop at the destination.
        self.guided = guided
        self._convolving = isinstance(graph, UpdatedPaceGraph)
        self._layout = accel.layout
        self._slot_min = accel.layout.dist_min if self._convolving else accel.edge_min
        self._target_min = accel.target_min_costs(heuristic)
        self._plans = None if isinstance(graph, UpdatedPaceGraph) else graph.fold_plans

    def seed(self, source: int) -> list[tuple[float, Candidate]]:
        """The initial frontier: one candidate per admissible element leaving ``source``."""
        layout = self._layout
        lo, hi = layout.slot_range(source)
        keep = self._accel.simple[lo:hi] & ~(
            layout.dist_min[lo:hi] + self._target_min[lo:hi] > self._budget
        )
        slots = np.flatnonzero(keep) + lo
        candidates = [
            Candidate(
                layout.elements[slot].path,
                layout.elements[slot].distribution,
                float(self._slot_min[slot]),
            )
            for slot in slots.tolist()
        ]
        return self._prioritise(slots, candidates)

    def expand(self, candidate: Candidate) -> list[tuple[float, Candidate]]:
        """All surviving successors of a popped candidate, in element order."""
        accel = self._accel
        elements = self._layout.elements
        path = candidate.path
        lo, hi = self._layout.slot_range(path.target)
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
        new_min_costs = candidate.min_cost + self._slot_min[lo:hi]
        keep = ~has_cycle & ~(new_min_costs + self._target_min[lo:hi] > self._budget)
        slots = np.flatnonzero(keep) + lo
        children: list[Candidate] = []
        if self._convolving:
            distribution = candidate.distribution
            parent_values = distribution.values_array.tobytes()
            parent_probs = distribution.probabilities_array.tobytes()
            for slot in slots.tolist():
                element = elements[slot]
                memo_key = (parent_values, parent_probs, slot, self._max_support)
                child = accel.convolution_get(memo_key)
                if child is None:
                    child = distribution.convolve(
                        element.distribution, max_support=self._max_support
                    )
                    accel.convolution_put(memo_key, child)
                children.append(Candidate(path.concat(element.path), child, child.min()))
        else:
            for slot in slots.tolist():
                new_path = path.concat(elements[slot].path)
                child, trail = self._evaluate(new_path, candidate)
                children.append(
                    Candidate(new_path, child, float(new_min_costs[slot - lo]), trail)
                )
        return self._prioritise(slots, children)

    def _prioritise(
        self, slots: np.ndarray, candidates: list[Candidate]
    ) -> list[tuple[float, Candidate]]:
        """Heap priorities of ``candidates`` (which end at ``slots``' targets), pruned."""
        budget = self._budget
        if not self.guided:
            return [
                (candidate.distribution.expectation(), candidate)
                for candidate in candidates
                if not candidate.distribution.min() > budget
            ]
        if not candidates:
            return []
        bounds = max_prob_segments(
            np.concatenate([c.distribution.values_array for c in candidates]),
            np.concatenate([c.distribution.probabilities_array for c in candidates]),
            np.cumsum([0, *(len(c.distribution) for c in candidates)]),
            self._layout.targets[slots],
            self._heuristic,
            budget,
        )
        return [
            (-bound, candidate)
            for bound, candidate in zip(bounds.tolist(), candidates)
            if bound > 0
        ]

    def _evaluate(
        self, new_path: Path, parent: Candidate
    ) -> tuple[Distribution, ChainTrail]:
        """PACE-evaluate ``new_path`` reusing the ``parent`` candidate's chain trail.

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
        assert isinstance(graph, PaceGraph)
        accel = self._accel
        edges = new_path.edges
        memo_key = (edges, self._max_support)
        memoized = accel.evaluation_get(memo_key)
        if memoized is not None:
            return memoized
        trail = parent.trail if parent.trail is not None else _EMPTY_TRAIL
        parent_len = len(parent.path.edges)
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
        plans = self._plans
        assert plans is not None
        for element, end in tail[index:]:
            if states is None:
                states = seed_states(element)
            else:
                assert previous is not None
                states = chain_step(plans, states, previous, element, DEFAULT_MAX_CHAIN_STATES)
            previous = element
            new_elements.append(element)
            new_ends.append(end)
            new_states.append(states)
        assert states is not None
        distribution = finish_states(states, self._max_support)
        result = (
            distribution,
            ChainTrail(tuple(new_elements), tuple(new_ends), tuple(new_states)),
        )
        accel.evaluation_put(memo_key, result)
        return result
