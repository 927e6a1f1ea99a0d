"""The path-centric uncertain road network (PACE model).

A PACE graph ``G_p = (V, E, P, W)`` extends the edge-centric graph with a set
of *T-paths*: paths traversed by at least ``τ`` trajectories, each carrying a
joint distribution over its per-edge costs (``W_J``) and the induced
total-cost distribution (``W``).  Computing the cost distribution of an
arbitrary path assembles the joints of the *coarsest* sequence of T-paths
covering it (Eq. 1), which preserves cost dependencies that the EDGE model's
convolution would lose.

This module provides:

* :class:`PaceGraph` — storage and indexing of edge weights and T-paths,
* the coarsest T-path sequence computation (:meth:`PaceGraph.coarsest_sequence`),
* exact path-cost evaluation under the PACE semantics, both as a full joint
  (:meth:`PaceGraph.path_joint_distribution`) and as a memory-friendly
  incremental chain over the coarsest sequence
  (:meth:`PaceGraph.path_cost_distribution`).
"""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Iterable, Iterator

import numpy as np

from repro.core.distributions import Distribution
from repro.core.edge_graph import EdgeGraph
from repro.core.elements import ElementKind, WeightedElement
from repro.core.errors import GraphError, PathError
from repro.core.joint import JointDistribution
from repro.core.paths import Path
from repro.network.road_network import RoadNetwork

__all__ = ["PaceGraph", "DEFAULT_MAX_CHAIN_STATES"]

#: Default bound on the (last-element outcome, total) states kept while
#: walking a coarsest sequence (see :meth:`PaceGraph.path_cost_distribution`).
#: The frontier accelerator resumes chains from checkpoints and must prune
#: with exactly the same bound to stay result-identical.
DEFAULT_MAX_CHAIN_STATES = 4096


class PaceGraph:
    """A PACE uncertain road network: edge weights plus T-paths with joint costs."""

    def __init__(self, edge_graph: EdgeGraph, *, tau: int = 50):
        if tau < 1:
            raise GraphError("the trajectory threshold tau must be at least 1")
        self._edge_graph = edge_graph
        self._tau = tau
        self._tpaths: dict[tuple[int, ...], WeightedElement] = {}
        self._tpaths_by_source: dict[int, list[WeightedElement]] = {}
        self._tpaths_by_target: dict[int, list[WeightedElement]] = {}
        self._tpaths_by_first_edge: dict[int, list[WeightedElement]] = {}
        self._fingerprint: str | None = None
        self._max_cardinality: int | None = None
        self._edge_elements: dict[int, WeightedElement] = {}

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def network(self) -> RoadNetwork:
        """The structural road network."""
        return self._edge_graph.network

    @property
    def edge_graph(self) -> EdgeGraph:
        """The underlying edge-centric graph (edge weight function ``W`` on ``E``)."""
        return self._edge_graph

    @property
    def tau(self) -> int:
        """The trajectory-count threshold used when the T-paths were mined."""
        return self._tau

    @property
    def num_tpaths(self) -> int:
        """The number of multi-edge T-paths maintained in the graph."""
        return len(self._tpaths)

    def edge_weight(self, edge_id: int) -> Distribution:
        """The cost distribution of a single edge."""
        return self._edge_graph.weight(edge_id)

    def tpaths(self) -> Iterator[WeightedElement]:
        """Iterate over all T-paths."""
        return iter(self._tpaths.values())

    def has_tpath(self, edge_ids: Iterable[int]) -> bool:
        """True when a T-path with exactly this edge sequence is maintained."""
        return tuple(edge_ids) in self._tpaths

    def tpath(self, edge_ids: Iterable[int]) -> WeightedElement:
        """The T-path with exactly this edge sequence."""
        key = tuple(edge_ids)
        try:
            return self._tpaths[key]
        except KeyError as exc:
            raise GraphError(f"no T-path for edge sequence {key}") from exc

    def tpaths_from(self, vertex_id: int) -> list[WeightedElement]:
        """T-paths starting at a vertex."""
        return list(self._tpaths_by_source.get(vertex_id, []))

    def tpaths_into(self, vertex_id: int) -> list[WeightedElement]:
        """T-paths ending at a vertex."""
        return list(self._tpaths_by_target.get(vertex_id, []))

    def max_element_cardinality(self) -> int:
        """The largest number of edges any traversable element covers (>= 1).

        This bounds how far back a greedy CPS choice can reach: a T-path
        considered while ``covered`` edges are accounted for ends at most
        ``covered + max_element_cardinality()`` edges in.  The frontier
        accelerator uses it to resume CPS construction from a checkpoint
        that extending the path can never invalidate.
        """
        if self._max_cardinality is None:
            self._max_cardinality = max(
                (element.cardinality for element in self._tpaths.values()), default=1
            )
        return self._max_cardinality

    def content_fingerprint(self) -> str:
        """A stable digest of everything routing-relevant in this graph.

        Two independently built graphs with identical content — vertices with
        coordinates, edges with geometry, edge cost distributions, τ, and the
        T-paths with their joints — produce the same fingerprint, even in
        different processes.  This is the portable replacement for
        ``id(graph)``: heuristic cache keys and persisted bundles keyed by the
        fingerprint can be shared between engines and across process
        boundaries (the same deterministic dataset spec rebuilds the same
        graph, hence the same fingerprint).

        The digest is cached and invalidated by :meth:`add_tpath`; mutating
        the underlying :class:`~repro.core.edge_graph.EdgeGraph` directly
        after fingerprinting is not supported.
        """
        if self._fingerprint is None:
            self._fingerprint = self._compute_fingerprint()
        return self._fingerprint

    def _compute_fingerprint(self) -> str:
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"pace-graph/v1")
        digest.update(struct.pack("<q", self._tau))
        network = self.network
        digest.update(struct.pack("<qq", network.num_vertices, network.num_edges))
        for vertex in sorted(network.vertices(), key=lambda v: v.vertex_id):
            digest.update(struct.pack("<qdd", vertex.vertex_id, vertex.x, vertex.y))
        for edge in sorted(network.edges(), key=lambda e: e.edge_id):
            digest.update(
                struct.pack(
                    "<qqqdd", edge.edge_id, edge.source, edge.target, edge.length, edge.speed_limit
                )
            )
            _hash_distribution(digest, self._edge_graph.weight(edge.edge_id))
        for key in sorted(self._tpaths):
            digest.update(struct.pack("<q", len(key)))
            digest.update(np.asarray(key, dtype=np.int64).tobytes())
            joint = self._tpaths[key].joint
            if joint is not None:
                for costs in sorted(joint.pmf):
                    _hash_floats(digest, costs)
                    digest.update(struct.pack("<d", joint.pmf[costs]))
        return digest.hexdigest()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_tpath(self, path: Path, joint: JointDistribution, *, support: int = 0) -> WeightedElement:
        """Register a T-path with its joint distribution.

        Single-edge T-paths refine the corresponding edge weight rather than
        being stored in ``P`` (the paper's ``P`` contains paths; an edge's
        trajectory-derived distribution simply becomes ``W(e)``).
        """
        if tuple(joint.edge_ids) != path.edges:
            raise GraphError(
                f"joint distribution edges {joint.edge_ids} do not match the path edges {path.edges}"
            )
        self._fingerprint = None
        self._max_cardinality = None
        if path.cardinality == 1:
            self._edge_graph.set_weight(path.edges[0], joint.total_cost_distribution())
            return self.edge_element(path.edges[0])
        key = path.edges
        element = WeightedElement(
            kind=ElementKind.TPATH,
            path=path,
            distribution=joint.total_cost_distribution(),
            joint=joint,
            support=support,
        )
        self._tpaths[key] = element
        self._tpaths_by_source.setdefault(path.source, []).append(element)
        self._tpaths_by_target.setdefault(path.target, []).append(element)
        self._tpaths_by_first_edge.setdefault(path.edges[0], []).append(element)
        return element

    # ------------------------------------------------------------------ #
    # Elements (edges and T-paths) for traversal
    # ------------------------------------------------------------------ #
    def edge_element(self, edge_id: int) -> WeightedElement:
        """A single edge wrapped as a traversable weighted element.

        One element is memoized per edge, so the table builders and searches
        that walk every vertex's elements do not build a new ``Path`` and
        ``WeightedElement`` per visit.  The memo is served only while its
        distribution *is* the edge graph's current ``W(e)`` object: folding
        a single-edge T-path into the weight (:meth:`add_tpath`) or any
        direct :meth:`EdgeGraph.set_weight` replaces that object, and the
        next call rebuilds the element.  The memo is a cache of derived
        objects: it enters neither :meth:`content_fingerprint` nor anything
        persisted.
        """
        weight = self._edge_graph.weight(edge_id)
        element = self._edge_elements.get(edge_id)
        if element is not None and element.distribution is weight:
            return element
        segment = self.network.edge(edge_id)
        element = WeightedElement(
            kind=ElementKind.EDGE,
            path=Path([segment.edge_id], [segment.source, segment.target]),
            distribution=weight,
        )
        self._edge_elements[edge_id] = element
        return element

    def outgoing_elements(self, vertex_id: int) -> list[WeightedElement]:
        """Every edge or T-path leaving a vertex (what routing may extend with)."""
        elements = [self.edge_element(e.edge_id) for e in self.network.out_edges(vertex_id)]
        elements.extend(self._tpaths_by_source.get(vertex_id, []))
        return elements

    def incoming_elements(self, vertex_id: int) -> list[WeightedElement]:
        """Every edge or T-path arriving at a vertex (used by the heuristics' backward pass)."""
        elements = [self.edge_element(e.edge_id) for e in self.network.in_edges(vertex_id)]
        elements.extend(self._tpaths_by_target.get(vertex_id, []))
        return elements

    def out_degree_with_tpaths(self, vertex_id: int) -> int:
        """Number of traversable elements leaving a vertex (Fig. 10d statistic)."""
        return self.network.out_degree(vertex_id) + len(self._tpaths_by_source.get(vertex_id, []))

    # ------------------------------------------------------------------ #
    # Coarsest T-path sequence (CPS)
    # ------------------------------------------------------------------ #
    def coarsest_sequence(self, path: Path) -> list[WeightedElement]:
        """The coarsest sequence of overlapping T-paths/edges covering ``path``.

        The sequence is built greedily: at every step we pick, among the
        T-paths that match the path at a position overlapping what is already
        covered, the one reaching furthest; single edges are the fallback.
        This mirrors the "longest overlapping T-paths" rule of the paper
        (Section 2.2) and of the original PACE work.
        """
        return [element for element, _ in self.coarsest_tail(path.edges, 0)]

    def coarsest_tail(
        self, edges: tuple[int, ...], covered: int
    ) -> list[tuple[WeightedElement, int]]:
        """Resume the greedy CPS construction with ``covered`` leading edges done.

        Returns ``(element, end)`` pairs where ``end`` is the number of leading
        edges accounted for once the element is appended (the CPS milestone).
        ``coarsest_tail(path.edges, 0)`` walks exactly the
        :meth:`coarsest_sequence` elements.  With ``covered > 0`` the greedy
        continues as if the first ``covered`` edges were already accounted
        for, which is how the frontier accelerator extends a cached CPS
        prefix instead of rebuilding the sequence from scratch on every
        expansion.  Starting positions more than
        ``max_element_cardinality()`` edges behind the frontier are skipped —
        no element is long enough to reach past ``covered`` from there, so
        the produced sequence is identical to the full scan.
        """
        n = len(edges)
        window = self.max_element_cardinality()
        sequence: list[tuple[WeightedElement, int]] = []
        while covered < n:
            best: WeightedElement | None = None
            best_span: tuple[int, int] | None = None
            # Consider T-paths starting at any already-covered position (overlap)
            # or exactly at the frontier (adjacent).
            for start in range(max(0, covered - window + 1), covered + 1):
                for candidate in self._tpaths_by_first_edge.get(edges[start], []):
                    length = candidate.cardinality
                    end = start + length
                    if end <= covered or end > n:
                        continue
                    if edges[start:end] != candidate.path.edges:
                        continue
                    if best_span is None or end > best_span[1] or (
                        end == best_span[1] and start < best_span[0]
                    ):
                        best = candidate
                        best_span = (start, end)
            if best is None:
                best = self.edge_element(edges[covered])
                best_span = (covered, covered + 1)
            covered = best_span[1]
            sequence.append((best, covered))
        return sequence

    # ------------------------------------------------------------------ #
    # Path-cost evaluation under PACE semantics
    # ------------------------------------------------------------------ #
    def path_joint_distribution(self, path: Path) -> JointDistribution:
        """The full joint distribution ``D_J(P)`` over all edges of ``path`` (Eq. 1).

        Exponential in the path length in the worst case; intended for short
        paths and for testing.  Routing uses :meth:`path_cost_distribution`.
        """
        sequence = self.coarsest_sequence(path)
        result = sequence[0].joint_distribution()
        for element in sequence[1:]:
            result = result.assemble(element.joint_distribution())
        return result

    def path_cost_distribution(
        self,
        path: Path,
        *,
        max_support: int | None = None,
        max_states: int | None = DEFAULT_MAX_CHAIN_STATES,
    ) -> Distribution:
        """The total-cost distribution ``D(P)`` of a path under PACE semantics.

        The computation walks the coarsest sequence and maintains, for every
        possible cost vector of the *last* element, the distribution of the
        accumulated total.  This is exact for Eq. 1 (the chain only ever needs
        to condition on the edges shared with the next element, which are a
        subset of the last element's edges) while avoiding materialising the
        joint over all edges of the path.

        ``max_states`` bounds the number of (last-element outcome, total)
        states kept; when exceeded, the least likely states are merged into
        the closest surviving total, which keeps long-path evaluation fast at
        a negligible accuracy cost.  ``max_support`` optionally compresses the
        final distribution.
        """
        sequence = self.coarsest_sequence(path)
        states = self.seed_chain_states(sequence[0])
        previous = sequence[0]
        for element in sequence[1:]:
            states = self.chain_step(states, previous, element, max_states)
            previous = element
        return self.finish_chain_states(states, max_support)

    # The three pieces below are the state-chain walk of
    # :meth:`path_cost_distribution`, split so callers holding a partially
    # evaluated chain (the frontier accelerator's per-candidate checkpoints)
    # can resume it over a CPS tail instead of recomputing the whole path.
    # Every step builds fresh dicts, so a shared checkpoint is never mutated
    # by the children extending it.

    def seed_chain_states(
        self, first: WeightedElement
    ) -> dict[tuple[float, ...], dict[float, float]]:
        """The chain state after the first CPS element.

        State shape: (cost vector of the last element) -> {accumulated total
        -> probability}.
        """
        states: dict[tuple[float, ...], dict[float, float]] = {}
        for costs, prob in first.joint_distribution().items():
            states.setdefault(costs, {})[sum(costs)] = (
                states.get(costs, {}).get(sum(costs), 0.0) + prob
            )
        return states

    def chain_step(
        self,
        states: dict[tuple[float, ...], dict[float, float]],
        previous: WeightedElement,
        element: WeightedElement,
        max_states: int | None,
    ) -> dict[tuple[float, ...], dict[float, float]]:
        """Advance the chain by one CPS element (conditioning on the overlap).

        This is the plain-dict reference fold.  The routers' frontier
        accelerator re-implements it as an array-native kernel
        (:mod:`repro.routing.accel`) that performs the identical float
        operations in the identical order; the parity suite pins the two
        bitwise equal.  This one stays free of ndarray staging: it is what
        :meth:`path_cost_distribution` runs for T-None, for the V routers'
        final PACE re-evaluation and for the scalar reference search
        (:mod:`repro.routing._scalar_reference`).
        """
        overlap = previous.path.overlap_with(element.path)
        element_joint = element.joint_distribution()
        new_states: dict[tuple[float, ...], dict[float, float]] = {}
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

    def finish_chain_states(
        self,
        states: dict[tuple[float, ...], dict[float, float]],
        max_support: int | None,
    ) -> Distribution:
        """Collapse chain states into the path's total-cost distribution.

        Like :meth:`chain_step`, this is the plain-dict reference; the
        accelerator's array-native collapse must match it bitwise.
        """
        accumulator: dict[float, float] = {}
        for totals in states.values():
            for total, prob in totals.items():
                accumulator[total] = accumulator.get(total, 0.0) + prob
        result = Distribution(accumulator.items(), normalise=True)
        if max_support is not None and len(result) > max_support:
            result = result.compress(max_support)
        return result

    def path_expected_cost(self, path: Path) -> float:
        """Expected travel cost of a path under PACE semantics."""
        return self.path_cost_distribution(path).expectation()

    def path_min_cost(self, path: Path) -> float:
        """Minimum possible travel cost of a path (sum of minimum edge costs)."""
        return self._edge_graph.path_min_cost(path)

    def __repr__(self) -> str:
        return (
            f"PaceGraph(network={self.network.name!r}, tau={self._tau}, "
            f"tpaths={self.num_tpaths})"
        )


def _hash_floats(digest, values) -> None:
    """Feed a sequence of floats into ``digest`` as their exact IEEE-754 bytes."""
    digest.update(np.asarray(values, dtype=np.float64).tobytes())


def _hash_distribution(digest, distribution: Distribution) -> None:
    """Feed a cost distribution (support and probabilities) into ``digest``."""
    digest.update(struct.pack("<q", len(distribution)))
    _hash_floats(digest, distribution.values_array)
    _hash_floats(digest, distribution.probabilities_array)


def _prune_states(
    states: dict[tuple[float, ...], dict[float, float]], max_states: int
) -> dict[tuple[float, ...], dict[float, float]]:
    """Keep at most ``max_states`` (outcome, total) entries, merging the rest.

    Low-probability totals are folded into the most likely total of the same
    outcome so probability mass (and approximately the mean) is preserved.
    """
    flat = [
        (prob, costs, total)
        for costs, totals in states.items()
        for total, prob in totals.items()
    ]
    if len(flat) <= max_states:
        return states
    flat.sort(reverse=True)
    kept = flat[:max_states]
    dropped = flat[max_states:]
    pruned: dict[tuple[float, ...], dict[float, float]] = {}
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
