"""Shortest-path-tree generation in PACE (Algorithm 2).

The binary heuristic T-B-P needs, for a given destination, the least travel
cost ``v.getMin()`` from every vertex to the destination *under PACE
semantics*: when a T-path covers several edges, its (more accurate) minimum
cost should be used instead of the sum of the individual edge minima, even if
that sum is smaller.  Plain Dijkstra over the reversed graph cannot express
this preference, so the paper introduces Algorithm 2 — a label-correcting
search that keeps two labels per vertex:

* ``c1`` — the cost of the best known backward path from the destination, and
* ``c2`` — how many of that path's edges are covered by (reversed) T-paths,

and prefers labels following Pareto dominance: smaller ``c1`` is better,
larger ``c2`` is better, and in the non-dominated case the tie is broken by
whether the two labels describe the same underlying road path (prefer more
T-path coverage) or different paths (prefer the cheaper one).

The search runs directly on the forward PACE graph by traversing *incoming*
elements (edges and T-paths), which is equivalent to building the reversed
graph ``G_p_rev`` of the paper.  It reads them from the reverse view of the
graph's one element layout (:mod:`repro.core.layout`), which every
destination's tree shares.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.core.elements import WeightedElement
from repro.core.errors import UnknownVertexError
from repro.core.layout import element_layout
from repro.core.pace_graph import PaceGraph

__all__ = ["SpTreeLabel", "PaceShortestPathTree", "build_pace_shortest_path_tree"]


@dataclass
class SpTreeLabel:
    """The label of one vertex in the PACE shortest-path tree."""

    vertex: int
    c1: float
    c2: int
    parent: int | None
    #: the reversed element (edge or T-path) connecting the parent to this vertex
    via: WeightedElement | None

    def forward_edges(self, labels: dict[int, "SpTreeLabel"]) -> tuple[int, ...]:
        """The underlying road-network edges of the path from this vertex to the destination.

        Used to decide whether two labels describe the *same* road path (the
        tie-breaking rule of Algorithm 2 in the non-dominated case); the
        canonical representation is the forward edge sequence.
        """
        edges: list[int] = []
        label = self
        while label.via is not None and label.parent is not None:
            edges.extend(label.via.path.edges)
            label = labels[label.parent]
        return tuple(edges)


@dataclass(frozen=True)
class PaceShortestPathTree:
    """The result of Algorithm 2: per-vertex ``getMin`` values for one destination."""

    destination: int
    labels: dict[int, SpTreeLabel]

    def get_min(self, vertex: int) -> float:
        """The least backward cost from the destination to ``vertex`` (inf if unreachable)."""
        label = self.labels.get(vertex)
        return label.c1 if label is not None else float("inf")

    def tpath_edge_count(self, vertex: int) -> int:
        """How many edges of the chosen backward path are covered by T-paths."""
        label = self.labels.get(vertex)
        return label.c2 if label is not None else 0

    def reachable_vertices(self) -> set[int]:
        return {v for v, label in self.labels.items() if label.c1 < float("inf")}


def build_pace_shortest_path_tree(
    pace_graph: PaceGraph, destination: int
) -> PaceShortestPathTree:
    """Algorithm 2: a shortest-path tree from ``destination`` using edges and T-paths.

    The incoming elements of every popped vertex are read from the reverse
    view of the graph's cached :class:`~repro.core.layout.ElementLayout`, in
    ``incoming_elements`` order, so no element list is rebuilt per pop.
    """
    network = pace_graph.network
    if not network.has_vertex(destination):
        raise UnknownVertexError(f"unknown destination vertex {destination}")

    layout = element_layout(pace_graph)
    row_of = layout.row_of
    in_offsets = layout.in_offsets.tolist()
    in_slots = layout.in_slots
    slots = in_slots.tolist()
    # Per incoming entry: the element's source, its least cost and
    # ``countEdges`` — the edges a T-path contributes (0 for a plain edge).
    sources = layout.sources[in_slots].tolist()
    min_costs = layout.dist_min[in_slots].tolist()
    tpath_edges = np.where(layout.is_edge, 0, layout.cardinality)[in_slots].tolist()
    elements = layout.elements

    labels: dict[int, SpTreeLabel] = {
        vertex: SpTreeLabel(vertex=vertex, c1=float("inf"), c2=0, parent=None, via=None)
        for vertex in network.vertex_ids()
    }
    labels[destination].c1 = 0.0

    heap: list[tuple[float, int, int]] = [(0.0, destination, 0)]
    counter = 0
    while heap:
        c1, vertex, _ = heapq.heappop(heap)
        label = labels[vertex]
        if c1 > label.c1:
            continue  # stale queue entry
        # Expand every incoming element: traversing it backwards reaches its source vertex.
        row = row_of[vertex]
        for entry in range(in_offsets[row], in_offsets[row + 1]):
            neighbour = sources[entry]
            if neighbour == destination:
                continue
            candidate_c1 = label.c1 + min_costs[entry]
            candidate_c2 = label.c2 + tpath_edges[entry]
            current = labels[neighbour]

            better_c1 = candidate_c1 < current.c1
            better_c2 = candidate_c2 > current.c2
            worse_c1 = candidate_c1 > current.c1
            worse_c2 = candidate_c2 < current.c2

            update = False
            if not worse_c1 and not worse_c2 and (better_c1 or better_c2):
                # DOMINATION: the candidate label is at least as good in both criteria.
                update = True
            elif (better_c1 and worse_c2) or (worse_c1 and better_c2):
                # NON-DOMINATION: compare the underlying road paths.
                old_path = current.forward_edges(labels)
                new_path = tuple(elements[slots[entry]].path.edges) + label.forward_edges(
                    labels
                )
                if old_path == new_path:
                    update = candidate_c2 > current.c2
                else:
                    update = candidate_c1 < current.c1
            if update:
                current.c1 = candidate_c1
                current.c2 = candidate_c2
                current.parent = vertex
                current.via = elements[slots[entry]]
                counter += 1
                heapq.heappush(heap, (candidate_c1, neighbour, counter))

    return PaceShortestPathTree(destination=destination, labels=labels)
