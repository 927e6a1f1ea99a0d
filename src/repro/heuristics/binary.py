"""Binary heuristics (Section 3.2).

The binary heuristic reduces ``U(v_i, x)`` to a reachability test: it is 1
when ``x`` is at least the least possible travel cost ``v_i.getMin()`` from
``v_i`` to the destination, and 0 otherwise.  It is trivially admissible and
its quality depends entirely on how tight ``getMin`` is.  The paper studies
three ways of computing it, all reproduced here:

* **T-B-EU** — Euclidean distance divided by the network's maximum speed
  limit (cheapest to build, loosest bound),
* **T-B-E**  — a reverse Dijkstra over edges only, using each edge's minimum
  cost, and
* **T-B-P**  — Algorithm 2: a reverse search over edges *and* T-paths that
  prefers the more accurate T-path minima (see
  :mod:`repro.heuristics.sptree`).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.core.pace_graph import PaceGraph
from repro.heuristics.base import Heuristic
from repro.heuristics.sptree import build_pace_shortest_path_tree
from repro.network.road_network import RoadNetwork
from repro.network.algorithms import single_source_costs

__all__ = [
    "BinaryHeuristic",
    "EuclideanBinaryHeuristic",
    "EdgeOnlyBinaryHeuristic",
    "PaceBinaryHeuristic",
]

#: The size of one boxed ``getMin`` value (see :meth:`BinaryHeuristic.storage_bytes`).
_FLOAT_BYTES = sys.getsizeof(0.0)


class BinaryHeuristic(Heuristic):
    """Base class: ``U(v, x) = 1`` iff ``x >= getMin(v)``, from a pre-computed cost map."""

    def __init__(self, destination: int, min_costs: dict[int, float]):
        self._destination = destination
        self._min_costs = min_costs
        # Sorted-array mirror of ``_min_costs`` for the batched lookups,
        # built lazily on first use (a concurrent double build is benign:
        # both threads produce identical arrays).
        self._sorted_ids: np.ndarray | None = None
        self._sorted_costs: np.ndarray | None = None

    @property
    def destination(self) -> int:
        return self._destination

    def min_cost(self, vertex: int) -> float:
        return self._min_costs.get(vertex, float("inf"))

    def min_cost_map(self) -> dict[int, float]:
        """A copy of the per-vertex ``getMin`` values (used for persistence and inspection)."""
        return dict(self._min_costs)

    def probability(self, vertex: int, remaining_budget: float) -> float:
        return 1.0 if remaining_budget >= self.min_cost(vertex) else 0.0

    def min_cost_many(self, vertices) -> np.ndarray:
        """``getMin`` for an array of vertices via one sorted-array gather."""
        if self._sorted_ids is None:
            ids = np.fromiter(self._min_costs.keys(), dtype=np.int64, count=len(self._min_costs))
            order = np.argsort(ids)
            costs = np.fromiter(
                self._min_costs.values(), dtype=float, count=len(self._min_costs)
            )[order]
            self._sorted_ids = ids[order]
            self._sorted_costs = costs
        ids = self._sorted_ids
        costs = self._sorted_costs
        assert costs is not None
        vertices = np.asarray(vertices, dtype=np.int64)
        positions = np.searchsorted(ids, vertices)
        clipped = np.minimum(positions, max(len(ids) - 1, 0))
        if len(ids) == 0:
            return np.full(len(vertices), float("inf"))
        found = ids[clipped] == vertices
        return np.where(found, costs[clipped], float("inf"))

    def probability_many(self, vertices, budgets) -> np.ndarray:
        """The 0/1 step for paired (vertex, residual budget) arrays."""
        budgets = np.asarray(budgets, dtype=float)
        return np.where(budgets >= self.min_cost_many(vertices), 1.0, 0.0)

    def storage_bytes(self) -> int:
        """One numeric ``getMin`` value per vertex, as the paper accounts storage.

        Every value is a Python float — the builders add and divide floats
        and the persisted columns decode to floats — so the map's values
        take ``len * sys.getsizeof(0.0)`` bytes, counted without walking them.
        """
        return len(self._min_costs) * _FLOAT_BYTES + sys.getsizeof(self._min_costs)


class EuclideanBinaryHeuristic(BinaryHeuristic):
    """T-B-EU: ``getMin`` from straight-line distance at the network's maximum speed."""

    def __init__(self, network: RoadNetwork, destination: int):
        max_speed_ms = network.max_speed_limit() / 3.6
        destination_vertex = network.vertex(destination)
        min_costs = {
            vertex.vertex_id: vertex.distance_to(destination_vertex) / max_speed_ms
            for vertex in network.vertices()
        }
        super().__init__(destination, min_costs)


class EdgeOnlyBinaryHeuristic(BinaryHeuristic):
    """T-B-E: ``getMin`` from a reverse Dijkstra over edges with their minimum costs."""

    def __init__(self, pace_graph: PaceGraph, destination: int):
        reversed_network = pace_graph.network.reversed()
        min_costs = single_source_costs(
            reversed_network,
            destination,
            lambda edge: pace_graph.edge_weight(edge.edge_id).min(),
        )
        super().__init__(destination, min_costs)


class PaceBinaryHeuristic(BinaryHeuristic):
    """T-B-P: ``getMin`` from the Algorithm 2 shortest-path tree over edges and T-paths."""

    def __init__(self, pace_graph: PaceGraph, destination: int):
        tree = build_pace_shortest_path_tree(pace_graph, destination)
        min_costs = {
            vertex: tree.get_min(vertex)
            for vertex in pace_graph.network.vertex_ids()
            if tree.get_min(vertex) < float("inf")
        }
        super().__init__(destination, min_costs)
        self._tree = tree

    @property
    def shortest_path_tree(self):
        """The underlying Algorithm 2 result (exposed for inspection and tests)."""
        return self._tree
