"""Algorithm 2 against its per-vertex reference.

:func:`repro.heuristics.sptree.build_pace_shortest_path_tree` reads every
popped vertex's incoming elements from the reverse view of the graph's cached
element layout.  :func:`pace_shortest_path_tree_reference` below is the
original formulation, which asks the graph for ``incoming_elements`` at every
pop.  Both must produce the same labels — ``c1``, ``c2``, ``parent`` and the
edges of ``via`` — for every vertex, on cyclic random graphs with T-paths
(where ties between the two label criteria are common) and for every
destination of the aalborg-like city mined at τ=50.
"""

from __future__ import annotations

import heapq

import pytest

from repro.core.elements import WeightedElement
from repro.core.errors import UnknownVertexError
from repro.core.pace_graph import PaceGraph
from repro.datasets.synthetic import dataset_by_name
from repro.heuristics.sptree import SpTreeLabel, build_pace_shortest_path_tree
from repro.tpaths.extraction import TPathMinerConfig, build_pace_graph
from tests.test_heuristic_reference import _random_pace_graph


def _count_tpath_edges(element: WeightedElement) -> int:
    """``countEdges``: edges contributed by a T-path (0 for a plain edge)."""
    return element.cardinality if not element.is_edge() else 0


def pace_shortest_path_tree_reference(
    pace_graph: PaceGraph, destination: int
) -> dict[int, SpTreeLabel]:
    """Algorithm 2 walking ``incoming_elements`` of every popped vertex."""
    network = pace_graph.network
    if not network.has_vertex(destination):
        raise UnknownVertexError(f"unknown destination vertex {destination}")

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
        for element in pace_graph.incoming_elements(vertex):
            neighbour = element.source
            if neighbour == destination:
                continue
            candidate_c1 = label.c1 + element.min_cost
            candidate_c2 = label.c2 + _count_tpath_edges(element)
            current = labels[neighbour]

            better_c1 = candidate_c1 < current.c1
            better_c2 = candidate_c2 > current.c2
            worse_c1 = candidate_c1 > current.c1
            worse_c2 = candidate_c2 < current.c2

            update = False
            if not worse_c1 and not worse_c2 and (better_c1 or better_c2):
                update = True
            elif (better_c1 and worse_c2) or (worse_c1 and better_c2):
                old_path = current.forward_edges(labels)
                new_path = tuple(element.path.edges) + labels[vertex].forward_edges(labels)
                if old_path == new_path:
                    update = candidate_c2 > current.c2
                else:
                    update = candidate_c1 < current.c1
            if update:
                current.c1 = candidate_c1
                current.c2 = candidate_c2
                current.parent = vertex
                current.via = element
                counter += 1
                heapq.heappush(heap, (candidate_c1, neighbour, counter))
    return labels


def _label_key(label: SpTreeLabel) -> tuple:
    via = None if label.via is None else (label.via.kind, label.via.path.edges)
    return (label.c1, label.c2, label.parent, via)


def _assert_trees_equal(pace: PaceGraph, destination: int) -> None:
    expected = pace_shortest_path_tree_reference(pace, destination)
    got = build_pace_shortest_path_tree(pace, destination).labels
    assert set(got) == set(expected)
    for vertex, label in expected.items():
        assert _label_key(got[vertex]) == _label_key(label), (destination, vertex)


@pytest.mark.parametrize("cost_grid", [1.0, 0.1])
@pytest.mark.parametrize("seed", range(8))
def test_random_cyclic_graphs_every_destination(seed, cost_grid):
    pace, _ = _random_pace_graph(seed, cost_grid=cost_grid)
    assert pace.num_tpaths > 0
    for destination in sorted(pace.network.vertex_ids()):
        _assert_trees_equal(pace, destination)


def test_aalborg_like_city_every_destination():
    dataset = dataset_by_name("aalborg-like")
    pace = build_pace_graph(
        dataset.network,
        list(dataset.regime("peak")),
        TPathMinerConfig(tau=50, max_cardinality=4, resolution=5.0),
    )
    assert pace.num_tpaths > 0
    for destination in sorted(pace.network.vertex_ids()):
        _assert_trees_equal(pace, destination)

