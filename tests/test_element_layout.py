"""The element layout: slot order, caching, and invalidation by ``add_tpath``.

Every consumer — the search accelerator, Algorithm 2 and the Eq. 5 table
builder — reads a graph's elements from its one cached
:class:`~repro.core.layout.ElementLayout`.  These tests pin that the layout
enumerates exactly what ``outgoing_elements`` / ``incoming_elements`` return,
in their order, and that a T-path added after tables and searches were built
on a graph (or on the PACE graph under an ``UpdatedPaceGraph``) is seen by
everything built afterwards: trees, budget tables of both graph families and
searches then equal those of a freshly built graph with the same T-paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.edge_graph import EdgeGraph
from repro.core.joint import JointDistribution
from repro.core.layout import element_layout
from repro.core.pace_graph import PaceGraph
from repro.datasets.synthetic import tiny_dataset
from repro.heuristics.binary import PaceBinaryHeuristic
from repro.heuristics.budget import BudgetHeuristicConfig, build_heuristic_table
from repro.routing import RouterSettings, RoutingQuery, create_router
from tests.oracles.routing import route_scalar
from repro.routing.accel import accelerator_for
from repro.tpaths.extraction import TPathMinerConfig, build_pace_graph
from repro.vpaths.updated_graph import UpdatedPaceGraph

SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000, heuristic_sweeps=None)
METHODS = ("T-B-P", "T-BS-60", "V-B-P", "V-BS-60")


def _keys(elements) -> list[tuple]:
    return [(element.kind, element.path.edges) for element in elements]


@pytest.mark.parametrize("which", ["pace", "updated"])
def test_slots_follow_outgoing_and_incoming_order(small_pace_graph, small_updated_graph, which):
    graph = small_pace_graph if which == "pace" else small_updated_graph
    layout = element_layout(graph)
    assert element_layout(graph) is layout
    assert layout.fingerprint == graph.content_fingerprint()
    for vertex in graph.network.vertex_ids():
        lo, hi = layout.slot_range(vertex)
        outgoing = graph.outgoing_elements(vertex)
        assert _keys(layout.elements[lo:hi]) == _keys(outgoing)
        assert layout.sources[lo:hi].tolist() == [vertex] * len(outgoing)
        assert layout.targets[lo:hi].tolist() == [e.target for e in outgoing]
        assert layout.dist_min[lo:hi].tolist() == [e.distribution.min() for e in outgoing]
        row = layout.row_of[vertex]
        incoming = layout.in_slots[layout.in_offsets[row] : layout.in_offsets[row + 1]]
        assert _keys(layout.elements[s] for s in incoming.tolist()) == _keys(
            graph.incoming_elements(vertex)
        )
    assert layout.slot_range(-1) == (0, 0)


def _mined_tiny() -> tuple[PaceGraph, UpdatedPaceGraph]:
    dataset = tiny_dataset()
    pace = build_pace_graph(
        dataset.network,
        list(dataset.peak),
        TPathMinerConfig(tau=20, max_cardinality=4, resolution=5.0),
    )
    updated, _ = UpdatedPaceGraph.build(pace)
    return pace, updated


def _shortcut(pace: PaceGraph, cardinality: int):
    """A path of ``cardinality`` edges with no T-path yet, and a joint far cheaper than its edges."""
    network = pace.network
    for first in sorted(network.edges(), key=lambda e: e.edge_id):
        edges = [first]
        if cardinality == 2:
            onward = [e for e in network.out_edges(first.target) if e.target != first.source]
            if not onward:
                continue
            edges.append(min(onward, key=lambda e: e.edge_id))
        path = network.path_from_edge_ids([e.edge_id for e in edges])
        if cardinality == 2 and pace.has_tpath(path.edges):
            continue
        cheap = tuple(pace.edge_weight(e.edge_id).min() / 2 for e in edges)
        dearer = tuple(cost + 1.0 for cost in cheap)
        return path, JointDistribution(path.edges, {cheap: 0.5, dearer: 0.5})
    raise AssertionError("no shortcut candidate")


def _fresh_copy(pace: PaceGraph, updated: UpdatedPaceGraph) -> tuple[PaceGraph, UpdatedPaceGraph]:
    """A new graph pair with the same weights, T-paths (in order) and V-paths."""
    network = pace.network
    weights = {edge.edge_id: pace.edge_weight(edge.edge_id) for edge in network.edges()}
    fresh = PaceGraph(EdgeGraph(network, weights), tau=pace.tau)
    for tpath in pace.tpaths():
        fresh.add_tpath(tpath.path, tpath.joint, support=tpath.support)
    vpaths = {vpath.path.edges: vpath for vpath in updated.vpaths()}
    return fresh, UpdatedPaceGraph(fresh, vpaths)


def _tree_labels(tree) -> dict[int, tuple]:
    return {
        vertex: (
            label.c1,
            label.c2,
            label.parent,
            None if label.via is None else (label.via.kind, label.via.path.edges),
        )
        for vertex, label in tree.labels.items()
    }


def _table_bytes(table) -> dict[int, tuple[int, bytes]]:
    return {v: (row.first_index, row.values.tobytes()) for v, row in table.rows.items()}


@pytest.mark.parametrize("cardinality", [1, 2])
def test_add_tpath_rebuilds_what_was_built_before(cardinality):
    pace, updated = _mined_tiny()
    config = SETTINGS.budget_config(60.0)
    destinations = sorted(pace.network.vertex_ids())
    path, joint = _shortcut(pace, cardinality)

    # Build everything once on the unmodified graphs: layouts, trees,
    # tables of both families and the searches' accelerators.
    stale_layouts = (element_layout(pace), element_layout(updated))
    stale_trees = {d: PaceBinaryHeuristic(pace, d) for d in destinations}
    for destination in destinations:
        build_heuristic_table(pace, destination, config, binary=stale_trees[destination])
        build_heuristic_table(updated, destination, config, binary=stale_trees[destination])
    queries = [
        RoutingQuery(path.source, destination, budget=600.0)
        for destination in destinations[::5]
        if destination != path.source
    ]
    for method in METHODS:
        router = create_router(method, pace, updated, settings=SETTINGS)
        for query in queries:
            router.route(query)

    pace.add_tpath(path, joint, support=20)
    fresh, fresh_updated = _fresh_copy(pace, updated)
    assert fresh.content_fingerprint() == pace.content_fingerprint()
    assert fresh_updated.content_fingerprint() == updated.content_fingerprint()

    for graph, stale in zip((pace, updated), stale_layouts):
        layout = element_layout(graph)
        assert layout is not stale
        assert layout.fingerprint == graph.content_fingerprint()
        lo, hi = layout.slot_range(path.source)
        assert _keys(layout.elements[lo:hi]) == _keys(graph.outgoing_elements(path.source))
    assert accelerator_for(pace).layout is element_layout(pace)
    assert accelerator_for(updated).layout is element_layout(updated)

    # The shortcut is visible: its source now reaches its target for less.
    stale_min = stale_trees[path.target].min_cost(path.source)
    assert PaceBinaryHeuristic(pace, path.target).min_cost(path.source) < stale_min

    for destination in destinations:
        binary = PaceBinaryHeuristic(pace, destination)
        fresh_binary = PaceBinaryHeuristic(fresh, destination)
        assert _tree_labels(binary.shortest_path_tree) == _tree_labels(
            fresh_binary.shortest_path_tree
        )
        for graph, fresh_graph in ((pace, fresh), (updated, fresh_updated)):
            table = build_heuristic_table(graph, destination, config, binary=binary)
            expected = build_heuristic_table(fresh_graph, destination, config, binary=fresh_binary)
            assert _table_bytes(table) == _table_bytes(expected), (destination, graph)

    # Searches on the mutated graphs (their accelerators are built from the
    # rebuilt layouts) equal the scalar reference over the fresh graphs,
    # which reads ``outgoing_elements`` directly.
    for method in METHODS:
        router = create_router(method, pace, updated, settings=SETTINGS)
        fresh_router = create_router(method, fresh, fresh_updated, settings=SETTINGS)
        for query in queries:
            got = router.route(query)
            heuristic = fresh_router.heuristic_for(query.destination)
            expected = route_scalar(
                method, fresh, fresh_updated, heuristic, query, settings=SETTINGS
            )
            assert got.path == expected.path, (method, query)
            assert got.probability == expected.probability, (method, query)
            assert got.explored == expected.explored, (method, query)
            if expected.distribution is not None:
                assert np.array_equal(
                    got.distribution.values_array, expected.distribution.values_array
                )
