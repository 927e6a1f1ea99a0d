"""Persistence of the routable index: PACE graph and V-paths.

A deployment builds the index offline (T-path mining on the trajectory
warehouse, V-path closure) and ships it to the routing service.  This module
serialises exactly that artefact:

* the road network (vertices and edges),
* the edge weight function ``W`` on ``E``,
* every T-path with its joint distribution, and
* every V-path with its pre-assembled total-cost distribution.

The document is columnar (format version 2), built on
:func:`repro.persistence.codecs.encode_column_document`: vertices, edges,
weights, T-paths and V-paths become flat little-endian columns (ragged
structures carry an explicit per-entry count column).  At city scale it
parses without building millions of intermediate Python objects, which is
what makes country-scale stores practical.

Both directions round-trip the graph's *content fingerprint* bit for bit —
no float renormalisation anywhere (see
:func:`repro.persistence.codecs.distribution_from_sequences`).
"""

from __future__ import annotations

import numpy as np

from repro.core.edge_graph import EdgeGraph
from repro.core.elements import ElementKind, WeightedElement
from repro.core.errors import DataError
from repro.core.pace_graph import PaceGraph
from repro.persistence.codecs import (
    ColumnDocumentReader,
    decode_column_document,
    distribution_from_sequences,
    encode_column_document,
    joint_from_sequences,
    ragged_chunks,
    require_format_version,
)
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "INDEX_FORMAT_V2",
    "index_to_column_bytes",
    "index_from_column_bytes",
    "index_from_column_reader",
]

#: Format version of the columnar index document.
INDEX_FORMAT_V2 = 2
_INDEX_KIND = "pace-index"


def index_to_column_bytes(graph: PaceGraph | UpdatedPaceGraph) -> bytes:
    """Serialise a PACE graph (optionally with its V-paths) as a column document.

    Ragged structures (edge weight supports, T-path edge lists, joint
    outcomes, V-path distributions) are flattened into one concatenated value
    column plus an aligned per-entry count column — the classic columnar
    encoding.  Float payloads are the graph's own float64 values, copied
    verbatim, so the decoded graph's content fingerprint equals the source's.
    """
    if isinstance(graph, UpdatedPaceGraph):
        pace = graph.pace_graph
        vpaths = list(graph.vpaths())
    else:
        pace = graph
        vpaths = []
    network = pace.network
    vertices = list(network.vertices())
    edges = list(network.edges())
    weights = pace.edge_graph.weights()
    weight_ids = list(weights)
    tpaths = list(pace.tpaths())

    columns: dict[str, np.ndarray] = {
        "vertex_id": np.array([v.vertex_id for v in vertices], dtype=np.int64),
        "vertex_x": np.array([v.x for v in vertices], dtype=float),
        "vertex_y": np.array([v.y for v in vertices], dtype=float),
        "edge_id": np.array([e.edge_id for e in edges], dtype=np.int64),
        "edge_source": np.array([e.source for e in edges], dtype=np.int64),
        "edge_target": np.array([e.target for e in edges], dtype=np.int64),
        "edge_length": np.array([e.length for e in edges], dtype=float),
        "edge_speed_limit": np.array([e.speed_limit for e in edges], dtype=float),
        "weight_edge_id": np.array(weight_ids, dtype=np.int64),
        "weight_count": np.array(
            [len(weights[edge_id].support) for edge_id in weight_ids], dtype=np.int64
        ),
        "weight_cost": np.concatenate(
            [np.asarray(weights[edge_id].support, dtype=float) for edge_id in weight_ids]
        )
        if weight_ids
        else np.array([], dtype=float),
        "weight_prob": np.concatenate(
            [np.asarray(weights[edge_id].probabilities, dtype=float) for edge_id in weight_ids]
        )
        if weight_ids
        else np.array([], dtype=float),
    }

    tpath_edge_ids: list[int] = []
    joint_edge_ids: list[int] = []
    outcome_costs: list[float] = []
    outcome_probs: list[float] = []
    tpath_edge_count: list[int] = []
    joint_edge_count: list[int] = []
    outcome_count: list[int] = []
    supports: list[int] = []
    for tpath in tpaths:
        path_edges = list(tpath.path.edges)
        tpath_edge_ids.extend(path_edges)
        tpath_edge_count.append(len(path_edges))
        supports.append(tpath.support)
        joint = tpath.joint
        joint_edge_ids.extend(joint.edge_ids)
        joint_edge_count.append(len(joint.edge_ids))
        items = list(joint.items())
        outcome_count.append(len(items))
        for costs, probability in items:
            outcome_costs.extend(costs)
            outcome_probs.append(probability)
    columns.update(
        tpath_edge_count=np.array(tpath_edge_count, dtype=np.int64),
        tpath_edge_id=np.array(tpath_edge_ids, dtype=np.int64),
        tpath_support=np.array(supports, dtype=np.int64),
        tpath_joint_edge_count=np.array(joint_edge_count, dtype=np.int64),
        tpath_joint_edge_id=np.array(joint_edge_ids, dtype=np.int64),
        tpath_outcome_count=np.array(outcome_count, dtype=np.int64),
        tpath_outcome_cost=np.array(outcome_costs, dtype=float),
        tpath_outcome_prob=np.array(outcome_probs, dtype=float),
    )

    vpath_edge_ids: list[int] = []
    vpath_edge_count: list[int] = []
    vpath_cost_count: list[int] = []
    vpath_costs: list[float] = []
    vpath_probs: list[float] = []
    for vpath in vpaths:
        path_edges = list(vpath.path.edges)
        vpath_edge_ids.extend(path_edges)
        vpath_edge_count.append(len(path_edges))
        distribution = vpath.distribution
        vpath_cost_count.append(len(distribution.support))
        vpath_costs.extend(distribution.support)
        vpath_probs.extend(distribution.probabilities)
    columns.update(
        vpath_edge_count=np.array(vpath_edge_count, dtype=np.int64),
        vpath_edge_id=np.array(vpath_edge_ids, dtype=np.int64),
        vpath_cost_count=np.array(vpath_cost_count, dtype=np.int64),
        vpath_cost=np.array(vpath_costs, dtype=float),
        vpath_prob=np.array(vpath_probs, dtype=float),
    )

    meta = {
        "format_version": INDEX_FORMAT_V2,
        "kind": _INDEX_KIND,
        "tau": pace.tau,
        "network_name": network.name,
    }
    return encode_column_document(meta, columns)


def index_from_column_bytes(data: bytes) -> UpdatedPaceGraph:
    """Rebuild the routable index from :func:`index_to_column_bytes` output."""
    meta, columns = decode_column_document(data, what="index column document")
    return _index_from_meta_columns(meta, columns)


def index_from_column_reader(reader: ColumnDocumentReader) -> UpdatedPaceGraph:
    """Rebuild the routable index from an open streaming reader.

    The zero-copy boot path: columns are read-only views over the reader's
    map (digest-verified as they are touched), so the only allocations are
    the graph objects themselves — the document's bytes are never held as a
    second copy alongside them.
    """
    return _index_from_meta_columns(reader.meta, reader.columns())


def _ragged_lists(values: np.ndarray, counts: np.ndarray, *, what: str) -> list[list]:
    """:func:`ragged_chunks` as per-entry python lists."""
    return [chunk.tolist() for chunk in ragged_chunks(values, counts, what=what)]


def _index_from_meta_columns(meta: dict, columns: dict[str, np.ndarray]) -> UpdatedPaceGraph:
    if meta.get("kind") != _INDEX_KIND:
        raise DataError(f"not a columnar index document (kind {meta.get('kind')!r})")
    require_format_version(meta, expected=INDEX_FORMAT_V2, what="columnar index")
    try:
        from repro.network.road_network import RoadNetwork

        network = RoadNetwork(name=meta.get("network_name", "road-network"))
        for vertex_id, x, y in zip(
            columns["vertex_id"].tolist(), columns["vertex_x"].tolist(), columns["vertex_y"].tolist()
        ):
            network.add_vertex(vertex_id, x, y)
        for edge_id, source, target, length, speed in zip(
            columns["edge_id"].tolist(),
            columns["edge_source"].tolist(),
            columns["edge_target"].tolist(),
            columns["edge_length"].tolist(),
            columns["edge_speed_limit"].tolist(),
        ):
            network.add_edge(source, target, edge_id=edge_id, length=length, speed_limit=speed)

        weight_costs = _ragged_lists(
            columns["weight_cost"], columns["weight_count"], what="weight_cost"
        )
        weight_probs = _ragged_lists(
            columns["weight_prob"], columns["weight_count"], what="weight_prob"
        )
        weights = {
            int(edge_id): distribution_from_sequences(costs, probs)
            for edge_id, costs, probs in zip(
                columns["weight_edge_id"].tolist(), weight_costs, weight_probs
            )
        }
        edge_graph = EdgeGraph(network, weights)
        pace = PaceGraph(edge_graph, tau=meta["tau"])

        tpath_edges = _ragged_lists(
            columns["tpath_edge_id"], columns["tpath_edge_count"], what="tpath_edge_id"
        )
        joint_edges = _ragged_lists(
            columns["tpath_joint_edge_id"], columns["tpath_joint_edge_count"],
            what="tpath_joint_edge_id",
        )
        outcome_probs = _ragged_lists(
            columns["tpath_outcome_prob"], columns["tpath_outcome_count"],
            what="tpath_outcome_prob",
        )
        outcome_costs = _ragged_lists(
            columns["tpath_outcome_cost"],
            columns["tpath_outcome_count"] * columns["tpath_joint_edge_count"],
            what="tpath_outcome_cost",
        )
        for edges, support, joint_ids, probs, costs in zip(
            tpath_edges, columns["tpath_support"].tolist(), joint_edges,
            outcome_probs, outcome_costs,
        ):
            width = len(joint_ids)
            items = [
                (tuple(costs[i * width : (i + 1) * width]), probability)
                for i, probability in enumerate(probs)
            ]
            path = network.path_from_edge_ids(edges)
            pace.add_tpath(path, joint_from_sequences(joint_ids, items), support=support)

        vpath_edges = _ragged_lists(
            columns["vpath_edge_id"], columns["vpath_edge_count"], what="vpath_edge_id"
        )
        vpath_costs = _ragged_lists(
            columns["vpath_cost"], columns["vpath_cost_count"], what="vpath_cost"
        )
        vpath_probs = _ragged_lists(
            columns["vpath_prob"], columns["vpath_cost_count"], what="vpath_prob"
        )
        vpaths: dict[tuple[int, ...], WeightedElement] = {}
        for edges, costs, probs in zip(vpath_edges, vpath_costs, vpath_probs):
            path = network.path_from_edge_ids(edges)
            vpaths[path.edges] = WeightedElement(
                kind=ElementKind.VPATH,
                path=path,
                distribution=distribution_from_sequences(costs, probs),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(
            f"malformed index column document, missing or invalid column/metadata field: {exc}"
        ) from exc
    return UpdatedPaceGraph(pace, vpaths)
