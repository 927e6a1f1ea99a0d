"""The element layout of a graph: every vertex's elements as flat ndarrays.

The searches and the offline table builders all read the same thing from a
PACE graph or its V-path closure: which elements (edges, T-paths, V-paths)
leave or reach each vertex, where they end and what their cost
distributions are.  None of that depends on a query or a destination, so
:class:`ElementLayout` enumerates it once per graph, in CSR form:

* the **forward slots** — vertex ``v``'s outgoing elements occupy the slot
  range ``offsets[row(v)] : offsets[row(v) + 1]``, in exactly the order
  ``graph.outgoing_elements(v)`` yields them (rows are the vertex ids in
  increasing order); per slot the layout keeps the element, its source,
  target (as a vertex id and as a row), cardinality, kind, its cost
  distribution and that distribution's minimum and maximum;
* the **reverse view** — vertex ``v``'s incoming elements, as the forward
  slots ``in_slots[in_offsets[row(v)] : in_offsets[row(v) + 1]]`` in exactly
  the order ``graph.incoming_elements(v)`` yields them.

:func:`element_layout` caches one layout per graph object, valid for the
graph's current :meth:`content_fingerprint`: ``add_tpath`` on a PACE graph
changes its fingerprint and the fingerprint of every ``UpdatedPaceGraph``
over it, so the next call rebuilds the layout.  Like the fingerprint, the
layout does not see an edge weight replaced directly on the underlying
:class:`~repro.core.edge_graph.EdgeGraph`.
"""

from __future__ import annotations

import threading
import weakref
from typing import Any

import numpy as np

from repro.core.distributions import Distribution
from repro.core.elements import WeightedElement

__all__ = ["ElementLayout", "element_layout"]


class ElementLayout:
    """Forward slots and reverse view of one graph's elements (see the module docstring)."""

    def __init__(self, graph: Any, fingerprint: str) -> None:
        #: The graph content this layout was enumerated from.
        self.fingerprint = fingerprint
        vertex_ids = sorted(graph.network.vertex_ids())
        self.vertex_ids: np.ndarray = np.asarray(vertex_ids, dtype=np.int64)
        self.row_of: dict[int, int] = {v: row for row, v in enumerate(vertex_ids)}
        elements: list[WeightedElement] = []
        offsets = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        for row, vertex in enumerate(vertex_ids):
            elements.extend(graph.outgoing_elements(vertex))
            offsets[row + 1] = len(elements)
        self.offsets: np.ndarray = offsets
        self.elements: list[WeightedElement] = elements
        self.distributions: list[Distribution] = [e.distribution for e in elements]
        count = len(elements)
        self.sources: np.ndarray = np.repeat(self.vertex_ids, np.diff(offsets))
        self.targets: np.ndarray = np.fromiter(
            (e.path.target for e in elements), dtype=np.int64, count=count
        )
        self.target_rows: np.ndarray = np.searchsorted(self.vertex_ids, self.targets)
        self.cardinality: np.ndarray = np.fromiter(
            (e.cardinality for e in elements), dtype=np.int64, count=count
        )
        self.is_edge: np.ndarray = np.fromiter(
            (e.is_edge() for e in elements), dtype=bool, count=count
        )
        self.dist_min: np.ndarray = np.fromiter(
            (e.distribution.min() for e in elements), dtype=float, count=count
        )
        self.dist_max: np.ndarray = np.fromiter(
            (e.distribution.max() for e in elements), dtype=float, count=count
        )

        # An element is unique by its kind and edge sequence (edges by id,
        # T-paths and V-paths by their keys in the graph).
        slot_of = {(e.kind, e.path.edges): slot for slot, e in enumerate(elements)}
        in_slots: list[int] = []
        in_offsets = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        for row, vertex in enumerate(vertex_ids):
            in_slots.extend(slot_of[e.kind, e.path.edges] for e in graph.incoming_elements(vertex))
            in_offsets[row + 1] = len(in_slots)
        self.in_offsets: np.ndarray = in_offsets
        self.in_slots: np.ndarray = np.asarray(in_slots, dtype=np.int64)

    def slot_range(self, vertex: int) -> tuple[int, int]:
        """The forward slot range ``[lo, hi)`` of a vertex's outgoing elements."""
        row = self.row_of.get(vertex)
        if row is None:
            return 0, 0
        return int(self.offsets[row]), int(self.offsets[row + 1])


_lock = threading.Lock()
_layouts: weakref.WeakKeyDictionary[Any, ElementLayout] = weakref.WeakKeyDictionary()


def element_layout(graph: Any) -> ElementLayout:
    """The cached :class:`ElementLayout` of ``graph`` (a PACE graph or its closure).

    Rebuilt when the graph's content fingerprint has changed since the
    cached layout was enumerated.  Thread-safe; a concurrent duplicate build
    is benign (both enumerate the same content).  The cache holds the graph
    weakly, so a layout lives exactly as long as its graph.
    """
    fingerprint = graph.content_fingerprint()
    with _lock:
        layout = _layouts.get(graph)
    if layout is not None and layout.fingerprint == fingerprint:
        return layout
    built = ElementLayout(graph, fingerprint)
    with _lock:
        _layouts[graph] = built
    return built
