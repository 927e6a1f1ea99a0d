"""Persistence of pre-computed heuristics.

The heuristics are destination-specific and, at city scale, constitute the
bulk of the offline investment the paper trades for fast online routing
(Tables 8–10).  This module serialises them so a routing service can load the
tables for its hot destinations instead of rebuilding them:

* binary heuristics — the per-vertex ``getMin`` map,
* budget-specific heuristics — the compressed heuristic table (``l``/``s``
  bounds and the cells in between) plus the ``getMin`` map used for budget
  pruning.

A persisted heuristic travels as a :class:`HeuristicEntry`: the heuristic
object plus the tags the engine keys and validates it by — its
:class:`HeuristicSlot` (kind, variant or δ, graph flavour, destination) and
the fingerprint and structural signature of the graph it was built over.

On disk, each entry is its *own* columnar binary document
(:func:`encode_heuristic_entry` / :func:`decode_heuristic_entry`), written
straight from the heuristic's arrays and read straight back into them: a
budget table's value band becomes one concatenated float64 column plus
per-row ``first_index``/count columns, the ``getMin`` maps become vertex/value
columns (binary floats represent ``inf`` natively).  The tags travel in the
document's JSON metadata header.  :attr:`HeuristicSlot.key` is the stable
name that lets the :class:`~repro.persistence.store.ArtifactStore` address,
append and replace tables *individually* on every ``prewarm --artifacts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.errors import ConfigurationError, DataError, HeuristicError
from repro.heuristics.binary import BinaryHeuristic
from repro.heuristics.budget import BudgetSpecificHeuristic
from repro.heuristics.tables import HeuristicRow, HeuristicTable
from repro.persistence.codecs import (
    ColumnDocumentReader,
    decode_column_document,
    encode_column_document,
    ragged_chunks,
    require_format_version,
)

__all__ = [
    "HEURISTIC_ENTRY_FORMAT_V2",
    "HeuristicSlot",
    "HeuristicEntry",
    "entry_from_tags",
    "encode_heuristic_entry",
    "decode_heuristic_entry",
    "heuristic_entry_from_reader",
]

#: Format version of the per-entry columnar heuristic documents.
HEURISTIC_ENTRY_FORMAT_V2 = 2
_ENTRY_KIND = "heuristic-entry"
#: The heuristic class each entry kind persists.
_KIND_CLASSES = {"binary": BinaryHeuristic, "budget": BudgetSpecificHeuristic}


@dataclass(frozen=True)
class HeuristicSlot:
    """Which persisted heuristic this is: kind, variant or δ, graph flavour, destination.

    ``variant`` is the binary ``getMin`` variant (``"EU"``, ``"E"``, ``"P"``)
    or the budget table's δ; ``graph`` is the graph the heuristic was built
    over (``"pace"`` or ``"updated"``; binary heuristics are always
    ``"pace"``).  Two entries in the same slot describe the same heuristic,
    possibly with different values after a rebuild.
    """

    kind: str
    variant: str | float
    graph: str
    destination: int

    def __post_init__(self) -> None:
        if self.kind not in _KIND_CLASSES:
            raise DataError(f"unknown heuristic entry kind {self.kind!r}")

    @property
    def key(self) -> str:
        """The slot's stable, filename-safe name.

        The store keys its per-entry artifacts by this, so re-saving a store
        replaces exactly the slots whose tables changed and appends the new
        ones.
        """
        if self.kind == "binary":
            return f"binary-{self.variant}-{self.destination}"
        # repr() keeps fractional deltas loss-free ('0.1', '1e-05'), and
        # produces filename-safe ASCII for any float.
        return f"budget-{float(self.variant)!r}-{self.graph}-{self.destination}"


@dataclass(frozen=True)
class HeuristicEntry:
    """One persisted heuristic plus the tags the engine keys and validates it by."""

    slot: HeuristicSlot
    heuristic: BinaryHeuristic | BudgetSpecificHeuristic
    #: Content fingerprint of the graph the heuristic was built over
    #: (``None`` for entries written before fingerprinting).
    graph_fingerprint: str | None = None
    #: Vertex/edge/T-path (and V-path) counts of that graph.
    graph_signature: tuple[int, ...] | None = None
    #: False for a budget table whose document records the paper's floor
    #: grid rounding (see :func:`_rounding_admissible`): its cells may
    #: under-estimate, so engines skip it and rebuild the table on demand.
    admissible: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.heuristic, _KIND_CLASSES[self.slot.kind]):
            raise DataError(
                f"{self.slot.kind} heuristic entry holds a {type(self.heuristic).__name__}"
            )
        if self.heuristic.destination != self.slot.destination:
            raise DataError(
                f"heuristic entry tagged for destination {self.slot.destination} holds "
                f"the heuristic of destination {self.heuristic.destination}"
            )

    @property
    def key(self) -> str:
        return self.slot.key


def _rounding_admissible(rounding: object, *, what: str) -> bool:
    """Whether a budget table document's ``grid_rounding`` gives admissible bounds.

    Tables are built rounding residual budgets up the grid (``"ceil"``), and
    documents record that.  A document recording ``"floor"`` — the rounding
    of the paper's Table 4 worked example, written by earlier releases — holds
    cells that may under-estimate ``U``.  Any other value makes the ``what``
    document malformed.
    """
    if rounding == "ceil":
        return True
    if rounding == "floor":
        return False
    raise DataError(f"malformed {what}: unknown grid_rounding {rounding!r}")


def entry_from_tags(
    tags: dict,
    heuristic: BinaryHeuristic | BudgetSpecificHeuristic,
    *,
    admissible: bool = True,
) -> HeuristicEntry:
    """The entry a document's tags describe, holding its decoded ``heuristic``."""
    try:
        kind = tags["kind"]
        if kind == "budget":
            slot = HeuristicSlot(
                kind, float(tags["delta"]), tags.get("graph", "pace"), int(tags["destination"])
            )
        else:
            slot = HeuristicSlot(kind, tags["variant"], "pace", int(tags["destination"]))
        signature = tags.get("graph_signature")
        return HeuristicEntry(
            slot,
            heuristic,
            graph_fingerprint=tags.get("graph_fingerprint"),
            graph_signature=None if signature is None else tuple(signature),
            admissible=admissible,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed heuristic entry tags: {exc}") from exc


# --------------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------------- #


def _min_cost_columns(heuristic: BinaryHeuristic) -> dict[str, np.ndarray]:
    """Vertex/getMin columns of a binary heuristic, by vertex (inf stays inf)."""
    items = sorted(heuristic.min_cost_map().items())
    return {
        "binary_vertex": np.array([vertex for vertex, _ in items], dtype=np.int64),
        "binary_min_cost": np.array([value for _, value in items], dtype=float),
    }


def encode_heuristic_entry(entry: HeuristicEntry) -> bytes:
    """Serialise one tagged entry as a self-contained column document.

    The tags (kind, variant/δ, graph flavour, destination, graph fingerprint
    and signature) travel in the JSON metadata header; the values become
    columns — ``getMin`` maps as vertex/value pairs, a budget table's stored
    band as one concatenated cell column with per-row ``first_index`` and
    cell counts.  Cells are copied verbatim (float64 in, float64 out):
    decoding yields exactly the floats the builder produced.
    """
    slot = entry.slot
    tags: dict[str, Any]
    if slot.kind == "binary":
        tags = {"kind": "binary", "variant": slot.variant}
    else:
        tags = {"kind": "budget", "delta": slot.variant, "graph": slot.graph}
    tags["destination"] = slot.destination
    tags["graph_fingerprint"] = entry.graph_fingerprint
    tags["graph_signature"] = (
        None if entry.graph_signature is None else list(entry.graph_signature)
    )
    meta: dict = {"format_version": HEURISTIC_ENTRY_FORMAT_V2, "kind": _ENTRY_KIND, "tags": tags}
    heuristic = entry.heuristic
    if isinstance(heuristic, BudgetSpecificHeuristic):
        table = heuristic.table
        meta["grid_rounding"] = "ceil" if entry.admissible else "floor"
        meta["table"] = {"destination": table.destination, "delta": table.delta, "eta": table.eta}
        meta["binary_destination"] = heuristic.binary.destination
        rows = sorted(table.rows.items())
        columns = {
            "row_vertex": np.array([vertex for vertex, _ in rows], dtype=np.int64),
            "row_first_index": np.array([row.first_index for _, row in rows], dtype=np.int64),
            "row_cell_count": np.array([row.values.size for _, row in rows], dtype=np.int64),
            "row_cell": np.concatenate([row.values for _, row in rows])
            if rows
            else np.array([], dtype=float),
            **_min_cost_columns(heuristic.binary),
        }
    else:
        meta["destination"] = heuristic.destination
        columns = _min_cost_columns(heuristic)
    return encode_column_document(meta, columns)


# --------------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------------- #


def _binary_from_columns(destination: int, columns: dict[str, np.ndarray]) -> BinaryHeuristic:
    vertices = columns["binary_vertex"]
    values = columns["binary_min_cost"]
    if vertices.size != values.size:
        raise DataError(
            f"malformed heuristic entry document: {vertices.size} getMin vertices "
            f"but {values.size} values"
        )
    if np.isnan(values).any():
        raise DataError("malformed heuristic entry document: NaN getMin value")
    return BinaryHeuristic(destination, dict(zip(vertices.tolist(), values.tolist())))


def _budget_from_columns(meta: dict, columns: dict[str, np.ndarray]) -> BudgetSpecificHeuristic:
    vertices = columns["row_vertex"]
    firsts = columns["row_first_index"]
    counts = columns["row_cell_count"]
    if not vertices.size == firsts.size == counts.size:
        raise DataError(
            "malformed heuristic entry document: row columns hold "
            f"{vertices.size}/{firsts.size}/{counts.size} rows"
        )
    cells = ragged_chunks(columns["row_cell"], counts, what="row_cell")
    # HeuristicRow copies each mapped slice into its own compact array.
    rows = {
        vertex: HeuristicRow(first_index=first, values=chunk)
        for vertex, first, chunk in zip(vertices.tolist(), firsts.tolist(), cells)
    }
    layout = meta["table"]
    table = HeuristicTable(
        destination=layout["destination"], delta=layout["delta"], eta=layout["eta"], rows=rows
    )
    binary = _binary_from_columns(meta["binary_destination"], columns)
    return BudgetSpecificHeuristic.from_table(table, binary=binary)


def decode_heuristic_entry(data: bytes) -> HeuristicEntry:
    """Decode :func:`encode_heuristic_entry` output back into a tagged entry."""
    meta, columns = decode_column_document(data, what="heuristic entry document")
    return _entry_from_meta_columns(meta, columns)


def heuristic_entry_from_reader(reader: ColumnDocumentReader) -> HeuristicEntry:
    """Decode one tagged entry from an open streaming reader (the fault path).

    Semantically identical to :func:`decode_heuristic_entry`, but the columns
    are digest-verified mmap views rather than copies of an in-memory blob —
    this is what :meth:`repro.persistence.store.ArtifactStore.open_heuristics`
    uses to fault a single destination's table without reading the file into
    a bytes object first.  The decoded heuristic holds no view of the map.
    """
    return _entry_from_meta_columns(reader.meta, reader.columns())


def _entry_from_meta_columns(meta: dict, columns: dict[str, np.ndarray]) -> HeuristicEntry:
    if meta.get("kind") != _ENTRY_KIND:
        raise DataError(f"not a heuristic entry document (kind {meta.get('kind')!r})")
    require_format_version(meta, expected=HEURISTIC_ENTRY_FORMAT_V2, what="heuristic entry")
    try:
        tags = meta["tags"]
        kind = tags["kind"]
        admissible = True
        if kind == "binary":
            heuristic: BinaryHeuristic | BudgetSpecificHeuristic = _binary_from_columns(
                meta["destination"], columns
            )
        elif kind == "budget":
            heuristic = _budget_from_columns(meta, columns)
            admissible = _rounding_admissible(
                meta["grid_rounding"], what="heuristic entry document"
            )
        else:
            raise DataError(f"unknown heuristic entry kind {kind!r}")
    except (KeyError, TypeError, ValueError, HeuristicError, ConfigurationError) as exc:
        raise DataError(f"malformed heuristic entry document: {exc}") from exc
    return entry_from_tags(tags, heuristic, admissible=admissible)
