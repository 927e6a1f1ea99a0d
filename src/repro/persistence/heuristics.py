"""Persistence of pre-computed heuristics.

The heuristics are destination-specific and, at city scale, constitute the
bulk of the offline investment the paper trades for fast online routing
(Tables 8–10).  This module serialises them so a routing service can load the
tables for its hot destinations instead of rebuilding them:

* binary heuristics — the per-vertex ``getMin`` map,
* budget-specific heuristics — the compressed heuristic table (``l``/``s``
  bounds and the cells in between) plus the ``getMin`` map used for budget
  pruning.

The dictionary codecs produce strict-JSON-ready payloads: unreachable
vertices carry ``getMin = inf``, which standard JSON cannot represent, so
infinities are stored as the string sentinel ``"inf"``.

On disk, each *tagged entry* (a payload plus the kind, variant/δ, graph and
destination tags the engine keys its cache by) is its *own* columnar binary
document (:func:`encode_heuristic_entry` /
:func:`decode_heuristic_entry`): a budget table's value band becomes one
concatenated float64 column plus per-row ``first_index``/count columns, the
``getMin`` maps become vertex/value columns (binary floats represent ``inf``
natively — no sentinel needed).  Entries carry a stable
:func:`heuristic_entry_key`, which is what lets the
:class:`~repro.persistence.store.ArtifactStore` address, append and replace
tables *individually* on every ``prewarm --artifacts``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.errors import DataError
from repro.persistence.codecs import (
    ColumnDocumentReader,
    decode_column_document,
    encode_column_document,
    require_format_version,
    split_ragged_column,
)
from repro.heuristics.binary import BinaryHeuristic
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic
from repro.heuristics.tables import HeuristicRow, HeuristicTable

__all__ = [
    "binary_heuristic_to_dict",
    "binary_heuristic_from_dict",
    "heuristic_table_to_dict",
    "heuristic_table_from_dict",
    "budget_heuristic_to_dict",
    "budget_heuristic_from_dict",
    "HEURISTIC_ENTRY_FORMAT_V2",
    "heuristic_entry_key",
    "encode_heuristic_entry",
    "decode_heuristic_entry",
    "heuristic_entry_from_reader",
]

_FORMAT_VERSION = 1
#: Format version of the per-entry columnar heuristic documents.
HEURISTIC_ENTRY_FORMAT_V2 = 2
_ENTRY_KIND = "heuristic-entry"

#: JSON-safe stand-in for ``float("inf")`` getMin values (unreachable vertices).
_INFINITY_SENTINEL = "inf"


def _encode_min_cost(value: float) -> float | str:
    return value if math.isfinite(value) else _INFINITY_SENTINEL


def binary_heuristic_to_dict(heuristic: BinaryHeuristic) -> dict:
    """Serialise a binary heuristic (its destination and per-vertex getMin values).

    Infinite ``getMin`` values (vertices that cannot reach the destination)
    are stored as the string sentinel ``"inf"`` so the document stays strict
    JSON; :func:`binary_heuristic_from_dict` converts them back.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "destination": heuristic.destination,
        "min_costs": {
            str(vertex): _encode_min_cost(value)
            for vertex, value in heuristic.min_cost_map().items()
        },
    }


def binary_heuristic_from_dict(payload: dict) -> BinaryHeuristic:
    """Rebuild a binary heuristic from :func:`binary_heuristic_to_dict` output.

    Accepts the ``"inf"`` sentinel (and the legacy non-standard ``Infinity``
    token, which Python's json module used to emit) for unreachable vertices.
    """
    require_format_version(payload, expected=_FORMAT_VERSION, what="binary heuristic")
    try:
        destination = payload["destination"]
        # float() parses numbers as well as the "inf" / "Infinity" sentinels.
        min_costs = {int(vertex): float(value) for vertex, value in payload["min_costs"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed binary heuristic payload: {exc}") from exc
    if any(math.isnan(value) for value in min_costs.values()):
        raise DataError("malformed binary heuristic payload: NaN getMin value")
    return BinaryHeuristic(destination, min_costs)


def heuristic_table_to_dict(source: HeuristicTable | BudgetSpecificHeuristic) -> dict:
    """Serialise a heuristic table (accepts the table or the full heuristic)."""
    table = source.table if isinstance(source, BudgetSpecificHeuristic) else source
    return {
        "format_version": _FORMAT_VERSION,
        "destination": table.destination,
        "delta": table.delta,
        "eta": table.eta,
        "rows": {
            str(vertex): {"first_index": row.first_index, "values": row.values.tolist()}
            for vertex, row in table.rows.items()
        },
    }


def heuristic_table_from_dict(payload: dict) -> HeuristicTable:
    """Rebuild a heuristic table from :func:`heuristic_table_to_dict` output."""
    require_format_version(payload, expected=_FORMAT_VERSION, what="heuristic table")
    try:
        table = HeuristicTable(
            destination=payload["destination"], delta=payload["delta"], eta=payload["eta"]
        )
        for vertex, row in payload["rows"].items():
            table.set_row(
                int(vertex),
                HeuristicRow(first_index=row["first_index"], values=tuple(row["values"])),
            )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: int() on a non-numeric vertex key is a malformed
        # document, not a programming error (data-error-taxonomy).
        raise DataError(f"malformed heuristic table payload: {exc}") from exc
    return table


def budget_heuristic_to_dict(heuristic: BudgetSpecificHeuristic) -> dict:
    """Serialise a budget-specific heuristic: its table plus the getMin map.

    The build's ``grid_rounding`` is recorded because it decides
    admissibility: ``"floor"``-built cells may slightly under-estimate, so a
    loader that needs admissible bounds must be able to tell the modes apart.
    """
    return {
        "format_version": _FORMAT_VERSION,
        "grid_rounding": heuristic.grid_rounding,
        "table": heuristic_table_to_dict(heuristic.table),
        "binary": binary_heuristic_to_dict(heuristic.binary),
    }


def budget_heuristic_from_dict(payload: dict) -> BudgetSpecificHeuristic:
    """Rebuild a servable budget-specific heuristic without re-running Eq. 5."""
    require_format_version(payload, expected=_FORMAT_VERSION, what="budget heuristic")
    try:
        table = heuristic_table_from_dict(payload["table"])
        binary = binary_heuristic_from_dict(payload["binary"])
        grid_rounding = payload.get("grid_rounding", "ceil")
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed budget heuristic payload: {exc}") from exc
    config = BudgetHeuristicConfig(
        delta=table.delta, max_budget=table.max_budget, grid_rounding=grid_rounding
    )
    return BudgetSpecificHeuristic.from_table(table, binary=binary, config=config)


# --------------------------------------------------------------------------- #
# Per-entry columnar documents
# --------------------------------------------------------------------------- #


def heuristic_entry_key(entry: dict) -> str:
    """A stable, filename-safe identity for one tagged bundle entry.

    Two entries with the same key describe the *same* heuristic slot (same
    kind, variant/δ, graph flavour and destination) — possibly with different
    values after a rebuild.  The store keys its per-entry artifacts by
    this, so re-saving a store replaces exactly the slots whose tables
    changed and appends the new ones.
    """
    try:
        kind = entry["kind"]
        destination = int(entry["destination"])
        if kind == "binary":
            return f"binary-{entry['variant']}-{destination}"
        if kind == "budget":
            delta = float(entry["delta"])
            flavour = entry.get("graph", "pace")
            # repr() keeps fractional deltas loss-free ('0.1', '1e-05'), and
            # produces filename-safe ASCII for any float.
            return f"budget-{delta!r}-{flavour}-{destination}"
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed heuristic bundle entry: {exc}") from exc
    raise DataError(f"unknown heuristic bundle entry kind {kind!r}")


def _min_cost_columns(payload: dict, prefix: str) -> dict[str, np.ndarray]:
    """Vertex/getMin columns of a binary-heuristic payload (inf stays inf)."""
    items = sorted((int(vertex), float(value)) for vertex, value in payload["min_costs"].items())
    return {
        f"{prefix}_vertex": np.array([vertex for vertex, _ in items], dtype=np.int64),
        f"{prefix}_min_cost": np.array([value for _, value in items], dtype=float),
    }


def encode_heuristic_entry(entry: dict) -> bytes:
    """Serialise one tagged bundle entry as a self-contained column document.

    The tag fields (kind, variant/δ, graph flavour, destination, graph
    fingerprint and signature) travel in the JSON metadata header; the value
    payloads become columns — ``getMin`` maps as vertex/value pairs, a budget
    table's stored band as one concatenated cell column with per-row
    ``first_index`` and cell counts.  Cells are copied verbatim (float64 in,
    float64 out): decoding yields exactly the floats the builder produced.
    """
    tags = {name: value for name, value in entry.items() if name != "heuristic"}
    meta = {
        "format_version": HEURISTIC_ENTRY_FORMAT_V2,
        "kind": _ENTRY_KIND,
        "tags": tags,
    }
    try:
        payload = entry["heuristic"]
        if entry["kind"] == "binary":
            meta["destination"] = payload["destination"]
            columns = _min_cost_columns(payload, "binary")
        elif entry["kind"] == "budget":
            table = payload["table"]
            meta["grid_rounding"] = payload.get("grid_rounding", "ceil")
            meta["table"] = {
                "destination": table["destination"],
                "delta": table["delta"],
                "eta": table["eta"],
            }
            rows = sorted(
                (int(vertex), row["first_index"], row["values"])
                for vertex, row in table["rows"].items()
            )
            columns = {
                "row_vertex": np.array([vertex for vertex, _, _ in rows], dtype=np.int64),
                "row_first_index": np.array([first for _, first, _ in rows], dtype=np.int64),
                "row_cell_count": np.array([len(cells) for _, _, cells in rows], dtype=np.int64),
                "row_cell": np.concatenate(
                    [np.asarray(cells, dtype=float) for _, _, cells in rows]
                )
                if rows
                else np.array([], dtype=float),
                **_min_cost_columns(payload["binary"], "binary"),
            }
            meta["binary_destination"] = payload["binary"]["destination"]
        else:
            raise DataError(f"unknown heuristic bundle entry kind {entry['kind']!r}")
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: int() on a non-numeric row vertex is a malformed
        # entry, not a programming error (data-error-taxonomy).
        raise DataError(f"malformed heuristic bundle entry: {exc}") from exc
    return encode_column_document(meta, columns)


def _min_costs_from_columns(columns: dict, prefix: str) -> dict[str, float]:
    vertices = columns[f"{prefix}_vertex"].tolist()
    values = columns[f"{prefix}_min_cost"].tolist()
    return {str(vertex): value for vertex, value in zip(vertices, values)}


def decode_heuristic_entry(data: bytes) -> dict:
    """Decode :func:`encode_heuristic_entry` output back into a tagged entry.

    The result is the tagged-entry shape (tags plus a ``"heuristic"``
    payload dictionary) that :meth:`repro.routing.engine.RoutingEngine`
    validates, the same shape the migrator reads from older stores.
    """
    meta, columns = decode_column_document(data, what="heuristic entry document")
    return _entry_from_meta_columns(meta, columns)


def heuristic_entry_from_reader(reader: ColumnDocumentReader) -> dict:
    """Decode one tagged entry from an open streaming reader (zero-copy fault path).

    Semantically identical to :func:`decode_heuristic_entry`, but the columns
    are digest-verified mmap views rather than copies of an in-memory blob —
    this is what :meth:`repro.persistence.store.ArtifactStore.open_heuristics`
    uses to fault a single destination's table without reading the file into
    a bytes object first.
    """
    return _entry_from_meta_columns(reader.meta, reader.columns())


def _entry_from_meta_columns(meta: dict, columns: dict[str, np.ndarray]) -> dict:
    if meta.get("kind") != _ENTRY_KIND:
        raise DataError(f"not a heuristic entry document (kind {meta.get('kind')!r})")
    require_format_version(meta, expected=HEURISTIC_ENTRY_FORMAT_V2, what="heuristic entry")
    try:
        entry = dict(meta["tags"])
        if entry["kind"] == "binary":
            entry["heuristic"] = {
                "format_version": _FORMAT_VERSION,
                "destination": meta["destination"],
                "min_costs": _min_costs_from_columns(columns, "binary"),
            }
        elif entry["kind"] == "budget":
            cell_lists = split_ragged_column(
                columns["row_cell"], columns["row_cell_count"], what="row_cell"
            )
            rows = {
                str(vertex): {"first_index": first, "values": cells}
                for vertex, first, cells in zip(
                    columns["row_vertex"].tolist(),
                    columns["row_first_index"].tolist(),
                    cell_lists,
                )
            }
            entry["heuristic"] = {
                "format_version": _FORMAT_VERSION,
                "grid_rounding": meta["grid_rounding"],
                "table": {
                    "format_version": _FORMAT_VERSION,
                    "destination": meta["table"]["destination"],
                    "delta": meta["table"]["delta"],
                    "eta": meta["table"]["eta"],
                    "rows": rows,
                },
                "binary": {
                    "format_version": _FORMAT_VERSION,
                    "destination": meta["binary_destination"],
                    "min_costs": _min_costs_from_columns(columns, "binary"),
                },
            }
        else:
            raise DataError(f"unknown heuristic entry kind {entry['kind']!r}")
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed heuristic entry document: {exc}") from exc
    return entry
