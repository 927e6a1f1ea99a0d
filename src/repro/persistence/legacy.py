"""The format-version-1 store reader, kept only for ``repro migrate-artifacts``.

Stores written before the columnar format hold the routable index as one
JSON document (``index-<fingerprint>.json``) and every heuristic in one JSON
bundle (``heuristics-<digest>.json``).  The engine neither writes nor serves
them: :class:`~repro.persistence.store.ArtifactStore` refuses them with a
:class:`~repro.core.errors.DataError` naming the migrator, and
:func:`repro.routing.engine.migrate_store` — the one importer of this module —
reads them here and re-saves them in the current format.
"""

from __future__ import annotations

from repro.core.edge_graph import EdgeGraph
from repro.core.elements import ElementKind, WeightedElement
from repro.core.errors import DataError
from repro.core.pace_graph import PaceGraph
from repro.network.io import network_from_dict
from repro.persistence.codecs import (
    distribution_from_dict,
    joint_from_dict,
    require_format_version,
    strict_json_loads,
)
from repro.persistence.store import INDEX_ARTIFACT, ArtifactStore, checksum_bytes
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "LEGACY_FORMAT",
    "BUNDLE_ARTIFACT",
    "read_document",
    "index_from_dict",
    "heuristic_bundle_entries",
    "load_index",
    "load_heuristic_entries",
]

#: The format version of the JSON documents this module reads.
LEGACY_FORMAT = 1
#: Manifest name of the monolithic heuristic bundle.
BUNDLE_ARTIFACT = "heuristics"


def read_document(store: ArtifactStore, name: str) -> dict:
    """Read one JSON artifact document, verifying its checksum and format version."""
    entry = store.manifest.artifacts.get(name)
    if entry is None:
        raise DataError(f"artifact store {store.root} holds no {name!r} artifact")
    try:
        # JSON documents can only be parsed whole.
        data = (store.root / entry.filename).read_bytes()  # repro: ignore[residency-discipline]
    except FileNotFoundError as exc:
        raise DataError(
            f"artifact store {store.root} is missing {entry.filename} "
            f"(referenced by the manifest as {name!r})"
        ) from exc
    checksum = checksum_bytes(data)
    if checksum != entry.checksum:
        raise DataError(
            f"artifact {entry.filename} in {store.root} is corrupted: checksum "
            f"{checksum} does not match the manifest's {entry.checksum}"
        )
    payload = strict_json_loads(data, what=f"artifact {entry.filename}")
    require_format_version(payload, expected=LEGACY_FORMAT, what=f"{name} artifact")
    return payload


def index_from_dict(payload: dict) -> UpdatedPaceGraph:
    """Rebuild the routable index from a JSON index document.

    Always returns an :class:`~repro.vpaths.updated_graph.UpdatedPaceGraph`;
    when the document contains no V-paths the updated graph simply has none,
    and its ``pace_graph`` attribute gives the plain PACE view.
    """
    require_format_version(payload, expected=LEGACY_FORMAT, what="index document")
    try:
        network = network_from_dict(payload["network"])
        weights = {
            int(edge_id): distribution_from_dict(encoded)
            for edge_id, encoded in payload["edge_weights"].items()
        }
        edge_graph = EdgeGraph(network, weights)
        pace = PaceGraph(edge_graph, tau=payload["tau"])
        for entry in payload["tpaths"]:
            path = network.path_from_edge_ids(entry["edge_ids"])
            pace.add_tpath(path, joint_from_dict(entry["joint"]), support=entry.get("support", 0))
        vpaths: dict[tuple[int, ...], WeightedElement] = {}
        for entry in payload["vpaths"]:
            path = network.path_from_edge_ids(entry["edge_ids"])
            vpaths[path.edges] = WeightedElement(
                kind=ElementKind.VPATH,
                path=path,
                distribution=distribution_from_dict(entry["distribution"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError: int() on a non-numeric edge id key must surface as a
        # malformed document, not escape as a bare builtin (data-error-taxonomy).
        raise DataError(f"malformed index payload, missing or invalid key {exc}") from exc
    return UpdatedPaceGraph(pace, vpaths)


def heuristic_bundle_entries(payload: dict) -> list[dict]:
    """Validate a bundle document's envelope and return its tagged entries."""
    try:
        if payload["kind"] != "heuristic-bundle":
            raise DataError(f"not a heuristic bundle document (kind {payload['kind']!r})")
        require_format_version(payload, expected=LEGACY_FORMAT, what="heuristic bundle")
        entries = payload["entries"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed heuristic bundle: {exc}") from exc
    if not isinstance(entries, list):
        raise DataError("malformed heuristic bundle: entries must be a list")
    return entries


def load_index(store: ArtifactStore) -> tuple[PaceGraph, UpdatedPaceGraph | None]:
    """The store's index in either format, verified against the manifest identity."""
    if store.manifest.artifacts[INDEX_ARTIFACT].format_version != LEGACY_FORMAT:
        return store.load_index()
    return store.verify_index(index_from_dict(read_document(store, INDEX_ARTIFACT)))


def load_heuristic_entries(store: ArtifactStore) -> list[dict]:
    """The store's tagged heuristic entries, from a bundle or per-entry documents."""
    if BUNDLE_ARTIFACT in store.manifest.artifacts:
        return heuristic_bundle_entries(read_document(store, BUNDLE_ARTIFACT))
    return store.load_heuristic_entries()
