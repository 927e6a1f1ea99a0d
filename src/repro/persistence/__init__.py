"""Persistence of offline artefacts: the routable index, pre-computed heuristics,
and the content-addressed artifact store that bundles them for deployments."""

from repro.persistence.codecs import (
    decode_column_document,
    distribution_from_dict,
    distribution_to_dict,
    encode_column_document,
    is_column_document,
    joint_from_dict,
    joint_to_dict,
    require_format_version,
)
from repro.persistence.heuristics import (
    binary_heuristic_from_dict,
    binary_heuristic_to_dict,
    budget_heuristic_from_dict,
    budget_heuristic_to_dict,
    decode_heuristic_entry,
    encode_heuristic_entry,
    heuristic_entry_key,
    heuristic_table_from_dict,
    heuristic_table_to_dict,
)
from repro.persistence.heuristics import (
    heuristic_bundle_entries,
    heuristic_bundle_payload,
)
from repro.persistence.index import (
    index_from_column_bytes,
    index_from_dict,
    index_to_column_bytes,
    index_to_dict,
    load_index,
    save_index,
)
from repro.persistence.store import ArtifactEntry, ArtifactManifest, ArtifactStore

__all__ = [
    "require_format_version",
    "ArtifactStore",
    "ArtifactManifest",
    "ArtifactEntry",
    "encode_column_document",
    "decode_column_document",
    "is_column_document",
    "index_to_column_bytes",
    "index_from_column_bytes",
    "heuristic_entry_key",
    "encode_heuristic_entry",
    "decode_heuristic_entry",
    "heuristic_bundle_payload",
    "heuristic_bundle_entries",
    "distribution_to_dict",
    "distribution_from_dict",
    "joint_to_dict",
    "joint_from_dict",
    "index_to_dict",
    "index_from_dict",
    "save_index",
    "load_index",
    "binary_heuristic_to_dict",
    "binary_heuristic_from_dict",
    "budget_heuristic_to_dict",
    "budget_heuristic_from_dict",
    "heuristic_table_to_dict",
    "heuristic_table_from_dict",
]
