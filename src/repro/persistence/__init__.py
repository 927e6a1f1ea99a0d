"""Persistence of offline artefacts: the routable index, pre-computed heuristics,
and the content-addressed artifact store that bundles them for deployments.

Older stores are read only by :mod:`repro.persistence.legacy`, which this
package does not import; ``repro migrate-artifacts`` rewrites them."""

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
from repro.persistence.index import index_from_column_bytes, index_to_column_bytes
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
    "distribution_to_dict",
    "distribution_from_dict",
    "joint_to_dict",
    "joint_from_dict",
    "binary_heuristic_to_dict",
    "binary_heuristic_from_dict",
    "budget_heuristic_to_dict",
    "budget_heuristic_from_dict",
    "heuristic_table_to_dict",
    "heuristic_table_from_dict",
]
