"""Persistence of offline artefacts: the routable index, pre-computed heuristics,
and the content-addressed artifact store that bundles them for deployments.

Every artifact is a columnar document: heuristics are written straight from
their arrays and decoded straight back into them
(:func:`encode_heuristic_entry` / :func:`decode_heuristic_entry` over a typed
:class:`HeuristicEntry`).  Older stores and their dictionary-shaped documents
are read only by :mod:`repro.persistence.legacy`, which this package does not
import; ``repro migrate-artifacts`` rewrites them."""

from repro.persistence.codecs import (
    decode_column_document,
    distribution_from_dict,
    distribution_to_dict,
    encode_column_document,
    is_column_document,
    require_format_version,
)
from repro.persistence.heuristics import (
    HeuristicEntry,
    HeuristicSlot,
    decode_heuristic_entry,
    encode_heuristic_entry,
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
    "HeuristicSlot",
    "HeuristicEntry",
    "encode_heuristic_entry",
    "decode_heuristic_entry",
    "distribution_to_dict",
    "distribution_from_dict",
]
