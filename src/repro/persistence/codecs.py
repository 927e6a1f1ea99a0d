"""Codecs for distributions, joint distributions and binary column documents.

The offline/online split of the paper only pays off if the offline artefacts
(the PACE graph, the V-paths, the heuristic tables) can be stored and loaded
by the online routing service.  This module provides the low-level codecs for
the probabilistic values; :mod:`repro.persistence.index` and
:mod:`repro.persistence.heuristics` build the document formats on top.

Two representations exist side by side:

* strict-JSON **dictionaries** — distributions on the serving wire and the
  manifest's document format, human-inspectable and free of pickle's
  code-execution hazards, and
* the **column container** backing every stored artifact: a framed binary
  document holding a strict-JSON metadata header plus named NumPy columns as
  checksummed little-endian blobs.  Columns round-trip **bit for bit** — no
  float renormalisation anywhere on the path — because graph content
  fingerprints are computed over the raw float payloads and must survive a
  save/load cycle exactly (see :func:`distribution_from_sequences`).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
from collections.abc import Sequence
from pathlib import Path as FilePath
from typing import IO, Any, NamedTuple

import numpy as np

from repro.core.distributions import Distribution
from repro.core.errors import DataError, DistributionError, JointDistributionError
from repro.core.joint import JointDistribution

__all__ = [
    "strict_json_dumps",
    "strict_json_dump",
    "strict_json_loads",
    "require_format_version",
    "distribution_to_dict",
    "distribution_from_dict",
    "distribution_from_sequences",
    "joint_from_sequences",
    "COLUMN_MAGIC",
    "encode_column_document",
    "decode_column_document",
    "is_column_document",
    "ragged_chunks",
    "ColumnDocumentReader",
    "open_column_document",
]


def strict_json_dumps(payload: Any, *, indent: int | None = None, sort_keys: bool = False) -> str:
    """Serialise ``payload`` as *strict* JSON: no ``NaN``/``Infinity`` tokens.

    Python's :func:`json.dumps` happily emits the non-standard ``NaN`` /
    ``Infinity`` constants, producing documents only Python can read back.
    Every persistence writer goes through this helper instead (enforced by
    the ``strict-json`` analysis rule); values that cannot be represented
    (``float("nan")`` leaking into a payload) fail loudly as
    :class:`~repro.core.errors.DataError` at write time rather than
    poisoning the artifact.
    """
    try:
        # The one sanctioned dumps call of the persistence package.
        return json.dumps(  # repro: ignore[strict-json]
            payload, allow_nan=False, indent=indent, sort_keys=sort_keys
        )
    except ValueError as exc:
        raise DataError(f"payload is not strict-JSON serialisable: {exc}") from exc


def strict_json_dump(payload: Any, handle: IO[str], *, indent: int | None = None) -> None:
    """File-handle companion of :func:`strict_json_dumps` (same strictness)."""
    handle.write(strict_json_dumps(payload, indent=indent))


def strict_json_loads(data: str | bytes, *, what: str) -> Any:
    """Decode strict JSON, mapping every failure to a :class:`DataError`.

    Rejects the non-standard ``NaN``/``Infinity``/``-Infinity`` tokens that
    :func:`json.loads` accepts by default — a document carrying them was
    written by a non-strict writer and would silently round-trip values
    standard JSON cannot represent.  ``what`` names the document in error
    messages.
    """

    def parse_constant(token: str) -> float:
        raise DataError(f"{what} contains the non-standard JSON token {token!r}")

    try:
        # The one sanctioned loads call of the persistence package.
        return json.loads(data, parse_constant=parse_constant)  # repro: ignore[strict-json]
    except json.JSONDecodeError as exc:
        raise DataError(f"{what} is not valid JSON: {exc}") from exc


def require_format_version(payload: dict, *, expected: int, what: str) -> int:
    """Validate a document's ``format_version`` field against ``expected``.

    Every persisted document in this package carries a ``format_version`` so
    readers can refuse documents written by a newer (or corrupted) writer
    instead of mis-parsing them.  Raises :class:`~repro.core.errors.DataError`
    naming the offending version, the supported version and the document kind;
    a missing or non-integer field is rejected with its own message rather
    than being silently treated as version 0.  Returns the validated version.
    """
    try:
        version = payload["format_version"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{what} carries no format_version field") from exc
    if not isinstance(version, int) or isinstance(version, bool):
        raise DataError(
            f"{what} format_version must be an integer, got {version!r}"
        )
    if version != expected:
        raise DataError(
            f"unsupported {what} format version {version} "
            f"(this reader supports version {expected}); "
            "re-export the document with a matching writer"
        )
    return version


# --------------------------------------------------------------------------- #
# Binary column container (every stored artifact)
# --------------------------------------------------------------------------- #

#: Leading bytes of every column document; lets readers (and ``file``-style
#: sniffing) distinguish the binary container from JSON documents.
COLUMN_MAGIC = b"RCOL"
_COLUMN_CONTAINER_VERSION = 1
#: dtypes a column may carry, as explicit little-endian codes.  A whitelist,
#: not a passthrough: object/str dtypes would turn the decoder into an
#: arbitrary-unpickling hazard, and platform-native codes would make the
#: on-disk bytes machine-dependent.
_COLUMN_DTYPES = ("<f8", "<i8")
_HEADER = struct.Struct("<4sHI")  # magic, container version, meta length
_COLUMN_COUNT = struct.Struct("<I")
_COLUMN_HEAD = struct.Struct("<H3sQ16s")  # name length, dtype, elements, digest
_COLUMN_DIGEST_SIZE = 16


def _column_digest(payload: bytes | memoryview) -> bytes:
    return hashlib.blake2b(payload, digest_size=_COLUMN_DIGEST_SIZE).digest()


class _ColumnFrame(NamedTuple):
    """One column's location inside a framed document (payload not yet read)."""

    name: str
    dtype: str
    offset: int  # byte offset of the payload within the document
    elements: int
    digest: bytes

    @property
    def nbytes(self) -> int:
        return self.elements * 8


def _walk_frames(view: memoryview, *, what: str) -> tuple[dict, list[_ColumnFrame]]:
    """Validate a column document's header and frame offsets without touching payloads.

    Shared by the eager decoder and the streaming reader: every structural
    check (magic, container version, metadata JSON, dtype whitelist, frame
    bounds, duplicate names, trailing bytes) happens here, so both paths
    reject malformed documents identically.  Per-column digests are *not*
    checked — the caller decides when to pay for reading the payload bytes.
    """

    def fail(reason: str) -> DataError:
        return DataError(f"malformed {what}: {reason}")

    if len(view) < _HEADER.size:
        raise fail("shorter than the container header")
    magic, version, meta_length = _HEADER.unpack_from(view, 0)
    if magic != COLUMN_MAGIC:
        raise fail(f"bad magic {magic!r} (not a column container)")
    if version != _COLUMN_CONTAINER_VERSION:
        raise fail(
            f"unsupported column container version {version} "
            f"(this reader supports version {_COLUMN_CONTAINER_VERSION})"
        )
    offset = _HEADER.size
    if len(view) < offset + meta_length + _COLUMN_COUNT.size:
        raise fail("truncated metadata block")
    try:
        meta_text = bytes(view[offset : offset + meta_length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise fail(f"metadata is not valid UTF-8: {exc}") from exc
    meta = strict_json_loads(meta_text, what=f"malformed {what}: metadata")
    if not isinstance(meta, dict):
        raise fail("metadata must be a JSON object")
    offset += meta_length
    (count,) = _COLUMN_COUNT.unpack_from(view, offset)
    offset += _COLUMN_COUNT.size
    frames: list[_ColumnFrame] = []
    seen: set[str] = set()
    for _ in range(count):
        if len(view) < offset + _COLUMN_HEAD.size:
            raise fail("truncated column header")
        name_length, dtype_bytes, elements, digest = _COLUMN_HEAD.unpack_from(view, offset)
        offset += _COLUMN_HEAD.size
        dtype = dtype_bytes.decode("ascii", errors="replace")
        if dtype not in _COLUMN_DTYPES:
            raise fail(f"column dtype {dtype!r} is not in the supported set {_COLUMN_DTYPES}")
        nbytes = elements * 8
        if len(view) < offset + name_length + nbytes:
            raise fail("truncated column payload")
        try:
            name = bytes(view[offset : offset + name_length]).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise fail(f"column name is not valid UTF-8: {exc}") from exc
        offset += name_length
        if name in seen:
            raise fail(f"duplicate column {name!r}")
        seen.add(name)
        frames.append(
            _ColumnFrame(name=name, dtype=dtype, offset=offset, elements=elements, digest=digest)
        )
        offset += nbytes
    if offset != len(view):
        raise fail(f"{len(view) - offset} trailing bytes after the last column")
    return meta, frames


def encode_column_document(meta: dict, columns: dict[str, np.ndarray]) -> bytes:
    """Frame ``meta`` (strict JSON) and named 1-d arrays into one binary blob.

    Every column is written as explicit little-endian bytes with a per-column
    blake2b digest, so truncation and bit-rot surface as
    :class:`~repro.core.errors.DataError` on decode rather than as silently
    wrong floats.  float64/int64 values are copied verbatim — the encode /
    decode pair is bit-exact by construction.
    """
    parts = [b""]  # placeholder for the header, filled last
    meta_bytes = strict_json_dumps(meta).encode("utf-8")
    parts.append(meta_bytes)
    parts.append(_COLUMN_COUNT.pack(len(columns)))
    for name, column in columns.items():
        array = np.asarray(column)
        if array.ndim != 1:
            raise DataError(f"column {name!r} must be one-dimensional, got shape {array.shape}")
        if array.dtype.kind == "f":
            array = array.astype("<f8", copy=False)
            dtype = b"<f8"
        elif array.dtype.kind in ("i", "u"):
            array = array.astype("<i8", copy=False)
            dtype = b"<i8"
        else:
            raise DataError(f"column {name!r} has unsupported dtype {array.dtype}")
        name_bytes = name.encode("utf-8")
        payload = array.tobytes()
        parts.append(_COLUMN_HEAD.pack(len(name_bytes), dtype, array.size, _column_digest(payload)))
        parts.append(name_bytes)
        parts.append(payload)
    parts[0] = _HEADER.pack(COLUMN_MAGIC, _COLUMN_CONTAINER_VERSION, len(meta_bytes))
    return b"".join(parts)


def is_column_document(data: bytes) -> bool:
    """Whether ``data`` starts like a column container (vs a JSON document)."""
    return data[: len(COLUMN_MAGIC)] == COLUMN_MAGIC


def decode_column_document(data: bytes, *, what: str = "column document") -> tuple[dict, dict[str, np.ndarray]]:
    """Decode :func:`encode_column_document` output back into (meta, columns).

    Rejects — always as :class:`~repro.core.errors.DataError` naming ``what``
    — wrong magic, unknown container versions, truncated frames, non-JSON
    metadata, out-of-whitelist dtypes and per-column checksum mismatches.
    Returned arrays are fresh, writable copies (decoding never aliases the
    input buffer).  Each column materialises as exactly one allocation: the
    digest is hashed over a view of the input and the array copied straight
    out of it, never through an intermediate ``bytes`` payload (which used to
    double the per-column peak).
    """
    view = memoryview(data)
    meta, frames = _walk_frames(view, what=what)
    columns: dict[str, np.ndarray] = {}
    for frame in frames:
        payload = view[frame.offset : frame.offset + frame.nbytes]
        if _column_digest(payload) != frame.digest:
            raise DataError(f"malformed {what}: column {frame.name!r} failed its checksum")
        columns[frame.name] = np.frombuffer(payload, dtype=frame.dtype).copy()
    return meta, columns


class ColumnDocumentReader:
    """Zero-copy streaming reader over one on-disk column document.

    The document is ``mmap``-ed read-only and its header and frame offsets
    validated up front (same structural checks as
    :func:`decode_column_document`), but **no payload bytes are read** until a
    column is touched: :meth:`column` returns a read-only ndarray *view* over
    the map, verifying that column's blake2b digest on first access (pages
    fault in as the hash and the consumer walk them; nothing is ever held
    twice).  :meth:`verify` performs the eager whole-document check the
    ``verify --deep`` paths want.

    Views alias the mapping, so they remain valid for the reader's lifetime —
    and keep the mapping alive afterwards (``close`` releases the reader's own
    reference; the OS unmaps once the last view is garbage-collected).  Use as
    a context manager for scoped reads.
    """

    def __init__(self, path: str | FilePath, *, what: str = "column document") -> None:
        self._path = FilePath(path)
        self._what = what
        try:
            with open(self._path, "rb") as handle:
                # Map read-only: views must not be able to rewrite the store
                # (and a shared writable map would let one reader corrupt
                # every other's verified columns).
                self._map = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except FileNotFoundError as exc:
            raise DataError(f"column document file not found: {self._path}") from exc
        except ValueError as exc:
            # mmap refuses empty files; an empty document is malformed anyway.
            raise DataError(f"malformed {what}: shorter than the container header") from exc
        self._view = memoryview(self._map)
        try:
            meta, frames = _walk_frames(self._view, what=what)
        except DataError:
            self.close()
            raise
        self._meta = meta
        self._frames = {frame.name: frame for frame in frames}
        self._verified: set[str] = set()
        self._arrays: dict[str, np.ndarray] = {}

    # -- introspection ------------------------------------------------- #
    @property
    def path(self) -> FilePath:
        return self._path

    @property
    def meta(self) -> dict:
        """The document's strict-JSON metadata header (parsed at open)."""
        return self._meta

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(self._frames)

    @property
    def size_bytes(self) -> int:
        """The mapped document's total size (no payload read)."""
        return len(self._view)

    def column_nbytes(self, name: str) -> int:
        """One column's payload size in bytes, from the frame header alone."""
        return self._frame(name).nbytes

    # -- reading ------------------------------------------------------- #
    def _frame(self, name: str) -> _ColumnFrame:
        try:
            return self._frames[name]
        except KeyError as exc:
            raise DataError(
                f"malformed {self._what}: no column named {name!r} "
                f"(document holds {sorted(self._frames)})"
            ) from exc

    def column(self, name: str) -> np.ndarray:
        """A read-only ndarray view of one column, digest-verified on first touch."""
        frame = self._frame(name)
        if name not in self._verified:
            payload = self._view[frame.offset : frame.offset + frame.nbytes]
            if _column_digest(payload) != frame.digest:
                raise DataError(
                    f"malformed {self._what}: column {name!r} failed its checksum"
                )
            self._verified.add(name)
        array = self._arrays.get(name)
        if array is None:
            # The map is ACCESS_READ, so frombuffer yields a non-writeable
            # array aliasing the page cache — decode copies nothing.
            array = np.frombuffer(
                self._view, dtype=frame.dtype, count=frame.elements, offset=frame.offset
            )
            self._arrays[name] = array
        return array

    def columns(self) -> dict[str, np.ndarray]:
        """Every column as a verified read-only view (faults the whole document in)."""
        return {name: self.column(name) for name in self._frames}

    def verify(self) -> None:
        """Eagerly digest-verify every column (the ``verify --deep`` path)."""
        for name in self._frames:
            self.column(name)

    # -- lifecycle ----------------------------------------------------- #
    def close(self) -> None:
        """Release the reader's reference to the mapping.

        Outstanding column views keep the underlying map alive (the mmap
        object refuses to unmap while buffers are exported); the mapping is
        released when the last view goes away.
        """
        self._arrays = {}
        try:
            self._view.release()
            self._map.close()
        except BufferError:
            # A caller still holds column views; refcounting unmaps later.
            pass

    def __enter__(self) -> "ColumnDocumentReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def open_column_document(
    path: str | FilePath, *, what: str = "column document", verify: bool = False
) -> ColumnDocumentReader:
    """Open a :class:`ColumnDocumentReader` over ``path``.

    ``verify=True`` digest-checks every column before returning (eager mode
    for the deep-verification paths); the default defers each column's check
    to its first touch.
    """
    reader = ColumnDocumentReader(path, what=what)
    if verify:
        try:
            reader.verify()
        except DataError:
            reader.close()
            raise
    return reader


def ragged_chunks(values: np.ndarray, counts: np.ndarray, *, what: str) -> list[np.ndarray]:
    """Split a concatenated value column into per-entry views of ``values``.

    The column container's encoding for ragged structures is one flat value
    column plus an aligned per-entry count column; every column reader (index
    weights/T-paths/V-paths, heuristic table rows) decodes through this one
    helper so the length-consistency check lives in a single place.
    """
    if counts.size == 0:
        if values.size:
            raise DataError(
                f"malformed column document: {what} holds {values.size} values "
                "but its count column is empty"
            )
        return []
    ends = np.cumsum(counts).tolist()
    if values.size != ends[-1]:
        raise DataError(
            f"malformed column document: {what} holds {values.size} values "
            f"but the counts sum to {ends[-1]}"
        )
    return [values[start:end] for start, end in zip([0, *ends[:-1]], ends)]


# --------------------------------------------------------------------------- #
# Distributions
# --------------------------------------------------------------------------- #


def distribution_to_dict(distribution: Distribution) -> dict:
    """Encode a cost distribution as ``{"costs": [...], "probabilities": [...]}``.

    Values are coerced to plain Python floats so that array-backed
    distributions stay JSON-serialisable even if a NumPy scalar ever leaks
    into the public tuples.
    """
    return {
        "costs": [float(cost) for cost in distribution.support],
        "probabilities": [float(probability) for probability in distribution.probabilities],
    }


def distribution_from_sequences(
    costs: Sequence[float], probabilities: Sequence[float]
) -> Distribution:
    """Restore a distribution from parallel cost/probability sequences.

    Well-formed writer output (sorted support, positive probabilities summing
    to one) is restored *exactly* — no renormalisation — so that persisting
    and re-loading a graph preserves its content fingerprint bit for bit.
    Sequences that only approximately normalise fall back to the lenient
    constructor, which rescales.  Shared by the dictionary and the columnar
    readers.
    """
    if len(costs) != len(probabilities):
        raise DataError("distribution payload has mismatched costs/probabilities lengths")
    try:
        return Distribution.from_normalised(costs, probabilities)
    except (DistributionError, TypeError, ValueError):
        # Not exactly-normalised writer output; the lenient constructor
        # rescales (and raises the taxonomy's DistributionError on garbage).
        return Distribution(zip(costs, probabilities), normalise=True)


def distribution_from_dict(payload: dict) -> Distribution:
    """Decode a distribution encoded by :func:`distribution_to_dict`."""
    try:
        costs = payload["costs"]
        probabilities = payload["probabilities"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed distribution payload: {payload!r}") from exc
    return distribution_from_sequences(costs, probabilities)


def joint_from_sequences(
    edge_ids: Sequence[int], items: Sequence[tuple[tuple[float, ...], float]]
) -> JointDistribution:
    """Restore a joint distribution from its edge ids and (costs, p) items.

    Like :func:`distribution_from_sequences`, exactly-normalised writer output
    restores the original floats (fingerprint-preserving);
    approximately-normalised input falls back to the rescaling constructor.
    ``items`` must be a list — a corrupted document with the same cost vector
    twice must reach ``from_normalised``'s duplicate check (and the lenient
    fallback's accumulation) instead of last-wins collapsing.
    """
    try:
        return JointDistribution.from_normalised(edge_ids, items)
    except (JointDistributionError, TypeError, ValueError):
        return JointDistribution(edge_ids, items, normalise=True)
