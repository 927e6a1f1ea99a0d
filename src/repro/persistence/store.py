"""Content-addressed store for the offline artifacts of a PACE deployment.

The paper's pipeline is explicitly offline/online: T-path mining, the V-path
closure and the Eq. 5 budget-table precompute happen *once*, and the routing
service only consumes the results.  This module is the on-disk contract
between the two halves.  One store directory holds everything a serving
process needs to boot without re-mining:

* ``manifest.json`` — the root document: graph content fingerprints, the
  :class:`~repro.routing.backends.DatasetRecipe` (when known), the
  :class:`~repro.routing.engine.RouterSettings` the artifacts were built for,
  per-artifact filenames with format versions and checksums, and free-form
  build provenance (who built it, when, how long the mining took),
* the routable index (road network, edge weights, T-paths with joints,
  V-paths) — ``index-<fingerprint>.bin``, a columnar document of
  :mod:`repro.persistence.index`, and
* the pre-computed heuristics — one columnar document *per heuristic*
  (``heuristic-<key>-<digest>.bin``), each recorded in the manifest under its
  stable ``heuristic:<key>`` name.

The per-entry layout is what makes ``prewarm --artifacts`` *incremental*:
entries are content-addressed, so re-saving a store with three new
destinations writes three new files and leaves every untouched table's file
byte-identical on disk.  Every artifact is written and served at
:data:`STORE_FORMAT`; the manifest records the version per artifact, and
readers refuse any other version.  Stores from before the columnar format
are read only by :mod:`repro.persistence.legacy`, on behalf of ``repro
migrate-artifacts``, which rewrites them in place.

Artifact files are *content-addressed*: the index file is keyed by the graph
content fingerprint it serialises, heuristic documents by a digest of their
own bytes, and the manifest records a checksum for each file.  Readers
therefore never trust a path: :meth:`ArtifactStore.load_index` verifies the
recorded size and per-column digests as it streams and the recomputed graph
fingerprints after, so a truncated file, a swapped dataset or a stale
manifest all fail loudly with a :class:`~repro.core.errors.DataError`
instead of silently serving a different city.  Writers replace the manifest
last and garbage-collect unreferenced artifact files, so a re-save (e.g.
``repro prewarm --artifacts`` adding more destinations) keeps the directory
consistent.

:class:`~repro.routing.engine.RoutingEngine.save_artifacts` /
:meth:`~repro.routing.engine.RoutingEngine.from_artifacts` are the high-level
entry points; the CLI exposes them as ``repro build-artifacts`` and
``--artifacts`` on the serving commands.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path as FilePath

from repro.core.errors import DataError
from repro.core.pace_graph import PaceGraph
from repro.persistence.codecs import (
    ColumnDocumentReader,
    open_column_document,
    require_format_version,
    strict_json_dumps,
    strict_json_loads,
)
from repro.persistence.heuristics import (
    encode_heuristic_entry,
    heuristic_entry_from_reader,
    heuristic_entry_key,
)
from repro.persistence.index import (
    INDEX_FORMAT_V2,
    index_from_column_reader,
    index_to_column_bytes,
)
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "MANIFEST_NAME",
    "INDEX_ARTIFACT",
    "HEURISTIC_ENTRY_PREFIX",
    "STORE_FORMAT",
    "ArtifactEntry",
    "ArtifactManifest",
    "ArtifactStore",
    "HeuristicStoreHandle",
    "StoreSummary",
    "checksum_bytes",
    "settings_digest",
]

#: Filename of the store's root document.
MANIFEST_NAME = "manifest.json"
#: Manifest ``kind`` tag; rejects unrelated JSON files early.
_STORE_KIND = "pace-artifact-store"
_MANIFEST_FORMAT_VERSION = 1

#: Logical artifact names (the keys of :attr:`ArtifactManifest.artifacts`).
INDEX_ARTIFACT = "index"
#: Prefix of per-entry heuristic artifact names: ``heuristic:<entry key>``.
HEURISTIC_ENTRY_PREFIX = "heuristic:"

#: The format version every artifact is written and served at.
STORE_FORMAT = INDEX_FORMAT_V2


def checksum_bytes(data: bytes) -> str:
    """The store's file checksum: a blake2b digest of the raw bytes.

    Public because the catalog (:mod:`repro.catalog`) re-verifies artifact
    files against the checksums it recorded at sync time — both sides must
    agree on the algorithm.
    """
    return hashlib.blake2b(data, digest_size=16).hexdigest()


_checksum = checksum_bytes


def settings_digest(settings: dict) -> str:
    """A stable digest of a manifest ``settings`` mapping.

    Canonical strict JSON (sorted keys) hashed with the store checksum, so
    two stores built for identical :class:`~repro.routing.engine.RouterSettings`
    compare equal by digest no matter the key order their manifests recorded.
    """
    return checksum_bytes(strict_json_dumps(settings, sort_keys=True).encode("utf-8"))


def _utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class ArtifactEntry:
    """One artifact file as the manifest records it."""

    filename: str
    format_version: int
    checksum: str
    size_bytes: int

    def to_dict(self) -> dict:
        return {
            "filename": self.filename,
            "format_version": self.format_version,
            "checksum": self.checksum,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ArtifactEntry":
        try:
            return cls(
                filename=str(payload["filename"]),
                # The manifest records a *per-artifact* version here — which
                # version each entry was written at, not a single expected
                # constant; validation happens in _artifact_entry().
                format_version=int(payload["format_version"]),  # repro: ignore[format-version]
                checksum=str(payload["checksum"]),
                size_bytes=int(payload["size_bytes"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"malformed artifact manifest entry: {exc}") from exc


@dataclass(frozen=True)
class ArtifactManifest:
    """The store's root document: identity, contents and provenance.

    ``fingerprints`` maps ``"pace"`` (always) and ``"updated"`` (``None``
    when the store was built without the V-path closure) to graph content
    fingerprints — the identity the loaded graphs are verified against.
    ``settings`` is the :class:`~repro.routing.engine.RouterSettings` the
    artifacts were built for (budget tables only admit budgets up to their
    ``max_budget``, so the settings travel with the tables); ``recipe`` is
    the :class:`~repro.routing.backends.DatasetRecipe` that mined the index,
    when known.  ``provenance`` is free-form build metadata (timestamps,
    builder, mining wall-clock) surfaced through
    :class:`~repro.routing.engine.EngineStats` but never interpreted.
    """

    fingerprints: dict[str, str | None]
    artifacts: dict[str, ArtifactEntry]
    settings: dict
    recipe: dict | None = None
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if "pace" not in self.fingerprints or not isinstance(self.fingerprints["pace"], str):
            raise DataError("artifact manifest must record a 'pace' content fingerprint")
        if INDEX_ARTIFACT not in self.artifacts:
            raise DataError("artifact manifest must reference an index artifact")

    def heuristic_entry_names(self) -> list[str]:
        """The per-entry heuristic artifact names, sorted for determinism."""
        return sorted(name for name in self.artifacts if name.startswith(HEURISTIC_ENTRY_PREFIX))

    def to_dict(self) -> dict:
        return {
            "kind": _STORE_KIND,
            "format_version": _MANIFEST_FORMAT_VERSION,
            "fingerprints": dict(self.fingerprints),
            "artifacts": {name: entry.to_dict() for name, entry in self.artifacts.items()},
            "settings": dict(self.settings),
            "recipe": None if self.recipe is None else dict(self.recipe),
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ArtifactManifest":
        if not isinstance(payload, dict):
            raise DataError(
                f"artifact manifest must be a JSON object, got {type(payload).__name__}"
            )
        if payload.get("kind") != _STORE_KIND:
            raise DataError(
                f"not an artifact store manifest (kind {payload.get('kind')!r}, "
                f"expected {_STORE_KIND!r})"
            )
        require_format_version(
            payload, expected=_MANIFEST_FORMAT_VERSION, what="artifact manifest"
        )
        try:
            fingerprints = dict(payload["fingerprints"])
            artifacts = {
                str(name): ArtifactEntry.from_dict(entry)
                for name, entry in payload["artifacts"].items()
            }
            settings = dict(payload["settings"])
            recipe = payload.get("recipe")
            provenance = dict(payload.get("provenance", {}))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            # AttributeError: "artifacts": null / a list has no .items().
            raise DataError(f"malformed artifact manifest: {exc}") from exc
        if recipe is not None and not isinstance(recipe, dict):
            raise DataError("artifact manifest 'recipe' must be an object or null")
        return cls(
            fingerprints=fingerprints,
            artifacts=artifacts,
            settings=settings,
            recipe=recipe,
            provenance=provenance,
        )


@dataclass(frozen=True)
class StoreSummary:
    """One consistent, cheap snapshot of a store's identity and contents.

    This is the shared "what is this store?" accessor: the serving tier's
    hot-reload watcher (:mod:`repro.serving.reload`) and the fleet catalog's
    sync (:mod:`repro.catalog.registry`) both read it instead of poking at
    manifest internals.  All fields come from **one** read of the manifest
    bytes, so ``manifest_fingerprint`` is guaranteed to describe exactly the
    parsed contents even while a writer republishes the store concurrently.
    """

    root: str
    #: Checksum of the manifest bytes this summary was parsed from — the
    #: change-detection primitive (writers replace the manifest atomically
    #: and last, so a new fingerprint means a complete new build).
    manifest_fingerprint: str
    fingerprints: dict[str, str | None]
    artifacts: dict[str, ArtifactEntry]
    settings: dict
    settings_digest: str
    recipe: dict | None
    provenance: dict

    @property
    def pace_fingerprint(self) -> str:
        fingerprint = self.fingerprints.get("pace")
        if not isinstance(fingerprint, str):  # unreachable past ArtifactManifest validation
            raise DataError(f"store summary for {self.root} lacks a 'pace' fingerprint")
        return fingerprint

    @property
    def updated_fingerprint(self) -> str | None:
        return self.fingerprints.get("updated")

    @property
    def index_format_version(self) -> int:
        return self.artifacts[INDEX_ARTIFACT].format_version

    @property
    def heuristic_documents(self) -> int:
        """Persisted heuristic artifact count: every artifact but the index."""
        return len(self.artifacts) - 1

    @property
    def total_bytes(self) -> int:
        return sum(entry.size_bytes for entry in self.artifacts.values())


class ArtifactStore:
    """One deployment's offline artifacts in one directory.

    Construct with the root directory; :meth:`open` additionally requires the
    manifest to exist and parse (the read side), while :meth:`save` creates or
    replaces the store contents (the write side).  All read paths verify file
    checksums against the manifest, and :meth:`load_index` verifies the
    recomputed graph content fingerprints, so every corruption mode surfaces
    as a :class:`~repro.core.errors.DataError` at boot rather than as wrong
    routes at serve time.
    """

    def __init__(self, root: str | FilePath) -> None:
        self.root = FilePath(root)
        self._manifest: ArtifactManifest | None = None

    @classmethod
    def open(cls, root: str | FilePath) -> "ArtifactStore":
        """Open an existing store, validating its manifest eagerly."""
        store = cls(root)
        if not store.manifest_path.exists():
            raise DataError(
                f"no artifact store at {store.root}: {MANIFEST_NAME} not found "
                "(build one with RoutingEngine.save_artifacts or 'repro build-artifacts')"
            )
        store.manifest  # noqa: B018 - force the parse so open() fails fast
        return store

    @property
    def manifest_path(self) -> FilePath:
        return self.root / MANIFEST_NAME

    @property
    def manifest(self) -> ArtifactManifest:
        """The parsed manifest (cached after the first read)."""
        if self._manifest is None:
            try:
                # The manifest is a small JSON document.
                text = self.manifest_path.read_text(encoding="utf-8")  # repro: ignore[residency-discipline]
            except FileNotFoundError as exc:
                raise DataError(f"no artifact store at {self.root}: {exc}") from exc
            payload = strict_json_loads(
                text, what=f"corrupted artifact manifest {self.manifest_path}"
            )
            self._manifest = ArtifactManifest.from_dict(payload)
        return self._manifest

    def manifest_fingerprint(self) -> str | None:
        """A checksum of the manifest file's bytes *right now*, or ``None``.

        The cheap change-detection primitive for long-lived serving processes:
        every write path replaces the manifest last, so a changed checksum
        means "the store was republished — reload", and an unchanged one means
        nothing to do, without parsing (or trusting) the document.  Returns
        ``None`` while no manifest exists (store mid-creation or removed).
        """
        try:
            # Small manifest; the fingerprint needs every byte.
            return _checksum(self.manifest_path.read_bytes())  # repro: ignore[residency-discipline]
        except OSError:
            return None

    def summary(self) -> StoreSummary:
        """A :class:`StoreSummary` snapshot parsed from one manifest read.

        Unlike :attr:`manifest` this never caches and pairs the parsed
        contents with the fingerprint of the very bytes they came from, so a
        watcher (serving reload) or an indexer (catalog sync) polling a store
        that is being republished sees either the old build or the new one —
        never the old fingerprint with the new contents.  Raises
        :class:`~repro.core.errors.DataError` when the manifest is missing or
        malformed.
        """
        try:
            # Small manifest JSON document.
            raw = self.manifest_path.read_bytes()  # repro: ignore[residency-discipline]
        except OSError as exc:
            raise DataError(f"no artifact store at {self.root}: {exc}") from exc
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(
                f"corrupted artifact manifest {self.manifest_path}: not UTF-8 ({exc})"
            ) from exc
        payload = strict_json_loads(
            text, what=f"corrupted artifact manifest {self.manifest_path}"
        )
        manifest = ArtifactManifest.from_dict(payload)
        return StoreSummary(
            root=str(self.root),
            manifest_fingerprint=checksum_bytes(raw),
            fingerprints=dict(manifest.fingerprints),
            artifacts=dict(manifest.artifacts),
            settings=dict(manifest.settings),
            settings_digest=settings_digest(manifest.settings),
            recipe=None if manifest.recipe is None else dict(manifest.recipe),
            provenance=dict(manifest.provenance),
        )

    def refresh(self) -> "ArtifactStore":
        """Drop the cached manifest so the next read reparses it from disk.

        :attr:`manifest` caches its parse — correct for the boot-once reader,
        wrong for a watcher that polls one store object across republishes.
        Returns ``self`` for chaining (``store.refresh().manifest``).
        """
        self._manifest = None
        return self

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #
    def _artifact_entry(self, name: str) -> ArtifactEntry:
        """One artifact's manifest entry, its ``format_version`` validated.

        Any version but :data:`STORE_FORMAT` is refused here — before a
        single payload byte is parsed — with the command that converts an
        older store in place.
        """
        entry = self.manifest.artifacts.get(name)
        if entry is None:
            raise DataError(f"artifact store {self.root} holds no {name!r} artifact")
        if entry.format_version != STORE_FORMAT:
            raise DataError(
                f"unsupported {name} artifact format version {entry.format_version} "
                f"in {self.root} (this engine serves version {STORE_FORMAT}); convert "
                f"an older store in place with 'repro migrate-artifacts {self.root}'"
            )
        return entry

    def _open_artifact_reader(self, name: str) -> ColumnDocumentReader:
        """Open one column artifact as a zero-copy streaming reader.

        The header and frame offsets are validated at open and the mapped
        size checked against the manifest's ``size_bytes`` (truncation and
        appended garbage surface immediately); per-column digests cover every
        payload byte and are verified as columns are touched.
        """
        entry = self._artifact_entry(name)
        path = self.root / entry.filename
        try:
            reader = open_column_document(path, what=f"artifact {entry.filename}")
        except DataError as exc:
            if not path.exists():
                raise DataError(
                    f"artifact store {self.root} is missing {entry.filename} "
                    f"(referenced by the manifest as {name!r})"
                ) from exc
            raise
        if reader.size_bytes != entry.size_bytes:
            reader.close()
            raise DataError(
                f"artifact {entry.filename} in {self.root} is corrupted: size "
                f"{reader.size_bytes} does not match the manifest's {entry.size_bytes}"
            )
        return reader

    def load_index(self) -> tuple[PaceGraph, UpdatedPaceGraph | None]:
        """Load the routable index and verify it against the manifest identity.

        The column document streams through an mmap reader, so boot never
        holds the index file bytes and the materialised graph concurrently.
        Returns ``(pace_graph, updated_graph)`` as :meth:`verify_index` does.
        """
        with self._open_artifact_reader(INDEX_ARTIFACT) as reader:
            updated = index_from_column_reader(reader)
        return self.verify_index(updated)

    def verify_index(
        self, updated: UpdatedPaceGraph
    ) -> tuple[PaceGraph, UpdatedPaceGraph | None]:
        """Check a decoded index against the manifest's content fingerprints.

        Returns ``(pace_graph, updated_graph)``; ``updated_graph`` is ``None``
        when the store was built without the V-path closure.  The recomputed
        content fingerprints must equal the manifest's — a mismatch means the
        index file belongs to different graph content than the manifest (and
        its heuristics) claim, and is rejected.
        """
        manifest = self.manifest
        pace = updated.pace_graph
        pace_fingerprint = pace.content_fingerprint()
        if pace_fingerprint != manifest.fingerprints["pace"]:
            raise DataError(
                f"index artifact in {self.root} holds a different PACE graph than the "
                f"manifest records (content fingerprint {pace_fingerprint} != "
                f"{manifest.fingerprints['pace']})"
            )
        updated_fingerprint = manifest.fingerprints.get("updated")
        if updated_fingerprint is None:
            return pace, None
        if updated.content_fingerprint() != updated_fingerprint:
            raise DataError(
                f"index artifact in {self.root} holds a different V-path closure than "
                f"the manifest records (content fingerprint "
                f"{updated.content_fingerprint()} != {updated_fingerprint})"
            )
        return pace, updated

    def load_heuristic_entries(self) -> list[dict]:
        """The tagged heuristic entries, or ``[]`` when none were persisted.

        Each per-entry column document is streamed through an mmap reader —
        per-column digests verified as the columns are decoded — and checked
        against its own ``heuristic:<key>`` name, so a file swapped for a
        different destination's table fails loudly.
        """
        return [self._load_heuristic_document(name) for name in self._heuristic_names()]

    def _heuristic_names(self) -> list[str]:
        """The ``heuristic:<key>`` artifact names, sorted.

        Refuses a store holding any other artifact besides the index (an
        older store's heuristic bundle, a foreign file) or a heuristic
        document at another format version, so such a store never boots with
        its tables silently ignored.
        """
        for name in self.manifest.artifacts:
            if name != INDEX_ARTIFACT:
                self._artifact_entry(name)
                if not name.startswith(HEURISTIC_ENTRY_PREFIX):
                    raise DataError(
                        f"artifact store {self.root} holds an unknown {name!r} "
                        "artifact; rebuild the store or run 'repro migrate-artifacts'"
                    )
        return self.manifest.heuristic_entry_names()

    def _load_heuristic_document(self, name: str) -> dict:
        """Fault in one ``heuristic:<key>`` document, verified against its name."""
        with self._open_artifact_reader(name) as reader:
            entry = heuristic_entry_from_reader(reader)
        expected = HEURISTIC_ENTRY_PREFIX + heuristic_entry_key(entry)
        if name != expected:
            raise DataError(
                f"heuristic artifact {name!r} in {self.root} decodes to a different "
                f"heuristic ({expected!r}); the store is inconsistent"
            )
        return entry

    def open_heuristics(self) -> "HeuristicStoreHandle":
        """A lazy, key-addressed handle over the store's persisted heuristics.

        Listing the entry keys costs only the (already parsed) manifest — no
        blob is read until :meth:`HeuristicStoreHandle.load_entry`
        faults a single entry in.  This is the residency primitive behind
        ``RoutingEngine.from_artifacts(prewarm="none")``: a country-scale boot
        lists thousands of keys for free and pages individual destinations'
        tables in on demand.
        """
        return HeuristicStoreHandle(self)

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #
    def save(
        self,
        *,
        graph: PaceGraph | UpdatedPaceGraph,
        fingerprints: dict[str, str | None],
        settings: dict,
        heuristic_entries: list[dict] | None = None,
        recipe: dict | None = None,
        provenance: dict | None = None,
    ) -> ArtifactManifest:
        """Write (or replace) the store contents and return the new manifest.

        The index file is named by the primary graph fingerprint (the V-path
        closure's when present, the PACE graph's otherwise); heuristics are
        written one document *per entry*, content-addressed by a digest of
        their own bytes, so a re-save writes only the tables that changed and
        leaves the rest byte-identical on disk.  The manifest is replaced
        atomically last, and any artifact files no longer referenced are
        removed.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        primary = fingerprints.get("updated") or fingerprints.get("pace")
        if not primary:
            raise DataError("artifact stores need at least the 'pace' content fingerprint")

        artifacts = {
            INDEX_ARTIFACT: self._write_blob(
                f"index-{primary[:16]}.bin", index_to_column_bytes(graph)
            )
        }
        if heuristic_entries:
            artifacts.update(self._write_heuristics(heuristic_entries))
        else:
            # A saver with no heuristics to contribute (e.g. an engine booted
            # with overridden settings that skipped the persisted tables) must
            # not destroy the store's existing prewarm investment: tables are
            # keyed by graph content, so as long as the graphs are unchanged
            # the previously persisted documents stay valid — keep them.
            artifacts.update(self._carry_over_heuristics(fingerprints))

        full_provenance = {"created_at": _utc_now_iso()}
        full_provenance.update(provenance or {})
        manifest = ArtifactManifest(
            fingerprints=dict(fingerprints),
            artifacts=artifacts,
            settings=dict(settings),
            recipe=None if recipe is None else dict(recipe),
            provenance=full_provenance,
        )
        temporary = self.manifest_path.with_suffix(".json.tmp")
        temporary.write_text(
            strict_json_dumps(manifest.to_dict(), indent=2), encoding="utf-8"
        )
        temporary.replace(self.manifest_path)
        self._manifest = manifest
        self._collect_garbage(manifest)
        return manifest

    def _write_heuristics(self, entries: list[dict]) -> dict[str, ArtifactEntry]:
        """Write one column document per entry, named ``heuristic:<key>``.

        Each document is content-addressed by its own digest, so the
        :meth:`_write_blob` checksum short-circuit leaves unchanged tables'
        files untouched on a re-save (incremental prewarm).
        """
        artifacts: dict[str, ArtifactEntry] = {}
        for entry in entries:
            key = heuristic_entry_key(entry)
            name = HEURISTIC_ENTRY_PREFIX + key
            if name in artifacts:
                raise DataError(
                    f"duplicate heuristic entry {key!r}: the engine handed the store "
                    "two tables for the same (kind, variant, graph, destination) slot"
                )
            blob = encode_heuristic_entry(entry)
            artifacts[name] = self._write_blob(f"heuristic-{key}-{_checksum(blob)[:12]}.bin", blob)
        return artifacts

    def _carry_over_heuristics(
        self, fingerprints: dict[str, str | None]
    ) -> dict[str, ArtifactEntry]:
        """The current manifest's per-entry heuristic documents, iff still valid."""
        if not self.manifest_path.exists():
            return {}
        try:
            previous = self.manifest
        except DataError:
            return {}
        if dict(previous.fingerprints) != dict(fingerprints):
            return {}
        return {
            name: entry
            for name, entry in previous.artifacts.items()
            if name.startswith(HEURISTIC_ENTRY_PREFIX) and (self.root / entry.filename).exists()
        }

    def _write_blob(self, filename: str, data: bytes) -> ArtifactEntry:
        checksum = _checksum(data)
        path = self.root / filename
        # Content-addressed names make equality checkable without reading the
        # old file for a heuristic; the index name is the graph fingerprint,
        # so compare checksums before rewriting a multi-megabyte document.
        # Write-path dedup checksum, not a decode.
        if not path.exists() or _checksum(path.read_bytes()) != checksum:  # repro: ignore[residency-discipline]
            path.write_bytes(data)
        return ArtifactEntry(
            filename=filename,
            format_version=STORE_FORMAT,
            checksum=checksum,
            size_bytes=len(data),
        )

    def _collect_garbage(self, manifest: ArtifactManifest) -> None:
        referenced = {entry.filename for entry in manifest.artifacts.values()}
        # The ``*.json`` patterns collect what a migrated store leaves behind.
        for pattern in ("index-*.json", "index-*.bin", "heuristics-*.json", "heuristic-*.bin"):
            for stale in self.root.glob(pattern):
                if stale.name not in referenced:
                    stale.unlink(missing_ok=True)

    def __repr__(self) -> str:
        root = str(self.root)
        return f"ArtifactStore(root={root!r})"


class HeuristicStoreHandle:
    """Key-addressed, fault-on-demand access to one store's heuristic tables.

    Created by :meth:`ArtifactStore.open_heuristics`.  The entry keys
    (``binary-P-35``, ``budget-60.0-pace-35``, …) come straight from the
    manifest — listing is free — and :meth:`load_entry` opens just that
    entry's column document through the streaming reader.

    The handle is thread-safe: concurrent faults for different keys proceed
    in parallel, each opening its own reader.
    """

    def __init__(self, store: ArtifactStore) -> None:
        self._store = store
        self._names: dict[str, str] = {
            name[len(HEURISTIC_ENTRY_PREFIX) :]: name for name in store._heuristic_names()
        }

    @property
    def store(self) -> ArtifactStore:
        return self._store

    def keys(self) -> tuple[str, ...]:
        """Every persisted entry key, sorted (read from the manifest alone)."""
        return tuple(sorted(self._names))

    def __contains__(self, key: str) -> bool:
        return key in self._names

    def __len__(self) -> int:
        return len(self._names)

    def load_entry(self, key: str) -> dict:
        """Fault one tagged entry in by key.

        Opens exactly that entry's column document (mmap streamed, column
        digests verified during decode, name re-derived and checked).
        Unknown keys and corrupted documents raise
        :class:`~repro.core.errors.DataError`.
        """
        name = self._names.get(key)
        if name is None:
            raise DataError(
                f"artifact store {self._store.root} holds no heuristic entry {key!r}"
            )
        return self._store._load_heuristic_document(name)
