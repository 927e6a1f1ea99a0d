"""Registering, syncing and verifying artifact stores against the catalog.

The registry keeps the ``stores`` and ``artifacts`` tables truthful: a store
is registered once (by resolved path) and re-synced whenever it is
republished.  Sync reads the store's :class:`~repro.persistence.store.StoreSummary`
— the same one-manifest-read accessor the serving reloader polls — and
upserts everything in one transaction, so a concurrent reader sees either
the old rows or the new rows, never a half-synced store.

Because republishes can happen behind the catalog's back (a ``repro prewarm
--artifacts`` on another box, a manual rebuild), every row carries the
``manifest_fingerprint`` it was synced from.  :func:`store_staleness`
compares it with the bytes on disk right now — ``None`` (fresh),
``"drifted"`` (republished since the last sync) or ``"missing"`` (directory
or manifest gone) — and :func:`verify_store` deepens that into a
per-artifact check against the recorded checksums.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path as FilePath
from sqlite3 import Row

from repro.catalog.db import CatalogDB, utc_now_iso
from repro.core.errors import DataError
from repro.persistence.codecs import strict_json_dumps, strict_json_loads
from repro.persistence.store import (
    HEURISTIC_ENTRY_PREFIX,
    INDEX_ARTIFACT,
    MANIFEST_NAME,
    ArtifactStore,
    StoreSummary,
    checksum_bytes,
)

__all__ = [
    "StoreRecord",
    "StoreVerification",
    "GcAction",
    "register_store",
    "sync_store",
    "sync_all",
    "unregister_store",
    "list_stores",
    "get_store",
    "get_store_by_id",
    "find_stores",
    "store_staleness",
    "stale_stores",
    "verify_store",
    "verify_fleet",
    "find_unregistered_store_dirs",
    "gc_fleet",
]


@dataclass(frozen=True)
class StoreRecord:
    """One ``stores`` row, as the query functions return it."""

    store_id: int
    path: str
    manifest_fingerprint: str
    pace_fingerprint: str
    updated_fingerprint: str | None
    format_version: int
    dataset: str | None
    regime: str | None
    tau: int | None
    settings_digest: str
    max_budget: float | None
    heuristic_documents: int
    total_bytes: int
    provenance: dict
    registered_at: str
    last_synced_at: str

    def to_dict(self) -> dict:
        """JSON-ready form for ``repro catalog list/query --format json``."""
        return {
            "path": self.path,
            "manifest_fingerprint": self.manifest_fingerprint,
            "pace_fingerprint": self.pace_fingerprint,
            "updated_fingerprint": self.updated_fingerprint,
            "format_version": self.format_version,
            "dataset": self.dataset,
            "regime": self.regime,
            "tau": self.tau,
            "settings_digest": self.settings_digest,
            "max_budget": self.max_budget,
            "heuristic_documents": self.heuristic_documents,
            "total_bytes": self.total_bytes,
            "registered_at": self.registered_at,
            "last_synced_at": self.last_synced_at,
        }


@dataclass(frozen=True)
class StoreVerification:
    """The outcome of verifying one registered store against the disk."""

    path: str
    #: ``ok`` | ``drifted`` | ``missing`` | ``corrupt``
    status: str
    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {"path": self.path, "status": self.status, "problems": list(self.problems)}


def _canonical_path(root: str | FilePath) -> str:
    return str(FilePath(root).resolve())


def _artifact_kind(name: str) -> str:
    if name == INDEX_ARTIFACT:
        return "index"
    if name.startswith(HEURISTIC_ENTRY_PREFIX):
        return "heuristic-entry"
    return "other"


def _recipe_str(recipe: dict | None, key: str) -> str | None:
    value = None if recipe is None else recipe.get(key)
    return value if isinstance(value, str) else None


def _recipe_int(recipe: dict | None, key: str) -> int | None:
    value = None if recipe is None else recipe.get(key)
    return int(value) if isinstance(value, (int, float)) else None


def _record_from_row(row: Row) -> StoreRecord:
    try:
        provenance = strict_json_loads(
            row["provenance"], what="catalog store provenance"
        )
    except DataError:
        provenance = {}
    if not isinstance(provenance, dict):
        provenance = {}
    return StoreRecord(
        store_id=int(row["store_id"]),
        path=str(row["path"]),
        manifest_fingerprint=str(row["manifest_fingerprint"]),
        pace_fingerprint=str(row["pace_fingerprint"]),
        updated_fingerprint=(
            None if row["updated_fingerprint"] is None else str(row["updated_fingerprint"])
        ),
        # The column mirrors a manifest whose version was validated at sync
        # time (ArtifactManifest.from_dict refuses unknown versions).
        format_version=int(row["format_version"]),  # repro: ignore[format-version]
        dataset=None if row["dataset"] is None else str(row["dataset"]),
        regime=None if row["regime"] is None else str(row["regime"]),
        tau=None if row["tau"] is None else int(row["tau"]),
        settings_digest=str(row["settings_digest"]),
        max_budget=None if row["max_budget"] is None else float(row["max_budget"]),
        heuristic_documents=int(row["heuristic_documents"]),
        total_bytes=int(row["total_bytes"]),
        provenance=provenance,
        registered_at=str(row["registered_at"]),
        last_synced_at=str(row["last_synced_at"]),
    )


def _upsert_store(db: CatalogDB, summary: StoreSummary, path: str) -> StoreRecord:
    """Write (or refresh) one store's rows in a single transaction."""
    now = utc_now_iso()
    recipe = summary.recipe
    max_budget = summary.settings.get("max_budget")
    columns = (
        summary.manifest_fingerprint,
        summary.pace_fingerprint,
        summary.updated_fingerprint,
        summary.index_format_version,
        _recipe_str(recipe, "dataset"),
        _recipe_str(recipe, "regime"),
        _recipe_int(recipe, "tau"),
        summary.settings_digest,
        float(max_budget) if isinstance(max_budget, (int, float)) else None,
        summary.heuristic_documents,
        summary.total_bytes,
        strict_json_dumps(summary.provenance, sort_keys=True),
        now,
    )
    with db.transaction():
        existing = db.query_one("SELECT store_id FROM stores WHERE path = ?", (path,))
        if existing is None:
            cursor = db.execute(
                """
                INSERT INTO stores (
                    path, manifest_fingerprint, pace_fingerprint, updated_fingerprint,
                    format_version, dataset, regime, tau, settings_digest, max_budget,
                    heuristic_documents, total_bytes, provenance, last_synced_at,
                    registered_at
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (path, *columns, now),
            )
            store_id = cursor.lastrowid
            if store_id is None:  # pragma: no cover - sqlite always assigns one
                raise DataError(f"catalog insert for {path} returned no row id")
        else:
            store_id = int(existing["store_id"])
            db.execute(
                """
                UPDATE stores SET
                    manifest_fingerprint = ?, pace_fingerprint = ?,
                    updated_fingerprint = ?, format_version = ?, dataset = ?,
                    regime = ?, tau = ?, settings_digest = ?, max_budget = ?,
                    heuristic_documents = ?, total_bytes = ?, provenance = ?,
                    last_synced_at = ?
                WHERE store_id = ?
                """,
                (*columns, store_id),
            )
        db.execute("DELETE FROM artifacts WHERE store_id = ?", (store_id,))
        for name in sorted(summary.artifacts):
            entry = summary.artifacts[name]
            db.execute(
                """
                INSERT INTO artifacts (
                    store_id, name, kind, filename, format_version, checksum, size_bytes
                ) VALUES (?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    store_id,
                    name,
                    _artifact_kind(name),
                    entry.filename,
                    entry.format_version,
                    entry.checksum,
                    entry.size_bytes,
                ),
            )
    record = get_store_by_id(db, int(store_id))
    if record is None:  # pragma: no cover - the transaction above just wrote it
        raise DataError(f"catalog lost the row it just wrote for {path}")
    return record


def register_store(db: CatalogDB, root: str | FilePath) -> StoreRecord:
    """Register (or re-sync) one artifact store by path.

    Reads the store's manifest through :meth:`ArtifactStore.summary` — a
    missing or corrupt store raises :class:`DataError` and writes nothing.
    """
    path = _canonical_path(root)
    summary = ArtifactStore(path).summary()
    return _upsert_store(db, summary, path)


def sync_store(db: CatalogDB, root: str | FilePath) -> tuple[StoreRecord, bool]:
    """Refresh one registered store's rows; returns ``(record, changed)``.

    ``changed`` is ``True`` when the on-disk manifest fingerprint differed
    from the recorded one (the store was republished since the last sync).
    Unregistered paths are registered — sync is an upsert.
    """
    path = _canonical_path(root)
    previous = get_store(db, path)
    summary = ArtifactStore(path).summary()
    record = _upsert_store(db, summary, path)
    changed = previous is None or previous.manifest_fingerprint != record.manifest_fingerprint
    return record, changed


def sync_all(db: CatalogDB) -> tuple[list[tuple[StoreRecord, bool]], list[tuple[str, str]]]:
    """Sync every registered store; returns ``(synced, errors)``.

    ``errors`` holds ``(path, message)`` for stores that could not be read
    (missing directory, corrupt manifest) — their rows are left as they
    were, so ``query --stale`` can still surface them.
    """
    synced: list[tuple[StoreRecord, bool]] = []
    errors: list[tuple[str, str]] = []
    for record in list_stores(db):
        try:
            synced.append(sync_store(db, record.path))
        except DataError as exc:
            errors.append((record.path, str(exc)))
    return synced, errors


def unregister_store(db: CatalogDB, root: str | FilePath) -> bool:
    """Drop a store's rows (cascading to artifacts and operation steps)."""
    path = _canonical_path(root)
    with db.transaction():
        cursor = db.execute("DELETE FROM stores WHERE path = ?", (path,))
        return cursor.rowcount > 0


def list_stores(db: CatalogDB) -> list[StoreRecord]:
    """Every registered store, ordered by path for stable output."""
    rows = db.query("SELECT * FROM stores ORDER BY path")
    return [_record_from_row(row) for row in rows]


def get_store(db: CatalogDB, root: str | FilePath) -> StoreRecord | None:
    row = db.query_one("SELECT * FROM stores WHERE path = ?", (_canonical_path(root),))
    return None if row is None else _record_from_row(row)


def get_store_by_id(db: CatalogDB, store_id: int) -> StoreRecord | None:
    row = db.query_one("SELECT * FROM stores WHERE store_id = ?", (store_id,))
    return None if row is None else _record_from_row(row)


def find_stores(
    db: CatalogDB,
    *,
    graph_fingerprint: str | None = None,
    format_version: int | None = None,
    dataset: str | None = None,
) -> list[StoreRecord]:
    """The fleet queries: filter stores by identity, format or dataset.

    ``graph_fingerprint`` matches either graph identity (the PACE graph's or
    the V-path closure's).  ``format_version`` matches stores holding **any**
    artifact at that version — "which stores still hold JSON documents
    ``repro migrate-artifacts`` must rewrite" is ``format_version=1``.
    """
    clauses: list[str] = []
    parameters: list[object] = []
    if graph_fingerprint is not None:
        clauses.append("(pace_fingerprint = ? OR updated_fingerprint = ?)")
        parameters.extend((graph_fingerprint, graph_fingerprint))
    if format_version is not None:
        clauses.append(
            "EXISTS (SELECT 1 FROM artifacts a "
            "WHERE a.store_id = stores.store_id AND a.format_version = ?)"
        )
        parameters.append(int(format_version))
    if dataset is not None:
        clauses.append("dataset = ?")
        parameters.append(dataset)
    sql = "SELECT * FROM stores"
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    sql += " ORDER BY path"
    return [_record_from_row(row) for row in db.query(sql, parameters)]


def store_staleness(record: StoreRecord) -> str | None:
    """Drift check against the disk: ``None`` (fresh), ``drifted`` or ``missing``."""
    current = ArtifactStore(record.path).manifest_fingerprint()
    if current is None:
        return "missing"
    if current != record.manifest_fingerprint:
        return "drifted"
    return None


def stale_stores(db: CatalogDB) -> list[tuple[StoreRecord, str]]:
    """Registered stores whose on-disk manifest no longer matches the catalog."""
    stale: list[tuple[StoreRecord, str]] = []
    for record in list_stores(db):
        staleness = store_staleness(record)
        if staleness is not None:
            stale.append((record, staleness))
    return stale


def verify_store(db: CatalogDB, record: StoreRecord, *, deep: bool = False) -> StoreVerification:
    """Check one registered store's files against the catalog's records.

    Shallow (default): the manifest fingerprint plus each artifact file's
    existence and size.  ``deep=True`` additionally re-reads every artifact
    and compares its checksum — bit-rot detection at full read cost.  A
    drifted store reports ``drifted`` (its file mismatches are *expected*;
    re-sync first), a fresh store with bad files reports ``corrupt``.
    """
    staleness = store_staleness(record)
    if staleness == "missing":
        return StoreVerification(
            path=record.path,
            status="missing",
            problems=("the store's manifest.json is gone from disk",),
        )
    problems: list[str] = []
    rows = db.query(
        "SELECT name, filename, checksum, size_bytes FROM artifacts "
        "WHERE store_id = ? ORDER BY name",
        (record.store_id,),
    )
    root = FilePath(record.path)
    for row in rows:
        file_path = root / str(row["filename"])
        try:
            data = file_path.read_bytes()
        except OSError as exc:
            problems.append(f"{row['name']}: cannot read {row['filename']} ({exc})")
            continue
        if len(data) != int(row["size_bytes"]):
            problems.append(
                f"{row['name']}: {row['filename']} is {len(data)} bytes, "
                f"catalog recorded {row['size_bytes']}"
            )
        elif deep and checksum_bytes(data) != str(row["checksum"]):
            problems.append(
                f"{row['name']}: {row['filename']} fails its recorded checksum"
            )
    if staleness == "drifted":
        problems.insert(
            0,
            "manifest changed on disk since the last sync; "
            "run 'repro catalog sync' to re-index it",
        )
        return StoreVerification(path=record.path, status="drifted", problems=tuple(problems))
    if problems:
        return StoreVerification(path=record.path, status="corrupt", problems=tuple(problems))
    return StoreVerification(path=record.path, status="ok")


def verify_fleet(db: CatalogDB, *, deep: bool = False) -> list[StoreVerification]:
    """Verify every registered store; ordered by path."""
    return [verify_store(db, record, deep=deep) for record in list_stores(db)]


# --------------------------------------------------------------------------- #
# Garbage collection: catalog rows without stores, stores without rows
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class GcAction:
    """One thing ``gc_fleet`` collected (or would collect, on a dry run)."""

    #: ``missing-store`` (a registered path with no manifest on disk) or
    #: ``unregistered-store`` (a store directory no catalog row points at).
    kind: str
    path: str
    #: ``would-unregister`` / ``unregistered`` / ``would-delete`` / ``deleted``.
    action: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "path": self.path, "action": self.action}


def find_unregistered_store_dirs(db: CatalogDB, root: str | FilePath) -> list[str]:
    """Store directories under ``root`` that no catalog row points at.

    A directory is a store when it holds a ``manifest.json``; the walk does
    not descend into stores it finds (anything below belongs to that store).
    Paths come back canonicalised and sorted.
    """
    registered = {record.path for record in list_stores(db)}
    unregistered: list[str] = []
    pending = [FilePath(root)]
    while pending:
        directory = pending.pop()
        if (directory / MANIFEST_NAME).is_file():
            path = _canonical_path(directory)
            if path not in registered:
                unregistered.append(path)
            continue
        try:
            pending.extend(child for child in directory.iterdir() if child.is_dir())
        except OSError:
            continue
    return sorted(unregistered)


def gc_fleet(
    db: CatalogDB, *, root: str | FilePath | None = None, apply: bool = False
) -> list[GcAction]:
    """Collect fleet drift in both directions, dry-run unless ``apply``.

    Registered stores whose directory no longer holds a manifest lose their
    catalog rows (the index must not advertise stores that cannot serve),
    and — when ``root`` is given — store directories on disk that no row
    points at are deleted (a fleet root should not accumulate stray data a
    rebuildable index knows nothing about).  The dry run reports the same
    actions with ``would-`` prefixes and touches nothing.
    """
    actions: list[GcAction] = []
    for record in list_stores(db):
        if ArtifactStore(record.path).manifest_fingerprint() is not None:
            continue
        if apply:
            unregister_store(db, record.path)
        actions.append(
            GcAction(
                kind="missing-store",
                path=record.path,
                action="unregistered" if apply else "would-unregister",
            )
        )
    if root is not None:
        for path in find_unregistered_store_dirs(db, root):
            if apply:
                shutil.rmtree(path)
            actions.append(
                GcAction(
                    kind="unregistered-store",
                    path=path,
                    action="deleted" if apply else "would-delete",
                )
            )
    return actions
