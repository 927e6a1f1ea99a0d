"""SQL schema of the fleet catalog (``catalog.sqlite``).

The catalog is a small relational layer over many
:class:`~repro.persistence.store.ArtifactStore` directories — the blobs stay
content-addressed files on disk; the database only answers fleet questions
("which stores serve graph fingerprint X?", "which still carry format-version-1
heuristics?") and keeps the resumable state of batch operations.  Three tables:

``stores``
    One row per registered store: resolved path (unique), the manifest
    fingerprint recorded at the last sync (drift detection compares it with
    the bytes on disk), the graph content fingerprints, the index artifact's
    format version, the mining recipe summary (dataset/regime/tau, when
    known), a digest of the :class:`~repro.routing.engine.RouterSettings`
    the artifacts were built for, and registration/sync timestamps.

``artifacts``
    One row per manifest entry of each store — kind, name, filename, format
    version, checksum, size — so "which stores still need migrating" is one
    indexed ``EXISTS`` query instead of a walk over every manifest on disk.

``operations`` / ``operation_steps``
    Resumable fleet jobs.  An operation is one batch run (``mine``,
    ``prewarm`` or ``migrate``, with its canonical parameter JSON); a step is
    that operation's state on one store (``pending`` → ``running`` → ``done``
    / ``failed``).  Steps are committed individually, so a fleet migration
    killed after store 1 of 2 leaves ``done`` + ``running`` rows behind and a
    resumed run skips the finished store instead of redoing it.

The schema version is pinned in ``PRAGMA user_version``; readers refuse
databases written by a different schema.  Connections are WAL-journaled with
foreign keys enforced — see :mod:`repro.catalog.db` for the pragma and
transaction discipline (enforced by the analyzer's ``sqlite-discipline`` rule).
"""

from __future__ import annotations

__all__ = ["SCHEMA_VERSION", "SCHEMA_STATEMENTS", "OPERATION_KINDS", "STEP_STATUSES"]

#: Value of ``PRAGMA user_version`` this code reads and writes.
SCHEMA_VERSION = 1

#: Batch operation kinds the ``operations`` table admits.
OPERATION_KINDS = ("mine", "prewarm", "migrate")

#: Lifecycle of an operation and of each of its per-store steps.
STEP_STATUSES = ("pending", "running", "done", "failed")

_STORES = """
CREATE TABLE IF NOT EXISTS stores (
    store_id             INTEGER PRIMARY KEY,
    path                 TEXT    NOT NULL UNIQUE,
    manifest_fingerprint TEXT    NOT NULL,
    pace_fingerprint     TEXT    NOT NULL,
    updated_fingerprint  TEXT,
    format_version       INTEGER NOT NULL,
    dataset              TEXT,
    regime               TEXT,
    tau                  INTEGER,
    settings_digest      TEXT    NOT NULL,
    max_budget           REAL,
    heuristic_documents  INTEGER NOT NULL DEFAULT 0,
    total_bytes          INTEGER NOT NULL DEFAULT 0,
    provenance           TEXT    NOT NULL DEFAULT '{}',
    registered_at        TEXT    NOT NULL,
    last_synced_at       TEXT    NOT NULL
)
"""

_ARTIFACTS = """
CREATE TABLE IF NOT EXISTS artifacts (
    artifact_id    INTEGER PRIMARY KEY,
    store_id       INTEGER NOT NULL REFERENCES stores (store_id) ON DELETE CASCADE,
    name           TEXT    NOT NULL,
    kind           TEXT    NOT NULL,
    filename       TEXT    NOT NULL,
    format_version INTEGER NOT NULL,
    checksum       TEXT    NOT NULL,
    size_bytes     INTEGER NOT NULL,
    UNIQUE (store_id, name)
)
"""

_OPERATIONS = """
CREATE TABLE IF NOT EXISTS operations (
    operation_id INTEGER PRIMARY KEY,
    kind         TEXT NOT NULL CHECK (kind IN ('mine', 'prewarm', 'migrate')),
    parameters   TEXT NOT NULL,
    status       TEXT NOT NULL DEFAULT 'pending'
                 CHECK (status IN ('pending', 'running', 'done', 'failed')),
    created_at   TEXT NOT NULL,
    updated_at   TEXT NOT NULL
)
"""

_OPERATION_STEPS = """
CREATE TABLE IF NOT EXISTS operation_steps (
    operation_id INTEGER NOT NULL REFERENCES operations (operation_id) ON DELETE CASCADE,
    store_id     INTEGER NOT NULL REFERENCES stores (store_id) ON DELETE CASCADE,
    status       TEXT NOT NULL DEFAULT 'pending'
                 CHECK (status IN ('pending', 'running', 'done', 'failed')),
    attempts     INTEGER NOT NULL DEFAULT 0,
    error        TEXT,
    detail       TEXT,
    started_at   TEXT,
    finished_at  TEXT,
    PRIMARY KEY (operation_id, store_id)
)
"""

_INDEXES = (
    "CREATE INDEX IF NOT EXISTS idx_stores_pace ON stores (pace_fingerprint)",
    "CREATE INDEX IF NOT EXISTS idx_stores_updated ON stores (updated_fingerprint)",
    "CREATE INDEX IF NOT EXISTS idx_artifacts_format ON artifacts (format_version)",
    "CREATE INDEX IF NOT EXISTS idx_artifacts_checksum ON artifacts (checksum)",
    "CREATE INDEX IF NOT EXISTS idx_steps_status ON operation_steps (status)",
)

#: Executed in order inside one transaction to create a fresh catalog.
SCHEMA_STATEMENTS: tuple[str, ...] = (
    _STORES,
    _ARTIFACTS,
    _OPERATIONS,
    _OPERATION_STEPS,
    *_INDEXES,
)
