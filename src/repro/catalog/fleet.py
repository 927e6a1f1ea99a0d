"""Resumable batch operations over a fleet of registered stores.

A fleet job (``repro catalog migrate --all``, a batch prewarm) is one
``operations`` row plus one ``operation_steps`` row per target store.  The
runner commits each step's state transition individually —

``pending`` → ``running`` (attempt counted) → ``done`` | ``failed``

— so the database always records exactly how far the job got.  A run killed
after store 1 of 2 leaves a ``done`` row and a ``running`` row behind;
:func:`find_resumable` hands the same operation back and :func:`run_operation`
skips the ``done`` step and re-executes the interrupted one.  Workers are
idempotent per store (a migration re-run converges on the target format), so
re-executing a ``running`` step is safe — "at least once per store, never
redo a finished store".

A worker that raises :class:`~repro.core.errors.DataError` (corrupt store,
store gone missing) marks its step ``failed`` and the run **continues** with
the remaining stores — one broken store must not wedge a fleet job.
``KeyboardInterrupt``/``SystemExit`` propagate immediately, leaving the
current step ``running`` for the next resume.
"""

from __future__ import annotations

from dataclasses import dataclass
from sqlite3 import Row
from typing import Callable

from repro.catalog.db import CatalogDB, utc_now_iso
from repro.catalog.registry import StoreRecord, get_store_by_id, sync_store
from repro.catalog.schema import OPERATION_KINDS
from repro.core.errors import DataError
from repro.persistence.codecs import strict_json_dumps, strict_json_loads

__all__ = [
    "OperationStep",
    "FleetOperation",
    "StepWorker",
    "create_operation",
    "get_operation",
    "list_operations",
    "find_resumable",
    "run_operation",
    "migrate_worker",
    "prewarm_worker",
    "mine_worker",
]

#: A worker executes one operation step on one store and returns a short
#: human-readable detail string for the step row.
StepWorker = Callable[[CatalogDB, StoreRecord], str]


@dataclass(frozen=True)
class OperationStep:
    """One store's state within a fleet operation."""

    operation_id: int
    store_id: int
    path: str
    status: str
    attempts: int
    error: str | None
    detail: str | None
    started_at: str | None
    finished_at: str | None

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "detail": self.detail,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


@dataclass(frozen=True)
class FleetOperation:
    """One ``operations`` row plus its per-store steps."""

    operation_id: int
    kind: str
    parameters: dict
    status: str
    created_at: str
    updated_at: str
    steps: tuple[OperationStep, ...]

    @property
    def pending_steps(self) -> tuple[OperationStep, ...]:
        """Steps a (re)run still has to execute: everything not ``done``."""
        return tuple(step for step in self.steps if step.status != "done")

    @property
    def done_steps(self) -> tuple[OperationStep, ...]:
        return tuple(step for step in self.steps if step.status == "done")

    @property
    def failed_steps(self) -> tuple[OperationStep, ...]:
        return tuple(step for step in self.steps if step.status == "failed")

    def to_dict(self) -> dict:
        return {
            "operation_id": self.operation_id,
            "kind": self.kind,
            "parameters": self.parameters,
            "status": self.status,
            "created_at": self.created_at,
            "updated_at": self.updated_at,
            "steps": [step.to_dict() for step in self.steps],
        }


def _canonical_parameters(parameters: dict) -> str:
    """Sorted-key strict JSON: equal parameter dicts encode identically."""
    return strict_json_dumps(parameters, sort_keys=True)


def create_operation(
    db: CatalogDB, kind: str, parameters: dict, stores: list[StoreRecord]
) -> FleetOperation:
    """Record a new fleet operation with one ``pending`` step per store."""
    if kind not in OPERATION_KINDS:
        raise DataError(
            f"unknown fleet operation kind {kind!r}; "
            f"supported: {', '.join(OPERATION_KINDS)}"
        )
    if not stores:
        raise DataError(f"fleet operation {kind!r} has no target stores")
    now = utc_now_iso()
    with db.transaction():
        cursor = db.execute(
            "INSERT INTO operations (kind, parameters, status, created_at, updated_at) "
            "VALUES (?, ?, 'pending', ?, ?)",
            (kind, _canonical_parameters(parameters), now, now),
        )
        operation_id = cursor.lastrowid
        if operation_id is None:  # pragma: no cover - sqlite always assigns one
            raise DataError("catalog insert for fleet operation returned no row id")
        for record in stores:
            db.execute(
                "INSERT INTO operation_steps (operation_id, store_id, status) "
                "VALUES (?, ?, 'pending')",
                (operation_id, record.store_id),
            )
    operation = get_operation(db, int(operation_id))
    if operation is None:  # pragma: no cover - the transaction above just wrote it
        raise DataError("catalog lost the fleet operation it just created")
    return operation


def _steps_for(db: CatalogDB, operation_id: int) -> tuple[OperationStep, ...]:
    rows = db.query(
        "SELECT s.operation_id, s.store_id, st.path, s.status, s.attempts, "
        "       s.error, s.detail, s.started_at, s.finished_at "
        "FROM operation_steps s JOIN stores st ON st.store_id = s.store_id "
        "WHERE s.operation_id = ? ORDER BY st.path",
        (operation_id,),
    )
    return tuple(
        OperationStep(
            operation_id=int(row["operation_id"]),
            store_id=int(row["store_id"]),
            path=str(row["path"]),
            status=str(row["status"]),
            attempts=int(row["attempts"]),
            error=None if row["error"] is None else str(row["error"]),
            detail=None if row["detail"] is None else str(row["detail"]),
            started_at=None if row["started_at"] is None else str(row["started_at"]),
            finished_at=None if row["finished_at"] is None else str(row["finished_at"]),
        )
        for row in rows
    )


def _operation_from_row(db: CatalogDB, row: Row) -> FleetOperation:
    operation_id = int(row["operation_id"])
    parameters = strict_json_loads(
        str(row["parameters"]), what="fleet operation parameters"
    )
    if not isinstance(parameters, dict):
        raise DataError(
            f"fleet operation {operation_id} parameters are not a JSON object"
        )
    return FleetOperation(
        operation_id=operation_id,
        kind=str(row["kind"]),
        parameters=parameters,
        status=str(row["status"]),
        created_at=str(row["created_at"]),
        updated_at=str(row["updated_at"]),
        steps=_steps_for(db, operation_id),
    )


def get_operation(db: CatalogDB, operation_id: int) -> FleetOperation | None:
    row = db.query_one(
        "SELECT * FROM operations WHERE operation_id = ?", (operation_id,)
    )
    return None if row is None else _operation_from_row(db, row)


def list_operations(db: CatalogDB) -> list[FleetOperation]:
    rows = db.query("SELECT * FROM operations ORDER BY operation_id")
    return [_operation_from_row(db, row) for row in rows]


def find_resumable(db: CatalogDB, kind: str, parameters: dict) -> FleetOperation | None:
    """The newest unfinished operation matching ``kind`` + ``parameters``.

    Matching is on the canonical (sorted-key) parameter JSON, so "the same
    job asked for again" resumes instead of restarting.  ``done`` operations
    never match — re-running a completed job is a new operation.
    """
    row = db.query_one(
        "SELECT * FROM operations WHERE kind = ? AND parameters = ? "
        "AND status != 'done' ORDER BY operation_id DESC LIMIT 1",
        (kind, _canonical_parameters(parameters)),
    )
    return None if row is None else _operation_from_row(db, row)


def _set_operation_status(db: CatalogDB, operation_id: int, status: str) -> None:
    with db.transaction():
        db.execute(
            "UPDATE operations SET status = ?, updated_at = ? WHERE operation_id = ?",
            (status, utc_now_iso(), operation_id),
        )


def run_operation(
    db: CatalogDB,
    operation: FleetOperation,
    worker: StepWorker,
    *,
    on_step: Callable[[OperationStep], None] | None = None,
) -> FleetOperation:
    """Execute (or resume) a fleet operation, one store at a time.

    Every state transition commits before the next store starts, which is
    the whole resumability story: kill the process anywhere and the
    ``operation_steps`` table still says which stores are ``done``.  Steps
    already ``done`` are skipped; ``pending``, ``failed`` and interrupted
    ``running`` steps are (re-)executed.  Returns the operation re-read from
    the database, with its final status: ``done`` if every step finished,
    ``failed`` if any step failed.
    """
    _set_operation_status(db, operation.operation_id, "running")
    for step in operation.steps:
        if step.status == "done":
            continue
        with db.transaction():
            db.execute(
                "UPDATE operation_steps SET status = 'running', "
                "attempts = attempts + 1, started_at = ?, error = NULL "
                "WHERE operation_id = ? AND store_id = ?",
                (utc_now_iso(), operation.operation_id, step.store_id),
            )
        record = get_store_by_id(db, step.store_id)
        try:
            if record is None:
                raise DataError(
                    f"store {step.path} was unregistered while operation "
                    f"{operation.operation_id} was in flight"
                )
            detail = worker(db, record)
        except DataError as exc:
            with db.transaction():
                db.execute(
                    "UPDATE operation_steps SET status = 'failed', error = ?, "
                    "finished_at = ? WHERE operation_id = ? AND store_id = ?",
                    (str(exc), utc_now_iso(), operation.operation_id, step.store_id),
                )
        else:
            with db.transaction():
                db.execute(
                    "UPDATE operation_steps SET status = 'done', detail = ?, "
                    "finished_at = ? WHERE operation_id = ? AND store_id = ?",
                    (detail, utc_now_iso(), operation.operation_id, step.store_id),
                )
        if on_step is not None:
            refreshed = get_operation(db, operation.operation_id)
            if refreshed is not None:
                for current in refreshed.steps:
                    if current.store_id == step.store_id:
                        on_step(current)
    finished = get_operation(db, operation.operation_id)
    if finished is None:  # pragma: no cover - nothing deletes operations mid-run
        raise DataError(
            f"fleet operation {operation.operation_id} vanished from the catalog"
        )
    final = "done" if all(s.status == "done" for s in finished.steps) else "failed"
    _set_operation_status(db, finished.operation_id, final)
    refreshed = get_operation(db, finished.operation_id)
    if refreshed is None:  # pragma: no cover - just updated it
        raise DataError(
            f"fleet operation {finished.operation_id} vanished from the catalog"
        )
    return refreshed


# ---------------------------------------------------------------------- #
# Workers
# ---------------------------------------------------------------------- #
def migrate_worker() -> StepWorker:
    """Rewrite each store in the current format and re-sync its catalog rows.

    Idempotent: a migrated store re-saves into the same bytes, so re-running
    an interrupted step converges.
    """

    def worker(db: CatalogDB, record: StoreRecord) -> str:
        from repro.persistence.store import INDEX_ARTIFACT
        from repro.routing import migrate_store

        migration = migrate_store(record.path)
        sync_store(db, record.path)
        before = migration.before.artifacts[INDEX_ARTIFACT].format_version
        after = migration.after.artifacts[INDEX_ARTIFACT].format_version
        return f"migrated v{before} -> v{after}"

    return worker


def prewarm_worker(method: str, destinations: list[int] | None = None) -> StepWorker:
    """Prewarm one method's heuristics into each store, then re-sync it."""

    def worker(db: CatalogDB, record: StoreRecord) -> str:
        from repro.core.errors import ConfigurationError
        from repro.routing import RoutingEngine

        engine = RoutingEngine.from_artifacts(record.path)
        targets = destinations
        if targets is None:
            targets = sorted(engine.pace_graph.network.vertex_ids())
        try:
            built = engine.prewarm(method, targets)
        except ConfigurationError as exc:
            # A heuristic-free method is an operator mistake, but within a
            # fleet run it must fail the step, not crash the whole job.
            raise DataError(str(exc)) from exc
        engine.save_artifacts(record.path)
        sync_store(db, record.path)
        return f"prewarmed {built} heuristics for {method}"

    return worker


def mine_worker() -> StepWorker:
    """Re-mine each store from its recorded recipe and republish in place.

    Only works for stores whose manifest recorded a complete dataset recipe
    (``repro build-artifacts`` always records one); stores without a recipe
    fail their step.
    """

    def worker(db: CatalogDB, record: StoreRecord) -> str:
        from repro.persistence.store import ArtifactStore
        from repro.routing import DatasetRecipe, RouterSettings, RoutingEngine

        if record.dataset is None or record.regime is None or record.tau is None:
            raise DataError(
                f"store {record.path} has no recorded dataset recipe; "
                "re-mine it manually with 'repro build-artifacts'"
            )
        store = ArtifactStore.open(record.path)
        try:
            settings = RouterSettings(**store.manifest.settings)
        except TypeError as exc:
            raise DataError(
                f"store {record.path} manifest settings do not match "
                f"RouterSettings: {exc}"
            ) from exc
        recipe = DatasetRecipe(
            dataset=record.dataset, regime=record.regime, tau=record.tau
        )
        engine = recipe.build_engine(settings=settings)
        engine.save_artifacts(
            record.path, provenance={"builder": "repro catalog mine --all"}
        )
        sync_store(db, record.path)
        return f"re-mined {record.dataset}/{record.regime} tau={record.tau}"

    return worker
