"""Tests for the fleet catalog (``repro.catalog``).

Covers the connection discipline (WAL + foreign keys + write-in-transaction),
the registry (register/sync/drift/verify over real artifact stores) and the
resumable fleet operations — including the headline scenario: a fleet
migration killed after store 1 of 2 resumes without redoing store 1, while
WAL keeps concurrent readers unblocked throughout.
"""

from __future__ import annotations

import shutil
import sqlite3
import threading

import pytest

from repro.catalog import (
    SCHEMA_VERSION,
    CatalogDB,
    create_operation,
    find_resumable,
    find_stores,
    get_operation,
    get_store,
    list_stores,
    migrate_worker,
    prewarm_worker,
    register_store,
    run_operation,
    stale_stores,
    store_staleness,
    sync_all,
    sync_store,
    unregister_store,
    verify_fleet,
    verify_store,
)
from repro.core.errors import DataError
from repro.persistence.store import MANIFEST_NAME, ArtifactStore
from repro.routing import RoutingEngine


@pytest.fixture(scope="module")
def tiny_engine(tiny_artifact_store):
    """An engine booted once from the session store; used to stamp out copies."""
    return RoutingEngine.from_artifacts(tiny_artifact_store)


@pytest.fixture()
def make_store(tiny_engine, tmp_path, copy_v1_store):
    """Factory for a store directory: a fresh v2 save, or a copy of the v1 fixture."""

    def _make(name: str, *, format_version: int = 2):
        if format_version == 1:
            return copy_v1_store(name)
        root = tmp_path / name
        tiny_engine.save_artifacts(root)
        return root

    return _make


@pytest.fixture()
def db(tmp_path):
    with CatalogDB(tmp_path / "catalog.sqlite") as handle:
        yield handle


class TestCatalogDB:
    def test_connection_pragmas_are_applied(self, db):
        assert db.query_one("PRAGMA journal_mode")[0] == "wal"
        assert db.query_one("PRAGMA foreign_keys")[0] == 1

    def test_schema_version_is_stamped(self, db):
        assert db.query_one("PRAGMA user_version")[0] == SCHEMA_VERSION

    def test_reopening_an_existing_catalog_keeps_its_rows(self, tmp_path, make_store):
        path = tmp_path / "catalog.sqlite"
        with CatalogDB(path) as first:
            register_store(first, make_store("s1"))
        with CatalogDB(path, create=False) as second:
            assert len(list_stores(second)) == 1

    def test_create_false_on_a_missing_file_names_the_fix(self, tmp_path):
        with pytest.raises(DataError, match="repro catalog register"):
            CatalogDB(tmp_path / "absent.sqlite", create=False)

    def test_garbage_file_is_a_dataerror_not_a_traceback(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        path.write_bytes(b"this is not a sqlite database, honest")
        with pytest.raises(DataError, match="catalog database"):
            CatalogDB(path)

    def test_foreign_schema_version_is_refused(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        CatalogDB(path).close()
        raw = sqlite3.connect(path)
        raw.execute("PRAGMA user_version = 99")
        raw.close()
        with pytest.raises(DataError, match="schema version 99"):
            CatalogDB(path)

    def test_writes_outside_a_transaction_are_refused(self, db):
        with pytest.raises(DataError, match="transaction"):
            db.execute("DELETE FROM stores")

    def test_transaction_rolls_back_on_exception(self, db, make_store):
        register_store(db, make_store("s1"))
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.execute("DELETE FROM stores")
                raise RuntimeError("abort")
        assert len(list_stores(db)) == 1

    def test_nested_transaction_joins_the_outer_one(self, db, make_store):
        store = make_store("s1")
        with db.transaction():
            register_store(db, store)  # opens its own transaction() internally
        assert len(list_stores(db)) == 1

    def test_contended_write_lock_surfaces_as_dataerror(self, tmp_path):
        path = tmp_path / "catalog.sqlite"
        with CatalogDB(path) as writer, CatalogDB(
            path, timeout_seconds=0.05
        ) as impatient:
            with writer.transaction():
                writer.execute(
                    "INSERT INTO operations (kind, parameters, created_at, updated_at) "
                    "VALUES ('migrate', '{}', 't', 't')"
                )
                with pytest.raises(DataError, match="locked"):
                    with impatient.transaction():
                        pass

    def test_wal_readers_are_not_blocked_by_an_open_writer(self, tmp_path, make_store):
        """The WAL guarantee the catalog exists for: reads during writes."""
        path = tmp_path / "catalog.sqlite"
        store = make_store("s1")
        with CatalogDB(path) as writer:
            register_store(writer, store)
            results: list[int] = []

            def read_while_writing() -> None:
                with CatalogDB(path, timeout_seconds=1.0) as reader:
                    results.append(len(list_stores(reader)))

            with writer.transaction():
                writer.execute("DELETE FROM stores")
                # The write is uncommitted: a reader must neither block nor
                # see it.
                thread = threading.Thread(target=read_while_writing)
                thread.start()
                thread.join(timeout=5.0)
                assert not thread.is_alive(), "reader blocked behind the writer"
                writer.execute(
                    "INSERT INTO operations (kind, parameters, created_at, updated_at) "
                    "VALUES ('migrate', '{}', 't', 't')"
                )
        assert results == [1]


class TestRegistry:
    def test_register_records_the_store_identity(self, db, make_store):
        record = register_store(db, make_store("s1", format_version=1))
        assert record.format_version == 1
        assert record.dataset == "tiny"
        assert record.regime == "peak"
        assert record.tau == 20
        assert len(record.pace_fingerprint) == 32
        assert record.total_bytes > 0
        assert record.settings_digest
        assert record.max_budget == pytest.approx(900.0)

    def test_register_writes_one_artifact_row_per_manifest_entry(self, db, make_store):
        store = make_store("s1")
        record = register_store(db, store)
        rows = db.query(
            "SELECT name, kind FROM artifacts WHERE store_id = ? ORDER BY name",
            (record.store_id,),
        )
        names = {row["name"]: row["kind"] for row in rows}
        assert names["index"] == "index"
        manifest_entries = len(ArtifactStore(store).manifest.artifacts)
        assert len(rows) == manifest_entries

    def test_register_is_an_upsert_keyed_by_path(self, db, make_store):
        store = make_store("s1")
        first = register_store(db, store)
        second = register_store(db, store)
        assert first.store_id == second.store_id
        assert len(list_stores(db)) == 1

    def test_registering_a_missing_store_writes_nothing(self, db, tmp_path):
        with pytest.raises(DataError, match="no artifact store"):
            register_store(db, tmp_path / "absent")
        assert list_stores(db) == []

    def test_sync_reports_republish_as_changed(self, db, make_store, tiny_engine):
        store = make_store("s1")
        register_store(db, store)
        _, unchanged = sync_store(db, store)
        assert unchanged is False
        tiny_engine.save_artifacts(store, provenance={"republished": True})
        record, changed = sync_store(db, store)
        assert changed is True
        assert store_staleness(record) is None

    def test_behind_the_back_republish_is_detected_as_drift(
        self, db, make_store, tiny_engine
    ):
        store = make_store("s1")
        register_store(db, store)
        assert stale_stores(db) == []
        tiny_engine.save_artifacts(store, provenance={"republished": True})
        stale = stale_stores(db)
        assert [(r.path, why) for r, why in stale] == [(str(store.resolve()), "drifted")]

    def test_deleted_store_is_reported_missing(self, db, make_store):
        store = make_store("s1")
        record = register_store(db, store)
        shutil.rmtree(store)
        assert store_staleness(record) == "missing"
        synced, errors = sync_all(db)
        assert synced == [] and len(errors) == 1

    def test_find_stores_by_graph_fingerprint_matches_both_identities(
        self, db, make_store
    ):
        record = register_store(db, make_store("s1"))
        register_store(db, make_store("s2"))
        assert len(find_stores(db, graph_fingerprint=record.pace_fingerprint)) == 2
        assert find_stores(db, graph_fingerprint="0" * 32) == []
        if record.updated_fingerprint is not None:
            matched = find_stores(db, graph_fingerprint=record.updated_fingerprint)
            assert len(matched) == 2

    def test_find_stores_by_format_version_means_any_artifact(self, db, make_store):
        register_store(db, make_store("v1-store", format_version=1))
        register_store(db, make_store("v2-store", format_version=2))
        v1 = find_stores(db, format_version=1)
        assert [r.path.endswith("v1-store") for r in v1] == [True]
        assert len(find_stores(db, format_version=2)) == 1

    def test_find_stores_by_dataset(self, db, make_store):
        register_store(db, make_store("s1"))
        assert len(find_stores(db, dataset="tiny")) == 1
        assert find_stores(db, dataset="aalborg-like") == []

    def test_verify_ok_on_a_fresh_store(self, db, make_store):
        record = register_store(db, make_store("s1"))
        result = verify_store(db, record, deep=True)
        assert result.ok and result.status == "ok"

    def test_verify_reports_truncated_artifact_as_corrupt(self, db, make_store):
        store = make_store("s1")
        record = register_store(db, store)
        victim = next(p for p in store.iterdir() if p.name != MANIFEST_NAME)
        victim.write_bytes(victim.read_bytes()[:-10])
        result = verify_store(db, record)
        assert result.status == "corrupt"
        assert any("bytes" in problem for problem in result.problems)

    def test_deep_verify_catches_same_size_bitrot(self, db, make_store):
        store = make_store("s1")
        record = register_store(db, store)
        victim = next(p for p in store.iterdir() if p.name != MANIFEST_NAME)
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert verify_store(db, record).status == "ok"  # shallow: size matches
        deep = verify_store(db, record, deep=True)
        assert deep.status == "corrupt"
        assert any("checksum" in problem for problem in deep.problems)

    def test_verify_prefers_drifted_over_corrupt(self, db, make_store, tiny_engine):
        store = make_store("s1", format_version=1)
        record = register_store(db, store)
        # Republish in another format: files changed wholesale, but that is
        # drift (re-sync fixes it), not corruption.
        tiny_engine.save_artifacts(store)
        result = verify_store(db, record, deep=True)
        assert result.status == "drifted"
        assert "sync" in result.problems[0]

    def test_verify_fleet_orders_by_path(self, db, make_store):
        register_store(db, make_store("b-store"))
        register_store(db, make_store("a-store"))
        results = verify_fleet(db)
        assert [r.path for r in results] == sorted(r.path for r in results)

    def test_unregister_cascades_to_artifact_rows(self, db, make_store):
        store = make_store("s1")
        record = register_store(db, store)
        assert unregister_store(db, store) is True
        assert get_store(db, store) is None
        rows = db.query("SELECT * FROM artifacts WHERE store_id = ?", (record.store_id,))
        assert rows == []
        assert unregister_store(db, store) is False


class TestFleetOperations:
    def _fleet(self, db, make_store, count=2, format_version=1):
        stores = [
            make_store(f"store{i}", format_version=format_version)
            for i in range(1, count + 1)
        ]
        records = [register_store(db, store) for store in stores]
        return stores, records

    def test_unknown_operation_kind_is_refused(self, db, make_store):
        _, records = self._fleet(db, make_store, count=1)
        with pytest.raises(DataError, match="unknown fleet operation kind"):
            create_operation(db, "defragment", {}, records)

    def test_empty_target_list_is_refused(self, db):
        with pytest.raises(DataError, match="no target stores"):
            create_operation(db, "migrate", {}, [])

    def test_full_migration_converts_every_store(self, db, make_store):
        stores, records = self._fleet(db, make_store, format_version=1)
        operation = create_operation(db, "migrate", {}, records)
        result = run_operation(db, operation, migrate_worker())
        assert result.status == "done"
        assert all(step.status == "done" for step in result.steps)
        assert all("migrated v1 -> v2" in step.detail for step in result.steps)
        assert find_stores(db, format_version=1) == []
        assert len(find_stores(db, format_version=2)) == 2

    def test_killed_fleet_migration_resumes_without_redoing_done_stores(
        self, db, make_store
    ):
        """The headline resume contract, asserted via the operations state."""
        _, records = self._fleet(db, make_store, format_version=1)
        operation = create_operation(db, "migrate", {}, records)
        real = migrate_worker()
        calls: list[str] = []

        def killed_after_first(db_, record):
            calls.append(record.path)
            if len(calls) == 2:
                raise KeyboardInterrupt  # the operator's ^C mid-fleet
            return real(db_, record)

        with pytest.raises(KeyboardInterrupt):
            run_operation(db, operation, killed_after_first)

        # The database records exactly how far the run got.
        partial = get_operation(db, operation.operation_id)
        statuses = sorted(step.status for step in partial.steps)
        assert statuses == ["done", "running"]
        assert partial.status == "running"

        resumed = find_resumable(db, "migrate", {})
        assert resumed is not None
        assert resumed.operation_id == operation.operation_id

        replayed: list[str] = []

        def counting(db_, record):
            replayed.append(record.path)
            return real(db_, record)

        final = run_operation(db, resumed, counting)
        assert final.status == "done"
        # Store 1 was NOT redone: one attempt, untouched by the resume.
        done_first = next(s for s in final.steps if s.path == calls[0])
        interrupted = next(s for s in final.steps if s.path != calls[0])
        assert done_first.attempts == 1
        assert interrupted.attempts == 2
        assert replayed == [interrupted.path]

    def test_failed_store_does_not_wedge_the_fleet(self, db, make_store):
        stores, records = self._fleet(db, make_store, format_version=1)
        shutil.rmtree(stores[0])  # one store is broken; the fleet moves on
        operation = create_operation(db, "migrate", {}, records)
        result = run_operation(db, operation, migrate_worker())
        assert result.status == "failed"
        assert len(result.failed_steps) == 1
        assert "no artifact store" in result.failed_steps[0].error
        assert len(result.done_steps) == 1

    def test_resume_retries_failed_steps(self, db, make_store):
        stores, records = self._fleet(db, make_store, format_version=1)
        shutil.rmtree(stores[0])
        operation = create_operation(db, "migrate", {}, records)
        first = run_operation(db, operation, migrate_worker())
        assert first.status == "failed"
        make_store(stores[0].name, format_version=1)  # store healed
        resumed = find_resumable(db, "migrate", {})
        final = run_operation(db, resumed, migrate_worker())
        assert final.status == "done"
        healed = next(s for s in final.steps if s.path == str(stores[0].resolve()))
        assert healed.attempts == 2

    def test_done_operations_are_not_resumable(self, db, make_store):
        _, records = self._fleet(db, make_store, count=1)
        operation = create_operation(db, "migrate", {}, records)
        run_operation(db, operation, migrate_worker())
        assert find_resumable(db, "migrate", {}) is None

    def test_parameters_scope_the_resume_match(self, db, make_store):
        _, records = self._fleet(db, make_store, count=1)
        create_operation(db, "migrate", {"stores": ["elsewhere"]}, records)
        assert find_resumable(db, "migrate", {}) is None

    def test_prewarm_worker_updates_the_catalog_counts(self, db, make_store):
        _, records = self._fleet(db, make_store, count=1, format_version=2)
        before = records[0].heuristic_documents
        operation = create_operation(db, "prewarm", {"method": "V-BS-60"}, records)
        result = run_operation(
            db, operation, prewarm_worker("V-BS-60", destinations=[5])
        )
        assert result.status == "done"
        assert "prewarmed" in result.done_steps[0].detail
        after = get_store(db, records[0].path)
        assert after.heuristic_documents >= before
