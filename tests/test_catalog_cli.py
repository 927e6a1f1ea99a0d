"""CLI tests for the ``repro catalog`` family and its integration hooks.

The catalog CLI follows the repo's exit-code taxonomy: 0 = success, 1 =
domain failure (a store failed verification, a fleet step failed), 2 =
operational error (corrupt or missing catalog database, unreadable store).
"""

from __future__ import annotations

import argparse
import json
import shutil

import pytest

from repro.catalog import (
    CatalogDB,
    create_operation,
    get_operation,
    list_stores,
    register_store,
    run_operation,
)
from repro.cli import _resolve_serve_store, build_parser, main
from repro.core.errors import DataError
from repro.persistence.store import MANIFEST_NAME
from repro.routing import RoutingEngine


@pytest.fixture(scope="module")
def tiny_engine(tiny_artifact_store):
    return RoutingEngine.from_artifacts(tiny_artifact_store)


@pytest.fixture()
def fleet(tiny_engine, tmp_path, copy_v1_store):
    """Two stores (one v1, one v2) registered into a fresh catalog."""
    db_path = tmp_path / "catalog.sqlite"
    old = copy_v1_store("old-store")
    new = tmp_path / "new-store"
    tiny_engine.save_artifacts(new)
    assert main(["catalog", "register", "--db", str(db_path), str(old), str(new)]) == 0
    return argparse.Namespace(db=str(db_path), old=old, new=new)


def query_json(capsys, *argv) -> list[dict]:
    capsys.readouterr()  # drop output from earlier commands (fixture setup etc.)
    assert main(["catalog", *argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_catalog_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["catalog"])

    def test_migrate_requires_a_scope(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["catalog", "migrate"])

    def test_serve_artifacts_is_now_optional(self):
        args = build_parser().parse_args(["serve", "--catalog", "catalog.sqlite"])
        assert args.artifacts is None
        assert args.catalog == "catalog.sqlite"


class TestQueryFlows:
    def test_list_shows_both_stores(self, fleet, capsys):
        records = query_json(capsys, "list", "--db", fleet.db)
        assert {r["format_version"] for r in records} == {1, 2}
        assert all(r["staleness"] is None for r in records)

    def test_query_by_graph_fingerprint_spans_the_fleet(self, fleet, capsys):
        records = query_json(capsys, "list", "--db", fleet.db)
        fingerprint = records[0]["pace_fingerprint"]
        matched = query_json(
            capsys, "query", "--db", fleet.db, "--graph-fingerprint", fingerprint
        )
        assert len(matched) == 2
        nothing = query_json(
            capsys, "query", "--db", fleet.db, "--graph-fingerprint", "0" * 32
        )
        assert nothing == []

    def test_query_by_format_version_finds_the_v1_store(self, fleet, capsys):
        matched = query_json(capsys, "query", "--db", fleet.db, "--format-version", "1")
        assert [r["path"] for r in matched] == [str(fleet.old.resolve())]

    def test_query_stale_after_behind_the_back_republish(
        self, fleet, capsys, tiny_engine
    ):
        assert query_json(capsys, "query", "--db", fleet.db, "--stale") == []
        tiny_engine.save_artifacts(fleet.new, provenance={"republished": True})
        stale = query_json(capsys, "query", "--db", fleet.db, "--stale")
        assert [r["path"] for r in stale] == [str(fleet.new.resolve())]
        assert stale[0]["staleness"] == "drifted"
        assert main(["catalog", "sync", "--db", fleet.db]) == 0
        assert query_json(capsys, "query", "--db", fleet.db, "--stale") == []

    def test_corrupt_catalog_database_exits_2(self, tmp_path, capsys):
        path = tmp_path / "catalog.sqlite"
        path.write_bytes(b"not a sqlite database")
        assert main(["catalog", "list", "--db", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_catalog_database_exits_2(self, tmp_path, capsys):
        assert main(["catalog", "list", "--db", str(tmp_path / "none.sqlite")]) == 2
        assert "repro catalog register" in capsys.readouterr().err


class TestVerifyFlows:
    def test_healthy_fleet_verifies_clean(self, fleet):
        assert main(["catalog", "verify", "--db", fleet.db, "--deep"]) == 0

    def test_truncated_artifact_fails_verification_with_exit_1(self, fleet, capsys):
        victim = next(p for p in fleet.old.iterdir() if p.name != MANIFEST_NAME)
        victim.write_bytes(victim.read_bytes()[:-10])
        assert main(["catalog", "verify", "--db", fleet.db, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        by_path = {entry["path"]: entry for entry in report}
        assert by_path[str(fleet.old.resolve())]["status"] == "corrupt"
        assert by_path[str(fleet.new.resolve())]["status"] == "ok"


class TestMigrateFlows:
    def test_migrate_all_converts_the_fleet(self, fleet, capsys):
        assert main(["catalog", "migrate", "--db", fleet.db, "--all"]) == 0
        assert query_json(capsys, "query", "--db", fleet.db, "--format-version", "1") == []

    def test_migrate_named_store_only(self, fleet, capsys):
        rc = main(
            ["catalog", "migrate", "--db", fleet.db, "--stores", str(fleet.old)]
        )
        assert rc == 0
        assert query_json(capsys, "query", "--db", fleet.db, "--format-version", "1") == []

    def test_migrating_an_unregistered_store_exits_2(self, fleet, tmp_path, capsys):
        rc = main(
            ["catalog", "migrate", "--db", fleet.db, "--stores", str(tmp_path / "ghost")]
        )
        assert rc == 2
        assert "not registered" in capsys.readouterr().err

    def test_resume_finishes_an_interrupted_fleet_migration(self, fleet, capsys):
        # Interrupt a fleet migration through the API (the CLI shares the
        # exact operations rows), then let `--resume` finish it.
        with CatalogDB(fleet.db, create=False) as db:
            operation = create_operation(db, "migrate", {}, list_stores(db))
            from repro.catalog import migrate_worker

            real = migrate_worker()
            calls: list[str] = []

            def killer(db_, record):
                calls.append(record.path)
                if len(calls) == 2:
                    raise KeyboardInterrupt
                return real(db_, record)

            with pytest.raises(KeyboardInterrupt):
                run_operation(db, operation, killer)

        rc = main(["catalog", "migrate", "--db", fleet.db, "--all", "--resume"])
        assert rc == 0
        err = capsys.readouterr().err
        assert f"resuming operation {operation.operation_id}" in err
        with CatalogDB(fleet.db, create=False) as db:
            final = get_operation(db, operation.operation_id)
            assert final.status == "done"
            attempts = {step.path: step.attempts for step in final.steps}
            assert attempts[calls[0]] == 1  # the finished store was not redone
        assert query_json(capsys, "query", "--db", fleet.db, "--format-version", "1") == []

    def test_without_resume_a_fresh_operation_is_created(self, fleet):
        assert main(["catalog", "migrate", "--db", fleet.db, "--all"]) == 0
        assert main(["catalog", "migrate", "--db", fleet.db, "--all"]) == 0
        with CatalogDB(fleet.db, create=False) as db:
            rows = db.query("SELECT operation_id FROM operations")
            assert len(rows) == 2


class TestGcFlows:
    def test_dry_run_on_a_healthy_fleet_collects_nothing(self, fleet, capsys):
        assert query_json(capsys, "gc", "--db", fleet.db) == []
        capsys.readouterr()
        assert main(["catalog", "gc", "--db", fleet.db]) == 0
        out = capsys.readouterr().out
        assert "dry run" in out
        assert "nothing to collect" in out

    def test_vanished_store_rows_survive_dry_run_and_fall_to_apply(self, fleet, capsys):
        shutil.rmtree(fleet.old)
        actions = query_json(capsys, "gc", "--db", fleet.db)
        assert actions == [
            {
                "kind": "missing-store",
                "path": str(fleet.old.resolve()),
                "action": "would-unregister",
            }
        ]
        with CatalogDB(fleet.db, create=False) as db:
            assert len(list_stores(db)) == 2  # the dry run touched nothing
        assert main(["catalog", "gc", "--db", fleet.db, "--apply"]) == 0
        with CatalogDB(fleet.db, create=False) as db:
            assert [record.path for record in list_stores(db)] == [str(fleet.new.resolve())]

    def test_root_scan_deletes_only_unregistered_store_dirs(
        self, fleet, tiny_engine, tmp_path, capsys
    ):
        stray = tmp_path / "strays" / "forgotten-store"
        tiny_engine.save_artifacts(stray)
        actions = query_json(capsys, "gc", "--db", fleet.db, "--root", str(tmp_path))
        assert actions == [
            {
                "kind": "unregistered-store",
                "path": str(stray.resolve()),
                "action": "would-delete",
            }
        ]
        assert stray.exists()  # the dry run touched nothing
        capsys.readouterr()
        assert main(["catalog", "gc", "--db", fleet.db, "--root", str(tmp_path), "--apply"]) == 0
        assert "deleted" in capsys.readouterr().out
        assert not stray.exists()
        assert fleet.old.exists() and fleet.new.exists()  # registered stores stay


class TestIntegrationHooks:
    def test_build_artifacts_registers_into_the_catalog(self, tmp_path, capsys):
        db_path = tmp_path / "catalog.sqlite"
        out = tmp_path / "built-store"
        rc = main(
            ["build-artifacts", "--out", str(out), "--max-budget", "300",
             "--max-explored", "500", "--sweeps", "1", "--catalog", str(db_path)]
        )
        assert rc == 0
        assert "catalog" in capsys.readouterr().out
        with CatalogDB(db_path, create=False) as db:
            records = list_stores(db)
            assert [r.path for r in records] == [str(out.resolve())]
            assert records[0].dataset == "tiny"

    def test_serve_resolves_a_store_from_the_catalog(self, fleet):
        args = argparse.Namespace(
            artifacts=None, catalog=fleet.db, graph_fingerprint=None
        )
        resolved = _resolve_serve_store(args)
        assert resolved in {str(fleet.old.resolve()), str(fleet.new.resolve())}

    def test_serve_with_artifacts_registers_when_catalog_given(
        self, tmp_path, tiny_engine
    ):
        store = tmp_path / "store"
        tiny_engine.save_artifacts(store)
        db_path = tmp_path / "catalog.sqlite"
        args = argparse.Namespace(
            artifacts=str(store), catalog=str(db_path), graph_fingerprint=None
        )
        assert _resolve_serve_store(args) == str(store)
        with CatalogDB(db_path, create=False) as db:
            assert len(list_stores(db)) == 1

    def test_serve_refuses_a_fleet_of_stale_stores(self, fleet, tiny_engine):
        tiny_engine.save_artifacts(fleet.old, provenance={"republished": 1})
        tiny_engine.save_artifacts(fleet.new, provenance={"republished": 1})
        args = argparse.Namespace(
            artifacts=None, catalog=fleet.db, graph_fingerprint=None
        )
        with pytest.raises(DataError, match="all stale or missing"):
            _resolve_serve_store(args)

    def test_serve_without_artifacts_or_catalog_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "--catalog" in capsys.readouterr().err

    def test_serve_by_graph_fingerprint_picks_a_matching_store(self, fleet, capsys):
        records = query_json(capsys, "list", "--db", fleet.db)
        fingerprint = records[0]["pace_fingerprint"]
        args = argparse.Namespace(
            artifacts=None, catalog=fleet.db, graph_fingerprint=fingerprint
        )
        assert _resolve_serve_store(args) in {r["path"] for r in records}
        missing = argparse.Namespace(
            artifacts=None, catalog=fleet.db, graph_fingerprint="f" * 32
        )
        with pytest.raises(DataError, match="no fresh store"):
            _resolve_serve_store(missing)
