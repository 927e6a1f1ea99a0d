"""Fleet management with the SQLite artifact catalog: ``repro catalog``.

One deployment is an artifact store; an operation has many — one per city,
regime and format generation.  This example runs the whole fleet story
against two tiny stores:

1. copy the repository's v1 fixture store (``tests/fixtures/tiny-v1-store``,
   an old deployment) and mine the same city into a v2 store (a new one),
2. register both into a catalog and answer fleet questions (which stores
   serve this graph fingerprint?  which are still on v1 artifacts?),
3. republish one store behind the catalog's back and watch ``--stale``
   detect the drift, then ``sync`` heal it,
4. start a fleet-wide ``migrate`` to v2, kill it after the first store, and
   resume — the finished store is **not** redone (its attempt count stays
   at 1), which is the whole point of the per-step operations state.

Run with::

    python examples/fleet_catalog.py

Exits non-zero if any contract is violated.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from repro.catalog import (
    CatalogDB,
    create_operation,
    find_resumable,
    find_stores,
    get_operation,
    list_stores,
    migrate_worker,
    register_store,
    run_operation,
    store_staleness,
    sync_store,
    verify_fleet,
)
from repro.routing import DatasetRecipe, RouterSettings, RoutingEngine

SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000)
#: A store in the v1 format, which only the migrator still reads.
V1_FIXTURE = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "tiny-v1-store"


def main() -> int:
    failures: list[str] = []

    def check(condition: bool, label: str) -> None:
        print(("  [ok]  " if condition else "  [FAIL]") + " " + label)
        if not condition:
            failures.append(label)

    with tempfile.TemporaryDirectory(prefix="fleet-catalog-") as scratch:
        root = Path(scratch)

        print("\n--- 1. An old deployment and a freshly mined one ---")
        engine = DatasetRecipe(dataset="tiny", regime="peak", tau=20).build_engine(
            settings=SETTINGS
        )
        old_store, new_store = root / "city-v1", root / "city-v2"
        shutil.copytree(V1_FIXTURE, old_store, ignore=shutil.ignore_patterns("README.md"))
        engine.save_artifacts(new_store)
        print(f"    {old_store.name} (v1 artifacts), {new_store.name} (v2 artifacts)")

        print("\n--- 2. Register the fleet and query it ---")
        with CatalogDB(root / "catalog.sqlite") as db:
            for store in (old_store, new_store):
                record = register_store(db, store)
                print(f"    registered {record.path} (pace {record.pace_fingerprint[:12]})")
            records = list_stores(db)
            check(len(records) == 2, "both stores registered")

            fingerprint = records[0].pace_fingerprint
            matching = find_stores(db, graph_fingerprint=fingerprint)
            check(len(matching) == 2, "fingerprint query spans the fleet")
            still_v1 = find_stores(db, format_version=1)
            check(
                [Path(r.path).name for r in still_v1] == ["city-v1"],
                "format-version query finds the v1 store",
            )
            check(all(v.ok for v in verify_fleet(db)), "deep verify: fleet is clean")

            print("\n--- 3. Drift detection and sync ---")
            engine.save_artifacts(new_store, provenance={"republished": True})
            record = next(r for r in list_stores(db) if r.path == str(new_store.resolve()))
            check(store_staleness(record) == "drifted", "behind-the-back republish detected")
            _, changed = sync_store(db, new_store)
            check(changed, "sync re-indexed the drifted store")
            check(
                all(store_staleness(r) is None for r in list_stores(db)),
                "fleet fresh again after sync",
            )

            print("\n--- 4. Fleet migration, killed after store 1, then resumed ---")
            operation = create_operation(db, "migrate", {}, list_stores(db))
            real_worker = migrate_worker()
            calls: list[str] = []

            def killer(db_, record):
                calls.append(record.path)
                if len(calls) == 2:
                    raise KeyboardInterrupt  # the operator pulls the plug
                return real_worker(db_, record)

            try:
                run_operation(db, operation, killer)
            except KeyboardInterrupt:
                print("    interrupted after the first store (simulated ^C)")

            statuses = [step.status for step in get_operation(db, operation.operation_id).steps]
            check(statuses == ["done", "running"], f"mid-kill step state: {statuses}")

            resumable = find_resumable(db, "migrate", {})
            check(
                resumable is not None
                and resumable.operation_id == operation.operation_id,
                "interrupted operation found by kind + parameters",
            )
            finished = run_operation(db, resumable, real_worker)
            check(finished.status == "done", "resume finished the fleet")
            attempts = {Path(s.path).name: s.attempts for s in finished.steps}
            print(f"    attempts per store: {attempts}")
            check(attempts[calls[0].rsplit("/", 1)[-1]] == 1, "finished store was not redone")
            check(find_stores(db, format_version=1) == [], "no v1 stores left")

            booted = RoutingEngine.from_artifacts(old_store)
            check(
                booted.pace_graph.content_fingerprint() == fingerprint,
                "migrated store still boots with the same graph fingerprint",
            )

    print()
    if failures:
        print(f"{len(failures)} contract violation(s):")
        for label in failures:
            print(f"  - {label}")
        return 1
    print("fleet catalog example: all contracts held")
    return 0


if __name__ == "__main__":
    sys.exit(main())
