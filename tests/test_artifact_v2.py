"""The v2 artifact store, incremental prewarm, and migration from v1.

The engine writes and serves one format, the columnar v2 store; a v1 (JSON)
store is read only by ``repro migrate-artifacts``.  These tests pin:

* v2 stores round-trip bit-exact graph content fingerprints and serve with
  zero cache misses,
* v1 stores, foreign heuristic artifacts and unknown format versions are
  refused loudly by every serving path (``from_artifacts``, ``route``,
  ``serve``), naming the migrator,
* an incremental ``prewarm --artifacts`` re-save writes only the new/changed
  heuristic documents — untouched tables stay byte- and mtime-identical on
  disk, and
* ``repro migrate-artifacts`` converts the v1 fixture store
  (``tests/fixtures/tiny-v1-store``) in place without re-mining, preserving
  fingerprints, recipe and build provenance, and serves the routes a fresh
  mine serves.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.errors import DataError
from repro.persistence.store import (
    HEURISTIC_ENTRY_PREFIX,
    INDEX_ARTIFACT,
    MANIFEST_NAME,
    ArtifactStore,
    checksum_bytes,
)
from repro.routing import (
    DatasetRecipe,
    RouterSettings,
    RoutingEngine,
    RoutingQuery,
    migrate_store,
)

RECIPE = DatasetRecipe(dataset="tiny", regime="peak", tau=20)
SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000)


@pytest.fixture(scope="module")
def mined():
    engine = RECIPE.build_engine(settings=SETTINGS)
    vertices = sorted(engine.pace_graph.network.vertex_ids())
    destinations = [vertices[-1], vertices[len(vertices) // 2]]
    for method in ("T-BS-60", "T-B-P"):
        engine.prewarm(method, destinations)
    queries = [
        RoutingQuery(vertices[0], destinations[0], budget=500.0),
        RoutingQuery(vertices[1], destinations[1], budget=350.0),
    ]
    return engine, destinations, queries


def _file_states(root, pattern):
    return {
        path.name: (path.stat().st_mtime_ns, path.read_bytes())
        for path in root.glob(pattern)
    }


class TestCoexistence:
    def test_v1_store_is_refused_naming_the_migrator(self, copy_v1_store):
        store = copy_v1_store()
        with pytest.raises(DataError, match=r"format version 1.*repro migrate-artifacts"):
            RoutingEngine.from_artifacts(store)

    def test_v2_store_round_trips_bit_exact_fingerprints(self, mined, tmp_path):
        engine, _, _ = mined
        root = tmp_path / "v2-store"
        manifest = engine.save_artifacts(root)
        assert manifest.artifacts[INDEX_ARTIFACT].format_version == 2
        assert manifest.artifacts[INDEX_ARTIFACT].filename.endswith(".bin")
        assert manifest.heuristic_entry_names()
        booted = RoutingEngine.from_artifacts(root)
        # load_index verifies the recomputed fingerprints against the
        # manifest, so a successful boot *is* the bit-exactness assertion —
        # restate it explicitly anyway.
        assert booted.pace_graph.content_fingerprint() == engine.pace_graph.content_fingerprint()
        assert (
            booted.updated_graph.content_fingerprint()
            == engine.updated_graph.content_fingerprint()
        )
        assert booted.stats().cache_misses == 0


class TestRejection:
    def _manifest(self, root):
        return json.loads((root / MANIFEST_NAME).read_text())

    def _write_manifest(self, root, payload):
        (root / MANIFEST_NAME).write_text(json.dumps(payload))

    def test_foreign_heuristic_artifact_is_refused(self, mined, tmp_path):
        """A manifest entry that is neither the index nor a per-entry table."""
        engine, _, _ = mined
        root = tmp_path / "mixed"
        engine.save_artifacts(root)
        payload = self._manifest(root)
        entry_name = next(
            name for name in payload["artifacts"] if name.startswith(HEURISTIC_ENTRY_PREFIX)
        )
        payload["artifacts"]["heuristics"] = payload["artifacts"][entry_name]
        self._write_manifest(root, payload)
        with pytest.raises(DataError, match="unknown 'heuristics' artifact"):
            RoutingEngine.from_artifacts(root)

    def test_unknown_index_format_version_errors_cleanly(self, mined, tmp_path):
        engine, _, _ = mined
        root = tmp_path / "future"
        engine.save_artifacts(root)
        payload = self._manifest(root)
        payload["artifacts"][INDEX_ARTIFACT]["format_version"] = 3
        self._write_manifest(root, payload)
        with pytest.raises(DataError, match=r"format version 3.*serves version 2"):
            RoutingEngine.from_artifacts(root)

    def test_corrupted_heuristic_document_fails_its_checksum(self, mined, tmp_path):
        engine, _, _ = mined
        root = tmp_path / "bitrot"
        engine.save_artifacts(root)
        victim = next(root.glob("heuristic-*.bin"))
        victim.write_bytes(victim.read_bytes()[:-3] + b"zzz")
        # The streaming reader pins the failure to the corrupted column's
        # digest rather than the whole-file manifest checksum.
        with pytest.raises(DataError, match="checksum"):
            RoutingEngine.from_artifacts(root)

    def test_swapped_heuristic_documents_are_detected(self, mined, tmp_path):
        """A file that passes its checksum but holds another slot's table."""
        engine, _, _ = mined
        root = tmp_path / "swapped"
        engine.save_artifacts(root)
        payload = self._manifest(root)
        names = [n for n in payload["artifacts"] if n.startswith(HEURISTIC_ENTRY_PREFIX)]
        first, second = names[0], names[1]
        payload["artifacts"][first], payload["artifacts"][second] = (
            payload["artifacts"][second],
            payload["artifacts"][first],
        )
        self._write_manifest(root, payload)
        with pytest.raises(DataError, match="decodes to a different heuristic"):
            RoutingEngine.from_artifacts(root)


class TestIncrementalPrewarm:
    def test_resave_only_touches_changed_heuristic_documents(self, tmp_path):
        engine = RECIPE.build_engine(settings=SETTINGS)
        vertices = sorted(engine.pace_graph.network.vertex_ids())
        engine.prewarm("T-BS-60", [vertices[-1], vertices[-2]])
        root = tmp_path / "incremental"
        engine.save_artifacts(root)
        before = _file_states(root, "heuristic-*.bin")
        index_before = _file_states(root, "index-*.bin")

        booted = RoutingEngine.from_artifacts(root)
        booted.prewarm("T-BS-60", [vertices[0]])  # one new destination
        booted.save_artifacts(root)

        after = _file_states(root, "heuristic-*.bin")
        new_files = set(after) - set(before)
        assert len(new_files) == 1, "exactly the new destination's table is written"
        for name in before:
            # untouched tables: same file, same bytes, same mtime (not rewritten)
            assert after[name] == before[name]
        assert _file_states(root, "index-*.bin") == index_before
        manifest = ArtifactStore.open(root).manifest
        assert len(manifest.heuristic_entry_names()) == 3

    def test_replaced_table_swaps_its_document_and_collects_the_old_one(self, tmp_path):
        """Same slot, different content: the document is replaced, not duplicated."""
        settings_small = RouterSettings(max_budget=600.0, max_explored=2000)
        engine = RECIPE.build_engine(settings=settings_small)
        vertices = sorted(engine.pace_graph.network.vertex_ids())
        destination = vertices[-1]
        engine.prewarm("T-BS-60", [destination])
        root = tmp_path / "replaced"
        engine.save_artifacts(root)
        old_files = set(_file_states(root, "heuristic-*.bin"))

        # Rebuild the same slot's table over a larger budget grid: same key,
        # different cells -> different content digest.
        bigger = RECIPE.build_engine(settings=RouterSettings(max_budget=900.0, max_explored=2000))
        bigger.prewarm("T-BS-60", [destination])
        bigger.save_artifacts(root)

        new_files = set(_file_states(root, "heuristic-*.bin"))
        assert new_files != old_files
        assert len(new_files) == 1, "the superseded document was garbage-collected"
        manifest = ArtifactStore.open(root).manifest
        assert len(manifest.heuristic_entry_names()) == 1


def _rewrite_artifact(root, name, transform):
    """Rewrite one artifact file through ``transform`` and re-stamp the manifest."""
    manifest = json.loads((root / MANIFEST_NAME).read_text())
    entry = manifest["artifacts"][name]
    path = root / entry["filename"]
    data = transform(path.read_bytes())
    path.write_bytes(data)
    entry["checksum"] = checksum_bytes(data)
    entry["size_bytes"] = len(data)
    (root / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestMigration:
    def test_cli_migrates_v1_store_in_place(self, copy_v1_store, capsys):
        store = copy_v1_store()
        before = ArtifactStore.open(store).manifest
        assert before.artifacts[INDEX_ARTIFACT].format_version == 1

        assert main(["migrate-artifacts", str(store)]) == 0
        output = capsys.readouterr().out
        assert "v1 -> v2" in output

        after = ArtifactStore.open(store).manifest
        assert after.artifacts[INDEX_ARTIFACT].format_version == 2
        assert after.fingerprints == before.fingerprints
        # The fixture predates the removal of the ``expansion`` option: the
        # re-save records every current setting unchanged and drops that key.
        assert "expansion" in before.settings and "expansion" not in after.settings
        assert RouterSettings(**after.settings) == RouterSettings.from_manifest(before.settings)
        assert after.recipe == before.recipe
        assert after.provenance["mine_seconds"] == before.provenance["mine_seconds"]
        assert len(after.heuristic_entry_names()) == 1
        assert not list(store.glob("*.json.tmp"))
        # no stale v1 blobs left behind
        assert not list(store.glob("heuristics-*.json"))
        assert not list(store.glob("index-*.json"))

        booted = RoutingEngine.from_artifacts(store)
        assert booted.stats().cache_misses == 0
        assert booted.pace_graph.content_fingerprint() == before.fingerprints["pace"]

    def test_migrated_store_is_smaller_than_the_v1_fixture(self, copy_v1_store):
        store = copy_v1_store()
        migration = migrate_store(store)
        assert migration.persisted_entries == 1
        before, after = (
            sum(entry.size_bytes for entry in manifest.artifacts.values())
            for manifest in (migration.before, migration.after)
        )
        assert after < before

    def test_migrated_routes_match_a_fresh_mine(self, copy_v1_store):
        store = copy_v1_store()
        migrate_store(store)
        booted = RoutingEngine.from_artifacts(store)
        fresh = RECIPE.build_engine(settings=booted.settings)
        assert fresh.pace_graph.content_fingerprint() == booted.pace_graph.content_fingerprint()
        vertices = sorted(fresh.pace_graph.network.vertex_ids())
        queries = [
            RoutingQuery(source, vertices[-1], budget=budget)
            for source, budget in ((vertices[0], 500.0), (vertices[1], 350.0), (vertices[7], 260.0))
        ]
        for method in ("T-BS-60", "T-B-P", "V-BS-60"):
            for expected, actual in zip(
                fresh.route_many(queries, method=method),
                booted.route_many(queries, method=method),
            ):
                assert actual.path == expected.path
                assert actual.probability == expected.probability
            if method == "T-BS-60":
                # The fixture's migrated table served these without a rebuild.
                assert booted.stats().cache_misses == 0

    def test_half_migrated_store_is_refused_then_migrated(self, copy_v1_store):
        """A v2 index beside a v1 bundle is never served; the migrator finishes it."""
        fixture = copy_v1_store("fixture")
        store = copy_v1_store()
        migrate_store(store)
        manifest = json.loads((store / MANIFEST_NAME).read_text())
        bundle = json.loads((fixture / MANIFEST_NAME).read_text())["artifacts"]["heuristics"]
        manifest["artifacts"] = {
            INDEX_ARTIFACT: manifest["artifacts"][INDEX_ARTIFACT],
            "heuristics": bundle,
        }
        (store / bundle["filename"]).write_bytes((fixture / bundle["filename"]).read_bytes())
        (store / MANIFEST_NAME).write_text(json.dumps(manifest))

        with pytest.raises(DataError, match=r"format version 1.*repro migrate-artifacts"):
            RoutingEngine.from_artifacts(store)
        migration = migrate_store(store)
        assert migration.persisted_entries == 1
        assert "heuristics" not in migration.after.artifacts
        assert len(migration.after.heuristic_entry_names()) == 1
        assert RoutingEngine.from_artifacts(store).heuristic_cache.counters().entries == 1

    def test_migrate_is_idempotent_at_v2(self, tmp_path, capsys):
        """Migrating a current store decodes and re-encodes every document to the same bytes."""
        store = tmp_path / "store"
        assert main(
            [
                "build-artifacts", "--dataset", "tiny", "--out", str(store), "--sweeps", "1",
                "--method", "T-B-P", "--method", "T-BS-60", "--destinations", "20", "35",
            ]
        ) == 0
        capsys.readouterr()
        built = {name: data for name, (_, data) in _file_states(store, "heuristic-*.bin").items()}
        assert sorted(name.split("-")[1] for name in built) == ["binary"] * 2 + ["budget"] * 2
        assert main(["migrate-artifacts", str(store)]) == 0
        first = {pattern: _file_states(store, pattern) for pattern in ("index-*.bin", "heuristic-*.bin")}
        assert {name: data for name, (_, data) in first["heuristic-*.bin"].items()} == built
        assert main(["migrate-artifacts", str(store)]) == 0
        for pattern, states in first.items():
            assert _file_states(store, pattern) == states, pattern

    def test_migrate_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["migrate-artifacts", str(tmp_path / "nowhere")]) == 2
        assert "no artifact store" in capsys.readouterr().err

    def test_migrate_corrupt_v1_index_exits_2(self, copy_v1_store, capsys):
        """A checksum-consistent index that is not JSON fails typed, not raw."""
        store = copy_v1_store()
        _rewrite_artifact(store, INDEX_ARTIFACT, lambda data: b"{ not json")
        assert main(["migrate-artifacts", str(store)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_migrate_drops_unloadable_v1_heuristics_and_says_so(self, copy_v1_store, capsys):
        """Floor-built tables are inadmissible; a v1 bundle of them cannot move over."""
        store = copy_v1_store()
        _rewrite_artifact(
            store,
            "heuristics",
            lambda data: data.replace(b'"grid_rounding": "ceil"', b'"grid_rounding": "floor"'),
        )
        assert main(["migrate-artifacts", str(store)]) == 0
        assert "could not be loaded for serving" in capsys.readouterr().err
        after = ArtifactStore.open(store).manifest
        assert set(after.artifacts) == {INDEX_ARTIFACT}
        assert after.artifacts[INDEX_ARTIFACT].format_version == 2
        assert not list(store.glob("heuristics-*.json"))

    def test_migrate_with_unloadable_heuristics_keeps_them_and_says_so(
        self, tmp_path, capsys
    ):
        """Entries the engine cannot serve are kept verbatim, not silently lost.

        Floor-built tables are skipped on every load (inadmissible), so a
        store holding only those re-saves its index but carries the heuristic
        documents over unchanged — and the CLI must report exactly that
        instead of claiming they were dropped.
        """
        from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic

        engine = RECIPE.build_engine(settings=SETTINGS)
        destination = sorted(engine.pace_graph.network.vertex_ids())[-1]
        floor_built = BudgetSpecificHeuristic(
            engine.pace_graph,
            destination,
            BudgetHeuristicConfig(
                delta=60.0, max_budget=SETTINGS.max_budget, grid_rounding="floor"
            ),
        )
        engine.heuristic_cache.insert(
            ("budget", 60.0, engine.pace_graph.content_fingerprint(), destination),
            floor_built,
        )
        store = tmp_path / "floor-store"
        engine.save_artifacts(store)
        before = ArtifactStore.open(store).manifest
        assert len(before.heuristic_entry_names()) == 1

        assert main(["migrate-artifacts", str(store)]) == 0
        captured = capsys.readouterr()
        assert "kept on disk unchanged" in captured.err

        after = ArtifactStore.open(store).manifest
        name = before.heuristic_entry_names()[0]
        assert after.artifacts[name] == before.artifacts[name]


def _exit_code(argv) -> int:
    """``main``'s exit status, whether returned or raised as ``SystemExit``."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestV1StoresFailTyped:
    @pytest.mark.parametrize(
        "argv",
        [
            ["route", "--source", "0", "--destination", "35", "--budget", "700"],
            ["serve", "--port", "0"],
            ["prewarm", "--destinations", "5"],
        ],
        ids=["route", "serve", "prewarm"],
    )
    def test_serving_commands_exit_2_naming_the_migrator(self, copy_v1_store, capsys, argv):
        store = copy_v1_store()
        before = (store / MANIFEST_NAME).read_bytes()
        assert _exit_code([*argv, "--artifacts", str(store)]) == 2
        assert "repro migrate-artifacts" in capsys.readouterr().err
        assert (store / MANIFEST_NAME).read_bytes() == before
