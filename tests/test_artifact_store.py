"""Tests for the content-addressed ArtifactStore and the boot-from-disk path.

The store is the offline/online contract: mine once, persist index +
heuristics + manifest, then boot engines (and worker pools) from disk with
zero re-mining.  These tests cover the full round trip — build → save →
``from_artifacts`` → routing parity with the re-mined engine at zero cache
misses and zero mining calls — plus every rejection path: corrupted manifest,
corrupted artifact files, fingerprint mismatches, and format-version drift.
"""

from __future__ import annotations

import json

import pytest

from repro.core.errors import ConfigurationError, DataError
from repro.persistence.store import ArtifactStore, MANIFEST_NAME
from repro.routing import (
    ArtifactRef,
    DatasetRecipe,
    RouterSettings,
    RoutingEngine,
    RoutingQuery,
    RoutingService,
)

RECIPE = DatasetRecipe(dataset="tiny", regime="peak", tau=20)
SETTINGS = RouterSettings(max_budget=900.0, max_explored=2000)
#: A guided method per family: budget tables on both graphs, binary getMin.
METHODS = ("T-BS-60", "V-BS-60", "T-B-P")


@pytest.fixture(scope="module")
def mined():
    """A re-mined engine with prewarmed heuristics, plus its query batch."""
    engine = RECIPE.build_engine(settings=SETTINGS)
    vertices = sorted(engine.pace_graph.network.vertex_ids())
    destinations = [vertices[-1], vertices[len(vertices) // 2]]
    for method in METHODS:
        engine.prewarm(method, destinations)
    queries = [
        RoutingQuery(vertices[0], destinations[0], budget=500.0),
        RoutingQuery(vertices[1], destinations[1], budget=350.0),
        RoutingQuery(vertices[2], destinations[0], budget=250.0),
    ]
    return engine, queries


@pytest.fixture(scope="module")
def store_root(mined, tmp_path_factory):
    engine, _ = mined
    root = tmp_path_factory.mktemp("artifacts") / "store"
    engine.save_artifacts(root, provenance={"mine_seconds": 0.5})
    return root


class TestManifest:
    def test_manifest_records_identity_settings_and_provenance(self, mined, store_root):
        engine, _ = mined
        manifest = ArtifactStore.open(store_root).manifest
        assert manifest.fingerprints["pace"] == engine.pace_graph.content_fingerprint()
        assert manifest.fingerprints["updated"] == engine.updated_graph.content_fingerprint()
        assert manifest.recipe == {
            "dataset": "tiny",
            "regime": "peak",
            "tau": 20,
            "resolution": 5.0,
            "max_cardinality": 4,
            "build_vpaths": True,
        }
        assert manifest.settings["max_budget"] == SETTINGS.max_budget
        assert manifest.provenance["mine_seconds"] == 0.5
        assert "created_at" in manifest.provenance
        assert manifest.provenance["heuristic_entries"] == 6
        # v2 layout: the index plus one individually addressable document per
        # heuristic entry (2 destinations x (T-BS budget, V-BS budget, binary)).
        assert "index" in manifest.artifacts
        assert len(manifest.heuristic_entry_names()) == 6
        assert set(manifest.artifacts) == {"index"} | set(manifest.heuristic_entry_names())
        for entry in manifest.artifacts.values():
            assert entry.format_version == 2
            assert (store_root / entry.filename).stat().st_size == entry.size_bytes

    def test_index_file_is_content_addressed(self, mined, store_root):
        engine, _ = mined
        entry = ArtifactStore.open(store_root).manifest.artifacts["index"]
        assert engine.updated_graph.content_fingerprint()[:16] in entry.filename

    def test_resave_is_idempotent(self, mined, store_root):
        engine, _ = mined
        before = ArtifactStore.open(store_root).manifest
        after = engine.save_artifacts(store_root, provenance={"mine_seconds": 0.5})
        assert after.artifacts == before.artifacts
        files = {p.name for p in store_root.iterdir()}
        assert files == {MANIFEST_NAME} | {e.filename for e in after.artifacts.values()}


class TestBootFromArtifacts:
    def test_boot_parity_zero_misses_zero_mining(self, mined, store_root, monkeypatch):
        """The acceptance path: identical results, no rebuild of anything.

        Mining entry points are poisoned before the boot, so any attempt to
        re-run the offline pipeline fails the test outright; routing parity
        plus ``misses == 0`` then proves every answer came from the persisted
        tables.
        """
        import repro.tpaths.extraction as extraction

        def _no_mining(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("artifact boot must not re-run T-path mining")

        monkeypatch.setattr(extraction, "build_pace_graph", _no_mining)
        monkeypatch.setattr(extraction, "mine_tpaths", _no_mining)
        engine, queries = mined
        booted = RoutingEngine.from_artifacts(store_root)
        assert booted.settings == SETTINGS  # defaults come from the manifest
        for method in METHODS:
            expected = engine.route_many(queries, method=method)
            actual = booted.route_many(queries, method=method)
            for a, b in zip(expected, actual):
                assert b.path.edges == a.path.edges
                assert b.probability == a.probability
        stats = booted.stats()
        assert stats.cache_misses == 0
        assert stats.cache_hits > 0
        assert stats.provenance["source"] == "artifacts"
        assert stats.provenance["path"] == str(store_root)
        assert stats.provenance["fingerprints"]["pace"] == (
            engine.pace_graph.content_fingerprint()
        )

    def test_spec_is_a_pinned_artifact_ref(self, mined, store_root):
        engine, _ = mined
        booted = RoutingEngine.from_artifacts(store_root)
        assert isinstance(booted.spec, ArtifactRef)
        assert booted.spec.path == str(store_root)
        assert booted.spec.pace_fingerprint == engine.pace_graph.content_fingerprint()
        # The ref alone rebuilds an equivalent engine (the worker path).
        rebuilt = booted.spec.build_engine(settings=SETTINGS)
        assert rebuilt.pace_graph.content_fingerprint() == booted.spec.pace_fingerprint

    def test_service_reports_artifact_provenance(self, store_root):
        service = RoutingService(RoutingEngine.from_artifacts(store_root))
        provenance = service.stats().provenance
        assert provenance["source"] == "artifacts"
        assert "created_at" in provenance["build"]

    def test_settings_override_skips_undersized_budget_tables(self, store_root):
        booted = RoutingEngine.from_artifacts(
            store_root, settings=RouterSettings(max_budget=5000.0, max_explored=2000)
        )
        # Budget tables cover 900s only: skipped (rebuilt on demand), binary kept.
        kinds = {key[0] for key in booted.heuristic_cache.snapshot()}
        assert kinds == {"binary"}

    def test_store_without_vpath_closure(self, tmp_path):
        recipe = DatasetRecipe(dataset="tiny", regime="peak", tau=20, build_vpaths=False)
        engine = recipe.build_engine(settings=SETTINGS)
        root = tmp_path / "pace-only"
        engine.save_artifacts(root)
        booted = RoutingEngine.from_artifacts(root)
        assert booted.updated_graph is None
        assert booted.spec.updated_fingerprint is None
        vertices = sorted(booted.pace_graph.network.vertex_ids())
        query = RoutingQuery(vertices[0], vertices[-1], budget=500.0)
        result = booted.route(query, method="T-B-P")
        assert result.path is not None
        with pytest.raises(ConfigurationError, match="updated PACE graph"):
            booted.route(query, method="V-None")


class TestRejection:
    def _copy_store(self, source, destination):
        destination.mkdir(parents=True)
        for item in source.iterdir():
            (destination / item.name).write_bytes(item.read_bytes())
        return destination

    def test_missing_store(self, tmp_path):
        with pytest.raises(DataError, match="no artifact store"):
            ArtifactStore.open(tmp_path / "nowhere")
        with pytest.raises(DataError, match="no artifact store"):
            RoutingEngine.from_artifacts(tmp_path / "nowhere")

    def test_corrupted_manifest_json(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "broken")
        (broken / MANIFEST_NAME).write_text('{"kind": "pace-artifact-store", ', encoding="utf-8")
        with pytest.raises(DataError, match="corrupted artifact manifest"):
            RoutingEngine.from_artifacts(broken)

    def test_manifest_wrong_kind_and_version(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "kindless")
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        payload["kind"] = "something-else"
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match="not an artifact store manifest"):
            ArtifactStore.open(broken)
        payload["kind"] = "pace-artifact-store"
        payload["format_version"] = 99
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match=r"version 99 .*supports version 1"):
            ArtifactStore.open(broken)

    def test_manifest_artifacts_field_of_wrong_type(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "nullartifacts")
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        for bad in (None, []):
            payload["artifacts"] = bad
            (broken / MANIFEST_NAME).write_text(json.dumps(payload))
            with pytest.raises(DataError, match="malformed artifact manifest"):
                ArtifactStore.open(broken)

    def test_manifest_missing_fingerprint(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "fingerprintless")
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        del payload["fingerprints"]["pace"]
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match="'pace' content fingerprint"):
            ArtifactStore.open(broken)

    def test_corrupted_index_file(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "bitrot")
        filename = ArtifactStore.open(broken).manifest.artifacts["index"].filename
        blob = broken / filename
        blob.write_bytes(blob.read_bytes()[:-20] + b"corrupted-tail-bytes")
        # v1 stores fail the whole-file manifest checksum; v2 stores stream
        # through the mmap reader and fail the corrupted column's digest.
        with pytest.raises(DataError, match="checksum"):
            RoutingEngine.from_artifacts(broken)

    def test_fingerprint_mismatch_between_manifest_and_index(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "swapped")
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        payload["fingerprints"]["pace"] = "0" * 32
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match="different PACE graph"):
            RoutingEngine.from_artifacts(broken)

    def test_artifact_ref_pins_fingerprints(self, store_root):
        ref = ArtifactRef(path=str(store_root), pace_fingerprint="f" * 32)
        with pytest.raises(DataError, match="different PACE graph"):
            ref.build_engine(settings=SETTINGS)

    def test_missing_artifact_file(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "gone")
        filename = ArtifactStore.open(broken).manifest.artifacts["index"].filename
        (broken / filename).unlink()
        with pytest.raises(DataError, match="missing"):
            RoutingEngine.from_artifacts(broken)

    def test_incompatible_manifest_settings(self, store_root, tmp_path):
        broken = self._copy_store(store_root, tmp_path / "settings")
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        payload["settings"]["no_such_knob"] = 1
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match="RouterSettings"):
            RoutingEngine.from_artifacts(broken)

    @pytest.mark.parametrize("limit", ["max_support", "max_explored"])
    def test_invalid_recorded_limit_is_a_data_error(self, store_root, tmp_path, limit):
        broken = self._copy_store(store_root, tmp_path / limit)
        payload = json.loads((broken / MANIFEST_NAME).read_text())
        payload["settings"][limit] = 0
        (broken / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DataError, match=limit):
            RoutingEngine.from_artifacts(broken)
        with pytest.raises(DataError, match="RouterSettings"):
            RouterSettings.from_manifest(payload["settings"])

    def test_retired_expansion_setting_still_boots(self, mined, store_root, tmp_path):
        """Stores saved while ``expansion`` was an option record it; they boot unchanged."""
        engine, queries = mined
        old = self._copy_store(store_root, tmp_path / "expansion")
        payload = json.loads((old / MANIFEST_NAME).read_text())
        payload["settings"]["expansion"] = "scalar"
        (old / MANIFEST_NAME).write_text(json.dumps(payload))
        booted = RoutingEngine.from_artifacts(old)
        assert booted.settings == SETTINGS
        for method in METHODS:
            for query in queries:
                expected = engine.route(query, method=method)
                got = booted.route(query, method=method)
                assert (got.path, got.probability, got.explored) == (
                    expected.path,
                    expected.probability,
                    expected.explored,
                )


class TestResaveSafety:
    def test_empty_cache_resave_preserves_persisted_heuristics(self, tmp_path):
        """A saver with nothing to contribute must not destroy the prewarm investment.

        A store holding only budget tables, booted with an overridden (larger)
        ``max_budget``, skips every persisted table — the engine's cache is
        empty.  Re-saving the store from such an engine must keep the existing
        heuristic documents: the graphs are unchanged, so they are still
        valid (for any consumer whose settings the tables do cover).
        """
        engine = RECIPE.build_engine(settings=SETTINGS)
        vertices = sorted(engine.pace_graph.network.vertex_ids())
        engine.prewarm("T-BS-60", [vertices[-1]])  # budget tables only
        root = tmp_path / "budget-store"
        engine.save_artifacts(root)
        before = ArtifactStore.open(root).manifest
        names = before.heuristic_entry_names()
        assert names, "the prewarmed table must have been persisted"

        overridden = RoutingEngine.from_artifacts(
            root, settings=RouterSettings(max_budget=50000.0, max_explored=2000)
        )
        assert len(overridden.heuristic_cache) == 0  # every table was skipped
        overridden.save_artifacts(root)
        after = ArtifactStore.open(root).manifest
        assert after.heuristic_entry_names() == names
        for name in names:
            assert after.artifacts[name] == before.artifacts[name]
            assert (root / after.artifacts[name].filename).exists()
