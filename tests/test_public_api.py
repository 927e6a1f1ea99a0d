"""Tests for the top-level public API surface."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_importable(self):
        for module in (
            "repro.core",
            "repro.network",
            "repro.trajectories",
            "repro.tpaths",
            "repro.vpaths",
            "repro.heuristics",
            "repro.routing",
            "repro.edgemodel",
            "repro.evaluation",
            "repro.datasets",
            "repro.persistence",
        ):
            assert importlib.import_module(module) is not None

    def test_subpackage_all_names_resolve(self):
        for module_name in (
            "repro.core",
            "repro.network",
            "repro.trajectories",
            "repro.tpaths",
            "repro.vpaths",
            "repro.heuristics",
            "repro.routing",
            "repro.edgemodel",
            "repro.evaluation",
            "repro.datasets",
            "repro.persistence",
        ):
            module = importlib.import_module(module_name)
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_method_names_constant_matches_paper(self):
        assert repro.METHOD_NAMES == (
            "T-None",
            "T-B-EU",
            "T-B-E",
            "T-B-P",
            "T-BS-60",
            "V-None",
            "V-B-P",
            "V-BS-60",
        )

    def test_public_docstrings_present(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__" and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert not undocumented, f"public API members without docstrings: {undocumented}"

    def test_one_persistence_path_and_no_thread_backend(self):
        """Heuristics persist only through the artifact store; batches fan out
        serially or over processes."""
        from repro.persistence import heuristics
        from repro.routing import backends
        from repro.routing.engine import RoutingEngine

        for module, name in (
            (repro, "ThreadBackend"),
            (importlib.import_module("repro.routing"), "ThreadBackend"),
            (backends, "ThreadBackend"),
            (importlib.import_module("repro.persistence"), "save_heuristic_bundle"),
            (heuristics, "save_heuristic_bundle"),
            (heuristics, "load_heuristic_bundle"),
            (heuristics, "save_heuristic_table"),
            (heuristics, "load_heuristic_table"),
            (RoutingEngine, "save_heuristics"),
            (RoutingEngine, "load_heuristics"),
        ):
            assert not hasattr(module, name), name
        assert "heuristics_path" not in inspect.signature(backends.ProcessBackend).parameters
        assert "workers" not in inspect.signature(RoutingEngine.route_many).parameters
        destinations = inspect.signature(RoutingEngine.prewarm).parameters["destinations"]
        assert destinations.default is inspect.Parameter.empty

    def test_one_artifact_format(self):
        """The engine writes and serves v2 only; no option selects a format."""
        from repro.catalog import migrate_worker
        from repro.persistence import codecs, index, store
        from repro.routing import migrate_store
        from repro.routing.engine import RoutingEngine

        persistence = importlib.import_module("repro.persistence")
        for module, name in (
            (repro, "save_index"),
            (repro, "load_index"),
            (persistence, "save_index"),
            (persistence, "load_index"),
            (persistence, "index_to_dict"),
            (persistence, "index_from_dict"),
            (persistence, "heuristic_bundle_payload"),
            (persistence, "heuristic_bundle_entries"),
            (index, "save_index"),
            (index, "load_index"),
            (index, "index_to_dict"),
            (index, "INDEX_FORMAT_V1"),
            (store, "HEURISTICS_ARTIFACT"),
            (store, "DEFAULT_STORE_FORMAT"),
            (store.ArtifactStore, "read_document"),
            (store.ArtifactStore, "_current_format"),
            (store.HeuristicStoreHandle, "_bundle_entries"),
        ):
            assert not hasattr(module, name), name
        for function, option in (
            (store.ArtifactStore.save, "format_version"),
            (store.ArtifactStore.save, "index_document"),
            (RoutingEngine.save_artifacts, "format_version"),
            (codecs.strict_json_loads, "allow_legacy_infinity"),
        ):
            assert option not in inspect.signature(function).parameters, option
        assert not inspect.signature(migrate_worker).parameters
        assert list(inspect.signature(migrate_store).parameters) == ["store"]

    def test_only_the_migrator_imports_the_v1_reader(self):
        src = Path(repro.__file__).parent
        importers = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module is not None:
                    names = {node.module} | {f"{node.module}.{a.name}" for a in node.names}
                    if "repro.persistence.legacy" in names:
                        importers.add(path.relative_to(src).as_posix())
        assert importers == {"routing/engine.py"}
        # Booting the serving surfaces never loads it.
        code = (
            "import sys, repro, repro.cli, repro.serving, repro.catalog; "
            "assert 'repro.persistence.legacy' not in sys.modules"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_one_search_loop_and_one_table_builder(self):
        """No option selects a second router search loop or Bellman working memory."""
        from repro.heuristics import budget
        from repro.persistence import store
        from repro.routing.engine import RouterSettings
        from repro.routing.tpath_routing import HeuristicRouterConfig
        from repro.routing.vpath_routing import VPathRouterConfig

        for settings_class, field_count in (
            (RouterSettings, 4),
            (HeuristicRouterConfig, 2),
            (VPathRouterConfig, 3),
        ):
            names = {field.name for field in dataclasses.fields(settings_class)}
            assert not names & {"expansion", "reevaluate_with_pace"}, settings_class
            assert len(names) == field_count, (settings_class, names)
        assert "mirror" not in inspect.signature(budget.build_heuristic_table).parameters
        for module, name in (
            (budget, "_DenseMirror"),
            (budget, "_MIRRORS"),
            (store.ArtifactStore, "artifact_path"),
        ):
            assert not hasattr(module, name), name
        reader = store.ArtifactStore._open_artifact_reader
        assert "verify" not in inspect.signature(reader).parameters

    def test_no_product_module_imports_a_scalar_reference(self):
        src = Path(repro.__file__).parent
        importers = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    names = {alias.name for alias in node.names}
                    if node.module is not None:
                        names |= {node.module} | {f"{node.module}.{n}" for n in names}
                else:
                    continue
                if any(name.rsplit(".", 1)[-1] == "_scalar_reference" for name in names):
                    importers.add(path.relative_to(src).as_posix())
        assert not importers
        # Booting the serving surfaces never loads one either.
        code = (
            "import sys, repro, repro.cli, repro.serving; "
            "loaded = [m for m in sys.modules if m.endswith('._scalar_reference')]; "
            "assert not loaded, loaded"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_error_hierarchy(self):
        from repro.core import errors

        subclasses = [
            errors.DistributionError,
            errors.JointDistributionError,
            errors.PathError,
            errors.GraphError,
            errors.RoutingError,
            errors.NoPathError,
            errors.HeuristicError,
            errors.DataError,
            errors.ConfigurationError,
        ]
        for exc in subclasses:
            assert issubclass(exc, errors.ReproError)
        with pytest.raises(errors.ReproError):
            raise errors.NoPathError("nothing here")
