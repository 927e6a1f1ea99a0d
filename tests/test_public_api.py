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

    def test_one_heuristic_codec(self):
        """Heuristics persist straight to columns; the v1 dict shapes live in legacy only."""
        from repro.persistence import codecs, heuristics, legacy
        from repro.routing.engine import RoutingEngine

        persistence = importlib.import_module("repro.persistence")
        v1_codecs = {
            "binary_heuristic_to_dict",
            "binary_heuristic_from_dict",
            "heuristic_table_to_dict",
            "heuristic_table_from_dict",
            "budget_heuristic_to_dict",
            "budget_heuristic_from_dict",
            "joint_to_dict",
            "joint_from_dict",
        }
        for name in v1_codecs | {"heuristic_entry_key"}:
            for module in (persistence, heuristics, codecs):
                assert not hasattr(module, name), (module.__name__, name)
        assert not [
            name for name in persistence.__all__
            if name.endswith(("_to_dict", "_from_dict")) and not name.startswith("distribution_")
        ]
        for module, name in (
            (heuristics, "_INFINITY_SENTINEL"),
            (codecs.ColumnDocumentReader, "checksum"),
            (RoutingEngine, "_store_entry_key"),
        ):
            assert not hasattr(module, name), name
        assert {name for name in v1_codecs if hasattr(legacy, name)} == {
            name for name in v1_codecs if name.endswith("_from_dict")
        }
        # No product module but the migrator's reader spells a v1 heuristic payload.
        src = Path(repro.__file__).parent
        spellers = set()
        for path in src.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                named = getattr(node, "id", None) or getattr(node, "attr", None)
                if named in v1_codecs or (
                    isinstance(node, ast.Constant) and node.value == "min_costs"
                ):
                    spellers.add(path.relative_to(src).as_posix())
        assert spellers == {"persistence/legacy.py"}

    def test_one_search_loop_and_one_table_builder(self):
        """No option selects a second router search loop or Bellman working memory.

        Routers read one settings object and hold no heuristics: the
        per-router config classes and the ``pin_heuristics`` switch are gone.
        Every router runs the one heap loop of ``routing/search.py``: no other
        routing module imports ``heapq``.
        """
        from repro import edgemodel, routing
        from repro.heuristics import budget
        from repro.persistence import store
        from repro.routing.engine import RouterSettings

        names = {field.name for field in dataclasses.fields(RouterSettings)}
        assert not names & {"expansion", "reevaluate_with_pace"}
        assert len(names) == 4, names
        configs = ("NaiveRouterConfig", "HeuristicRouterConfig", "VPathRouterConfig")
        for module, removed in (
            (routing, configs),
            (routing.tpath_routing, configs[1:2]),
            (routing.vpath_routing, configs[2:]),
            (edgemodel, ("EdgeRouterConfig",)),
            (edgemodel.routing, ("EdgeRouterConfig",)),
        ):
            for name in removed:
                assert not hasattr(module, name), (module.__name__, name)
        for router in (
            routing.HeuristicPaceRouter,
            routing.VPathRouter,
            edgemodel.EdgeModelRouter,
        ):
            parameters = inspect.signature(router).parameters
            assert "settings" in parameters, router
            assert not {"config", "pin_heuristics"} & set(parameters), router
        src = Path(repro.__file__).parent
        heap_users = set()
        for package in ("routing", "edgemodel"):
            for path in (src / package).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Import):
                        imported = {alias.name for alias in node.names}
                    elif isinstance(node, ast.ImportFrom):
                        imported = {node.module or ""}
                    else:
                        continue
                    if "heapq" in imported:
                        heap_users.add(path.relative_to(src).as_posix())
        assert heap_users == {"routing/search.py"}
        assert "mirror" not in inspect.signature(budget.build_heuristic_table).parameters
        for module, name in (
            (budget, "_DenseMirror"),
            (budget, "_MIRRORS"),
            (store.ArtifactStore, "artifact_path"),
        ):
            assert not hasattr(module, name), name
        reader = store.ArtifactStore._open_artifact_reader
        assert "verify" not in inspect.signature(reader).parameters

    def test_one_chain_fold_and_one_grid_rounding(self):
        """PACE evaluation has one fold; budget tables round one way, with no knob."""
        from repro.core import chain, pace_graph
        from repro.heuristics import budget, tables
        from repro.routing import accel

        for name in ("seed_chain_states", "chain_step", "finish_chain_states"):
            assert not hasattr(pace_graph.PaceGraph, name), name
        for name in ("_chain_step", "_seed_states", "_finish_states", "_FoldPlan"):
            assert not hasattr(accel, name), name
        assert not hasattr(accel.FrontierAccelerator, "fold_plan")
        assert accel.chain_step is chain.chain_step
        assert "grid_rounding" not in {
            field.name for field in dataclasses.fields(budget.BudgetHeuristicConfig)
        }
        assert not hasattr(budget.BudgetSpecificHeuristic, "grid_rounding")
        for function in (
            tables.columns_for_budgets,
            tables.HeuristicTable.column_for,
            tables.HeuristicTable.value,
            tables.HeuristicTable.values_at_many,
            budget.build_heuristic_table,
        ):
            assert "rounding" not in inspect.signature(function).parameters, function
        assert not hasattr(tables, "_FLOOR_EPSILON")

    def test_no_product_module_imports_a_scalar_reference(self):
        """The reference oracles live in ``tests/oracles``; ``src/`` never imports tests."""
        src = Path(repro.__file__).parent
        assert not [path for path in src.rglob("*.py") if "_scalar_reference" in path.name]
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
                if any(
                    name.split(".", 1)[0] == "tests"
                    or name.rsplit(".", 1)[-1] == "_scalar_reference"
                    for name in names
                ):
                    importers.add(path.relative_to(src).as_posix())
        assert not importers
        # Booting the serving surfaces never loads one either.
        code = (
            "import sys, repro, repro.cli, repro.serving; "
            "loaded = [m for m in sys.modules "
            "if m == 'tests' or m.startswith('tests.') or m.endswith('._scalar_reference')]; "
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
