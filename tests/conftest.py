"""Shared fixtures for the test suite.

Heavy objects (the paper's running example, a small synthetic dataset and the
models mined from it) are built once per session; individual tests treat them
as read-only.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.datasets.paper_example import build_paper_example
from repro.datasets.synthetic import tiny_dataset
from repro.routing import DatasetRecipe, RouterSettings
from repro.tpaths.extraction import TPathMinerConfig, build_edge_graph, build_pace_graph
from repro.vpaths.updated_graph import UpdatedPaceGraph


#: A format-version-1 store built by the last writer of that format (see its README).
TINY_V1_STORE = Path(__file__).parent / "fixtures" / "tiny-v1-store"


@pytest.fixture()
def copy_v1_store(tmp_path):
    """Factory copying the v1 fixture store to ``tmp_path / name``; returns the copy."""

    def _copy(name: str = "v1-store") -> Path:
        return Path(
            shutil.copytree(
                TINY_V1_STORE, tmp_path / name, ignore=shutil.ignore_patterns("README.md")
            )
        )

    return _copy


@pytest.fixture(scope="session")
def paper_example():
    """The paper's Figure 2/3 running example (network, EDGE graph, PACE graph)."""
    return build_paper_example()


@pytest.fixture(scope="session")
def small_dataset():
    """A deterministic 6x6 synthetic city with ~400 trajectories."""
    return tiny_dataset()


@pytest.fixture(scope="session")
def small_miner_config():
    """Mining configuration used for the small dataset fixtures."""
    return TPathMinerConfig(tau=20, max_cardinality=4, resolution=5.0)


@pytest.fixture(scope="session")
def small_edge_graph(small_dataset, small_miner_config):
    """EDGE model mined from the small dataset's peak trajectories."""
    return build_edge_graph(small_dataset.network, list(small_dataset.peak), small_miner_config)


@pytest.fixture(scope="session")
def small_pace_graph(small_dataset, small_miner_config):
    """PACE model mined from the small dataset's peak trajectories."""
    return build_pace_graph(small_dataset.network, list(small_dataset.peak), small_miner_config)


@pytest.fixture(scope="session")
def small_updated_graph(small_pace_graph):
    """The V-path closure of the small PACE graph."""
    updated, _ = UpdatedPaceGraph.build(small_pace_graph)
    return updated


@pytest.fixture(scope="session")
def tiny_artifact_store(tmp_path_factory):
    """A persisted tiny-city artifact store, built once per session.

    Used by the serving-tier tests: servers (and their process-pool workers)
    boot from this store in milliseconds.  Treat it as READ-ONLY — tests that
    mutate the store (hot-reload scenarios) must copy it first.
    """
    root = tmp_path_factory.mktemp("serving-store") / "store"
    engine = DatasetRecipe(dataset="tiny", regime="peak", tau=20).build_engine(
        settings=RouterSettings(max_budget=900.0, max_explored=2000)
    )
    engine.save_artifacts(root, provenance={"builder": "tests"})
    return root
