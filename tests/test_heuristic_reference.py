"""Property tests: the vectorized Eq. 5 builder agrees with the scalar oracle.

:func:`repro.heuristics.budget.build_heuristic_table` evaluates Eq. 5 as a
batched NumPy Bellman kernel over lazily evaluated column blocks with a
dirty-worklist sweep schedule; the seed's cell-at-a-time implementation is
preserved in :mod:`tests.oracles.heuristics`.  Both are Gauss–Seidel
iterations in the same deterministic vertex order, so for any sweep budget —
including ``sweeps=None`` (run to the fixpoint) — their tables must agree at
every (vertex, grid budget) cell up to floating-point summation noise.

The graphs exercised here include random directed graphs with cycles
(multi-sweep convergence), random T-paths on top of the edges, fractional
``δ`` grids, and the mined PACE model of the synthetic test city.

:class:`TestTableBytesPinned` additionally pins the exact bytes of every
T-BS-60 and V-BS-60 table of the ``tiny`` recipe, so a change to how the
builder is set up or scheduled cannot move a single bit of a table.
"""

from __future__ import annotations

import hashlib
import random
import struct

import numpy as np
import pytest

from repro.core.distributions import Distribution
from repro.core.edge_graph import EdgeGraph
from repro.core.joint import JointDistribution
from repro.core.pace_graph import PaceGraph
from tests.oracles.heuristics import build_heuristic_table_scalar
from repro.heuristics.binary import PaceBinaryHeuristic
from repro.heuristics.budget import BudgetHeuristicConfig, build_heuristic_table
from repro.network.road_network import RoadNetwork
from repro.routing import DatasetRecipe, RouterSettings

#: Numpy dot products and the scalar accumulation loop round differently; at
#: a fixpoint the saturation threshold can additionally flip a 1-ulp-sized
#: difference into stored-vs-implicit-1 cells, so agreement is asserted to a
#: tolerance rather than bit-exactly.
TOLERANCE = 1e-7


def _random_pace_graph(seed: int, *, cost_grid: float) -> tuple[PaceGraph, int]:
    """A small random directed graph with cycles, random weights and T-paths."""
    rng = random.Random(seed)
    network = RoadNetwork(name=f"random-{seed}")
    n = rng.randint(7, 12)
    for vertex in range(n):
        network.add_vertex(vertex, x=rng.uniform(0, 1000), y=rng.uniform(0, 1000))
    # A ring keeps everything connected (and cyclic); chords add shortcuts and
    # extra cycles.
    for vertex in range(n):
        network.add_edge(vertex, (vertex + 1) % n)
    for _ in range(2 * n):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b and not network.has_edge_between(a, b):
            network.add_edge(a, b)

    def random_distribution() -> Distribution:
        support = rng.randint(1, 4)
        values = sorted({cost_grid * rng.randint(1, 12) for _ in range(support)})
        masses = [rng.random() + 0.1 for _ in values]
        total = sum(masses)
        return Distribution([(v, m / total) for v, m in zip(values, masses)])

    weights = {edge.edge_id: random_distribution() for edge in network.edges()}
    pace = PaceGraph(EdgeGraph(network, weights), tau=5)

    # Random 2-edge T-paths with independent per-edge joints.
    edges = list(network.edges())
    for _ in range(n // 2):
        first = rng.choice(edges)
        outgoing = network.out_edges(first.target)
        if not outgoing:
            continue
        second = rng.choice(outgoing)
        if second.target == first.source:  # Path requires simple vertex sequences
            continue
        path = network.path_from_edge_ids([first.edge_id, second.edge_id])
        if pace.has_tpath(path.edges):
            continue
        marginal_a = random_distribution()
        marginal_b = random_distribution()
        outcomes = {
            (va, vb): pa * pb
            for va, pa in marginal_a.items()
            for vb, pb in marginal_b.items()
        }
        pace.add_tpath(path, JointDistribution(path.edges, outcomes), support=5)
    destination = rng.randrange(n)
    return pace, destination


def _assert_tables_agree(pace, destination, config, *, context: str) -> None:
    binary = PaceBinaryHeuristic(pace, destination)
    vectorized = build_heuristic_table(pace, destination, config, binary=binary)
    scalar = build_heuristic_table_scalar(pace, destination, config, binary=binary)
    assert set(vectorized.rows) == set(scalar.rows), context
    for vertex in pace.network.vertex_ids():
        for column in range(0, config.eta + 2):
            budget = column * config.delta
            got = vectorized.value(vertex, budget)
            expected = scalar.value(vertex, budget)
            assert got == pytest.approx(expected, abs=TOLERANCE), (
                f"{context}: U({vertex}, {budget}) = {got} != {expected}"
            )
    # Off-grid budgets must agree as well (they read the same columns).
    for vertex in pace.network.vertex_ids():
        for column in range(1, config.eta + 1, 3):
            budget = (column - 0.5) * config.delta
            got = vectorized.value(vertex, budget)
            expected = scalar.value(vertex, budget)
            assert got == pytest.approx(expected, abs=TOLERANCE), context


class TestVectorizedAgainstScalarReference:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_cyclic_graphs_fixed_sweeps(self, seed):
        pace, destination = _random_pace_graph(seed, cost_grid=1.0)
        for sweeps in (1, 2):
            config = BudgetHeuristicConfig(delta=3.0, max_budget=36.0, sweeps=sweeps)
            _assert_tables_agree(pace, destination, config, context=f"seed={seed} sweeps={sweeps}")

    @pytest.mark.parametrize("seed", range(4))
    def test_random_cyclic_graphs_converged(self, seed):
        """Multi-sweep convergence: both builders reach the same fixpoint."""
        pace, destination = _random_pace_graph(seed, cost_grid=1.0)
        config = BudgetHeuristicConfig(delta=2.0, max_budget=30.0, sweeps=None)
        _assert_tables_agree(pace, destination, config, context=f"seed={seed} converged")

    @pytest.mark.parametrize("seed", range(4))
    def test_fractional_delta_grids(self, seed):
        """Fractional δ over fractional costs: column rounding must not drift."""
        pace, destination = _random_pace_graph(seed + 100, cost_grid=0.1)
        config = BudgetHeuristicConfig(delta=0.3, max_budget=3.6, sweeps=2)
        _assert_tables_agree(pace, destination, config, context=f"seed={seed} fractional")

    def test_mined_pace_graph(self, small_pace_graph):
        """The mined synthetic city (real T-paths, cycles), fixed and convergent sweeps."""
        destination = sorted(small_pace_graph.network.vertex_ids())[-1]
        for sweeps in (2, None):
            config = BudgetHeuristicConfig(delta=30.0, max_budget=600.0, sweeps=sweeps)
            _assert_tables_agree(
                small_pace_graph, destination, config, context=f"city sweeps={sweeps}"
            )

    def test_convergence_stops_and_tightens(self):
        """sweeps=None reaches a fixpoint no looser than any fixed sweep count."""
        pace, destination = _random_pace_graph(3, cost_grid=1.0)
        binary = PaceBinaryHeuristic(pace, destination)
        fixed = build_heuristic_table(
            pace, destination, BudgetHeuristicConfig(delta=2.0, max_budget=30.0, sweeps=2),
            binary=binary,
        )
        converged = build_heuristic_table(
            pace, destination, BudgetHeuristicConfig(delta=2.0, max_budget=30.0, sweeps=None),
            binary=binary,
        )
        assert converged.sweeps_performed >= 1
        for vertex in pace.network.vertex_ids():
            for column in range(0, 16):
                budget = column * 2.0
                assert converged.value(vertex, budget) <= fixed.value(vertex, budget) + 1e-12

        # Rebuilding from the converged state must be a no-op after one check pass.
        again = build_heuristic_table(
            pace, destination, BudgetHeuristicConfig(delta=2.0, max_budget=30.0, sweeps=None),
            binary=binary,
        )
        for vertex in pace.network.vertex_ids():
            for column in range(0, 16):
                assert again.value(vertex, column * 2.0) == converged.value(vertex, column * 2.0)


#: blake2b-128 over every T-BS-60 and V-BS-60 table of the ``tiny`` recipe
#: (τ=20, ``max_budget=900``), one sweep and converged; see ``_tables_digest``.
#: At δ=60 every tiny-city row ends inside the builder's scalar head, so the
#: digest is plain Python float arithmetic and does not depend on the BLAS.
TINY_BS60_TABLES_DIGEST = "e0afd5ccacd5da12f19e916873be2147"


def _tables_digest(delta: float) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for sweeps in (1, None):
        engine = DatasetRecipe(dataset="tiny", regime="peak", tau=20).build_engine(
            settings=RouterSettings(max_budget=900.0, heuristic_sweeps=sweeps)
        )
        destinations = sorted(engine.pace_graph.network.vertex_ids())
        for family, graph in (("T", engine.pace_graph), ("V", engine.updated_graph)):
            engine.prewarm(f"{family}-BS-{delta:g}", destinations)
            fingerprint = graph.content_fingerprint()
            tables = {
                key[-1]: heuristic.table
                for key, heuristic in engine.heuristic_cache.snapshot().items()
                if key[0] == "budget" and key[2] == fingerprint
            }
            assert sorted(tables) == destinations
            for destination in destinations:
                table = tables[destination]
                digest.update(
                    struct.pack(
                        "<qdqq", table.destination, table.delta, table.eta, table.sweeps_performed
                    )
                )
                for vertex in sorted(table.rows):
                    row = table.rows[vertex]
                    digest.update(struct.pack("<qqq", vertex, row.first_index, row.values.size))
                    digest.update(np.ascontiguousarray(row.values, dtype="<f8").tobytes())
    return digest.hexdigest()


class TestTableBytesPinned:
    def test_tiny_recipe_bs60_tables_are_byte_identical(self):
        assert _tables_digest(60.0) == TINY_BS60_TABLES_DIGEST
