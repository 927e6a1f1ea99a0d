"""Tests for the admissible search heuristics (binary and budget-specific)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import Distribution
from repro.core.errors import ConfigurationError, HeuristicError, UnknownVertexError
from repro.datasets.paper_example import (
    EDGE_ONLY_GET_MIN,
    PACE_GET_MIN,
    V1,
    V2,
    V3,
    V4,
    V5,
    V6,
    VD,
    VS,
)
from repro.heuristics.base import NoHeuristic, max_prob
from repro.heuristics.binary import (
    EdgeOnlyBinaryHeuristic,
    EuclideanBinaryHeuristic,
    PaceBinaryHeuristic,
)
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic, build_heuristic_table
from repro.heuristics.sptree import build_pace_shortest_path_tree
from repro.heuristics.tables import HeuristicRow, HeuristicTable


def _shuffled_pairs(vertices, budgets) -> tuple[np.ndarray, np.ndarray]:
    """Every (vertex, budget) pair, in a fixed shuffled order."""
    grid_vertices, grid_budgets = np.meshgrid(vertices, budgets, indexing="ij")
    order = np.random.default_rng(7).permutation(grid_vertices.size)
    return (
        grid_vertices.ravel()[order].astype(np.int64),
        grid_budgets.ravel()[order].astype(float),
    )


# --------------------------------------------------------------------------- #
# Budget heuristic configuration (eta grid sizing)
# --------------------------------------------------------------------------- #
class TestBudgetConfigEta:
    def test_eta_integer_grids(self):
        assert BudgetHeuristicConfig(delta=60.0, max_budget=5000.0).eta == 84
        assert BudgetHeuristicConfig(delta=60.0, max_budget=4800.0).eta == 80
        assert BudgetHeuristicConfig(delta=60.0, max_budget=60.0).eta == 1

    def test_eta_fractional_grids(self):
        """Regression: float // and % misfire on fractional deltas.

        ``max_budget = 0.1 + 0.2`` has ``max_budget % 0.1 == 4e-17``, which the
        old computation turned into a spurious fourth column.
        """
        assert BudgetHeuristicConfig(delta=0.1, max_budget=0.1 + 0.2).eta == 3
        assert BudgetHeuristicConfig(delta=0.1, max_budget=0.3).eta == 3
        assert BudgetHeuristicConfig(delta=0.1, max_budget=0.35).eta == 4
        assert BudgetHeuristicConfig(delta=0.25, max_budget=1.0).eta == 4
        assert BudgetHeuristicConfig(delta=1.1, max_budget=3.3).eta == 3

    def test_eta_covers_max_budget(self):
        for delta in (0.1, 0.25, 1.1, 7.0, 60.0):
            for steps in range(1, 12):
                config = BudgetHeuristicConfig(delta=delta, max_budget=delta * steps)
                assert config.eta == steps
                # The grid must reach the configured budget (within float noise).
                assert config.eta * delta >= config.max_budget - 1e-9 * config.max_budget


# --------------------------------------------------------------------------- #
# Base heuristic and Eq. 3
# --------------------------------------------------------------------------- #
class TestBase:
    def test_no_heuristic_is_trivially_admissible(self):
        heuristic = NoHeuristic(destination=9)
        assert heuristic.destination == 9
        assert heuristic.min_cost(3) == 0.0
        assert heuristic.probability(3, 100) == 1.0
        assert heuristic.probability(3, -1) == 0.0

    def test_max_prob_matches_paper_formula(self, paper_example):
        """Figure 4(b): maxProb = 0.9 * U(v1, 17) + 0.1 * U(v1, 15)."""
        heuristic = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        candidate = Distribution.from_pairs([(8, 0.9), (10, 0.1)])
        # v1.getMin() = 19, so both residual budgets (17 and 15) are infeasible -> 0.
        assert max_prob(candidate, heuristic, V1, 25) == pytest.approx(0.0)
        # With budget 28 only the 8-cost outcome leaves 20 >= 19, so only its 0.9 contributes.
        assert max_prob(candidate, heuristic, V1, 28) == pytest.approx(0.9)
        # With budget 29 both outcomes leave at least getMin, so the bound reaches 1.
        assert max_prob(candidate, heuristic, V1, 29) == pytest.approx(1.0)

    def test_max_prob_with_no_heuristic_is_cdf(self):
        distribution = Distribution.from_pairs([(10, 0.4), (30, 0.6)])
        assert max_prob(distribution, NoHeuristic(0), 5, 20) == pytest.approx(0.4)


# --------------------------------------------------------------------------- #
# Algorithm 2 (shortest-path tree over edges and T-paths)
# --------------------------------------------------------------------------- #
class TestSpTree:
    def test_matches_figure_6b(self, paper_example):
        tree = build_pace_shortest_path_tree(paper_example.pace_graph, VD)
        for vertex, expected in PACE_GET_MIN.items():
            assert tree.get_min(vertex) == pytest.approx(expected), vertex

    def test_prefers_tpath_costs_over_cheaper_edges(self, paper_example):
        """v5 is annotated 15 (via reversed T-path p4), not 13 (via the two edges)."""
        tree = build_pace_shortest_path_tree(paper_example.pace_graph, VD)
        assert tree.get_min(V5) == 15
        assert tree.tpath_edge_count(V5) == 2

    def test_destination_label(self, paper_example):
        tree = build_pace_shortest_path_tree(paper_example.pace_graph, VD)
        assert tree.get_min(VD) == 0

    def test_reachable_vertices(self, paper_example):
        tree = build_pace_shortest_path_tree(paper_example.pace_graph, VD)
        assert tree.reachable_vertices() == set(range(8))

    def test_unreachable_vertices_are_infinite(self, paper_example):
        # vs has no incoming edges, so with vs as "destination" nothing else can reach it.
        tree = build_pace_shortest_path_tree(paper_example.pace_graph, VS)
        assert tree.get_min(VD) == float("inf")

    def test_unknown_destination(self, paper_example):
        with pytest.raises(UnknownVertexError):
            build_pace_shortest_path_tree(paper_example.pace_graph, 99)


# --------------------------------------------------------------------------- #
# Binary heuristics
# --------------------------------------------------------------------------- #
class TestBinary:
    def test_edge_only_matches_figure_6a(self, paper_example):
        heuristic = EdgeOnlyBinaryHeuristic(paper_example.pace_graph, VD)
        for vertex, expected in EDGE_ONLY_GET_MIN.items():
            assert heuristic.min_cost(vertex) == pytest.approx(expected)

    def test_pace_variant_matches_figure_6b(self, paper_example):
        heuristic = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        for vertex, expected in PACE_GET_MIN.items():
            assert heuristic.min_cost(vertex) == pytest.approx(expected)

    def test_euclidean_is_a_lower_bound(self, paper_example):
        heuristic = EuclideanBinaryHeuristic(paper_example.network, VD)
        for vertex, expected in PACE_GET_MIN.items():
            assert heuristic.min_cost(vertex) <= expected + 1e-9

    def test_binary_probability_is_step_function(self, paper_example):
        heuristic = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        assert heuristic.probability(V1, 18.9) == 0.0
        assert heuristic.probability(V1, 19.0) == 1.0
        assert heuristic.probability(V1, 100.0) == 1.0

    def test_table5_binary_row(self, paper_example):
        """Table 5: with delta=3 the first budget where v1 becomes reachable is 21."""
        heuristic = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        columns = [3 * j for j in range(1, 13)]
        row = [heuristic.probability(V1, x) for x in columns]
        assert row == [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1]

    def test_storage_bytes_positive(self, paper_example):
        assert PaceBinaryHeuristic(paper_example.pace_graph, VD).storage_bytes() > 0

    def test_ordering_of_variants(self, paper_example):
        """T-B-EU <= T-B-E <= T-B-P pointwise: tighter variants give larger getMin."""
        euclid = EuclideanBinaryHeuristic(paper_example.network, VD)
        edge_only = EdgeOnlyBinaryHeuristic(paper_example.pace_graph, VD)
        pace = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        for vertex in range(8):
            assert euclid.min_cost(vertex) <= edge_only.min_cost(vertex) + 1e-9
            assert edge_only.min_cost(vertex) <= pace.min_cost(vertex) + 1e-9


# --------------------------------------------------------------------------- #
# Heuristic tables
# --------------------------------------------------------------------------- #
class TestTables:
    def test_row_compression_semantics(self):
        row = HeuristicRow(first_index=3, values=(0.2, 0.7))
        assert row.value_at_column(1) == 0.0
        assert row.value_at_column(2) == 0.0
        assert row.value_at_column(3) == 0.2
        assert row.value_at_column(4) == 0.7
        assert row.value_at_column(5) == 1.0
        assert row.storage_cells() == 2

    def test_table_lookup_roundings(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        table.set_row(1, HeuristicRow(first_index=2, values=(0.5,)))
        assert table.value(1, 15, rounding="ceil") == 0.5   # column 2
        assert table.value(1, 15, rounding="floor") == 0.0  # column 1
        assert table.value(1, 20) == 0.5
        assert table.value(1, 1000) == 1.0

    def test_table_destination_row_is_one(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        assert table.value(0, 0) == 1.0
        assert table.value(0, 50) == 1.0

    def test_table_unknown_vertex_defaults_to_one(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        assert table.value(42, 10) == 1.0

    def test_table_negative_budget(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        table.set_row(1, HeuristicRow(first_index=1, values=(0.5,)))
        assert table.value(1, -5) == 0.0

    def test_table_validation(self):
        with pytest.raises(HeuristicError):
            HeuristicTable(destination=0, delta=0, eta=5)
        with pytest.raises(HeuristicError):
            HeuristicTable(destination=0, delta=10, eta=0)

    def test_storage_accounting(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        table.set_row(1, HeuristicRow(first_index=1, values=(0.1, 0.2, 0.3)))
        assert table.storage_cells() == 3
        assert table.storage_bytes() > 0

    def test_storage_bytes_counts_eight_bytes_per_cell(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=100)
        table.set_row(1, HeuristicRow(first_index=1, values=tuple([0.5] * 10)))
        small = table.storage_bytes()
        table.set_row(2, HeuristicRow(first_index=1, values=tuple([0.5] * 60)))
        assert table.storage_bytes() >= small + 60 * 8

    def test_column_for_floor_fractional_grid_regression(self):
        """Regression: ``int(budget // delta)`` misfires on fractional grids.

        ``0.3 // 0.1 == 2.0`` because 0.3/0.1 divides to just below 3; the
        floor column must be computed from the rounded ratio like ``eta`` is.
        """
        table = HeuristicTable(destination=0, delta=0.1, eta=10)
        assert table.column_for(0.3, rounding="floor") == 3
        assert table.column_for(0.1 + 0.2, rounding="floor") == 3
        assert table.column_for(0.7, rounding="floor") == 7
        assert table.column_for(0.25, rounding="floor") == 2
        for steps in range(1, 11):
            assert table.column_for(steps * 0.1, rounding="floor") == steps
            assert table.column_for(steps * 0.1, rounding="ceil") == steps
        # Floor stays a floor: strictly between grid points it rounds down.
        assert table.column_for(0.35, rounding="floor") == 3
        assert table.column_for(0.05, rounding="floor") == 0
        assert table.column_for(-1.0, rounding="floor") == 0

    def test_row_values_are_read_only_arrays(self):
        row = HeuristicRow(first_index=2, values=(0.2, 0.7))
        assert isinstance(row.values, np.ndarray)
        with pytest.raises(ValueError):
            row.values[0] = 0.9

    def test_row_construction_does_not_freeze_callers_array(self):
        mine = np.array([0.1, 0.5])
        row = HeuristicRow(first_index=1, values=mine)
        mine[0] = 0.9  # the caller's buffer stays writable...
        assert row.value_at_column(1) == 0.1  # ...and the row kept its own copy

    def test_rows_stay_hashable_and_equal_by_value(self):
        row = HeuristicRow(first_index=2, values=(0.2, 0.7))
        twin = HeuristicRow(first_index=2, values=(0.2, 0.7))
        other = HeuristicRow(first_index=2, values=(0.2, 0.8))
        assert row == twin and row != other
        assert len({row, twin, other}) == 2

    def test_row_vectorized_column_lookup_matches_scalar(self):
        row = HeuristicRow(first_index=3, values=(0.2, 0.7))
        table = HeuristicTable(destination=0, delta=10.0, eta=8)
        table.set_row(1, row)
        columns = np.arange(0, 9)
        batch = table.values_at_many(np.ones(len(columns), dtype=np.int64), columns * 10.0)
        assert batch.tolist() == [row.value_at_column(int(c)) for c in columns]

    def test_row_dense_expansion(self):
        row = HeuristicRow(first_index=3, values=(0.2, 0.7))
        assert row.dense(6).tolist() == [0.0, 0.0, 0.0, 0.2, 0.7, 1.0, 1.0]
        # first_index beyond eta: all zeros.
        assert HeuristicRow(first_index=9, values=()).dense(4).tolist() == [0.0] * 5

    def test_table_values_at_many_matches_scalar(self):
        table = HeuristicTable(destination=0, delta=10.0, eta=5)
        table.set_row(1, HeuristicRow(first_index=2, values=(0.4, 0.8)))
        table.set_row(2, HeuristicRow(first_index=4, values=(0.5,)))
        budgets = [-5.0, 0.0, 3.0, 10.0, 15.0, 20.0, 25.0, 49.0, 50.0, 1000.0]
        # The destination, two stored rows and an unknown vertex, every pair
        # in one shuffled call so each answer must follow its own pair.
        vertices, pair_budgets = _shuffled_pairs([0, 1, 2, 42], budgets)
        for rounding in ("ceil", "floor"):
            batch = table.values_at_many(vertices, pair_budgets, rounding=rounding)
            assert batch.tolist() == [
                table.value(int(v), float(b), rounding=rounding)
                for v, b in zip(vertices, pair_budgets)
            ]


# --------------------------------------------------------------------------- #
# Budget-specific heuristic (Algorithms 3-4)
# --------------------------------------------------------------------------- #
class TestBudgetSpecific:
    @pytest.fixture(scope="class")
    def floor_table(self, paper_example):
        return build_heuristic_table(
            paper_example.pace_graph,
            VD,
            BudgetHeuristicConfig(delta=3, max_budget=36, sweeps=2, grid_rounding="floor"),
        )

    def test_matches_consistent_cells_of_table4(self, floor_table):
        """Rows of Table 4 that are internally consistent with Eq. 5 are reproduced exactly."""
        assert floor_table.value(V6, 6, rounding="floor") == pytest.approx(1.0)
        assert floor_table.value(V6, 3, rounding="floor") == pytest.approx(0.0)
        assert floor_table.value(V3, 9, rounding="floor") == pytest.approx(1.0)
        assert floor_table.value(V5, 15, rounding="floor") == pytest.approx(0.5)
        assert floor_table.value(V5, 18, rounding="floor") == pytest.approx(1.0)
        assert floor_table.value(V2, 15, rounding="floor") == pytest.approx(0.6)
        assert floor_table.value(V2, 18, rounding="floor") == pytest.approx(1.0)

    def test_rows_are_monotone_in_budget(self, floor_table):
        for vertex in range(8):
            values = [floor_table.value(vertex, 3 * j, rounding="floor") for j in range(1, 13)]
            assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_zero_below_getmin_one_at_max_budget(self, paper_example, floor_table):
        for vertex, get_min in PACE_GET_MIN.items():
            if get_min > 0:
                assert floor_table.value(vertex, get_min - 3, rounding="floor") == 0.0
            assert floor_table.value(vertex, 36, rounding="floor") == pytest.approx(1.0)

    def test_heuristic_admissibility_against_true_probabilities(self, paper_example):
        """U(v, x) must never under-estimate the true best on-time probability from v."""
        pace = paper_example.pace_graph
        heuristic = BudgetSpecificHeuristic(pace, VD, BudgetHeuristicConfig(delta=3, max_budget=36))
        routes_from = {
            VS: [[1, 5, 6, 8], [1, 4, 9, 10], [2, 3, 6, 8]],
            V1: [[5, 6, 8], [4, 9, 10], [4, 7, 8]],
            V2: [[9, 10], [7, 8]],
            V5: [[6, 8]],
            V4: [[3, 6, 8]],
        }
        for vertex, routes in routes_from.items():
            for budget in (12, 18, 24, 30, 36):
                best = max(
                    pace.path_cost_distribution(
                        paper_example.network.path_from_edge_ids(route)
                    ).prob_at_most(budget)
                    for route in routes
                )
                assert heuristic.probability(vertex, budget) >= best - 1e-9

    def test_budget_specific_tighter_than_binary(self, paper_example):
        """The budget-specific heuristic refines the binary one (never looser)."""
        pace = paper_example.pace_graph
        binary = PaceBinaryHeuristic(pace, VD)
        budget_specific = BudgetSpecificHeuristic(
            pace, VD, BudgetHeuristicConfig(delta=3, max_budget=36), binary=binary
        )
        for vertex in range(8):
            for budget in range(0, 39, 3):
                assert (
                    budget_specific.probability(vertex, budget)
                    <= binary.probability(vertex, budget) + 1e-9
                )

    def test_build_seconds_and_storage(self, paper_example):
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=6, max_budget=36)
        )
        assert heuristic.build_seconds >= 0
        assert heuristic.storage_bytes() > 0
        assert heuristic.delta == 6

    def test_smaller_delta_gives_no_fewer_cells(self, paper_example):
        fine = build_heuristic_table(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=3, max_budget=36)
        )
        coarse = build_heuristic_table(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=12, max_budget=36)
        )
        assert fine.storage_cells() >= coarse.storage_cells()

    def test_destination_probability_is_always_one(self, paper_example):
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=6, max_budget=36)
        )
        assert heuristic.probability(VD, 0) == 1.0
        assert heuristic.probability(VD, -1) == 0.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BudgetHeuristicConfig(delta=0).validate()
        with pytest.raises(ConfigurationError):
            BudgetHeuristicConfig(delta=10, max_budget=5).validate()
        with pytest.raises(ConfigurationError):
            BudgetHeuristicConfig(sweeps=0).validate()
        with pytest.raises(ConfigurationError):
            BudgetHeuristicConfig(grid_rounding="nearest").validate()

    def test_eta_computation(self):
        assert BudgetHeuristicConfig(delta=60, max_budget=3600).eta == 60
        assert BudgetHeuristicConfig(delta=60, max_budget=3601).eta == 61

    def test_sweeps_none_means_convergence(self, paper_example):
        config = BudgetHeuristicConfig(delta=3, max_budget=36, sweeps=None)
        config.validate()
        table = build_heuristic_table(paper_example.pace_graph, VD, config)
        assert table.sweeps_performed >= 1
        # The paper example converges immediately: the fixpoint equals sweeps=2.
        fixed = build_heuristic_table(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=3, max_budget=36, sweeps=2)
        )
        for vertex in range(8):
            for budget in range(0, 39, 3):
                assert table.value(vertex, budget) == pytest.approx(fixed.value(vertex, budget))

    @pytest.mark.parametrize("grid_rounding", ["ceil", "floor"])
    def test_probability_many_matches_scalar(self, paper_example, grid_rounding):
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph,
            VD,
            BudgetHeuristicConfig(delta=3, max_budget=36, grid_rounding=grid_rounding),
        )
        budgets = [-3.0, 0.0, 1.0, 3.0, 14.5, 18.0, 36.0, 50.0]
        # Every vertex (the destination included) plus an unknown one.
        vertices, pair_budgets = _shuffled_pairs([*range(8), VD, 42], budgets)
        batch = heuristic.probability_many(vertices, pair_budgets)
        assert batch.tolist() == [
            heuristic.probability(int(v), float(b)) for v, b in zip(vertices, pair_budgets)
        ]

    def test_binary_probability_many_matches_scalar(self, paper_example):
        heuristic = PaceBinaryHeuristic(paper_example.pace_graph, VD)
        budgets = [-1.0, 0.0, 18.9, 19.0, 100.0]
        vertices, pair_budgets = _shuffled_pairs([*range(8), VD, 42], budgets)
        batch = heuristic.probability_many(vertices, pair_budgets)
        assert batch.tolist() == [
            heuristic.probability(int(v), float(b)) for v, b in zip(vertices, pair_budgets)
        ]

    def test_max_prob_vectorized_path_matches_loop(self, paper_example):
        """Supports above the batch threshold take the vectorized maxProb path."""
        heuristic = BudgetSpecificHeuristic(
            paper_example.pace_graph, VD, BudgetHeuristicConfig(delta=3, max_budget=36)
        )
        wide = Distribution.from_pairs([(float(c), 1.0 / 12.0) for c in range(2, 26, 2)])
        assert len(wide) > 8
        for budget in (10.0, 21.0, 30.0, 60.0):
            expected = sum(
                p * heuristic.probability(V1, budget - c) for c, p in wide.items() if budget - c >= 0
            )
            assert max_prob(wide, heuristic, V1, budget) == pytest.approx(expected, abs=1e-12)
