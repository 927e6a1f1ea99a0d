"""Property tests: the routers are result-identical to the scalar reference loops.

The routers expand their frontier through the ndarray kernels of
:mod:`repro.routing.accel` — budget pruning, cycle masking, Eq. 3
priorities, checkpointed PACE evaluation — which are designed to perform
*the same float arithmetic in the same order* as the per-element loops kept
in :mod:`tests.oracles.routing`.  These tests pin that claim
exactly: for random cyclic PACE graphs, every heuristic family and random
budgets, router and reference must return identical
:class:`~repro.routing.queries.RoutingResult`\\ s — same path, same
(bitwise) probability, same explored count, same distribution — including
when ``max_explored`` truncates the search mid-frontier.

Also here: the regression test for the unified Eq. 3 kernel
(:func:`~repro.heuristics.base.max_prob_segments`), pinning its scalar
small-support strategy bitwise equal to the vectorized one across the
``_BATCH_THRESHOLD`` boundary.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.distributions import Distribution
from repro.core.pace_graph import PaceGraph
from repro.heuristics.base import _BATCH_THRESHOLD, NoHeuristic, max_prob, max_prob_segments
from repro.heuristics.binary import PaceBinaryHeuristic
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic
from repro.network.road_network import RoadNetwork
from tests.oracles.routing import route_scalar
from repro.routing.engine import RouterSettings, create_router
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.tpaths.extraction import TPathMinerConfig, build_pace_graph
from repro.trajectories.model import Trajectory
from repro.vpaths.updated_graph import UpdatedPaceGraph

#: Every routing method with a scalar reference loop: the T-path router
#: unguided and over each heuristic family, and the V-path router guided,
#: budget-guided and unguided (T-None and V-None exercise the NoHeuristic
#: kernel path with expected-cost priorities and no early stop).
METHODS = ("T-None", "T-B-EU", "T-B-E", "T-B-P", "T-BS-60", "V-None", "V-B-P", "V-BS-60")


def _random_instance(seed: int) -> tuple[PaceGraph, UpdatedPaceGraph, int, int]:
    """A small random grid PACE graph (cyclic: all edges bidirectional)."""
    rng = random.Random(seed)
    rows, cols = 3, 4
    network = RoadNetwork(name=f"parity-{seed}")
    for row in range(rows):
        for col in range(cols):
            network.add_vertex(row * cols + col, col * 100.0, row * 100.0)
    for row in range(rows):
        for col in range(cols):
            here = row * cols + col
            if col + 1 < cols:
                network.add_edge(here, here + 1, speed_limit=50)
                network.add_edge(here + 1, here, speed_limit=50)
            if row + 1 < rows:
                network.add_edge(here, here + cols, speed_limit=50)
                network.add_edge(here + cols, here, speed_limit=50)

    trajectories = []
    source, destination = 0, rows * cols - 1
    for trip in range(40):
        walk = [source]
        current = source
        while current != destination and len(walk) < 12:
            candidates = [
                e.target
                for e in network.out_edges(current)
                if e.target not in walk
                and (e.target % cols >= current % cols)
                and (e.target // cols >= current // cols)
            ]
            if not candidates:
                break
            current = rng.choice(candidates)
            walk.append(current)
        if current != destination:
            continue
        path = network.path_from_vertex_ids(walk)
        slowness = rng.choice([1.0, 1.0, 1.4])
        costs = tuple(
            max(5.0, round((10 + 4 * rng.random()) * slowness / 5) * 5) for _ in path.edges
        )
        trajectories.append(Trajectory(trip, path, costs, departure_time=8 * 3600.0))
    pace = build_pace_graph(
        network, trajectories, TPathMinerConfig(tau=4, max_cardinality=3, resolution=5.0)
    )
    updated, _ = UpdatedPaceGraph.build(pace)
    return pace, updated, source, destination


def _route_both(
    pace: PaceGraph,
    updated: UpdatedPaceGraph,
    method: str,
    query: RoutingQuery,
    *,
    max_explored: int = 4000,
) -> tuple[RoutingResult, RoutingResult]:
    """Route ``query`` with ``method`` through the scalar reference and the router.

    The reference searches with the router's own heuristic instance (they
    are deterministic anyway; sharing just makes the test cheap).
    """
    settings = RouterSettings(max_explored=max_explored, max_budget=600.0, heuristic_sweeps=1)
    router = create_router(method, pace, updated, settings=settings)
    heuristic = router.heuristic_for(query.destination)
    scalar = route_scalar(method, pace, updated, heuristic, query, settings=settings)
    return scalar, router.route(query)


def _assert_identical(scalar: RoutingResult, batched: RoutingResult) -> None:
    """The two results are the same, bitwise — no tolerances anywhere."""
    assert batched.explored == scalar.explored
    assert batched.path == scalar.path
    assert batched.probability == scalar.probability
    if scalar.distribution is None:
        assert batched.distribution is None
    else:
        assert batched.distribution is not None
        assert np.array_equal(
            batched.distribution.values_array, scalar.distribution.values_array
        )
        assert np.array_equal(
            batched.distribution.probabilities_array, scalar.distribution.probabilities_array
        )


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    budget=st.sampled_from([45.0, 75.0, 120.0, 250.0]),
)
def test_batched_expansion_matches_scalar_on_random_graphs(seed, budget):
    """Every method, random graph, random budget: identical RoutingResults."""
    pace, updated, source, destination = _random_instance(seed)
    query = RoutingQuery(source, destination, budget=budget)
    for method in METHODS:
        scalar, batched = _route_both(pace, updated, method, query)
        _assert_identical(scalar, batched)


@pytest.mark.parametrize("method", ["T-None", "T-B-P", "T-BS-60", "V-B-P", "V-None"])
@pytest.mark.parametrize("max_explored", [1, 7, 23])
def test_batched_expansion_matches_scalar_under_truncation(method, max_explored):
    """A tiny ``max_explored`` cuts both searches at the same pop, same result."""
    pace, updated, source, destination = _random_instance(424242)
    query = RoutingQuery(source, destination, budget=150.0)
    scalar, batched = _route_both(
        pace, updated, method, query, max_explored=max_explored
    )
    _assert_identical(scalar, batched)


# --------------------------------------------------------------------------- #
# Satellite regression: the unified Eq. 3 kernel across _BATCH_THRESHOLD
# --------------------------------------------------------------------------- #
def _reference_max_prob(distribution, heuristic, vertex, budget):
    """The Eq. 3 definition, written as the plainest possible loop."""
    total = 0.0
    for cost, probability in distribution.items():
        remaining = budget - cost
        if remaining < 0:
            continue
        total += probability * heuristic.probability(vertex, float(remaining))
    return total


@pytest.mark.parametrize("support_size", list(range(1, 17)))
def test_max_prob_scalar_and_vectorized_strategies_agree_bitwise(support_size):
    """Supports 1..16 (across the threshold at 8): one kernel, one answer.

    ``max_prob`` takes the scalar strategy for a single segment at or below
    ``_BATCH_THRESHOLD`` support points and the vectorized one above; a
    two-segment call always vectorizes.  All of them — and the plain
    reference loop — must produce the same float, bit for bit, for every
    heuristic family the routers use.
    """
    assert 1 <= _BATCH_THRESHOLD < 16  # the parametrisation really straddles it
    pace, _, source, destination = _random_instance(7)
    heuristics = [
        NoHeuristic(destination),
        PaceBinaryHeuristic(pace, destination),
        BudgetSpecificHeuristic(
            pace, destination, BudgetHeuristicConfig(delta=15, max_budget=600, sweeps=1)
        ),
    ]
    budget = 80.0
    # Support straddling the budget so some outcomes are infeasible.
    distribution = Distribution.from_pairs(
        [(7.0 + 11.0 * k, 1.0 / support_size) for k in range(support_size)]
    )
    values = distribution.values_array
    probabilities = distribution.probabilities_array
    for heuristic in heuristics:
        single = max_prob(distribution, heuristic, source, budget)
        # Two identical segments force the vectorized strategy even below
        # the threshold; both lanes must reproduce the single-segment value.
        double = max_prob_segments(
            np.concatenate([values, values]),
            np.concatenate([probabilities, probabilities]),
            np.array([0, len(values), 2 * len(values)]),
            np.array([source, source]),
            heuristic,
            budget,
        )
        assert double[0] == single
        assert double[1] == single
        # The plain loop sums in a different association order than numpy's
        # reduction, so this check is semantic (tolerance of a few ulps),
        # unlike the exact pins above.
        assert single == pytest.approx(
            _reference_max_prob(distribution, heuristic, source, budget), rel=1e-12
        )
