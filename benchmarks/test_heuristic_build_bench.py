"""Micro-benchmark: vectorized Eq. 5 table builder vs the scalar reference.

The budget-specific heuristic build (Algorithms 3–4) is the paper's dominant
offline cost (Fig. 12, Table 9): per destination, a Bellman sweep evaluates
``U(v, x) = max_e Σ_c pdf(c) · U(z, x − c)`` for every vertex and budget
column.  This benchmark times exactly that workload on a synthetic city-scale
graph in the regime where it is expensive — a fine budget grid over
wide-spread (congestion-style) edge distributions, so rows store wide
``l``/``s`` bands instead of saturating immediately:

* a ~580-vertex arterial/residential grid city with 8–12-point edge cost
  distributions spanning 1–4x free-flow time, and
* a δ=20 grid with 150 budget columns, built once with the paper's fixed
  two sweeps and once to convergence (``sweeps=None``, where the dirty
  worklist re-sweeps only rows whose successors changed while the scalar
  reference must re-sweep everything).

The acceptance bar for the NumPy rewrite is a >= 3x speed-up over the seed's
cell-at-a-time implementation (preserved verbatim in
:mod:`tests.oracles.heuristics`) on the convergent build; in
practice the margin is far larger.  Both builders must agree cell-for-cell
before being timed.  A report with the measured timings is written to
``results/``.
"""

from __future__ import annotations

import random
import time

from repro.core.distributions import Distribution
from repro.core.edge_graph import EdgeGraph
from repro.core.pace_graph import PaceGraph
from repro.evaluation.reporting import render_report, write_report
from tests.oracles.heuristics import build_heuristic_table_scalar
from repro.heuristics.binary import PaceBinaryHeuristic
from repro.heuristics.budget import BudgetHeuristicConfig, build_heuristic_table
from repro.network.generators import GridCityConfig, generate_grid_city

#: Workload shape: the expensive corner of Fig. 12 (fine grid, wide bands).
GRID_ROWS = 24
GRID_COLS = 24
DELTA = 20.0
MAX_BUDGET = 3000.0
SPEEDUP_FLOOR = 3.0
AGREEMENT_TOLERANCE = 1e-7


def _city_scale_pace_graph() -> tuple[PaceGraph, int]:
    """A deterministic city-scale PACE graph with congestion-style edge costs."""
    network = generate_grid_city(GridCityConfig(rows=GRID_ROWS, cols=GRID_COLS, seed=11))
    rng = random.Random(99)
    weights = {}
    for edge in network.edges():
        base = max(5.0, edge.free_flow_time())
        support = rng.randint(8, 12)
        values = sorted({round(base * (1.0 + 3.0 * rng.random() ** 1.5), 1) for _ in range(support)})
        masses = [rng.random() + 0.1 for _ in values]
        total = sum(masses)
        weights[edge.edge_id] = Distribution(
            [(value, mass / total) for value, mass in zip(values, masses)]
        )
    destination = sorted(network.vertex_ids())[0]
    return PaceGraph(EdgeGraph(network, weights), tau=10), destination


def _assert_tables_agree(vectorized, scalar, network, delta: float, eta: int) -> None:
    worst = 0.0
    for vertex in network.vertex_ids():
        for column in range(0, eta + 1):
            budget = column * delta
            worst = max(worst, abs(vectorized.value(vertex, budget) - scalar.value(vertex, budget)))
    assert worst <= AGREEMENT_TOLERANCE, (
        f"vectorized and scalar Eq. 5 builders disagree by {worst:.2e} "
        f"(tolerance {AGREEMENT_TOLERANCE:.0e})"
    )


def _time(function, repeats: int = 2) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def test_heuristic_build_bench():
    pace, destination = _city_scale_pace_graph()
    binary = PaceBinaryHeuristic(pace, destination)
    network = pace.network

    rows = []
    speedups = {}
    for label, sweeps in (("2 sweeps (paper default)", 2), ("converged (sweeps=None)", None)):
        config = BudgetHeuristicConfig(delta=DELTA, max_budget=MAX_BUDGET, sweeps=sweeps)
        vectorized = build_heuristic_table(pace, destination, config, binary=binary)
        scalar = build_heuristic_table_scalar(pace, destination, config, binary=binary)
        # Same workload, same inputs: the kernels must agree before being timed.
        _assert_tables_agree(vectorized, scalar, network, DELTA, config.eta)

        vector_seconds = _time(lambda c=config: build_heuristic_table(pace, destination, c, binary=binary))
        scalar_seconds = _time(
            lambda c=config: build_heuristic_table_scalar(pace, destination, c, binary=binary)
        )
        speedup = scalar_seconds / max(vector_seconds, 1e-12)
        speedups[sweeps] = (speedup, scalar_seconds, vector_seconds)
        rows.append(
            (
                label,
                round(scalar_seconds * 1000, 1),
                round(vector_seconds * 1000, 1),
                f"{speedup:.1f}x",
                vectorized.storage_cells(),
                vectorized.sweeps_performed,
            )
        )

    report = render_report(
        f"Heuristic-build micro-benchmark: Eq. 5 Bellman sweep, "
        f"{network.num_vertices} vertices, eta={BudgetHeuristicConfig(delta=DELTA, max_budget=MAX_BUDGET).eta}",
        ("build", "scalar (ms)", "vectorized (ms)", "speedup", "stored cells", "sweeps"),
        tuple(rows),
    )
    write_report(report, "heuristic_build_bench.txt")

    speedup, scalar_seconds, vector_seconds = speedups[None]
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized Eq. 5 builder is only {speedup:.2f}x faster than the scalar seed "
        f"(expected >= {SPEEDUP_FLOOR}x on the convergent build): "
        f"scalar {scalar_seconds * 1000:.1f} ms, vectorized {vector_seconds * 1000:.1f} ms"
    )
