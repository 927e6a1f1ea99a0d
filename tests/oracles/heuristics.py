"""Scalar reference implementation of the Eq. 5 heuristic-table builder.

This module preserves the original pure-Python semantics of
:func:`repro.heuristics.budget.build_heuristic_table` — one Bellman cell at a
time: per budget column, per outgoing element, per support point — from before
the vectorized NumPy rewrite.  It exists for two reasons:

* the property-based tests in ``tests/test_heuristic_reference.py`` check
  that the vectorized kernel agrees with this (much simpler,
  obviously-correct) implementation on random graphs, fractional ``δ`` grids
  and cyclic graphs,
* the micro-benchmark in ``benchmarks/test_heuristic_build_bench.py``
  measures the vectorized kernel's speed-up against it on a synthetic
  city-scale build, and
* ``tests/test_heuristics.py`` reproduces the paper's Table 4 with it.  The
  paper's worked example reads residual budgets at the largest grid value
  below them (``rounding="floor"``), which may under-estimate ``U``; the
  package only builds and serves admissible ``"ceil"`` tables, so the floor
  rounding lives here alone (:func:`column_for`, :func:`table_value`).

Like the vectorized builder it performs Gauss–Seidel sweeps in increasing
``getMin`` order; ``config.sweeps`` fixes the number of passes, and
``config.sweeps=None`` keeps sweeping until a full pass changes nothing (the
fixpoint the dirty-worklist builder converges to).
"""

from __future__ import annotations

import math

from repro.heuristics.binary import BinaryHeuristic, PaceBinaryHeuristic
from repro.heuristics.tables import HeuristicRow, HeuristicTable

__all__ = ["build_heuristic_table_scalar", "column_for", "table_value"]

_ONE = 1.0 - 1e-9

#: Tolerance of the floor column rounding.  Float division makes exact grid
#: multiples land just below the integer (``0.3 / 0.1 == 2.999...96``), so the
#: ratio is nudged up before flooring.
_FLOOR_EPSILON = 1e-9

#: Safety cap for ``sweeps=None``; monotone tightening stabilises long before.
_CONVERGENCE_SWEEP_CAP = 10_000


def build_heuristic_table_scalar(
    graph,
    destination: int,
    config=None,
    *,
    binary: BinaryHeuristic | None = None,
    rounding: str = "ceil",
) -> HeuristicTable:
    """The seed's cell-at-a-time Eq. 5 builder, kept as a reference oracle.

    ``rounding`` selects how a residual budget is read off the successor's
    row (see :func:`column_for`); ``"ceil"`` is what the package builds.
    """
    from repro.heuristics.budget import BudgetHeuristicConfig

    config = config or BudgetHeuristicConfig()
    config.validate()
    binary = binary or PaceBinaryHeuristic(
        graph if not hasattr(graph, "pace_graph") else graph.pace_graph, destination
    )
    eta = config.eta
    delta = config.delta
    table = HeuristicTable(destination=destination, delta=delta, eta=eta)

    network = graph.network
    # Destination row: probability 1 for every budget (second observation in the paper).
    table.set_row(destination, HeuristicRow(first_index=1, values=()))

    # Process vertices from the destination outwards (by increasing getMin); this is the
    # FIFO expansion of Algorithm 3 collapsed into a deterministic order, so that most
    # successor rows already exist when a row is computed.
    reachable = [
        (binary.min_cost(v), v)
        for v in network.vertex_ids()
        if v != destination and binary.min_cost(v) < float("inf")
    ]
    reachable.sort()

    def value_of(vertex: int, budget: float) -> float:
        """U(vertex, budget) from the table, falling back to the binary bound."""
        if vertex == destination:
            # Arriving exactly on budget counts (Prob(cost <= B)), so 0 remaining is fine.
            return 1.0 if budget >= 0 else 0.0
        if budget <= 0:
            return 0.0
        row = table.rows.get(vertex)
        if row is None:
            return binary.probability(vertex, budget)
        column = min(column_for(table, budget, rounding), eta)
        return row.value_at_column(column)

    def compute_row(vertex: int) -> HeuristicRow:
        """One application of Eq. 5 for every budget column of ``vertex`` (Algorithm 4)."""
        get_min = binary.min_cost(vertex)
        first_index = max(1, table.column_for(get_min))
        elements = graph.outgoing_elements(vertex)
        values: list[float] = []
        for column in range(first_index, eta + 1):
            budget = column * delta
            best = 0.0
            for element in elements:
                acc = 0.0
                for cost, probability in element.distribution.items():
                    remaining = budget - cost
                    if remaining < 0:
                        continue
                    acc += probability * value_of(element.target, remaining)
                if acc > best:
                    best = acc
                    if best >= _ONE:
                        break
            values.append(min(best, 1.0))
            if best >= _ONE:
                break
        return HeuristicRow(first_index=first_index, values=tuple(values))

    max_sweeps = config.sweeps if config.sweeps is not None else _CONVERGENCE_SWEEP_CAP
    sweeps_done = 0
    for _ in range(max_sweeps):
        changed = False
        for _, vertex in reachable:
            row = compute_row(vertex)
            if table.rows.get(vertex) != row:
                changed = True
            table.set_row(vertex, row)
        sweeps_done += 1
        if config.sweeps is None and not changed:
            break
    table.sweeps_performed = sweeps_done
    return table


def column_for(table: HeuristicTable, budget: float, rounding: str = "ceil") -> int:
    """:meth:`HeuristicTable.column_for` with a selectable grid rounding.

    ``"ceil"`` maps to the smallest grid value >= ``budget`` (the package's
    admissible lookup); ``"floor"`` to the largest grid value <= ``budget``,
    which is how the paper's worked example (Table 4) evaluates the
    recursion: tighter, but it may under-estimate ``U``.  Both are computed
    from the rounded ``budget / delta`` ratio, since plain float ``//``
    misfires on fractional grids (``0.3 // 0.1 == 2.0``).
    """
    if rounding == "ceil":
        return table.column_for(budget)
    if rounding != "floor":
        raise ValueError(f"rounding must be 'ceil' or 'floor', got {rounding!r}")
    if budget <= 0:
        return 0
    return math.floor(budget / table.delta + _FLOOR_EPSILON)


def table_value(table: HeuristicTable, vertex: int, budget: float, rounding: str = "ceil") -> float:
    """:meth:`HeuristicTable.value` with a selectable grid rounding (see :func:`column_for`)."""
    if rounding == "ceil":
        return table.value(vertex, budget)
    if budget < 0:
        return 0.0
    if vertex == table.destination:
        return 1.0
    if budget <= 0:
        return 0.0
    row = table.rows.get(vertex)
    if row is None:
        return 1.0
    return row.value_at_column(min(column_for(table, budget, rounding), table.eta))
