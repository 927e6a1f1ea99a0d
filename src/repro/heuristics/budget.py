"""Budget-specific heuristic tables (Section 3.3, Algorithms 3 and 4).

The budget-specific heuristic refines the binary heuristic by estimating, for
every vertex ``v`` and every budget ``x`` on a grid ``δ, 2δ, ..., ηδ``, an
admissible upper bound ``U(v, x)`` on the probability of reaching the
destination within ``x``:

    U(v, x) = max over outgoing elements <v, z> of
              sum_c  W(<v, z>).pdf(c) · U(z, x - c)            (Eq. 5)

where ``<v, z>`` may be an edge or a T-path.  The table is built backwards
from the destination (whose row is identically 1) with the two observations
the paper exploits: every row is 0 below the budget ``l`` implied by
``v.getMin()`` and 1 from the first budget ``s`` where the maximum reaches 1,
so only the cells in between are computed and stored.

Admissibility is maintained throughout: rows that have not been computed yet
are read through the binary heuristic (an upper bound), and every Bellman
evaluation of Eq. 5 applied to upper bounds yields an upper bound.  Because
real road networks contain cycles, the builder performs additional sweeps
that monotonically tighten the table without ever dropping below the true
probabilities.

**Per-destination setup over the element layout.**  Everything Eq. 5 reads
from the graph — each vertex's edges, T-paths and V-paths, their targets and
cost distributions — is the same for every destination, so it is read from
the graph's one cached :class:`~repro.core.layout.ElementLayout` instead of
walking ``outgoing_elements`` per build.  Per destination the builder then
derives, with array operations over the layout's slots, the vertex order by
``(getMin, id)``, each row's position and first stored column, every kept
element's successor position, the predecessor lists (multi-sweep builds
only) and the first-sweep band estimates.  Rows the builder made itself are
adopted without the public constructor's copy and checks.

**Vectorized Bellman kernel.**  :func:`build_heuristic_table` can evaluate
Eq. 5 for a whole block of budget columns of a vertex at once instead of
cell by cell.  For every outgoing element the builder computes, on first
visit of each column block and memoized for the build,

* the gather matrix ``cols[k, j] = column_of(j·δ − c_k)`` mapping each
  (support point, budget column) pair to the successor row cell it reads,
* the constant contribution vector for elements whose target is the
  destination (``Σ_k p_k · [j·δ ≥ c_k]``), and
* the constant fallback vector used while the target row does not exist yet
  (the binary bound evaluated at the exact residual ``j·δ − c_k``).

One application of Eq. 5 to a vertex row is then, per element, a single fancy
gather of the target's stored row followed by a pdf-weighted mat-vec, and the
element maximum plus the 0/1 saturation trimming back to the compressed
``l``/``s`` form are NumPy reductions.  Rows expected to be narrow start with
a scalar head instead (see ``_SCALAR_HEAD``), and which path runs depends on
the grid.  Measured on the aalborg-like city (``max_budget=2500``, one sweep,
T- and V-tables for all 100 destinations): at δ=60 all 19,800 row
evaluations end inside the scalar head, at τ=30 and at τ=50 alike, so no
column block and no :class:`_BandMirror` gather runs; at δ=10 (η=250) the
same build prepares 34,044 block gather matrices and performs 15,684 band
gathers.  The blocks and the mirror serve fine grids only.

**Band-compressed working memory.**  Gathers read the successor rows through
:class:`_BandMirror`, which answers them straight from each row's compressed
``l``/``s`` band (0 below ``l``, the stored cells, an implicit 1 tail),
lazily materialising one small padded array per row on first read — so no
dense ``V × (η+1)`` float64 matrix is ever allocated (~400 MB at 100k
vertices × η≈500, which is what kept country-scale grids out of reach).  The
row copies scale with the stored band cells, but they are not what sets the
peak: the gather offsets memoized per element (one int64 per support point
and budget column, for every block of every element) dominate it and grow
linearly with η.  On the benchmarks' aalborg-like city (τ=30, converged
sweeps, measured with the tracing of ``benchmarks/test_artifact_v2_bench.py``),
one destination's traced peak is 575 / 922 / 1559 KB at η = 250 / 500 / 1000
while its stored band cells take about 5 / 14 / 28 KB; the first build over
a graph also pays one-time work, enumerating the graph's element layout
among it, which adds about 170 KB to that build's peak.  The offsets stay
int64 because a narrower dtype would add an ``intp`` cast to every gather.
``benchmarks/test_artifact_v2_bench.py`` reports the build's peak memory;
``tests/test_heuristic_reference.py`` pins the tables to the scalar
reference builder, and the ``tiny`` recipe's δ=60 tables to a byte digest.

Sweeping is organised as a
Gauss–Seidel *dirty worklist* over vertices in increasing ``getMin`` order:
after the first full pass only rows whose successors changed are re-swept,
and the build stops as soon as a pass is a no-op — safe because Eq. 5 is
monotone, so re-evaluating a row whose inputs did not change cannot change
it.  ``BudgetHeuristicConfig.sweeps`` caps the number of passes
(``sweeps=None`` runs to the fixpoint).  The pre-rewrite cell-at-a-time
builder is preserved in :mod:`repro.heuristics._scalar_reference` as the
property-test oracle and benchmark baseline.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ConfigurationError, HeuristicError
from repro.core.layout import element_layout
from repro.heuristics.base import Heuristic
from repro.heuristics.binary import BinaryHeuristic, PaceBinaryHeuristic
from repro.heuristics.tables import (
    _CEIL_EPSILON,
    _FLOOR_EPSILON,
    HeuristicRow,
    HeuristicTable,
    columns_for_budgets,
)

__all__ = ["BudgetHeuristicConfig", "BudgetSpecificHeuristic", "build_heuristic_table"]

_ONE = 1.0 - 1e-9

#: Safety cap for ``sweeps=None``; monotone tightening stabilises long before.
_CONVERGENCE_SWEEP_CAP = 10_000


@dataclass(frozen=True)
class BudgetHeuristicConfig:
    """Parameters of the budget-specific heuristic.

    ``delta`` is the budget granularity (the paper's ``δ``, default 60),
    ``max_budget`` the largest budget the table must answer (the paper uses
    5 000 seconds), and ``sweeps`` the maximum number of backward passes over
    the vertices (the first pass reproduces Algorithms 3–4; additional passes
    tighten rows affected by cycles).  The builder stops early once a pass
    changes nothing; ``sweeps=None`` removes the cap entirely and runs the
    dirty worklist to its fixpoint.
    """

    delta: float = 60.0
    max_budget: float = 5000.0
    sweeps: int | None = 2
    grid_rounding: str = "ceil"

    def validate(self) -> None:
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")
        if self.max_budget < self.delta:
            raise ConfigurationError("max_budget must be at least delta")
        if self.sweeps is not None and self.sweeps < 1:
            raise ConfigurationError("at least one sweep is required")
        if self.grid_rounding not in ("ceil", "floor"):
            raise ConfigurationError("grid_rounding must be 'ceil' or 'floor'")

    @property
    def eta(self) -> int:
        """The number of columns of the heuristic table.

        ``eta`` is the smallest integer with ``eta * delta >= max_budget``.
        Computed from the rounded ratio rather than float ``//`` / ``%``,
        which misfire on fractional grids: ``max_budget=0.1+0.2, delta=0.1``
        has ``max_budget % delta == 4e-17`` and would grow a spurious fourth
        column.
        """
        ratio = self.max_budget / self.delta
        return max(1, math.ceil(ratio - 1e-9))


#: Rows saturate to 1 after a few stored cells on real grids (that is the
#: point of the ``l``/``s`` compression).  Rows expected to saturate within
#: ``_SCALAR_HEAD`` columns are therefore evaluated with plain scalar loops —
#: below that size NumPy's fixed per-call overhead loses to the seed's triple
#: loop, the same crossover the distribution kernel handles with its
#: ``VECTORIZE_THRESHOLD``.  The expectation comes from the row's previous
#: stored band (or, on the first sweep, the cost spread of its outgoing
#: elements relative to δ); rows expected to be wide — fine grids over wide
#: distributions, the expensive corner of Fig. 12 — run as vectorized column
#: blocks that double in size.  Either path stops at the first saturated
#: column, and both paths share the memoized per-element block data.
_SCALAR_HEAD = 4
_FIRST_BLOCK = 8


class _BandMirror:
    """Band-compressed working view of U: no dense ``V × (η+1)`` matrix.

    Per row it keeps, lazily on first gather, a padded copy of the stored
    cells framed by the implicit constants — ``[0.0, cells..., 1.0]``.  Rows'
    ``first_index`` values never change within a build, so :meth:`prepare`
    bakes the band shift and the lower clip into the memoized per-element
    gather matrices once; a gather is then one upper clip (the padded length
    tracks the band as it grows) plus one fancy-index.  Columns below the
    band land on the leading 0 (budgets under ``l``), columns above on the
    trailing 1 (budget ``s`` reached), so no dense ``V × (η+1)`` matrix is
    ever allocated.  The padded rows scale with the stored band cells; the
    offsets :meth:`prepare` returns are memoized by the caller, scale with
    η and dominate the build's peak (see the module docstring).
    """

    __slots__ = ("_first", "_cells", "_padded")

    def __init__(self, n: int, first_index: np.ndarray):
        self._first = first_index
        self._cells: list = [None] * n
        self._padded: list = [None] * n

    def prepare(self, position: int, columns: np.ndarray) -> np.ndarray:
        """Translate a grid-column matrix into memoizable band offsets."""
        return np.maximum(columns - (int(self._first[position]) - 1), 0)

    def update(self, position: int, row: HeuristicRow) -> None:
        self._cells[position] = row.values
        self._padded[position] = None  # rebuilt lazily on the next gather

    def gather(self, position: int, offsets: np.ndarray) -> np.ndarray:
        padded = self._padded[position]
        if padded is None:
            cells = self._cells[position]
            padded = np.empty(cells.size + 2)
            padded[0] = 0.0
            padded[1:-1] = cells
            padded[-1] = 1.0
            self._padded[position] = padded
        return padded[np.minimum(offsets, padded.size - 1)]


def build_heuristic_table(
    graph,
    destination: int,
    config: BudgetHeuristicConfig | None = None,
    *,
    binary: BinaryHeuristic | None = None,
) -> HeuristicTable:
    """Build the heuristic table for one destination (Algorithms 3 and 4).

    ``graph`` is any PACE-like graph exposing ``outgoing_elements`` /
    ``network`` (a :class:`~repro.core.pace_graph.PaceGraph` or an
    :class:`~repro.vpaths.updated_graph.UpdatedPaceGraph`).  Eq. 5 is
    evaluated with the batched Bellman kernel described in the module
    docstring; results match the scalar reference builder sweep for sweep.
    """
    config = config or BudgetHeuristicConfig()
    config.validate()
    binary = binary or PaceBinaryHeuristic(
        graph if not hasattr(graph, "pace_graph") else graph.pace_graph, destination
    )
    eta = config.eta
    delta = config.delta
    rounding = config.grid_rounding
    table = HeuristicTable(destination=destination, delta=delta, eta=eta)

    # Destination row: probability 1 for every budget (second observation in the paper).
    table.set_row(destination, HeuristicRow(first_index=1, values=()))

    # ---------------------------------------------------------------- #
    # Per-destination setup: array operations over the graph's layout
    # ---------------------------------------------------------------- #
    layout = element_layout(graph)
    min_costs = binary.min_cost_many(layout.vertex_ids)  # getMin per layout row
    destination_row = layout.row_of.get(destination, -1)
    rows = np.flatnonzero(min_costs < math.inf)
    rows = rows[rows != destination_row]
    # Process vertices from the destination outwards, by (getMin, id); this is
    # the FIFO expansion of Algorithm 3 collapsed into a deterministic order,
    # so that most successor rows already exist when a row is computed.
    # Layout rows run in increasing id order, so a stable sort on getMin
    # breaks ties by id.
    order_rows = rows[np.argsort(min_costs[rows], kind="stable")]
    n = len(order_rows)
    if n == 0:
        table.sweeps_performed = 0
        return table
    order = layout.vertex_ids[order_rows].tolist()
    position_of_row = np.full(len(layout.vertex_ids), -1, dtype=np.int64)
    position_of_row[order_rows] = np.arange(n)
    # A row's first stored column is the column of its getMin (``column_for``
    # with the default ceil rounding), at least 1.
    first_index_of = np.maximum(1, columns_for_budgets(min_costs[order_rows], delta))

    # The outgoing slots of every ordered vertex, position by position: each
    # position's run starts at its vertex's first layout slot.
    starts = layout.offsets[order_rows]
    counts = layout.offsets[order_rows + 1] - starts
    slot_positions = np.repeat(np.arange(n), counts)
    run_begins = np.cumsum(counts) - counts
    slots = starts[slot_positions] + np.arange(len(slot_positions)) - run_begins[slot_positions]
    target_rows = layout.target_rows[slots]
    # Successor position per slot; -1 marks an element ending at the
    # destination (its contribution is a constant in the budget column).
    # Elements whose target cannot reach the destination contribute 0 at
    # every budget, forever, and are dropped.
    target_positions = position_of_row[target_rows]
    kept = (target_rows == destination_row) | (target_positions >= 0)
    slots = slots[kept]
    slot_positions = slot_positions[kept]
    target_positions = target_positions[kept]
    min_cost_targets = np.where(target_positions < 0, 0.0, min_costs[target_rows[kept]])
    distributions = [layout.distributions[slot] for slot in slots.tolist()]

    #: Per position, its element kernels — ``(target position, support,
    #: weights, getMin(target), kernel index)`` — the plain-float tuples the
    #: scalar head iterates.  The vectorized tail reads the kernel's
    #: distribution arrays and memoized column blocks by kernel index.
    kernel_list = list(
        zip(
            target_positions.tolist(),
            [d.support for d in distributions],
            [d.probabilities for d in distributions],
            min_cost_targets.tolist(),
            range(len(distributions)),
        )
    )
    bounds = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(slot_positions, minlength=n), out=bounds[1:])
    bounds_list = bounds.tolist()
    kernels = [kernel_list[bounds_list[p] : bounds_list[p + 1]] for p in range(n)]
    blocks: list[list | None] = [None] * len(kernel_list)

    #: First-sweep estimate of each row's band width in columns: a row stays
    #: below 1 at least across the cost spread of its outgoing elements.
    spreads = (layout.dist_max[slots] - layout.dist_min[slots]) / delta
    band_estimate = np.zeros(n)
    occupied = bounds[:-1] < bounds[1:]
    if occupied.any():
        band_estimate[occupied] = np.maximum.reduceat(spreads, bounds[:-1][occupied])
    narrow_first = (band_estimate <= _SCALAR_HEAD).tolist()

    max_sweeps = config.sweeps if config.sweeps is not None else _CONVERGENCE_SWEEP_CAP
    # A single sweep needs no predecessor lists: every later row of the one
    # pass is still dirty, and no further pass reads ``next_dirty``.
    predecessors: list[list[int]] = []
    if max_sweeps > 1:
        linked = target_positions >= 0
        by_target = np.argsort(target_positions[linked], kind="stable")
        sources = slot_positions[linked][by_target].tolist()
        pred_bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(target_positions[linked], minlength=n), out=pred_bounds[1:])
        pred_bounds_list = pred_bounds.tolist()
        predecessors = [
            sources[pred_bounds_list[p] : pred_bounds_list[p + 1]] for p in range(n)
        ]

    #: Budgets of the grid columns 1..eta, exactly as the scalar loop computes them.
    budgets = np.arange(1, eta + 1) * delta

    def element_block(k: int, target: int, block_index: int, lo: int, hi: int):
        """Memoized block data of kernel ``k`` for grid columns ``lo+1..hi`` (0-based slice).

        Blocks are visited strictly in order (``compute_values`` walks them
        from 0), so at most the next block is missing; computing a later one
        first would silently backfill earlier slots with the wrong range.
        """
        kernel_blocks = blocks[k]
        if kernel_blocks is None:
            kernel_blocks = blocks[k] = []
        assert len(kernel_blocks) >= block_index, "column blocks must be visited in order"
        if len(kernel_blocks) == block_index:
            distribution = distributions[k]
            remaining = budgets[None, lo:hi] - distribution.values_array[:, None]
            if target < 0:
                # Destination target: U is 1 whenever any residual budget remains.
                kernel_blocks.append(distribution.probabilities_array @ (remaining >= 0.0))
            else:
                cols = np.minimum(
                    columns_for_budgets(remaining, delta, rounding=rounding), eta
                ).astype(np.int64, copy=False)
                # The binary fallback is only read while the target row does
                # not exist yet — rare, since successors (smaller getMin) are
                # swept first — so it is filled lazily on first use.  The
                # gather matrix is stored as band offsets, fixed per build
                # because ``first_index`` is.
                kernel_blocks.append([u_mirror.prepare(target, cols), None])
        return kernel_blocks[block_index]

    # Band-compressed working view of U for the vectorized gathers (its
    # padded rows track the stored l/s bands; the memoized gather offsets in
    # ``blocks`` grow with η and set the peak).  The compressed rows
    # themselves live in ``row_objects`` (mirroring the table) for cheap
    # scalar reads.
    u_mirror = _BandMirror(n, first_index_of)
    row_objects: list[HeuristicRow | None] = [None] * n
    first_index_list = first_index_of.tolist()

    budget_list = budgets.tolist()
    if rounding == "floor":
        def scalar_column(residual: float) -> int:
            column = math.floor(residual / delta + _FLOOR_EPSILON)
            return column if column < eta else eta
    else:
        def scalar_column(residual: float) -> int:
            column = math.ceil(residual / delta - _CEIL_EPSILON)
            if column < 1:
                column = 1
            return column if column < eta else eta

    def compute_head(position: int, stop: int) -> tuple[list[float], bool]:
        """Seed-style scalar evaluation of the first few columns of a row."""
        vertex_kernels = kernels[position]
        values: list[float] = []
        saturated = False
        for index in range(first_index_list[position] - 1, stop):
            budget = budget_list[index]
            best = 0.0
            for target, support, weights, min_cost_target, _ in vertex_kernels:
                acc = 0.0
                if target < 0:
                    for cost, weight in zip(support, weights):
                        if budget >= cost:
                            acc += weight
                elif (target_row := row_objects[target]) is not None:
                    for cost, weight in zip(support, weights):
                        residual = budget - cost
                        if residual <= 0:
                            continue
                        acc += weight * target_row.value_at_column(scalar_column(residual))
                else:
                    for cost, weight in zip(support, weights):
                        residual = budget - cost
                        if residual > 0 and residual >= min_cost_target:
                            acc += weight
                if acc > best:
                    best = acc
                    if best >= _ONE:
                        break
            values.append(min(best, 1.0))
            if best >= _ONE:
                saturated = True
                break
        return values, saturated

    def compute_values(position: int) -> np.ndarray:
        """Eq. 5 for every stored budget column of a vertex.

        Size-adaptive like the distribution kernel: rows expected to be
        narrow — previous stored band within ``_SCALAR_HEAD`` cells, or on
        their first sweep an element cost spread within ``_SCALAR_HEAD``
        columns — start with a scalar head, below which NumPy's per-call
        overhead loses to plain loops.  Rows expected to be wide skip
        straight to the vectorized blocks.  Blocks stay aligned to the row's
        ``l`` bound regardless of the head, so their memoized gather matrices
        are shared between both paths; either way evaluation stops at the
        first saturated column, keeping the work proportional to the
        compressed band the row stores.
        """
        first_index = first_index_list[position]
        previous = row_objects[position]
        if previous is None:
            expected_narrow = narrow_first[position]
        else:
            expected_narrow = previous.values.size <= _SCALAR_HEAD
        head_allow = _SCALAR_HEAD if expected_narrow else 0
        head_stop = min(eta, first_index - 1 + head_allow)
        head, saturated = compute_head(position, head_stop)
        if saturated or head_stop >= eta:
            return np.asarray(head)
        vertex_kernels = kernels[position]
        pieces: list[np.ndarray] = [np.asarray(head)] if head else []
        consumed = first_index - 1 + len(head)  # columns already evaluated
        lo = first_index - 1  # 0-based index into the 1..eta column range
        block_index = 0
        width = _FIRST_BLOCK
        while lo < eta:
            hi = min(eta, lo + width)
            best = np.zeros(hi - lo)
            for target, _, _, min_cost_target, k in vertex_kernels:
                block = element_block(k, target, block_index, lo, hi)
                if target < 0:
                    acc = block
                elif row_objects[target] is not None:
                    acc = distributions[k].probabilities_array @ u_mirror.gather(
                        target, block[0]
                    )
                else:
                    acc = block[1]
                    if acc is None:
                        distribution = distributions[k]
                        remaining = budgets[None, lo:hi] - distribution.values_array[:, None]
                        acc = distribution.probabilities_array @ (
                            (remaining > 0) & (remaining >= min_cost_target)
                        )
                        block[1] = acc
                np.maximum(best, acc, out=best)
            np.minimum(best, 1.0, out=best)
            usable = best[consumed - lo :] if consumed > lo else best
            # 0/1 saturation trimming: stop the row at the first column whose
            # maximum saturates; later columns are implicitly 1 (budget ``s``).
            saturated_at = np.flatnonzero(usable >= _ONE)
            if saturated_at.size:
                pieces.append(usable[: saturated_at[0] + 1])
                break
            pieces.append(usable)
            consumed = hi
            lo = hi
            block_index += 1
            width *= 2
        if not pieces:
            return np.empty(0)
        return np.concatenate(pieces) if len(pieces) > 1 else pieces[0]

    # ---------------------------------------------------------------- #
    # Gauss–Seidel sweeps over a dirty worklist
    # ---------------------------------------------------------------- #
    dirty = np.ones(n, dtype=bool)
    next_dirty = np.zeros(n, dtype=bool)
    sweeps_done = 0
    while sweeps_done < max_sweeps and dirty.any():
        for position in range(n):
            if not dirty[position]:
                continue
            dirty[position] = False
            values = compute_values(position)
            previous = row_objects[position]
            if previous is not None and np.array_equal(previous.values, values):
                continue
            row = HeuristicRow._adopt(first_index_list[position], values)
            u_mirror.update(position, row)
            row_objects[position] = row
            table.set_row(order[position], row)
            for predecessor in predecessors[position] if predecessors else ():
                # Predecessors later in the current pass pick the change up
                # immediately (Gauss–Seidel); earlier ones wait for the next.
                if predecessor > position:
                    dirty[predecessor] = True
                else:
                    next_dirty[predecessor] = True
        dirty, next_dirty = next_dirty, dirty
        next_dirty[:] = False
        sweeps_done += 1
    table.sweeps_performed = sweeps_done
    return table

class BudgetSpecificHeuristic(Heuristic):
    """The T-BS-δ heuristic: budget-specific probabilities from a pre-computed table."""

    def __init__(
        self,
        graph,
        destination: int,
        config: BudgetHeuristicConfig | None = None,
        *,
        binary: BinaryHeuristic | None = None,
    ):
        self._config = config or BudgetHeuristicConfig()
        self._config.validate()
        pace_graph = graph.pace_graph if hasattr(graph, "pace_graph") else graph
        self._binary = binary or PaceBinaryHeuristic(pace_graph, destination)
        start = time.perf_counter()
        self._table = build_heuristic_table(graph, destination, self._config, binary=self._binary)
        self._build_seconds = time.perf_counter() - start

    @classmethod
    def from_table(
        cls,
        table: HeuristicTable,
        *,
        binary: BinaryHeuristic,
        config: BudgetHeuristicConfig | None = None,
    ) -> "BudgetSpecificHeuristic":
        """Wrap an already built (e.g. persisted) table without rebuilding it.

        This is how :meth:`repro.routing.engine.RoutingEngine.prewarm` turns
        tables loaded from disk back into servable heuristics: online queries
        only need the table and the binary ``getMin`` map, so no Bellman sweep
        runs.
        """
        if binary.destination != table.destination:
            raise HeuristicError(
                f"binary heuristic destination {binary.destination} does not match "
                f"table destination {table.destination}"
            )
        self = object.__new__(cls)
        self._config = config or BudgetHeuristicConfig(
            delta=table.delta, max_budget=table.max_budget
        )
        self._config.validate()
        self._binary = binary
        self._table = table
        self._build_seconds = 0.0
        return self

    @property
    def destination(self) -> int:
        return self._table.destination

    @property
    def table(self) -> HeuristicTable:
        """The underlying heuristic table (exposed for inspection and storage accounting)."""
        return self._table

    @property
    def binary(self) -> BinaryHeuristic:
        """The binary heuristic supplying ``getMin`` (exposed for persistence)."""
        return self._binary

    @property
    def delta(self) -> float:
        return self._config.delta

    @property
    def grid_rounding(self) -> str:
        """How the table's cells were rounded onto the grid when built.

        ``"ceil"`` tables are admissible; ``"floor"`` tables (the paper's
        Table 4 mode) may slightly under-estimate and must not be served
        where admissibility is required.
        """
        return self._config.grid_rounding

    @property
    def build_seconds(self) -> float:
        """Wall-clock time spent building the table (Fig. 12 / Table 9)."""
        return self._build_seconds

    @property
    def sweeps_performed(self) -> int:
        """Bellman passes the dirty-worklist builder ran (0 for loaded tables)."""
        return self._table.sweeps_performed

    def min_cost(self, vertex: int) -> float:
        return self._binary.min_cost(vertex)

    def probability(self, vertex: int, remaining_budget: float) -> float:
        if vertex == self.destination:
            return 1.0 if remaining_budget >= 0 else 0.0
        if remaining_budget < self.min_cost(vertex):
            return 0.0
        # Online queries always round the residual budget up to the grid ("ceil"), which
        # keeps the heuristic admissible regardless of how the table itself was built.
        return self._table.value(vertex, remaining_budget, rounding="ceil")

    def min_cost_many(self, vertices) -> np.ndarray:
        return self._binary.min_cost_many(vertices)

    def probability_many(self, vertices, budgets) -> np.ndarray:
        """Vectorized :meth:`probability` over paired (vertex, budget) arrays."""
        budgets = np.asarray(budgets, dtype=float)
        values = self._table.values_at_many(vertices, budgets, rounding="ceil")
        return np.where(budgets < self._binary.min_cost_many(vertices), 0.0, values)

    def storage_bytes(self) -> int:
        """Table storage plus the underlying binary heuristic's getMin values."""
        return self._table.storage_bytes() + self._binary.storage_bytes() + sys.getsizeof(self)
