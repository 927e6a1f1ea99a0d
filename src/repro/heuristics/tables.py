"""Compact, array-backed storage of budget-specific heuristic tables.

A heuristic table (Section 3.3.1) has one row per vertex and one column per
budget value ``δ, 2δ, ..., ηδ``.  The paper observes that each row is 0 up to
some budget ``l`` and 1 from some budget ``s`` onwards, so only the cells in
between need to be stored.  :class:`HeuristicRow` implements exactly that
compressed representation and :class:`HeuristicTable` the per-destination
collection of rows.

Rows are backed by contiguous ``float64`` NumPy arrays rather than Python
tuples: the Eq. 5 Bellman kernel in :mod:`repro.heuristics.budget` reads whole
rows as dense vectors, online routing answers batched ``probability`` queries
with one gather per successor slice (:meth:`HeuristicTable.values_at_many`),
and ``storage_bytes`` accounts the actual 8 bytes per stored cell instead of
boxed-float sizes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import HeuristicError

__all__ = ["HeuristicRow", "HeuristicTable", "columns_for_budgets"]

#: Tolerance of the ceil column rounding (relative to the budget/δ ratio).
_CEIL_EPSILON = 1e-12
#: Tolerance of the floor column rounding.  Float division makes exact grid
#: multiples land just below the integer (``0.3 / 0.1 == 2.999...96``), so the
#: ratio is nudged up before flooring — the same fix ``BudgetHeuristicConfig.eta``
#: applies to the ceil direction.
_FLOOR_EPSILON = 1e-9


def columns_for_budgets(budgets, delta: float, *, rounding: str = "ceil") -> np.ndarray:
    """Vectorized :meth:`HeuristicTable.column_for` over an array of budgets.

    Returns one 0-based-for-zero / 1-based-for-grid column index per budget:
    non-positive budgets map to column 0, positive budgets to the grid column
    selected by ``rounding`` (see :meth:`HeuristicTable.column_for`).  The
    Bellman kernel uses this to translate whole ``budget - cost`` matrices
    into gather indices in one pass.
    """
    budgets = np.asarray(budgets, dtype=float)
    ratio = budgets / delta
    if rounding == "floor":
        columns = np.floor(ratio + _FLOOR_EPSILON)
    else:
        columns = np.maximum(1.0, np.ceil(ratio - _CEIL_EPSILON))
    return np.where(budgets <= 0, 0, columns.astype(np.int64))


@dataclass(frozen=True, eq=False)
class HeuristicRow:
    """One compressed row ``U(v, ·)`` of a heuristic table.

    ``first_index`` is the 1-based column of the first stored value (the
    column of budget ``l``); columns before it are 0, columns after the last
    stored value are 1.  ``values`` is kept as a contiguous, read-only
    ``float64`` array so whole rows can be read vectorized.
    """

    first_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        array = np.asarray(self.values, dtype=float)
        if array is self.values:
            # The caller's own array: copy before freezing, so constructing a
            # row never turns someone else's buffer read-only behind their back.
            array = array.copy()
        array = np.ascontiguousarray(array)
        if array.ndim != 1:
            raise HeuristicError("row values must be a one-dimensional sequence")
        array.setflags(write=False)
        object.__setattr__(self, "values", array)
        object.__setattr__(self, "_scalar_cells", None)

    @classmethod
    def _adopt(cls, first_index: int, values: np.ndarray) -> "HeuristicRow":
        """A row over a 1-D float64 array its builder just made and hands over.

        Skips the copy and the checks of the public constructor: the array is
        frozen in place, so the caller must hold no other writable view of it.
        """
        values.setflags(write=False)
        row = object.__new__(cls)
        object.__setattr__(row, "first_index", first_index)
        object.__setattr__(row, "values", values)
        object.__setattr__(row, "_scalar_cells", None)
        return row

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeuristicRow):
            return NotImplemented
        return self.first_index == other.first_index and np.array_equal(self.values, other.values)

    def __hash__(self) -> int:
        return hash((self.first_index, self.values.tobytes()))

    def value_at_column(self, column: int) -> float:
        """``U(v, column * δ)`` for a 1-based column index."""
        offset = column - self.first_index
        if offset < 0:
            return 0.0
        cells = self._scalar_cells
        if cells is None:
            # Cached plain-float tuple: scalar lookups (the Bellman head and
            # single probability queries) read rows many times, and tuple
            # indexing is an order of magnitude cheaper than boxing one
            # ndarray element per call.
            cells = tuple(self.values.tolist())
            object.__setattr__(self, "_scalar_cells", cells)
        if offset < len(cells):
            return cells[offset]
        return 1.0

    def dense(self, eta: int) -> np.ndarray:
        """The row as a dense vector over columns ``0..eta`` (0s, cells, 1s).

        Column 0 (budget 0) is always 0 for a non-destination row, so
        non-positive residual budgets gather 0.  This is the reference
        expansion (used by tests and inspection); the Bellman kernel reads
        rows through its band-compressed view and never materialises this.
        """
        out = np.ones(eta + 1)
        out[: min(self.first_index, eta + 1)] = 0.0
        stored = min(self.values.size, max(0, eta + 1 - self.first_index))
        if stored > 0:
            out[self.first_index : self.first_index + stored] = self.values[:stored]
        return out

    def storage_cells(self) -> int:
        """The number of explicitly stored cells."""
        return int(self.values.size)


@dataclass
class HeuristicTable:
    """All rows of the budget-specific heuristic for one destination."""

    destination: int
    delta: float
    eta: int
    rows: dict[int, HeuristicRow] = field(default_factory=dict)
    #: Number of Bellman passes the builder performed (0 for loaded tables).
    sweeps_performed: int = 0
    #: Lazily flattened CSR mirror of ``rows`` for :meth:`values_at_many`
    #: (sorted vertex ids, first_index / cell-count per row, concatenated
    #: cells with a 1.0 sentinel terminating each row).  Invalidated by
    #: :meth:`set_row`; rebuilt on the next many-lookup.
    _flat: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.delta <= 0:
            raise HeuristicError("delta must be positive")
        if self.eta < 1:
            raise HeuristicError("eta must be at least 1")

    @property
    def max_budget(self) -> float:
        """The largest budget represented by the table, ``η · δ``."""
        return self.eta * self.delta

    def column_for(self, budget: float, *, rounding: str = "ceil") -> int:
        """The column used to answer a query for ``budget``.

        ``rounding="ceil"`` maps to the smallest grid value >= ``budget``:
        because rows are non-decreasing in the budget this never
        under-estimates ``U``, so admissibility is preserved for budgets
        between grid points.  ``rounding="floor"`` maps to the largest grid
        value <= ``budget``, which is how the paper's worked example
        (Table 4) evaluates the recursion and gives tighter (but potentially
        slightly under-estimating) values.

        Both directions are computed from the rounded ``budget / delta``
        ratio; plain float ``//`` misfires on fractional grids
        (``0.3 // 0.1 == 2.0``) because exact grid multiples divide to just
        below the integer.
        """
        if budget <= 0:
            return 0
        if rounding == "floor":
            return math.floor(budget / self.delta + _FLOOR_EPSILON)
        return max(1, math.ceil(budget / self.delta - _CEIL_EPSILON))

    def set_row(self, vertex: int, row: HeuristicRow) -> None:
        self.rows[vertex] = row
        self._flat = None

    def value(self, vertex: int, budget: float, *, rounding: str = "ceil") -> float:
        """``U(vertex, budget)`` with the selected grid rounding."""
        if budget < 0:
            return 0.0
        if vertex == self.destination:
            return 1.0
        if budget <= 0:
            return 0.0
        row = self.rows.get(vertex)
        if row is None:
            # Unknown vertex: fall back to the admissible (but useless) bound of 1.
            return 1.0
        column = self.column_for(budget, rounding=rounding)
        if column > self.eta:
            column = self.eta
        return row.value_at_column(column)

    def _flat_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        flat = self._flat
        if flat is None:
            ids = np.sort(np.fromiter(self.rows.keys(), dtype=np.int64, count=len(self.rows)))
            first = np.empty(len(ids), dtype=np.int64)
            sizes = np.empty(len(ids), dtype=np.int64)
            cells: list[np.ndarray] = []
            for position, vertex in enumerate(ids.tolist()):
                row = self.rows[vertex]
                first[position] = row.first_index
                sizes[position] = row.values.size
                cells.append(row.values)
                # Per-row sentinel: gathers past the stored cells read the
                # implicit 1.0 tail that follows every row's stored values.
                cells.append(np.ones(1))
            starts = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum(sizes + 1, out=starts[1:])
            values = np.concatenate(cells) if cells else np.empty(0)
            flat = (ids, first, sizes, starts[:-1], values)
            self._flat = flat
        return flat

    def values_at_many(self, vertices, budgets, *, rounding: str = "ceil") -> np.ndarray:
        """Vectorized :meth:`value` over paired (vertex, budget) arrays.

        One call answers ``U(v_k, x_k)`` for every pair, which is how the
        batched frontier kernel prices the concatenated supports of a whole
        successor slice.  Equal to :meth:`value` pair for pair.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        budgets = np.asarray(budgets, dtype=float)
        ids, first, sizes, starts, flat_values = self._flat_rows()
        columns = np.minimum(columns_for_budgets(budgets, self.delta, rounding=rounding), self.eta)
        if len(ids) == 0:
            found = np.zeros(len(vertices), dtype=bool)
            gathered = np.zeros(len(vertices))
        else:
            positions = np.searchsorted(ids, vertices)
            clipped = np.minimum(positions, len(ids) - 1)
            found = ids[clipped] == vertices
            offsets = columns - first[clipped]
            gathered = flat_values[starts[clipped] + np.clip(offsets, 0, sizes[clipped])]
            gathered = np.where(offsets < 0, 0.0, gathered)
        result = np.where(budgets > 0, gathered, 0.0)
        # Missing rows answer the admissible bound of 1 for positive budgets;
        # the destination row answers 1 for any non-negative budget.
        result = np.where(~found & (budgets > 0), 1.0, result)
        return np.where(vertices == self.destination, np.where(budgets >= 0, 1.0, 0.0), result)

    def storage_cells(self) -> int:
        """Total number of explicitly stored cells across all rows."""
        return sum(row.storage_cells() for row in self.rows.values())

    def storage_bytes(self) -> int:
        """In-memory size of the table (used for Fig. 12 / Table 9).

        Stored cells are contiguous ``float64`` (8 bytes each); every row
        additionally pays its array header and ``first_index`` bookkeeping.
        """
        cells = sum(row.values.nbytes for row in self.rows.values())
        per_row_overhead = 48  # ndarray header + first_index + dataclass slots
        return cells + per_row_overhead * len(self.rows) + sys.getsizeof(self.rows)
