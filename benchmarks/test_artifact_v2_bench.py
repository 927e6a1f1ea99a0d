"""Benchmark: band-compressed Bellman build memory.

One destination's budget table is built over a fine, country-style budget
grid (wide ``l``/``s`` bands, the expensive corner of Fig. 12) under
``tracemalloc``.  The gate: no single step of the build — the span between
two consecutive Python call/return events, which brackets every array
creation — raises traced memory by half the size of a dense ``V × (η+1)``
float64 matrix, the working structure the band-compressed rows replaced.
(Half, because the builder's rows cover only the vertices that reach the
destination; the band build's largest step is about a tenth of it.)  A
change that brought such an allocation back fails here.  The table is built
twice: the first build over the graph also pays one-time per-graph work
(the graph's element layout and edge-element memo), the second, warm build
is the steady per-destination cost.  The report sets both builds' largest
step and whole peak next to the stored band cells and that analytic dense
size; the gate reads the first build.  The tables themselves are pinned to
the scalar reference builder by ``tests/test_heuristic_reference.py``.

The report is written to ``results/artifact_v2_bench.txt``.
"""

from __future__ import annotations

import sys
import tracemalloc

from repro.evaluation.experiments import ExperimentScale
from repro.evaluation.reporting import render_report, write_report
from repro.heuristics.budget import BudgetHeuristicConfig, build_heuristic_table
from repro.routing import RoutingEngine

#: The country-scale stress preset supplies the memory-report grid: its
#: fine δ over the city store's budgets yields η = 250 — wide l/s bands, the
#: regime the band-compressed rows exist for.  Running the preset here (on
#: the cached city graph) keeps it exercised without a minutes-long
#: country-like mine in CI; the full run is the same code path at larger V.
COUNTRY = ExperimentScale.country()


def _traced_build(pace, destination, config):
    """Build one table; return it, its traced peak and its largest single step.

    A step's rise is the traced peak within it minus the traced memory at
    its start, so an array allocated and freed inside one step still counts.
    """
    peak = largest = start = 0

    def on_event(frame, event, arg):
        nonlocal peak, largest, start
        current, step_peak = tracemalloc.get_traced_memory()
        peak = max(peak, step_peak)
        largest = max(largest, step_peak - start)
        tracemalloc.reset_peak()
        start = current

    tracemalloc.start()
    sys.setprofile(on_event)
    try:
        table = build_heuristic_table(pace, destination, config)
    finally:
        sys.setprofile(None)
        on_event(None, "end", None)
        tracemalloc.stop()
    return table, peak, largest


def test_band_memory(city_store):
    store_root, mined, _ = city_store
    origin = mined if mined is not None else RoutingEngine.from_artifacts(store_root)
    vertices = sorted(origin.pace_graph.network.vertex_ids())
    pace = origin.pace_graph
    destination = vertices[0]
    config = BudgetHeuristicConfig(
        delta=COUNTRY.delta,
        max_budget=origin.settings.max_budget,
        sweeps=COUNTRY.heuristic_sweeps,
    )
    band_table, band_peak, largest_step = _traced_build(pace, destination, config)
    warm_table, warm_peak, warm_step = _traced_build(pace, destination, config)
    assert warm_table.rows == band_table.rows
    dense_matrix_bytes = len(vertices) * (config.eta + 1) * 8

    report = render_report(
        "Band-compressed Bellman build: aalborg-like",
        ("metric", "value"),
        [
            ("memory grid (delta / eta)", f"{COUNTRY.delta:g} / {config.eta}"),
            ("band build peak, first build (KB)", round(band_peak / 1024.0, 1)),
            ("band build peak, warm build (KB)", round(warm_peak / 1024.0, 1)),
            ("largest single build step, first build (KB)", round(largest_step / 1024.0, 1)),
            ("largest single build step, warm build (KB)", round(warm_step / 1024.0, 1)),
            ("dense U matrix alone (KB)", round(dense_matrix_bytes / 1024.0, 1)),
            ("stored band cells", band_table.storage_cells()),
        ],
    )
    write_report(report, "artifact_v2_bench.txt")

    assert largest_step < dense_matrix_bytes // 2, (
        f"one step of the build allocated {largest_step} bytes, more than half a "
        f"dense V x (eta+1) matrix ({dense_matrix_bytes} bytes)"
    )
