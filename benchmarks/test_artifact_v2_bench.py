"""Benchmark: band-compressed vs dense Bellman build memory.

One destination's budget table is built over a fine, country-style budget
grid (wide ``l``/``s`` bands, the expensive corner of Fig. 12) twice: with
the historical dense ``V × (η+1)`` U mirror and with the band-compressed
mirror that replaced it.  ``tracemalloc`` peaks must show the band build
**measurably below** the dense baseline, and the two tables must agree cell
for cell (the dense path is itself pinned to the scalar oracle by
``tests/test_heuristic_reference.py``, so equality here chains band -> dense
-> scalar).

The report is written to ``results/artifact_v2_bench.txt``.
"""

from __future__ import annotations

import tracemalloc

from repro.evaluation.experiments import ExperimentScale
from repro.evaluation.reporting import render_report, write_report
from repro.heuristics.budget import BudgetHeuristicConfig, build_heuristic_table
from repro.routing import RoutingEngine

#: The country-scale stress preset supplies the memory-comparison grid: its
#: fine δ over the city store's budgets yields η = 250 — wide l/s bands, the
#: regime the band-compressed mirror exists for.  Running the preset here (on
#: the cached city graph) keeps it exercised without a minutes-long
#: country-like mine in CI; the full run is the same code path at larger V.
COUNTRY = ExperimentScale.country()


def _traced_build(pace, destination, config, mirror) -> tuple[object, int]:
    tracemalloc.start()
    try:
        table = build_heuristic_table(pace, destination, config, mirror=mirror)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return table, peak


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
    band_table, band_peak = _traced_build(pace, destination, config, "band")
    dense_table, dense_peak = _traced_build(pace, destination, config, "dense")
    assert band_table.rows.keys() == dense_table.rows.keys()
    for vertex, row in band_table.rows.items():
        assert row == dense_table.rows[vertex], f"mirrors disagree at vertex {vertex}"
    dense_matrix_bytes = len(vertices) * (config.eta + 1) * 8

    report = render_report(
        "Band-compressed Bellman build: aalborg-like",
        ("metric", "value"),
        [
            ("memory grid (delta / eta)", f"{COUNTRY.delta:g} / {config.eta}"),
            ("dense-mirror build peak (KB)", round(dense_peak / 1024.0, 1)),
            ("band-mirror build peak (KB)", round(band_peak / 1024.0, 1)),
            ("band / dense peak", round(band_peak / dense_peak, 3)),
            ("dense U matrix alone (KB)", round(dense_matrix_bytes / 1024.0, 1)),
            ("stored band cells", band_table.storage_cells()),
        ],
    )
    write_report(report, "artifact_v2_bench.txt")

    assert band_peak < dense_peak, (
        f"band-compressed build peaked at {band_peak} bytes, not below the "
        f"dense-mirror baseline's {dense_peak} bytes"
    )
