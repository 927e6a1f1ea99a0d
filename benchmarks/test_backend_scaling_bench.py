"""Benchmark: multiprocess serving throughput vs serial.

The ROADMAP's top serving item is process-based parallelism for
``route_many``: the best-first search loops are pure Python, so threads are
GIL-bound and cannot scale them — worker *processes* can.  This benchmark
drives the full serving path on a city-scale batch:

1. an engine is booted from the shared city **artifact store**
   (``aalborg-like``; mined on the spot only when no cached store exists —
   see :func:`benchmarks.conftest.city_artifact_store`), its hot-destination
   heuristics are prewarmed and saved with the index into a temporary store
   (the shared store stays read-only),
2. the parent engine is booted from that temporary store, so its spec is an
   :class:`~repro.routing.ArtifactRef` and a
   :class:`~repro.routing.ProcessBackend` pool cold-boots every worker from
   the same store — index and heuristics, verified by the graph content
   fingerprints, so workers neither re-mine nor run Bellman builds — and
3. the same destination-grouped batch is timed on the serial backend and the
   steady-state process pool (warm workers, as in a serving deployment).

Acceptance bar: the process backend must be >= 2x faster than serial
wall-clock on the batch, with results identical to serial query for query.
The timing (and the bar) only runs with >= 4 usable cores — on smaller
machines the GIL has nothing to scale across and the numbers would be noise —
but result parity is asserted wherever at least 2 cores exist (and again, at
unit scale, in ``tests/test_backends.py``).  A report with the measured
timings is written to ``results/``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.evaluation.reporting import render_report, write_report
from repro.routing import ProcessBackend, RoutingEngine

WORKERS = 4
SPEEDUP_FLOOR = 2.0
#: The search method timed: heuristic-guided but pure-Python (GIL-bound).
METHOD = "T-B-P"
QUERY_TARGET = 32
MIN_PAIR_DISTANCE = 1100.0


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def _best_of(function, repeats: int = 2) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs (noisy-neighbour tolerance on CI)."""
    best_seconds, result = float("inf"), None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best_seconds = min(best_seconds, time.perf_counter() - started)
    return best_seconds, result


def _assert_parity(serial, other, queries) -> None:
    for query, a, b in zip(queries, serial, other):
        assert b.query is query
        assert b.probability == pytest.approx(a.probability, abs=1e-12)
        assert (a.path is None) == (b.path is None)
        if a.path is not None:
            assert b.path.edges == a.path.edges


@pytest.mark.skipif(
    _usable_cpus() < 2,
    reason="process fan-out needs at least 2 usable cores to be meaningful",
)
def test_process_backend_scales_route_many(tmp_path, city_store, city_batch_factory):
    cpus = _usable_cpus()
    # Even on a fresh mine the shared store was just saved, and booting from
    # it (not reusing the mined engine) makes cache-hit and fresh runs
    # measure the same configuration.
    offline = RoutingEngine.from_artifacts(city_store[0])
    queries = city_batch_factory(
        offline,
        source_stride=5,
        destination_stride=6,
        target=QUERY_TARGET,
        min_distance=MIN_PAIR_DISTANCE,
    )
    assert len(queries) >= QUERY_TARGET // 2, "workload generation came up short"
    destinations = sorted({query.destination for query in queries})

    # Offline investment once, shared with every worker via the store.
    offline.prewarm(METHOD, destinations)
    manifest = offline.save_artifacts(tmp_path / "store")
    saved = manifest.provenance["heuristic_entries"]
    assert saved >= len(destinations)
    engine = RoutingEngine.from_artifacts(tmp_path / "store")

    serial_seconds, serial_results = _best_of(
        lambda: engine.route_many(queries, method=METHOD)
    )
    assert engine.heuristic_cache.misses == 0  # every table came from the store

    with ProcessBackend(workers=WORKERS) as backend:
        started = time.perf_counter()
        warm_up = engine.route_many(queries[:1], method=METHOD, backend=backend)
        warmup_seconds = time.perf_counter() - started
        _assert_parity(serial_results[:1], warm_up, queries[:1])

        # Best-of-3 on the measurement that gates CI: hosted runners are
        # shared, and one noisy-neighbour window must not fail the build.
        process_seconds, process_results = _best_of(
            lambda: engine.route_many(queries, method=METHOD, backend=backend), repeats=3
        )
    _assert_parity(serial_results, process_results, queries)

    process_speedup = serial_seconds / process_seconds if process_seconds else float("inf")
    rows = [
        ("serial", round(serial_seconds, 2), 1.0),
        (f"process x{WORKERS} (steady state)", round(process_seconds, 2), round(process_speedup, 2)),
    ]
    report = render_report(
        f"Backend scaling: {len(queries)} {METHOD} queries, "
        f"{len(destinations)} destinations, aalborg-like ({cpus} cores)",
        ("backend", "wall (s)", "speedup"),
        rows,
    )
    report += (
        f"\nworker warm-up (store boot, once per pool): "
        f"{warmup_seconds:.1f}s; store heuristic entries: {saved}\n"
    )
    write_report(report, "backend_scaling.txt")

    if cpus >= WORKERS:
        assert process_speedup >= SPEEDUP_FLOOR, (
            f"ProcessBackend speedup {process_speedup:.2f}x is below the "
            f"{SPEEDUP_FLOOR:.1f}x floor on {cpus} cores "
            f"(serial {serial_seconds:.2f}s vs process {process_seconds:.2f}s)"
        )
