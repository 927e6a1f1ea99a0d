"""Offline index-construction pipeline: from raw GPS traces to a routable PACE index.

The paper's system is an offline/online split: heavy pre-computation (map
matching, cleaning, T-path mining, V-path closure, heuristic tables) buys
sub-second online routing.  This example runs the *entire* offline pipeline,
starting from simulated raw GPS observations rather than ready-made
trajectories, and reports the size and cost of every stage:

raw GPS traces -> HMM map matching -> outlier filtering -> T-path mining ->
PACE graph -> V-path closure -> per-destination heuristic tables ->
persisted artifact store -> a fresh serving engine booted from disk.

Run with::

    python examples/index_construction_pipeline.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.datasets.synthetic import tiny_dataset
from repro.routing import RouterSettings, RoutingEngine, RoutingQuery
from repro.tpaths import TPathMinerConfig, build_pace_graph
from repro.trajectories import (
    GpsSimulatorConfig,
    HmmMapMatcher,
    MapMatcherConfig,
    clean_trajectories,
    simulate_gps_traces,
)
from repro.vpaths import UpdatedPaceGraph


def stage(name: str):
    print(f"\n--- {name} ---")
    return time.perf_counter()


def done(started: float) -> None:
    print(f"    ({time.perf_counter() - started:.2f}s)")


def main() -> None:
    dataset = tiny_dataset()
    network = dataset.network
    ground_truth = list(dataset.peak)[:80]

    started = stage("1. Simulating raw GPS traces (the paper starts from 1 Hz / 0.2 Hz GPS data)")
    traces = simulate_gps_traces(
        network, ground_truth, GpsSimulatorConfig(sampling_interval=5.0, noise_sigma=10.0)
    )
    print(f"    {len(traces)} traces, {sum(len(t.points) for t in traces)} GPS points")
    done(started)

    started = stage("2. HMM map matching")
    matcher = HmmMapMatcher(network, MapMatcherConfig(candidate_radius=100.0))
    matched = []
    for trace in traces:
        try:
            result = matcher.match(trace)
        except Exception:  # noqa: BLE001 - a real pipeline logs and skips unmatchable traces
            continue
        matched.append(result.to_trajectory(network, trace))
    print(f"    matched {len(matched)} / {len(traces)} traces")
    done(started)

    started = stage("3. Outlier filtering")
    cleaned = clean_trajectories(network, matched)
    print(f"    kept {len(cleaned)} trajectories after cleaning")
    done(started)

    started = stage("4. T-path mining and PACE graph construction")
    miner = TPathMinerConfig(tau=10, max_cardinality=4, resolution=5.0)
    pace = build_pace_graph(network, cleaned, miner)
    print(f"    {pace.num_tpaths} T-paths (tau={miner.tau})")
    done(started)

    started = stage("5. V-path closure (enables stochastic-dominance pruning)")
    updated, stats = UpdatedPaceGraph.build(pace)
    print(f"    {stats.count} V-paths in {stats.rounds} rounds; "
          f"average out-degree {updated.average_out_degree():.2f}")
    done(started)

    started = stage("6. Budget-specific heuristic tables (vectorized Eq. 5 Bellman sweep)")
    destination = sorted(network.vertex_ids())[-1]
    settings = RouterSettings(max_budget=1200.0)
    offline = RoutingEngine(pace, updated, settings=settings)
    offline.prewarm("T-BS-60", [destination])
    heuristic = offline.router("T-BS-60").heuristic_for(destination)
    print(f"    table for destination {destination}: "
          f"{heuristic.table.storage_cells()} stored cells, "
          f"{heuristic.storage_bytes() / 1024:.1f} KB, built in {heuristic.build_seconds:.3f}s "
          f"({heuristic.sweeps_performed} Bellman sweeps)")
    done(started)

    started = stage("7. Persist index + heuristics and boot a fresh serving engine from disk")
    store = Path(tempfile.mkdtemp()) / "store"
    manifest = offline.save_artifacts(store)
    serving = RoutingEngine.from_artifacts(store)
    print(f"    saved {manifest.provenance['heuristic_entries']} heuristics to {store}; "
          f"fresh engine loaded {len(serving.heuristic_cache)}")
    source = sorted(network.vertex_ids())[0]
    result = serving.route(
        RoutingQuery(source=source, destination=destination, budget=600.0), method="T-BS-60"
    )
    print(f"    served {source}->{destination} without rebuilding: "
          f"P(on time) = {result.probability:.3f}, "
          f"cache misses = {serving.heuristic_cache.misses}")
    done(started)

    print("\nThe index (PACE graph + V-paths + heuristic tables) is now ready for online routing;")
    print("see examples/quickstart.py for the online side.")


if __name__ == "__main__":
    main()
