"""One repetition of a workload, in a fresh process.

``run.py`` starts this script once per repetition with a JSON spec on stdin
and reads one JSON object from the last line of its stdout.  Starting a
fresh interpreter per repetition gives every repetition cold evaluation and
convolution memos, its own ``ru_maxrss`` and its own allocator state.  All
timing here is taken around calls into the program's public API; with
``"trace": true`` the layer wrappers of ``tracing.py`` are installed first.

Tasks: ``build_store`` (the cached store the route workloads serve),
``offline_build`` and ``route_mix`` (measured repetitions), and
``candidates`` and ``record`` (pairs and answers for ``run.py --record``).
"""

from __future__ import annotations

import gc
import json
import random
import resource
import sys
import time
from typing import Any

import config
import queries
import tracing

clock = time.perf_counter


def _recipe(spec: dict[str, Any]) -> Any:
    from repro.routing import DatasetRecipe

    return DatasetRecipe(**spec["recipe"])


def _settings(spec: dict[str, Any]) -> Any:
    from repro.routing import RouterSettings

    return RouterSettings(**spec["settings"])


def _route_all(engine: Any, items: list[list[Any]]) -> list[dict[str, Any] | None]:
    from repro.routing import RoutingQuery

    return [
        queries.answer_of(engine.route(RoutingQuery(s, d, budget=b), method=m))
        for s, d, b, m in items
    ]


def build_store(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    """Mine the route city, build every destination's tables and save the store."""
    from repro.routing.residency import heuristic_nbytes

    engine = _recipe(spec).build_engine(settings=_settings(spec))
    destinations = sorted(engine.pace_graph.network.vertex_ids())
    for method in config.TABLE_METHODS:
        engine.prewarm(method, destinations)
    engine.save_artifacts(spec["out"])
    table_bytes: dict[str, int] = {}
    for key, heuristic in engine.heuristic_cache.snapshot().items():
        destination = str(key[-1])
        table_bytes[destination] = table_bytes.get(destination, 0) + heuristic_nbytes(heuristic)
    return {"table_bytes": table_bytes, "tables": len(engine.heuristic_cache)}


def offline_build(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    """Generate the dataset, then mine -> close -> build every table -> save."""
    from repro.datasets.synthetic import dataset_by_name
    from repro.routing import RoutingEngine
    from repro.tpaths import extraction
    from repro.vpaths.updated_graph import UpdatedPaceGraph

    recipe = _recipe(spec)
    settings = _settings(spec)
    out = spec["out"]

    setup_s = []
    for _ in range(config.SETUPS):
        gc.collect()
        started = clock()
        dataset = dataset_by_name(recipe.dataset)
        trajectories = list(dataset.regime(recipe.regime))
        setup_s.append(clock() - started)

    gc.collect()
    started = clock()
    pace = extraction.build_pace_graph(
        dataset.network,
        trajectories,
        extraction.TPathMinerConfig(
            tau=recipe.tau, max_cardinality=recipe.max_cardinality, resolution=recipe.resolution
        ),
    )
    mined = clock()
    updated, _ = UpdatedPaceGraph.build(pace)
    closed = clock()
    engine = RoutingEngine(pace, updated, settings=settings, spec=recipe)
    per_budget_table = []
    by_method = dict.fromkeys(config.TABLE_METHODS, 0.0)
    destinations = sorted(dataset.network.vertex_ids())
    random.Random(spec["order_seed"]).shuffle(destinations)
    for destination in destinations:
        for method in config.TABLE_METHODS:
            before = clock()
            engine.prewarm(method, [destination])
            seconds = clock() - before
            by_method[method] += seconds
            if method != config.TABLE_METHODS[0]:
                per_budget_table.append(seconds)
    tabled = clock()
    engine.save_artifacts(out)
    saved = clock()

    trace = tracer.summary() if tracer is not None else None
    counts = {
        "tpaths": pace.num_tpaths,
        "vpaths": updated.num_vpaths,
        "tables": len(engine.heuristic_cache),
    }
    # Untimed: the golden slice, routed from the store this build wrote.
    booted = RoutingEngine.from_artifacts(out)
    answers = _route_all(booted, spec["slice"])
    return {
        "setup_s": setup_s,
        "build_s": saved - started,
        "mine_s": mined - started,
        "closure_s": closed - mined,
        "tables_s": tabled - closed,
        "binary_build_s": by_method[config.TABLE_METHODS[0]],
        "budget_build_s": sum(by_method[m] for m in config.TABLE_METHODS[1:]),
        "save_s": saved - tabled,
        "tables": len(destinations) * len(config.TABLE_METHODS),
        "per_budget_table_s": per_budget_table,
        "counts": counts,
        "answers": answers,
        "trace": trace,
    }


def route_mix(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    """Boot with every table resident, warm up, then time each measured query once."""
    from repro.routing import RoutingEngine, RoutingQuery

    boot_s = []
    for _ in range(config.SETUPS):
        engine = None
        gc.collect()
        started = clock()
        engine = RoutingEngine.from_artifacts(spec["store"], prewarm="all")
        boot_s.append(clock() - started)

    gc.collect()
    started = clock()
    engine.build_accelerators()
    accel_s = clock() - started
    warm_answers = _route_all(engine, spec["warmup"])
    warmup_s = clock() - started

    items = [(RoutingQuery(s, d, budget=b), m) for s, d, b, m in spec["queries"]]
    latencies = []
    results = []
    gc.collect()
    started = clock()
    for index, (query, method) in enumerate(items):
        if tracer is not None:
            tracer.set_request(f"q{index}")
        before = clock()
        result = engine.route(query, method=method)
        latencies.append(clock() - before)
        results.append(result)
    wall_s = clock() - started
    if tracer is not None:
        tracer.set_request(None)

    stats = engine.stats()
    return {
        "trace": tracer.summary() if tracer is not None else None,
        "setup_s": boot_s,
        "build_s": warmup_s,
        "accel_build_s": accel_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "answers": [queries.answer_of(r) for r in results],
        "warm_answers": warm_answers,
        "explored": [r.explored for r in results],
        "cache_misses": stats.cache_misses,
        "tables": stats.cache_entries,
        "counts": {
            "tpaths": engine.pace_graph.num_tpaths,
            "vpaths": engine.updated_graph.num_vpaths if engine.updated_graph else 0,
        },
    }


def record(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    """Route every candidate pair of a pool with every method (golden answers)."""
    from repro.routing import RoutingEngine

    engine = RoutingEngine.from_artifacts(spec["store"], prewarm="all")
    answers = _route_all(engine, spec["queries"])
    return {"answers": answers}


def candidates(spec: dict[str, Any], tracer: Any) -> dict[str, Any]:
    """Every routable pair of the store's city, with its least expected time."""
    from repro.routing import RoutingEngine

    engine = RoutingEngine.from_artifacts(spec["store"], prewarm="none")
    return {"pairs": queries.candidate_pairs(engine, spec["settings"]["max_budget"])}


TASKS = {
    "build_store": build_store,
    "offline_build": offline_build,
    "route_mix": route_mix,
    "record": record,
    "candidates": candidates,
}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    tracer = tracing.install(tracing.Tracer()) if spec.get("trace") else None
    result = TASKS[spec["task"]](spec, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        if result.get("trace") is None:
            result["trace"] = tracer.summary()
        tracer.dump(spec["trace_out"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
