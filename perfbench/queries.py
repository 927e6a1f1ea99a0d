"""Golden query pools: how they are generated, drawn from and checked.

A pool is generated once over a built store (``run.py --record``) and
committed under ``golden/`` with every method's answer.  Each pair carries
its stratum (short / medium / long by the expected time of its
least-expected-time path), its budget level and a cost rank ordered by the
recorded ``explored`` counts, which repeat exactly across processes.

A run measures a fixed selection of the pool, spread evenly over its cost
ranks (the whole pool once ``--seconds`` asks for that many pairs), and
issues it in one fixed order.  ``--seed`` decides which pairs share a
process.  Neither the selection nor the order depends on the seed: search
work is dominated by a few expensive queries (the costliest tenth of the
city pool explores 53% of its candidates), and an expensive query costs
less when earlier queries in its process already filled the memos it
needs, so a fresh sample or a fresh order per seed would add noise of its
own to the machine's.  A fixed set also makes ``explored`` counts repeat
exactly across runs.  Warm-up pairs come from a separate part of the pool
and are never measured.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Any

import config

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def golden_path(scale: str) -> Path:
    return GOLDEN_DIR / f"{scale}.json"


def load_golden(scale: str) -> dict[str, Any]:
    with open(golden_path(scale), encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------- #
# Generation (record time only; runs never regenerate pools)
# --------------------------------------------------------------------------- #
def candidate_pairs(engine: Any, max_budget: float) -> list[tuple[int, int, float]]:
    """Every routable ``(source, destination, least expected time)`` of the store's city."""
    from repro.network.algorithms import single_source_costs

    network = engine.pace_graph.network
    edge_graph = engine.pace_graph.edge_graph

    def expected(edge: Any) -> float:
        return edge_graph.expected_cost(edge.edge_id)

    ceiling = max_budget / max(config.BUDGET_FRACTIONS)
    pairs = []
    for source in sorted(network.vertex_ids()):
        costs = single_source_costs(network, source, expected)
        for destination in sorted(costs):
            cost = costs[destination]
            if destination != source and config.MIN_EXPECTED_TIME <= cost <= ceiling:
                pairs.append((source, destination, cost))
    return pairs


def stratified_pairs(
    candidates: list[tuple[int, int, float]], count: int, rng: random.Random
) -> list[dict[str, Any]]:
    """``count`` pairs spread evenly over the strata, budget levels cycling within each."""
    ordered = sorted(candidates, key=lambda c: (c[2], c[0], c[1]))
    per_stratum = math.ceil(count / len(config.STRATA))
    chosen: list[dict[str, Any]] = []
    for index, stratum in enumerate(config.STRATA):
        lo = index * len(ordered) // len(config.STRATA)
        hi = (index + 1) * len(ordered) // len(config.STRATA)
        picks = rng.sample(ordered[lo:hi], min(per_stratum, hi - lo))
        for slot, (source, destination, cost) in enumerate(picks):
            fraction = config.BUDGET_FRACTIONS[slot % len(config.BUDGET_FRACTIONS)]
            chosen.append(
                {
                    "source": source,
                    "destination": destination,
                    "budget": round(cost * fraction, 3),
                    "stratum": stratum,
                    "fraction": fraction,
                    "expected_time": round(cost, 3),
                }
            )
    return chosen


def answer_of(result: Any) -> dict[str, Any] | None:
    """The recorded form of a routing result (``None`` when no path was found)."""
    if result.path is None:
        return None
    return {
        "edges": [int(e) for e in result.path.edges],
        "probability": float(result.probability),
        "explored": int(result.explored),
    }


def rank_costs(pool: list[dict[str, Any]]) -> None:
    """Label each pair with its cost rank (0 = cheapest) by total recorded explored."""
    order = sorted(
        range(len(pool)),
        key=lambda i: (
            sum(a["explored"] for a in pool[i]["answers"].values()),
            pool[i]["expected_time"],
            pool[i]["source"],
            pool[i]["destination"],
        ),
    )
    for rank, index in enumerate(order):
        pool[index]["cost_rank"] = rank


def write_golden(path: Path, golden: dict[str, Any]) -> None:
    """Write a golden record with one pool pair per line, so re-records diff readably."""
    lines = []
    for key, value in golden.items():
        if key in ("warmup", "pool"):
            rows = ",\n    ".join(json.dumps(p, sort_keys=True) for p in value)
            lines.append(f'  "{key}": [\n    {rows}\n  ]')
        else:
            lines.append(f'  "{key}": {json.dumps(value, sort_keys=True)}')
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


# --------------------------------------------------------------------------- #
# Drawing a run's pairs
# --------------------------------------------------------------------------- #
def select(pool: list[dict[str, Any]], count: int) -> list[dict[str, Any]]:
    """``count`` pairs of ``pool`` spread evenly over its cost ranks (the whole pool at most)."""
    ordered = sorted(pool, key=lambda p: int(p["cost_rank"]))
    count = min(count, len(ordered))
    return [ordered[(2 * i + 1) * len(ordered) // (2 * count)] for i in range(count)]


def split(pairs: list[dict[str, Any]], parts: int, seed: int) -> list[list[dict[str, Any]]]:
    """Deal ``pairs`` over ``parts`` processes, each getting the same cost mix.

    Every run of ``parts`` consecutive cost ranks gives one pair to each
    process, the seed deciding which; each process keeps the pairs in the
    order they were given.
    """
    rng = random.Random(seed)
    by_cost = sorted(pairs, key=lambda p: -int(p["cost_rank"]))
    shares: list[list[dict[str, Any]]] = [[] for _ in range(parts)]
    for start in range(0, len(by_cost), parts):
        group = by_cost[start : start + parts]
        for pair, slot in zip(group, rng.sample(range(parts), len(group))):
            shares[slot].append(pair)
    position = {id(pair): index for index, pair in enumerate(pairs)}
    return [sorted(share, key=lambda p: position[id(p)]) for share in shares]


def expand(pairs: list[dict[str, Any]]) -> list[list[Any]]:
    """Each pair once per method, methods in their fixed order."""
    return [
        [int(p["source"]), int(p["destination"]), float(p["budget"]), method]
        for p in pairs
        for method in config.METHODS
    ]


def check(expected: dict[str, Any] | None, actual: dict[str, Any] | None) -> bool:
    """Whether an answer matches its golden record (edges exact, probability within tolerance)."""
    if expected is None or actual is None:
        return expected is None and actual is None
    return (
        list(expected["edges"]) == list(actual["edges"])
        and abs(float(expected["probability"]) - float(actual["probability"]))
        <= config.PROBABILITY_TOLERANCE
    )
