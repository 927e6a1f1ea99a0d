"""Fleet scenario: schedule deliveries so they arrive within their time budgets.

The paper motivates stochastic routing with logistics providers (PostNord,
FlexDanmark) that must maximise the number of deliveries arriving within a
promised window.  This example simulates that workflow:

* a dispatcher has a list of deliveries, each with an origin depot, a customer
  location and a promised delivery window (the travel-cost budget),
* for every delivery the stochastic router (V-BS-60) finds the path with the
  highest on-time probability, while a conventional router picks the path
  with the least expected travel time, and
* the dispatcher compares the two plans: expected on-time rate and which
  deliveries become risky under the conventional plan.

Run with::

    python examples/fleet_on_time_delivery.py
"""

from __future__ import annotations

import random

from repro.datasets.synthetic import aalborg_like
from repro.network.algorithms import shortest_path
from repro.routing import RouterSettings, RoutingEngine, RoutingQuery
from repro.tpaths import TPathMinerConfig, build_edge_graph, build_pace_graph
from repro.vpaths import UpdatedPaceGraph


def main() -> None:
    dataset = aalborg_like(scale=0.5)
    network = dataset.network
    peak_trips = list(dataset.peak)
    miner = TPathMinerConfig(tau=20, max_cardinality=4, resolution=5.0)
    pace = build_pace_graph(network, peak_trips, miner)
    edge_graph = build_edge_graph(network, peak_trips, miner)
    updated, _ = UpdatedPaceGraph.build(pace)
    engine = RoutingEngine(pace, updated, settings=RouterSettings(max_budget=3000.0))

    # Deliveries: depot -> customer pairs drawn from observed trips, with budgets set to
    # 110% of the least expected travel time (a tight but realistic promise).
    rng = random.Random(11)
    candidate_pairs = sorted({(t.path.source, t.path.target) for t in peak_trips if t.num_edges >= 4})
    rng.shuffle(candidate_pairs)
    deliveries = candidate_pairs[:8]

    # The whole manifest goes to the engine as one batch: queries are grouped by
    # destination so each customer's heuristic table is built exactly once.
    plans = []
    for depot, customer in deliveries:
        expected_path, expected_time = shortest_path(
            network, depot, customer, lambda e: edge_graph.expected_cost(e.edge_id)
        )
        plans.append((expected_path, expected_time * 1.1))
    # SerialBackend is the default; for engines with a spec (a DatasetRecipe or
    # an artifact-store ArtifactRef) swap in ProcessBackend to scale the
    # manifest across cores (see examples/batch_serving.py).
    results = engine.route_many(
        [
            RoutingQuery(depot, customer, budget=budget)
            for (depot, customer), (_, budget) in zip(deliveries, plans)
        ],
        method="V-BS-60",
    )

    print(f"{'delivery':>10} | {'budget (min)':>12} | {'P(on time) stochastic':>22} | "
          f"{'P(on time) fastest-expected':>27}")
    stochastic_total, conventional_total = 0.0, 0.0
    for index, (result, (expected_path, budget)) in enumerate(zip(results, plans)):
        conventional_probability = pace.path_cost_distribution(expected_path).prob_at_most(budget)
        stochastic_probability = result.probability if result.found else 0.0
        stochastic_total += stochastic_probability
        conventional_total += conventional_probability
        print(f"{index:>10} | {budget / 60:>12.1f} | {stochastic_probability:>22.3f} | "
              f"{conventional_probability:>27.3f}")

    count = len(deliveries)
    print("-" * 80)
    print(f"expected on-time deliveries (stochastic plan):    {stochastic_total:.2f} / {count}")
    print(f"expected on-time deliveries (conventional plan):  {conventional_total:.2f} / {count}")

    stats = engine.stats()
    print(f"engine stats: {stats.queries_total} queries, "
          f"{stats.cache_misses} heuristic builds "
          f"({stats.heuristic_build_seconds:.2f}s offline), "
          f"{stats.cache_hits} cache hits")


if __name__ == "__main__":
    main()
