"""Figure 13: stochastic routing with binary heuristics at peak hours.

Plots T-None against the three binary-heuristic variants and T-BS-60, grouped
both by source–destination distance and by budget level.
"""

import statistics

import pytest

from repro.evaluation.experiments import (
    BINARY_ROUTING_METHODS,
    routing_report_by_budget,
    routing_report_by_distance,
)

DATASET_NAMES = ("aalborg-like", "xian-like")
REGIME = "peak"


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_fig13_binary_routing_peak(benchmark, contexts, emit, dataset):
    context = contexts[dataset]

    def run():
        by_distance = routing_report_by_distance(
            context,
            BINARY_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 13 (a/b)",
            title=f"Binary-heuristic routing by distance ({dataset}, {REGIME})",
        )
        by_budget = routing_report_by_budget(
            context,
            BINARY_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 13 (c/d)",
            title=f"Binary-heuristic routing by budget ({dataset}, {REGIME})",
        )
        return by_distance, by_budget

    by_distance, by_budget = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(by_distance, f"fig13_binary_routing_peak_distance_{dataset}.txt")
    emit(by_budget, f"fig13_binary_routing_peak_budget_{dataset}.txt")

    # Shape check: every heuristic variant searches no more candidates on average
    # than the un-guided baseline.  Gated on the exact mean candidate count rather
    # than wall-clock time, which varies from run to run.
    def mean_explored(method: str) -> float:
        records = context.routing_records(REGIME, method)
        return statistics.fmean(r.explored for r in records)

    baseline = mean_explored("T-None")
    for method in BINARY_ROUTING_METHODS[1:]:
        assert mean_explored(method) <= baseline, method
