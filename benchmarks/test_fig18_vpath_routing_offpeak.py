"""Figure 18: V-path based stochastic routing at off-peak hours."""

import statistics

import pytest

from repro.evaluation.experiments import (
    VPATH_ROUTING_METHODS,
    routing_report_by_budget,
    routing_report_by_distance,
)

DATASET_NAMES = ("aalborg-like", "xian-like")
REGIME = "off-peak"


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_fig18_vpath_routing_offpeak(benchmark, contexts, emit, dataset):
    context = contexts[dataset]

    def run():
        by_distance = routing_report_by_distance(
            context,
            VPATH_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 18 (a/b)",
            title=f"V-path routing by distance ({dataset}, {REGIME})",
        )
        by_budget = routing_report_by_budget(
            context,
            VPATH_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 18 (c/d)",
            title=f"V-path routing by budget ({dataset}, {REGIME})",
        )
        return by_distance, by_budget

    by_distance, by_budget = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(by_distance, f"fig18_vpath_routing_offpeak_distance_{dataset}.txt")
    emit(by_budget, f"fig18_vpath_routing_offpeak_budget_{dataset}.txt")

    def mean_explored(method: str) -> float:
        records = context.routing_records(REGIME, method)
        return statistics.fmean(r.explored for r in records)

    # Exact mean candidate counts, not wall-clock time (which varies run to run).
    assert mean_explored("V-BS-60") <= mean_explored("T-B-P")
