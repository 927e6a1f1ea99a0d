"""Figure 17: V-path based stochastic routing at peak hours.

Compares V-None, T-B-P vs V-B-P and T-BS-60 vs V-BS-60; the V-path variants
should explore no more candidates than their T-path counterparts.
"""

import statistics

import pytest

from repro.evaluation.experiments import (
    VPATH_ROUTING_METHODS,
    routing_report_by_budget,
    routing_report_by_distance,
)

DATASET_NAMES = ("aalborg-like", "xian-like")
REGIME = "peak"


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_fig17_vpath_routing_peak(benchmark, contexts, emit, dataset):
    context = contexts[dataset]

    def run():
        by_distance = routing_report_by_distance(
            context,
            VPATH_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 17 (a/b)",
            title=f"V-path routing by distance ({dataset}, {REGIME})",
        )
        by_budget = routing_report_by_budget(
            context,
            VPATH_ROUTING_METHODS,
            regime=REGIME,
            experiment="Figure 17 (c/d)",
            title=f"V-path routing by budget ({dataset}, {REGIME})",
        )
        return by_distance, by_budget

    by_distance, by_budget = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(by_distance, f"fig17_vpath_routing_peak_distance_{dataset}.txt")
    emit(by_budget, f"fig17_vpath_routing_peak_budget_{dataset}.txt")

    def mean_explored(method: str) -> float:
        records = context.routing_records(REGIME, method)
        return statistics.fmean(r.explored for r in records)

    # The headline result (Table 10 / Fig 17): V-path routing searches no more than
    # its T-path counterparts.  Gated on the exact mean candidate count rather than
    # wall-clock time, which varies from run to run.
    assert mean_explored("V-BS-60") <= mean_explored("T-BS-60")
    assert mean_explored("V-BS-60") <= mean_explored("T-B-P")
