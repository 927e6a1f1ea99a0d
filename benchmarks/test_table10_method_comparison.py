"""Table 10: storage, pre-computation and routing runtime of all heuristic methods."""

import statistics

import pytest

from repro.evaluation.experiments import table10_method_comparison

DATASET_NAMES = ("aalborg-like", "xian-like")


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_table10_method_comparison(benchmark, contexts, emit, dataset):
    context = contexts[dataset]

    def run():
        return table10_method_comparison(context)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(report, f"table10_method_comparison_{dataset}.txt")

    storage = {row[0]: row[1] for row in report.rows}

    def mean_explored(method: str) -> float:
        return statistics.fmean(r.explored for r in context.routing_records("peak", method))

    # Paper's qualitative ordering: the budget-specific V-path method routes fastest,
    # while needing at least as much storage as the binary heuristics.  "Fastest" is
    # gated on the exact mean candidate count over the table's own queries (the
    # routing-time column stays in the report); wall-clock ratios between methods
    # a few milliseconds apart vary from run to run.
    assert mean_explored("V-BS-60") <= mean_explored("T-B-EU")
    assert mean_explored("V-BS-60") <= mean_explored("T-B-P")
    assert storage["T-BS-60"] >= storage["T-B-P"]
