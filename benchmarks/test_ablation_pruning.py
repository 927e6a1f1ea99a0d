"""Ablation: effect of stochastic-dominance pruning in V-path routing.

Runs the same workload with the pruner enabled and disabled (everything else
identical) and reports candidate-path counts and runtimes — isolating the
contribution of the second speed-up technique of the paper.
"""

import statistics

import pytest

from repro.evaluation.experiments import ExperimentReport
from repro.evaluation.reporting import write_report
from repro.routing.settings import RouterSettings
from repro.routing.vpath_routing import VPathRouter

DATASET_NAMES = ("aalborg-like", "xian-like")
REGIME = "peak"


@pytest.mark.parametrize("dataset", DATASET_NAMES)
def test_ablation_dominance_pruning(benchmark, contexts, dataset):
    context = contexts[dataset]
    updated = context.updated_graphs[REGIME]
    queries = [wq.query for wq in context.workloads[REGIME].queries]

    def run():
        rows = []
        for use_dominance in (True, False):
            router = VPathRouter(
                updated,
                None,
                method_name="V-None",
                settings=RouterSettings(
                    max_support=context.scale.max_support,
                    max_explored=context.scale.max_explored,
                ),
                use_dominance=use_dominance,
            )
            results = [router.route(query) for query in queries]
            rows.append(
                (
                    "with dominance" if use_dominance else "without dominance",
                    round(statistics.fmean(r.explored for r in results), 1),
                    round(statistics.fmean(r.runtime_seconds for r in results), 4),
                    round(statistics.fmean(r.probability for r in results), 4),
                )
            )
        return ExperimentReport(
            experiment="Ablation",
            title=f"Stochastic-dominance pruning in V-path routing ({dataset}, {REGIME})",
            headers=("configuration", "mean explored", "mean runtime (s)", "mean probability"),
            rows=tuple(rows),
            notes=(
                "Pruning pops fewer candidates and never hurts result quality; the pairwise "
                "dominance checks themselves cost CPU time in pure Python, so its value shows "
                "when the un-pruned search hits the exploration cap."
            ),
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    write_report(report.render(), f"ablation_pruning_{dataset}.txt")
    with_pruning, without_pruning = report.rows
    # Fewer candidates are popped with pruning, and the answers are never worse.
    assert with_pruning[1] <= without_pruning[1] * 1.05
    assert with_pruning[3] >= without_pruning[3] - 0.02
