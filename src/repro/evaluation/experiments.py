"""Experiment drivers reproducing every table and figure of the paper's evaluation.

Each driver returns an :class:`ExperimentReport` — a titled set of rows that
mirrors what the corresponding paper figure/table plots — and is invoked from
``benchmarks/`` (one bench module per figure/table) as well as usable
directly::

    context = ExperimentContext.build(aalborg_like(), ExperimentScale())
    report = fig13_binary_routing_by_distance(context, regime="peak")
    print(report.render())

The heavy inputs (datasets, PACE graphs, V-path closures, workloads, per-query
routing records) are built once per :class:`ExperimentContext` and shared by
all drivers, because the paper's figures slice the same measurements along
different axes (distance buckets vs. budget levels, peak vs. off-peak).

Scaling note: the synthetic networks are laptop-sized (the repro band flags
full-city index construction as infeasible in pure Python), and total
pre-computation costs (Tables 8 and 9) are extrapolated from a sample of
destinations; both substitutions are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.edge_graph import EdgeGraph
from repro.core.pace_graph import PaceGraph
from repro.datasets.synthetic import SyntheticDataset
from repro.evaluation.accuracy import evaluate_accuracy
from repro.evaluation.reporting import render_report
from repro.evaluation.workloads import QueryWorkload, WorkloadConfig, generate_workload
from repro.heuristics.binary import (
    EdgeOnlyBinaryHeuristic,
    EuclideanBinaryHeuristic,
    PaceBinaryHeuristic,
)
from repro.heuristics.budget import BudgetHeuristicConfig, BudgetSpecificHeuristic
from repro.network.algorithms import shortest_path
from repro.routing.accel import accelerator_for
from repro.routing.engine import RouterSettings, RoutingEngine
from repro.routing.methods import MethodSpec
from repro.routing.queries import RoutingQuery
from repro.tpaths.extraction import TPathMinerConfig, build_edge_graph, build_pace_graph, mine_tpaths
from repro.vpaths.builder import VPathBuilderConfig
from repro.vpaths.updated_graph import UpdatedPaceGraph

__all__ = [
    "ExperimentScale",
    "ExperimentReport",
    "ExperimentContext",
    "RoutingRecord",
    "table7_data_statistics",
    "fig10a_tpath_counts",
    "fig10b_accuracy",
    "fig10cd_vpaths",
    "fig11_binary_precompute",
    "table8_binary_precompute_total",
    "fig12_budget_precompute",
    "table9_budget_precompute_total",
    "routing_report_by_distance",
    "routing_report_by_budget",
    "table10_method_comparison",
    "fig19_case_study",
    "BINARY_ROUTING_METHODS",
    "BUDGET_ROUTING_METHODS",
    "VPATH_ROUTING_METHODS",
]

#: Methods plotted in Figs. 13–14.
BINARY_ROUTING_METHODS = ("T-None", "T-B-EU", "T-B-E", "T-B-P", "T-BS-60")
#: Methods plotted in Figs. 15–16 (δ sweep of the budget-specific heuristic).
BUDGET_ROUTING_METHODS = ("T-BS-30", "T-BS-60", "T-BS-120", "T-BS-240")
#: Methods plotted in Figs. 17–18.
VPATH_ROUTING_METHODS = ("V-None", "T-B-P", "V-B-P", "T-BS-60", "V-BS-60")


# --------------------------------------------------------------------------- #
# Scale and report containers
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that size the experiments (laptop-scale defaults)."""

    tau: int = 30
    taus: tuple[int, ...] = (15, 30, 50, 100)
    resolution: float = 5.0
    max_cardinality: int = 4
    delta: float = 60.0
    deltas: tuple[float, ...] = (30.0, 60.0, 120.0, 240.0)
    pairs_per_bucket: int = 3
    budget_fractions: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)
    # Eq. 5 Bellman sweeps per budget table; ``None`` runs to the fixpoint.
    # Experiments now measure *converged* tables by default, matching what
    # production artifact builds serve (``repro build-artifacts``); pass a
    # fixed count for seed-parity measurements at capped work (the seed's
    # figures used a single sweep).
    heuristic_sweeps: int | None = None
    max_support: int = 48
    # Caps the exhaustive baselines (T-None / V-None); guided methods stop far earlier.
    # When a baseline hits the cap its measured runtime is a *lower* bound, which only
    # understates the speed-ups the paper reports.
    max_explored: int = 3000
    sample_destinations: int = 4
    vpath_max_cardinality: int = 8
    vpath_max_count: int = 20000
    accuracy_folds: int = 5

    @classmethod
    def country(cls) -> "ExperimentScale":
        """The country-scale stress preset (benchmarks only, never tier-1).

        Pairs with :func:`repro.datasets.synthetic.country_like`: one τ, one
        fine δ over long-trip budgets — so heuristic tables grow wide bands
        (large η) and the index is an order of magnitude bigger than the city
        stand-ins.  This is the scenario that motivates the columnar v2
        artifacts and the band-compressed Bellman build;
        ``benchmarks/test_artifact_v2_bench.py`` runs the preset's grid (on
        the cached city graph, so CI stays minutes not hours — the full
        country-like run is the same code path at larger V).
        """
        return cls(
            tau=30,
            taus=(30,),
            delta=10.0,
            deltas=(10.0,),
            pairs_per_bucket=1,
            budget_fractions=(0.75, 1.25),
            sample_destinations=2,
            max_explored=2000,
            heuristic_sweeps=None,
        )

    def miner_config(self, tau: int | None = None) -> TPathMinerConfig:
        return TPathMinerConfig(
            tau=tau if tau is not None else self.tau,
            max_cardinality=self.max_cardinality,
            resolution=self.resolution,
        )

    def vpath_config(self) -> VPathBuilderConfig:
        return VPathBuilderConfig(
            max_cardinality=self.vpath_max_cardinality, max_vpaths=self.vpath_max_count
        )


@dataclass(frozen=True)
class ExperimentReport:
    """Structured experiment output: a title, column headers and data rows."""

    experiment: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]
    notes: str = ""

    def render(self) -> str:
        text = render_report(f"{self.experiment}: {self.title}", self.headers, self.rows)
        if self.notes:
            text += f"\n{self.notes}\n"
        return text


@dataclass(frozen=True)
class RoutingRecord:
    """One measured routing query execution."""

    method: str
    regime: str
    distance_bucket: str
    budget_fraction: float
    runtime_seconds: float
    probability: float
    explored: int
    found: bool


# --------------------------------------------------------------------------- #
# Experiment context
# --------------------------------------------------------------------------- #
@dataclass
class ExperimentContext:
    """Everything the experiment drivers need, built once and cached."""

    dataset: SyntheticDataset
    scale: ExperimentScale
    edge_graphs: dict[str, EdgeGraph] = field(default_factory=dict)
    pace_graphs: dict[str, PaceGraph] = field(default_factory=dict)
    updated_graphs: dict[str, UpdatedPaceGraph] = field(default_factory=dict)
    vpath_stats: dict[str, object] = field(default_factory=dict)
    workloads: dict[str, QueryWorkload] = field(default_factory=dict)
    max_query_budget: float = 0.0
    _engines: dict[str, RoutingEngine] = field(default_factory=dict)
    _records: dict[tuple[str, str], list[RoutingRecord]] = field(default_factory=dict)

    REGIMES = ("peak", "off-peak")

    @classmethod
    def build(cls, dataset: SyntheticDataset, scale: ExperimentScale | None = None) -> "ExperimentContext":
        """Mine the models, build the V-path closures and generate the workloads."""
        scale = scale or ExperimentScale()
        context = cls(dataset=dataset, scale=scale)
        for regime in cls.REGIMES:
            trajectories = list(dataset.regime(regime))
            miner = scale.miner_config()
            context.edge_graphs[regime] = build_edge_graph(dataset.network, trajectories, miner)
            context.pace_graphs[regime] = build_pace_graph(dataset.network, trajectories, miner)
            updated, stats = UpdatedPaceGraph.build(
                context.pace_graphs[regime], scale.vpath_config()
            )
            context.updated_graphs[regime] = updated
            context.vpath_stats[regime] = stats
            context.workloads[regime] = generate_workload(
                context.edge_graphs[regime],
                trajectories,
                WorkloadConfig(
                    pairs_per_bucket=scale.pairs_per_bucket,
                    budget_fractions=scale.budget_fractions,
                ),
            )
        context.max_query_budget = max(
            (wq.query.budget for workload in context.workloads.values() for wq in workload.queries),
            default=scale.delta,
        )
        return context

    # -------------------------------------------------------------- #
    # Routers and routing records (cached, shared across figures)
    # -------------------------------------------------------------- #
    def router_settings(self) -> RouterSettings:
        # The heuristic tables only need to answer budgets up to the largest budget in the
        # workload; padding by one delta keeps grid rounding safe.
        max_budget = max(self.scale.delta * 2, self.max_query_budget + self.scale.delta)
        return RouterSettings(
            max_support=self.scale.max_support,
            max_explored=self.scale.max_explored,
            max_budget=max_budget,
            heuristic_sweeps=self.scale.heuristic_sweeps,
        )

    def engine(self, regime: str) -> RoutingEngine:
        """The (cached) batch routing engine for a regime.

        One engine per regime means every method routed in that regime shares
        the same destination-keyed heuristic cache: T-B-P and V-B-P reuse one
        reverse shortest-path tree per destination, and budget tables are
        built once per (graph, δ, destination) instead of once per router.
        """
        if regime not in self._engines:
            self._engines[regime] = RoutingEngine(
                self.pace_graphs[regime],
                self.updated_graphs[regime],
                settings=self.router_settings(),
            )
        return self._engines[regime]

    def router(self, regime: str, method: str | MethodSpec):
        return self.engine(regime).router(method)

    def routing_records(self, regime: str, method: str | MethodSpec) -> list[RoutingRecord]:
        """Run (once) and cache the full workload for a method in a regime.

        Heuristics are prewarmed before the batch so that ``runtime_seconds``
        measures the online routing phase only (the paper's offline/online
        split; pre-computation costs are reported by Figs. 11–12 and Tables
        8–9).  This also keeps per-method runtimes independent of the order
        in which methods are evaluated, since methods in a regime share the
        engine's heuristic cache.
        """
        spec = MethodSpec.coerce(method)
        method = spec.canonical_name
        key = (regime, method)
        if key not in self._records:
            engine = self.engine(regime)
            workload_queries = self.workloads[regime].queries
            if spec.supports_prewarm:
                destinations = {
                    workload_query.query.destination for workload_query in workload_queries
                }
                engine.prewarm(spec, sorted(destinations))
            # Start each method's batch with cold accelerator memos: the
            # evaluation/convolution caches are shared per graph, so without
            # this a method measured later would inherit chain walks already
            # performed by an earlier one, breaking the order independence
            # promised above.  (Queries *within* the batch still share the
            # memos, as they would in any single process.)
            for graph in (engine.pace_graph, engine.updated_graph):
                if graph is not None:
                    accelerator_for(graph).clear_evaluations()
            results = engine.route_many(
                [workload_query.query for workload_query in workload_queries], method=spec
            )
            self._records[key] = [
                RoutingRecord(
                    method=method,
                    regime=regime,
                    distance_bucket=workload_query.distance_bucket,
                    budget_fraction=workload_query.budget_fraction,
                    runtime_seconds=result.runtime_seconds,
                    probability=result.probability,
                    explored=result.explored,
                    found=result.found,
                )
                for workload_query, result in zip(workload_queries, results)
            ]
        return self._records[key]


# --------------------------------------------------------------------------- #
# Table 7 — data statistics
# --------------------------------------------------------------------------- #
def table7_data_statistics(datasets: Sequence[SyntheticDataset]) -> ExperimentReport:
    """Table 7: structural and trajectory statistics of every dataset."""
    stats = [dataset.statistics() for dataset in datasets]
    headers = ("Statistic",) + tuple(s.name for s in stats)
    metric_rows = list(zip(*[s.as_rows() for s in stats]))
    rows = []
    for per_dataset in metric_rows:
        label = per_dataset[0][0]
        rows.append((label,) + tuple(value for _, value in per_dataset))
    return ExperimentReport(
        experiment="Table 7",
        title="Data statistics",
        headers=headers,
        rows=tuple(rows),
        notes="Synthetic stand-ins for the paper's Aalborg / Xi'an data (see DESIGN.md).",
    )


# --------------------------------------------------------------------------- #
# Figure 10 — T-paths, accuracy, V-paths
# --------------------------------------------------------------------------- #
_CARDINALITY_BUCKETS = ((2, 5), (6, 10), (11, 20), (21, 10**6))


def _bucket_label(bounds: tuple[int, int]) -> str:
    low, high = bounds
    return f">{low - 1}" if high >= 10**6 else f"[{low},{high}]"


def fig10a_tpath_counts(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 10(a): number of T-paths (grouped by cardinality) when varying τ."""
    trajectories = list(context.dataset.regime(regime))
    rows = []
    for tau in context.scale.taus:
        mined = mine_tpaths(context.dataset.network, trajectories, context.scale.miner_config(tau))
        multi = [m for m in mined if m.cardinality >= 2]
        buckets = {bounds: 0 for bounds in _CARDINALITY_BUCKETS}
        for tpath in multi:
            for bounds in _CARDINALITY_BUCKETS:
                if bounds[0] <= tpath.cardinality <= bounds[1]:
                    buckets[bounds] += 1
                    break
        rows.append(
            (tau, len(multi)) + tuple(buckets[bounds] for bounds in _CARDINALITY_BUCKETS)
        )
    headers = ("tau", "#T-paths") + tuple(
        f"card {_bucket_label(bounds)}" for bounds in _CARDINALITY_BUCKETS
    )
    return ExperimentReport(
        experiment="Figure 10a",
        title=f"Number of T-paths vs tau ({context.dataset.name}, {regime})",
        headers=headers,
        rows=tuple(rows),
        notes="Expected shape: larger tau -> fewer T-paths.",
    )


def fig10b_accuracy(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 10(b): KL divergence of estimated vs. held-out path distributions per τ."""
    trajectories = list(context.dataset.regime(regime))
    rows = []
    for tau in context.scale.taus:
        result = evaluate_accuracy(
            context.dataset.network,
            trajectories,
            tau=tau,
            folds=context.scale.accuracy_folds,
            resolution=context.scale.resolution,
            max_cardinality=context.scale.max_cardinality,
        )
        rows.append(result.as_row())
    return ExperimentReport(
        experiment="Figure 10b",
        title=f"Accuracy (KL divergence, 95% CI) vs tau ({context.dataset.name}, {regime})",
        headers=("tau", "mean KL", "CI low", "CI high", "#paths"),
        rows=tuple(rows),
        notes="Expected shape: KL improves (drops) as tau grows, then degrades when too few T-paths remain.",
    )


def fig10cd_vpaths(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 10(c,d): number of V-paths, build runtime and out-degrees when varying τ."""
    trajectories = list(context.dataset.regime(regime))
    rows = []
    for tau in context.scale.taus:
        pace = build_pace_graph(context.dataset.network, trajectories, context.scale.miner_config(tau))
        updated, stats = UpdatedPaceGraph.build(pace, context.scale.vpath_config())
        histogram = stats.cardinality_histogram()
        short = sum(count for card, count in histogram.items() if card <= 4)
        long = sum(count for card, count in histogram.items() if card > 4)
        rows.append(
            (
                tau,
                pace.num_tpaths,
                stats.count,
                short,
                long,
                round(stats.build_seconds, 3),
                round(updated.average_out_degree(), 2),
                updated.max_out_degree(),
            )
        )
    return ExperimentReport(
        experiment="Figure 10c/d",
        title=f"V-paths vs tau ({context.dataset.name}, {regime})",
        headers=(
            "tau",
            "#T-paths",
            "#V-paths",
            "card<=4",
            "card>4",
            "build (s)",
            "avg out-degree",
            "max out-degree",
        ),
        rows=tuple(rows),
        notes="Expected shape: smaller tau -> more T-paths -> more V-paths and larger out-degrees.",
    )


# --------------------------------------------------------------------------- #
# Figure 11 / Table 8 — binary heuristic pre-computation
# --------------------------------------------------------------------------- #
def _sample_destinations(context: ExperimentContext, regime: str) -> list[int]:
    seen: list[int] = []
    for workload_query in context.workloads[regime].queries:
        destination = workload_query.query.destination
        if destination not in seen:
            seen.append(destination)
        if len(seen) >= context.scale.sample_destinations:
            break
    return seen


def _binary_builders(context: ExperimentContext, regime: str):
    pace = context.pace_graphs[regime]
    return {
        "T-B-EU": lambda d: EuclideanBinaryHeuristic(pace.network, d),
        "T-B-E": lambda d: EdgeOnlyBinaryHeuristic(pace, d),
        "T-B-P": lambda d: PaceBinaryHeuristic(pace, d),
    }


def fig11_binary_precompute(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 11: per-destination build time and storage of the binary heuristics."""
    destinations = _sample_destinations(context, regime)
    rows = []
    for name, builder in _binary_builders(context, regime).items():
        runtimes, storages = [], []
        for destination in destinations:
            start = time.perf_counter()
            heuristic = builder(destination)
            runtimes.append(time.perf_counter() - start)
            storages.append(heuristic.storage_bytes())
        rows.append(
            (
                name,
                round(statistics.fmean(runtimes), 4),
                round(statistics.fmean(storages) / 1024.0, 2),
            )
        )
    return ExperimentReport(
        experiment="Figure 11",
        title=f"Binary heuristic pre-computation per destination ({context.dataset.name}, {regime})",
        headers=("method", "runtime (s)", "storage (KB)"),
        rows=tuple(rows),
        notes="Expected shape: T-B-EU fastest, T-B-P slowest; storage identical across variants.",
    )


def table8_binary_precompute_total(context: ExperimentContext) -> ExperimentReport:
    """Table 8: total binary-heuristic pre-computation, extrapolated to all destinations."""
    num_vertices = context.dataset.network.num_vertices
    rows = []
    for regime in context.REGIMES:
        destinations = _sample_destinations(context, regime)
        for name, builder in _binary_builders(context, regime).items():
            runtimes, storages = [], []
            for destination in destinations:
                start = time.perf_counter()
                heuristic = builder(destination)
                runtimes.append(time.perf_counter() - start)
                storages.append(heuristic.storage_bytes())
            total_hours = statistics.fmean(runtimes) * num_vertices / 3600.0
            total_gb = statistics.fmean(storages) * num_vertices / (1024.0**3)
            rows.append((regime, name, round(total_hours, 4), round(total_gb, 5)))
    return ExperimentReport(
        experiment="Table 8",
        title=f"Binary heuristics pre-computation, all destinations ({context.dataset.name})",
        headers=("regime", "method", "run time (h)", "storage (GB)"),
        rows=tuple(rows),
        notes=(
            "Totals are extrapolated from a sample of destinations "
            f"({context.scale.sample_destinations} per regime) times |V|."
        ),
    )


# --------------------------------------------------------------------------- #
# Figure 12 / Table 9 — budget-specific heuristic pre-computation
# --------------------------------------------------------------------------- #
def _budget_heuristic_cost(
    context: ExperimentContext, regime: str, delta: float, destinations: Sequence[int]
) -> tuple[float, float, float]:
    """Mean per-destination (build seconds, storage bytes, Bellman sweeps) for one δ."""
    pace = context.pace_graphs[regime]
    settings = context.router_settings()
    runtimes, storages, sweeps = [], [], []
    for destination in destinations:
        heuristic = BudgetSpecificHeuristic(
            pace,
            destination,
            BudgetHeuristicConfig(
                delta=delta,
                max_budget=max(settings.max_budget, delta),
                sweeps=context.scale.heuristic_sweeps,
            ),
        )
        runtimes.append(heuristic.build_seconds)
        storages.append(heuristic.storage_bytes())
        sweeps.append(heuristic.sweeps_performed)
    return statistics.fmean(runtimes), statistics.fmean(storages), statistics.fmean(sweeps)


def fig12_budget_precompute(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 12: per-destination heuristic-table build time and size when varying δ."""
    destinations = _sample_destinations(context, regime)
    rows = []
    for delta in context.scale.deltas:
        runtime, storage, sweeps = _budget_heuristic_cost(context, regime, delta, destinations)
        rows.append(
            (int(delta), round(runtime, 4), round(storage / 1024.0, 2), round(sweeps, 1))
        )
    return ExperimentReport(
        experiment="Figure 12",
        title=f"Budget-specific heuristic pre-computation per destination ({context.dataset.name}, {regime})",
        headers=("delta", "runtime (s)", "storage (KB)", "sweeps"),
        rows=tuple(rows),
        notes=(
            "Expected shape: smaller delta -> larger tables and longer build times. "
            "'sweeps' counts the Bellman passes of the dirty-worklist builder."
        ),
    )


def table9_budget_precompute_total(context: ExperimentContext) -> ExperimentReport:
    """Table 9: total budget-specific pre-computation, extrapolated to all destinations."""
    num_vertices = context.dataset.network.num_vertices
    rows = []
    for regime in context.REGIMES:
        destinations = _sample_destinations(context, regime)
        for delta in context.scale.deltas:
            runtime, storage, _ = _budget_heuristic_cost(context, regime, delta, destinations)
            rows.append(
                (
                    regime,
                    int(delta),
                    round(runtime * num_vertices / 3600.0, 4),
                    round(storage * num_vertices / (1024.0**3), 5),
                )
            )
    return ExperimentReport(
        experiment="Table 9",
        title=f"Budget-specific heuristics pre-computation, all destinations ({context.dataset.name})",
        headers=("regime", "delta", "run time (h)", "storage (GB)"),
        rows=tuple(rows),
        notes="Totals extrapolated from sampled destinations times |V|.",
    )


# --------------------------------------------------------------------------- #
# Figures 13–18 — routing runtimes
# --------------------------------------------------------------------------- #
def routing_report_by_distance(
    context: ExperimentContext,
    methods: Sequence[str],
    *,
    regime: str,
    experiment: str,
    title: str,
) -> ExperimentReport:
    """Average routing runtime per method, grouped by source–destination distance bucket."""
    workload = context.workloads[regime]
    rows = []
    for bucket in workload.bucket_labels:
        row: list[object] = [bucket]
        for method in methods:
            records = [
                r for r in context.routing_records(regime, method) if r.distance_bucket == bucket
            ]
            row.append(round(statistics.fmean(r.runtime_seconds for r in records), 4) if records else "-")
        rows.append(tuple(row))
    return ExperimentReport(
        experiment=experiment,
        title=title,
        headers=("distance",) + tuple(methods),
        rows=tuple(rows),
        notes="Cells are mean routing runtimes in seconds; longer distances should cost more.",
    )


def routing_report_by_budget(
    context: ExperimentContext,
    methods: Sequence[str],
    *,
    regime: str,
    experiment: str,
    title: str,
) -> ExperimentReport:
    """Average routing runtime per method, grouped by budget level (% of least expected time)."""
    workload = context.workloads[regime]
    rows = []
    for fraction in workload.budget_fractions():
        row: list[object] = [f"{int(round(fraction * 100))}%"]
        for method in methods:
            records = [
                r
                for r in context.routing_records(regime, method)
                if abs(r.budget_fraction - fraction) < 1e-9
            ]
            row.append(round(statistics.fmean(r.runtime_seconds for r in records), 4) if records else "-")
        rows.append(tuple(row))
    return ExperimentReport(
        experiment=experiment,
        title=title,
        headers=("budget",) + tuple(methods),
        rows=tuple(rows),
        notes="Cells are mean routing runtimes in seconds; larger budgets should cost more.",
    )


# --------------------------------------------------------------------------- #
# Table 10 — overall method comparison
# --------------------------------------------------------------------------- #
def table10_method_comparison(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Table 10: storage, pre-computation and mean routing runtime of every method."""
    destinations = _sample_destinations(context, regime)
    num_vertices = context.dataset.network.num_vertices
    delta = context.scale.delta
    methods = ("T-B-EU", "T-B-E", "T-B-P", "V-B-P", f"T-BS-{int(delta)}", f"V-BS-{int(delta)}")

    binary_builders = _binary_builders(context, regime)
    rows = []
    routing_by_method: dict[str, float] = {}
    for method in methods:
        if method in binary_builders or method == "V-B-P":
            builder = binary_builders["T-B-P"] if method == "V-B-P" else binary_builders[method]
            runtimes, storages = [], []
            for destination in destinations:
                start = time.perf_counter()
                heuristic = builder(destination)
                runtimes.append(time.perf_counter() - start)
                storages.append(heuristic.storage_bytes())
            precompute_hours = statistics.fmean(runtimes) * num_vertices / 3600.0
            storage_gb = statistics.fmean(storages) * num_vertices / (1024.0**3)
        else:
            runtime, storage, _ = _budget_heuristic_cost(context, regime, delta, destinations)
            precompute_hours = runtime * num_vertices / 3600.0
            storage_gb = storage * num_vertices / (1024.0**3)
        if method.startswith("V-"):
            # V-path methods additionally pay the (shared) V-path closure once per graph.
            precompute_hours += context.vpath_stats[regime].build_seconds / 3600.0
        records = context.routing_records(regime, method)
        routing_seconds = statistics.fmean(r.runtime_seconds for r in records)
        routing_by_method[method] = routing_seconds
        rows.append(
            (
                method,
                round(storage_gb, 5),
                round(precompute_hours, 4),
                round(routing_seconds, 4),
            )
        )
    fastest = min(routing_by_method, key=routing_by_method.__getitem__)
    return ExperimentReport(
        experiment="Table 10",
        title=f"Comparison of methods ({context.dataset.name}, {regime})",
        headers=("method", "storage (GB)", "precomputation (h)", "routing (s)"),
        rows=tuple(rows),
        notes=(
            "Paper's expected ordering: V-BS fastest routing; budget-specific methods cost "
            f"the most to pre-compute. Fastest routing measured here: {fastest} "
            f"({routing_by_method[fastest]:.4f} s)."
        ),
    )


# --------------------------------------------------------------------------- #
# Figure 19 — case study against an expected-time (commercial-style) route
# --------------------------------------------------------------------------- #
def fig19_case_study(context: ExperimentContext, *, regime: str = "peak") -> ExperimentReport:
    """Fig. 19: arrival probabilities of the stochastic route vs. an expected-time route.

    The paper compares against Google/Baidu Maps routes; commercial routers
    optimise (expected) travel time, so the stand-in baseline is the
    least-expected-time path computed on the same uncertain graph.
    """
    workload = context.workloads[regime]
    pace = context.pace_graphs[regime]
    edge_graph = context.edge_graphs[regime]
    method = f"V-BS-{int(context.scale.delta)}"
    router = context.router(regime, method)

    # Pick medium-length queries at the 100% budget level — the regime where route choice matters.
    candidates = [
        wq
        for wq in workload.queries
        if abs(wq.budget_fraction - 1.0) < 1e-9 and wq.distance_bucket != workload.bucket_labels[0]
    ] or list(workload.queries)
    rows = []
    for workload_query in candidates[:2]:
        query = workload_query.query
        stochastic = router.route(query)
        baseline_path, _ = shortest_path(
            pace.network,
            query.source,
            query.destination,
            lambda e: edge_graph.expected_cost(e.edge_id),
        )
        baseline_distribution = pace.path_cost_distribution(baseline_path, max_support=64)
        baseline_probability = baseline_distribution.prob_at_most(query.budget)
        rows.append(
            (
                f"{query.source}->{query.destination}",
                round(query.budget / 60.0, 1),
                round(stochastic.probability, 3),
                round(baseline_probability, 3),
                len(stochastic.path.edges) if stochastic.path else 0,
                len(baseline_path.edges),
            )
        )
    return ExperimentReport(
        experiment="Figure 19",
        title=f"Case study: {method} vs expected-time route ({context.dataset.name}, {regime})",
        headers=(
            "query",
            "budget (min)",
            "P(on time) stochastic",
            "P(on time) expected-time route",
            "#edges stochastic",
            "#edges baseline",
        ),
        rows=tuple(rows),
        notes="Expected shape: the stochastic route's on-time probability is at least the baseline's.",
    )
