"""Command-line interface: ``python -m repro <command>``.

The CLI wraps the most common workflows so the system can be exercised
without writing Python:

* ``stats``           — generate (or load) a dataset and print its Table-7 statistics,
* ``build``           — run the offline pipeline (T-path mining, V-path closure) and
  report index sizes,
* ``build-artifacts`` — run the offline pipeline **and persist everything** (index,
  optionally prewarmed heuristics, manifest with fingerprints and provenance)
  into a content-addressed artifact store directory; heuristic tables are
  built to convergence by default (they are served forever, so they should be
  tight),
* ``migrate-artifacts`` — rewrite a store from before the columnar format in
  place, preserving fingerprints, recipe and provenance without re-mining (the
  only command that reads such a store),
* ``prewarm``         — build the heuristics of a method for a set of destinations
  in an existing artifact store and save them back into it,
* ``route``           — answer a single arriving-on-time query with a chosen method,
* ``route-batch``     — answer a JSONL file of requests through the typed service
  API, over a chosen execution backend (serial or a multiprocess worker pool),
  writing one JSON response per line, and
* ``serve``           — run the long-lived fault-tolerant HTTP serving tier
  (:mod:`repro.serving`) over an artifact store: ``POST /route`` with admission
  control and per-request deadlines, ``GET /stats`` / ``GET /healthz``, hot
  reload when the store is republished, and an opt-in fault-injection
  switchboard for chaos drills,
* ``bench``           — run one experiment driver (by figure/table name) and print
  its rows, and
* ``analyze``         — run the project's own AST lint (:mod:`repro.analysis`) over
  source trees, exiting non-zero on violations; this is the ``repro analyze``
  gate the CI ``analysis`` job runs against ``src/repro``.

The serving commands (``route``, ``route-batch``) accept ``--artifacts <dir>``
to boot the engine from a persisted store instead of re-mining — the
deployment path: mine once with ``build-artifacts``, then cold-start engines
(and, under ``--backend process``, every worker) from disk in seconds.  ``--artifacts`` takes precedence over ``--dataset``/``--tau``/
``--regime``, which are ignored when it is given; ``--max-budget`` sizes a
re-mine, so combining it with ``--artifacts`` is rejected (the store's
manifest already records the settings its tables were built for).

``--method`` accepts any name :meth:`repro.routing.MethodSpec.parse`
understands — the paper's fixed palette plus arbitrary-δ budget methods like
``T-BS-240``.  All commands operate on the bundled synthetic datasets
(``aalborg-like``, ``xian-like``, ``tiny``) so they work out of the box and
deterministically.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from pathlib import Path as FilePath

from repro.analysis import all_rules, analyze_paths, render_json, render_text
from repro.core.errors import ConfigurationError, DataError
from repro.datasets.synthetic import DATASET_NAMES, SyntheticDataset, dataset_by_name
from repro.evaluation.experiments import (
    ExperimentContext,
    ExperimentScale,
    fig10a_tpath_counts,
    fig10b_accuracy,
    fig10cd_vpaths,
    fig11_binary_precompute,
    fig12_budget_precompute,
    fig19_case_study,
    table7_data_statistics,
    table8_binary_precompute_total,
    table9_budget_precompute_total,
    table10_method_comparison,
)
from repro.evaluation.reporting import render_report
from repro.routing import (
    METHOD_NAMES,
    DatasetRecipe,
    MethodSpec,
    ProcessBackend,
    RouterSettings,
    RoutingEngine,
    RoutingQuery,
    RoutingService,
    SerialBackend,
)
from repro.routing.service import RouteResponse
from repro.tpaths import TPathMinerConfig, build_pace_graph
from repro.vpaths import UpdatedPaceGraph

__all__ = ["main", "build_parser"]

_EXPERIMENTS = {
    "table7": lambda ctx: table7_data_statistics([ctx.dataset]),
    "fig10a": fig10a_tpath_counts,
    "fig10b": fig10b_accuracy,
    "fig10cd": fig10cd_vpaths,
    "fig11": fig11_binary_precompute,
    "fig12": fig12_budget_precompute,
    "table8": table8_binary_precompute_total,
    "table9": table9_budget_precompute_total,
    "table10": table10_method_comparison,
    "fig19": fig19_case_study,
}

_BACKENDS = ("serial", "process")


def _load_dataset(name: str) -> SyntheticDataset:
    try:
        return dataset_by_name(name)
    except KeyError as exc:
        raise SystemExit(str(exc)) from exc


def _method_name(value: str) -> str:
    """argparse type for ``--method``: any name MethodSpec parses, canonicalised."""
    try:
        return MethodSpec.parse(value).canonical_name
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _FlattenIds(argparse.Action):
    """Concatenate the per-argument id lists ``_destination_ids`` produces."""

    def __call__(self, parser, namespace, values, option_string=None):
        ids = list(getattr(namespace, self.dest) or [])
        for chunk in values:
            ids.extend(chunk)
        setattr(namespace, self.dest, ids)


def _destination_ids(value: str) -> list[int]:
    """argparse type for ``--destinations``: vertex ids, comma- or space-separated.

    ``--destinations 3,7,12`` and ``--destinations 3 7 12`` (and mixtures)
    are equivalent; the :class:`_FlattenIds` action concatenates every chunk
    into one flat id list.
    """
    ids: list[int] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            ids.append(int(chunk))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"destination ids must be integers, got {chunk!r}"
            ) from exc
    if not ids:
        raise argparse.ArgumentTypeError("empty destination list")
    return ids


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Path-centric stochastic routing (PACE) — reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    method_help = (
        f"routing method ({', '.join(METHOD_NAMES)}; "
        "T-BS-<delta> / V-BS-<delta> accept any positive delta)"
    )

    stats = subparsers.add_parser("stats", help="print Table-7 statistics of a dataset")
    stats.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))

    build = subparsers.add_parser("build", help="build the PACE index and report its size")
    build.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))
    build.add_argument("--tau", type=int, default=30, help="T-path trajectory threshold")
    build.add_argument("--regime", default="peak", choices=["peak", "off-peak"])

    build_artifacts = subparsers.add_parser(
        "build-artifacts",
        help="run the offline pipeline and persist it to an artifact store directory",
        description=(
            "Mine the PACE index (T-paths + V-path closure), optionally pre-compute "
            "heuristics for hot destinations, and write everything into a "
            "content-addressed artifact store: index, heuristic tables and a manifest "
            "recording graph fingerprints, router settings and build provenance.  "
            "Serving commands then boot from the store with --artifacts, skipping "
            "re-mining entirely."
        ),
    )
    build_artifacts.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))
    build_artifacts.add_argument("--out", required=True, help="artifact store directory")
    build_artifacts.add_argument("--tau", type=int, default=20)
    build_artifacts.add_argument("--regime", default="peak", choices=["peak", "off-peak"])
    build_artifacts.add_argument(
        "--method",
        action="append",
        type=_method_name,
        default=None,
        help=f"prewarm this method's heuristics (repeatable; {method_help})",
    )
    build_artifacts.add_argument(
        "--destinations",
        type=_destination_ids,
        action=_FlattenIds,
        nargs="+",
        default=None,
        help=(
            "destination vertex ids to prewarm, space- and/or comma-separated "
            "(default: all vertices when --method given)"
        ),
    )
    build_artifacts.add_argument(
        "--max-budget", type=float, default=600.0, help="largest budget the tables must answer"
    )
    build_artifacts.add_argument(
        "--max-explored", type=int, default=100000, help="search expansion cap recorded in settings"
    )
    build_artifacts.add_argument(
        "--sweeps",
        type=int,
        default=None,
        help=(
            "cap the Eq. 5 Bellman sweeps per budget table (default: run to the "
            "fixpoint — artifact tables are built once and served forever, so they "
            "should be converged)"
        ),
    )
    build_artifacts.add_argument(
        "--catalog",
        default=None,
        help="register the finished store into this fleet catalog database",
    )

    migrate = subparsers.add_parser(
        "migrate-artifacts",
        help="rewrite an artifact store in the current format, in place",
        description=(
            "Read an artifact store — one written as JSON documents before the "
            "columnar format, or a current one — and re-save index, heuristics and "
            "manifest in the columnar format in place.  The graph content "
            "fingerprints, recipe and build provenance are preserved; nothing is "
            "re-mined.  Serving commands refuse JSON stores until they are migrated."
        ),
    )
    migrate.add_argument("store", help="artifact store directory")

    prewarm = subparsers.add_parser(
        "prewarm", help="pre-compute heuristics for destinations into an artifact store"
    )
    prewarm.add_argument("--method", default="V-BS-60", type=_method_name, help=method_help)
    prewarm.add_argument(
        "--destinations",
        type=_destination_ids,
        action=_FlattenIds,
        nargs="+",
        required=True,
        help="destination vertex ids (space- and/or comma-separated: '3 7' or '3,7,12')",
    )
    prewarm.add_argument(
        "--artifacts",
        required=True,
        help=(
            "artifact store (from 'build-artifacts') to boot the engine from; newly "
            "built heuristics are saved back into it, under its recorded settings"
        ),
    )

    route = subparsers.add_parser("route", help="answer one arriving-on-time query")
    route.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))
    route.add_argument("--method", default="V-BS-60", type=_method_name, help=method_help)
    route.add_argument("--source", type=int, required=True)
    route.add_argument("--destination", type=int, required=True)
    route.add_argument("--budget", type=float, required=True, help="travel-time budget in seconds")
    route.add_argument("--tau", type=int, default=20)
    route.add_argument("--regime", default="peak", choices=["peak", "off-peak"])
    route.add_argument(
        "--artifacts",
        default=None,
        help="artifact store (from 'build-artifacts') to boot the engine from",
    )

    batch = subparsers.add_parser(
        "route-batch",
        help="answer a JSONL file of route requests through the service API",
        description=(
            "Read one JSON route request per line ({\"source\": .., \"destination\": .., "
            "\"budget\": .., optional \"departure_time\"/\"method\"/\"request_id\"}), "
            "answer them through the typed RoutingService over the chosen execution "
            "backend, and write one JSON response per line, in input order.  Malformed "
            "lines produce structured invalid_request responses instead of aborting "
            "the batch."
        ),
    )
    batch.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))
    batch.add_argument("--method", default="V-BS-60", type=_method_name, help=method_help)
    batch.add_argument("--input", required=True, help="JSONL request file ('-' for stdin)")
    batch.add_argument("--output", default="-", help="JSONL response file ('-' for stdout)")
    batch.add_argument(
        "--backend",
        default="serial",
        choices=list(_BACKENDS),
        help="execution backend for the batch",
    )
    batch.add_argument(
        "--workers", type=int, default=4, help="worker count for --backend process"
    )
    batch.add_argument("--tau", type=int, default=20)
    batch.add_argument("--regime", default="peak", choices=["peak", "off-peak"])
    batch.add_argument(
        "--max-budget",
        type=float,
        default=None,
        help=(
            "largest budget the tables must answer (default 600; with --artifacts "
            "the store's recorded settings apply and this flag is rejected)"
        ),
    )
    batch.add_argument(
        "--artifacts",
        default=None,
        help=(
            "artifact store (from 'build-artifacts') to boot the engine from — and, "
            "with --backend process, every worker (fingerprint-verified, zero rebuilds)"
        ),
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve routing over HTTP from an artifact store, fault-tolerantly",
        description=(
            "Boot a routing engine from a persisted artifact store and serve it over "
            "a long-lived strict-JSON HTTP API: POST /route (single request object "
            "or an array), GET /stats, GET /healthz.  The server admits at most "
            "--max-concurrency + --queue-limit requests at a time (the rest are "
            "rejected immediately with a structured 'overloaded' error and a "
            "retry_after_ms hint), enforces a per-request deadline budget "
            "(--deadline-ms, tightened per request via 'deadline_ms'), survives "
            "worker-pool crashes by falling back to in-process routing while "
            "respawning the pool with exponential backoff, and hot-reloads the "
            "engine — without dropping in-flight requests — when the artifact "
            "store's manifest changes on disk."
        ),
    )
    serve.add_argument(
        "--artifacts",
        default=None,
        help=(
            "artifact store directory to serve (or pick one from --catalog by "
            "--graph-fingerprint instead)"
        ),
    )
    serve.add_argument(
        "--catalog",
        default=None,
        help=(
            "fleet catalog database; with --artifacts the served store is "
            "registered into it, without --artifacts the store to serve is "
            "looked up in it (freshest non-stale match wins)"
        ),
    )
    serve.add_argument(
        "--graph-fingerprint",
        default=None,
        help="with --catalog: serve a store matching this graph content fingerprint",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080, help="listening port (0 = ephemeral)")
    serve.add_argument("--method", default="V-BS-60", type=_method_name, help=method_help)
    serve.add_argument(
        "--backend",
        default="serial",
        choices=("serial", "process"),
        help="execution backend for routing batches (process = resilient worker pool)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker count for --backend process"
    )
    serve.add_argument(
        "--max-concurrency", type=int, default=4,
        help="requests admitted at once; in-process searches run one at a time",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=16,
        help="admitted requests allowed to wait beyond --max-concurrency",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=10_000.0,
        help="default per-request deadline budget in milliseconds",
    )
    serve.add_argument(
        "--reload-poll-seconds",
        type=float,
        default=2.0,
        help="how often to check the store manifest for a republished build",
    )
    serve.add_argument(
        "--enable-fault-injection",
        action="store_true",
        help="expose POST /faults for deterministic chaos drills (off by default)",
    )
    serve.add_argument(
        "--prewarm",
        default="all",
        choices=("all", "none"),
        help=(
            "heuristic residency at boot: 'all' eagerly loads every persisted "
            "table (classic boot), 'none' starts empty and faults tables in "
            "from the store on first touch (country-scale boot)"
        ),
    )
    serve.add_argument(
        "--cache-bytes",
        type=int,
        default=None,
        help=(
            "byte budget for resident heuristics (LRU eviction above it; "
            "default: unbounded)"
        ),
    )

    catalog = subparsers.add_parser(
        "catalog",
        help="manage a SQLite fleet catalog over many artifact stores",
        description=(
            "Register artifact store directories into one catalog.sqlite and answer "
            "fleet questions over it: which stores serve a graph fingerprint, which "
            "still carry format-version-1 artifacts, which drifted since their last "
            "sync.  Batch jobs (migrate --all) record per-store progress in the "
            "catalog, so a killed run resumes with --resume instead of restarting.  "
            "The stores stay the source of truth; the catalog is a rebuildable index."
        ),
    )
    catalog_db = argparse.ArgumentParser(add_help=False)
    catalog_db.add_argument(
        "--db", default="catalog.sqlite", help="catalog database file (default: ./catalog.sqlite)"
    )
    report_format = argparse.ArgumentParser(add_help=False)
    report_format.add_argument(
        "--format", choices=("text", "json"), default="text", dest="report_format",
        help="report format (default: text)",
    )
    catalog_sub = catalog.add_subparsers(dest="catalog_command", required=True)

    cat_register = catalog_sub.add_parser(
        "register", parents=[catalog_db],
        help="register (or re-sync) artifact store directories",
    )
    cat_register.add_argument("stores", nargs="+", help="artifact store directories")

    cat_sync = catalog_sub.add_parser(
        "sync", parents=[catalog_db],
        help="re-read registered stores and refresh their catalog rows",
    )
    cat_sync.add_argument(
        "stores", nargs="*", help="store directories to sync (default: every registered store)"
    )

    catalog_sub.add_parser(
        "list", parents=[catalog_db, report_format], help="list the registered stores"
    )

    cat_query = catalog_sub.add_parser(
        "query", parents=[catalog_db, report_format],
        help="find stores by graph fingerprint, artifact format version or staleness",
    )
    cat_query.add_argument(
        "--graph-fingerprint", default=None,
        help="stores whose PACE or V-path-closure fingerprint matches",
    )
    cat_query.add_argument(
        "--format-version", type=int, default=None,
        help="stores holding ANY artifact at this format version",
    )
    cat_query.add_argument("--dataset", default=None, help="stores mined from this dataset")
    cat_query.add_argument(
        "--stale", action="store_true",
        help="only stores whose on-disk manifest changed (or vanished) since the last sync",
    )

    cat_verify = catalog_sub.add_parser(
        "verify", parents=[catalog_db, report_format],
        help="check every registered store's files against the catalog records",
    )
    cat_verify.add_argument(
        "--deep", action="store_true",
        help="re-read every artifact and verify its checksum (full read cost)",
    )

    cat_migrate = catalog_sub.add_parser(
        "migrate", parents=[catalog_db],
        help="rewrite stores in the current artifact format, resumably",
    )
    scope = cat_migrate.add_mutually_exclusive_group(required=True)
    scope.add_argument(
        "--all", action="store_true", dest="all_stores",
        help="migrate every registered store",
    )
    scope.add_argument("--stores", nargs="+", default=None, help="store directories to migrate")
    cat_migrate.add_argument(
        "--resume", action="store_true",
        help="resume the matching unfinished operation instead of starting a new one",
    )

    cat_unregister = catalog_sub.add_parser(
        "unregister", parents=[catalog_db], help="drop stores from the catalog"
    )
    cat_unregister.add_argument("stores", nargs="+", help="store directories to drop")

    cat_gc = catalog_sub.add_parser(
        "gc", parents=[catalog_db, report_format],
        help="collect vanished-store rows and stray unregistered store directories",
        description=(
            "Garbage-collect fleet drift in both directions: registered stores whose "
            "directory no longer holds a manifest lose their catalog rows, and — with "
            "--root — store directories on disk that no catalog row points at are "
            "deleted.  Dry run by default; pass --apply to act."
        ),
    )
    cat_gc.add_argument(
        "--root", default=None,
        help="also scan this directory tree for unregistered store directories",
    )
    cat_gc.add_argument(
        "--apply", action="store_true",
        help="actually unregister/delete (default: report what would be collected)",
    )

    bench = subparsers.add_parser("bench", help="run one experiment driver and print its rows")
    bench.add_argument("experiment", choices=sorted(_EXPERIMENTS))
    bench.add_argument("--dataset", default="tiny", choices=list(DATASET_NAMES))

    analyze = subparsers.add_parser(
        "analyze",
        help="run the project's AST lint rules; non-zero exit on violations",
    )
    analyze.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: the installed repro package)",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text", dest="report_format",
        help="report format (default: text)",
    )
    analyze.add_argument(
        "--output", default="-",
        help="write the report to this file instead of stdout",
    )
    analyze.add_argument(
        "--rules", default=None,
        help="comma-separated rule ids to run (default: all registered rules)",
    )
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def _command_stats(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    statistics = dataset.statistics()
    print(render_report(f"Data statistics: {dataset.name}", ("metric", "value"), statistics.as_rows()))
    return 0


def _command_build(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    trajectories = list(dataset.regime(args.regime))
    pace = build_pace_graph(
        dataset.network, trajectories, TPathMinerConfig(tau=args.tau, resolution=5.0)
    )
    updated, stats = UpdatedPaceGraph.build(pace)
    rows = [
        ("regime", args.regime),
        ("trajectories", len(trajectories)),
        ("tau", args.tau),
        ("T-paths", pace.num_tpaths),
        ("V-paths", stats.count),
        ("V-path build (s)", round(stats.build_seconds, 3)),
        ("avg out-degree (G_p+)", round(updated.average_out_degree(), 2)),
        ("max out-degree (G_p+)", updated.max_out_degree()),
    ]
    print(render_report(f"PACE index: {dataset.name}", ("property", "value"), rows))
    return 0


def _boot_store(path: str) -> RoutingEngine:
    """Cold-boot an engine from a persisted store (its manifest's settings)."""
    try:
        return RoutingEngine.from_artifacts(path)
    except DataError as exc:
        # Exit 2 (operational error), distinct from route's exit 1
        # ("query answered, no route found") so scripts can branch.
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _build_engine(args: argparse.Namespace, max_budget: float) -> RoutingEngine:
    # With --artifacts the engine cold-boots from the persisted store;
    # otherwise it is built from a recipe, so the multiprocess backend can hand
    # the same recipe to its workers (content fingerprints verify the rebuild).
    if args.artifacts:
        return _boot_store(args.artifacts)
    recipe = DatasetRecipe(dataset=args.dataset, regime=args.regime, tau=args.tau)
    return recipe.build_engine(settings=RouterSettings(max_budget=max_budget))


def _command_build_artifacts(args: argparse.Namespace) -> int:
    recipe = DatasetRecipe(dataset=args.dataset, regime=args.regime, tau=args.tau)
    settings = RouterSettings(
        max_budget=args.max_budget,
        max_explored=args.max_explored,
        heuristic_sweeps=args.sweeps,  # None = run Eq. 5 to its fixpoint
    )
    started = time.perf_counter()
    engine = recipe.build_engine(settings=settings)
    mine_seconds = time.perf_counter() - started
    methods = args.method or []
    destinations = args.destinations
    if destinations is None and methods:
        destinations = sorted(engine.pace_graph.network.vertex_ids())
    built = 0
    for method in methods:
        try:
            built += engine.prewarm(method, destinations)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    manifest = engine.save_artifacts(
        args.out,
        provenance={"builder": "repro build-artifacts", "mine_seconds": round(mine_seconds, 3)},
    )
    catalogued = None
    if args.catalog:
        from repro.catalog import CatalogDB, register_store

        try:
            with CatalogDB(args.catalog) as db:
                catalogued = register_store(db, args.out).path
        except DataError as exc:
            # The store itself was written fine; a broken catalog is an
            # operational error the caller must notice.
            print(f"error: {exc}", file=sys.stderr)
            return 2
    rows = [
        ("store", args.out),
        ("pace fingerprint", manifest.fingerprints["pace"]),
        ("updated fingerprint", manifest.fingerprints.get("updated") or "-"),
        ("mine (s)", round(mine_seconds, 2)),
        ("heuristics prewarmed", built),
        ("heuristic sweeps", "converged" if args.sweeps is None else args.sweeps),
        ("artifacts", " ".join(sorted(manifest.artifacts))),
    ]
    if catalogued is not None:
        rows.append(("catalog", f"{args.catalog} <- {catalogued}"))
    print(render_report(f"Artifact store: {args.dataset}", ("property", "value"), rows))
    return 0


def _command_migrate_artifacts(args: argparse.Namespace) -> int:
    from repro.persistence.store import INDEX_ARTIFACT
    from repro.routing import migrate_store

    try:
        migration = migrate_store(args.store)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    before, after = migration.before, migration.after
    before_entries = migration.persisted_entries
    after_entries = after.provenance.get("heuristic_entries", 0)
    rows = [
        ("store", args.store),
        (
            "format",
            f"v{before.artifacts[INDEX_ARTIFACT].format_version} -> "
            f"v{after.artifacts[INDEX_ARTIFACT].format_version}",
        ),
        (
            "artifact bytes",
            f"{sum(e.size_bytes for e in before.artifacts.values())} -> "
            f"{sum(e.size_bytes for e in after.artifacts.values())}",
        ),
        ("heuristic entries", f"{before_entries} -> {after_entries}"),
        ("pace fingerprint", after.fingerprints["pace"]),
    ]
    if after_entries < before_entries:
        # The engine could not serve some persisted entries (e.g. floor-built
        # tables, which are inadmissible).  With none loaded, a current
        # store's documents are carried over as they are; otherwise the
        # entries that did not load are gone.
        kept = len(after.heuristic_entry_names())
        if after_entries == 0 and kept:
            print(
                f"warning: none of the {before_entries} persisted heuristic entries "
                "could be loaded for serving; they were kept on disk unchanged — "
                "rebuild them with 'repro prewarm --artifacts' to serve them",
                file=sys.stderr,
            )
        else:
            print(
                f"warning: {before_entries - after_entries} persisted heuristic entries "
                "could not be loaded for serving (e.g. floor-built tables, which are "
                "inadmissible) and were dropped; rebuild them with 'repro prewarm "
                "--artifacts'",
                file=sys.stderr,
            )
    print(render_report("Migrated artifact store", ("property", "value"), rows))
    return 0


def _reject_max_budget_with_artifacts(args: argparse.Namespace) -> bool:
    """``--max-budget`` sizes a re-mine; a store's settings are already fixed."""
    if args.artifacts and args.max_budget is not None:
        print(
            "error: --max-budget cannot be combined with --artifacts (the store's "
            "manifest records the settings its tables were built for); rebuild the "
            "store via 'repro build-artifacts --max-budget ...' to grow coverage",
            file=sys.stderr,
        )
        return True
    return False


def _command_prewarm(args: argparse.Namespace) -> int:
    engine = _boot_store(args.artifacts)
    try:
        built = engine.prewarm(args.method, args.destinations)
    except ConfigurationError as exc:
        # e.g. a heuristic-free method (T-None / V-None): nothing to prewarm.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = [
        ("method", args.method),
        ("destinations", " ".join(str(d) for d in args.destinations)),
        ("heuristics built", built),
    ]
    manifest = engine.save_artifacts(args.artifacts)
    rows += [
        ("store entries", manifest.provenance.get("heuristic_entries")),
        ("store", args.artifacts),
    ]
    print(render_report(f"Prewarmed heuristics: {args.artifacts}", ("property", "value"), rows))
    return 0


def _command_route(args: argparse.Namespace) -> int:
    max_budget = max(600.0, 2 * args.budget)
    engine = _build_engine(args, max_budget)
    spec = MethodSpec.parse(args.method)
    if spec.heuristic == "budget" and args.budget > engine.settings.max_budget:
        # Only reachable with --artifacts (the re-mine path sizes max_budget to
        # the query); tables below the budget would clamp and under-estimate.
        print(
            f"error: budget {args.budget:g} exceeds the artifact store's heuristic-table "
            f"coverage (max_budget {engine.settings.max_budget:g}); rebuild the store "
            "with a larger --max-budget or use a binary-heuristic method",
            file=sys.stderr,
        )
        return 2
    result = engine.route(
        RoutingQuery(source=args.source, destination=args.destination, budget=args.budget),
        method=args.method,
    )
    print(result.summary())
    if result.found:
        print("route vertices:", " -> ".join(str(v) for v in result.path.vertices))
        return 0
    return 1


def _make_backend(args: argparse.Namespace):
    if args.backend == "process":
        return ProcessBackend(workers=args.workers)
    return SerialBackend()


def _read_jsonl_requests(handle) -> list[dict | RouteResponse]:
    """Parse request lines; undecodable lines become ready-made error responses."""
    items: list[dict | RouteResponse] = []
    for number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            items.append(json.loads(line))
        except json.JSONDecodeError as exc:
            items.append(
                RouteResponse.failure("invalid_request", f"line {number} is not JSON: {exc}")
            )
    return items


def _command_route_batch(args: argparse.Namespace) -> int:
    if _reject_max_budget_with_artifacts(args):
        return 2
    engine = _build_engine(args, args.max_budget if args.max_budget is not None else 600.0)
    service = RoutingService(engine, default_method=args.method)
    backend = _make_backend(args)

    if args.input == "-":
        items = _read_jsonl_requests(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            items = _read_jsonl_requests(handle)

    payloads = [item for item in items if not isinstance(item, RouteResponse)]
    try:
        answered = iter(service.handle_batch(payloads, backend=backend))
        responses = [
            item if isinstance(item, RouteResponse) else next(answered) for item in items
        ]
    finally:
        if isinstance(backend, ProcessBackend):
            backend.close()

    lines = [json.dumps(response.to_dict(), allow_nan=False) for response in responses]
    if args.output == "-":
        for line in lines:
            print(line)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
    failures = sum(1 for response in responses if not response.ok)
    print(
        f"route-batch: {len(responses)} responses ({len(responses) - failures} ok, "
        f"{failures} errors) via {args.backend} backend",
        file=sys.stderr,
    )
    # Mirror `route`: success only when every request was answered ok, so
    # shell pipelines can gate on the exit code.
    return 0 if failures == 0 else 1


def _resolve_serve_store(args: argparse.Namespace) -> str:
    """Which store ``repro serve`` boots from: ``--artifacts`` or a catalog pick.

    With ``--artifacts`` the path is served as given (and registered into
    ``--catalog`` when one is supplied, so the fleet knows about it).  Without
    it, ``--catalog`` is searched — optionally narrowed by
    ``--graph-fingerprint`` — and the freshest non-stale store wins; raises
    :class:`DataError` when nothing servable matches.
    """
    from repro.catalog import CatalogDB, find_stores, register_store, store_staleness

    if args.artifacts:
        if args.catalog:
            with CatalogDB(args.catalog) as db:
                register_store(db, args.artifacts)
        return str(args.artifacts)
    if not args.catalog:
        raise DataError("serve needs --artifacts, or --catalog to pick a store from")
    with CatalogDB(args.catalog, create=False) as db:
        records = find_stores(db, graph_fingerprint=args.graph_fingerprint)
    fresh = [record for record in records if store_staleness(record) is None]
    if not fresh:
        wanted = (
            f"graph fingerprint {args.graph_fingerprint}"
            if args.graph_fingerprint
            else "any graph"
        )
        raise DataError(
            f"catalog {args.catalog} has no fresh store for {wanted} "
            f"({len(records)} registered match(es), all stale or missing); "
            "run 'repro catalog sync' and retry"
        )
    # Freshest sync first; ties broken by path for determinism.
    fresh.sort(key=lambda record: (record.last_synced_at, record.path), reverse=True)
    return fresh[0].path


def _command_serve(args: argparse.Namespace) -> int:
    from repro.serving import RouteServer, ServerConfig

    try:
        store_root = _resolve_serve_store(args)
        config = ServerConfig(
            host=args.host,
            port=args.port,
            default_method=args.method,
            backend=args.backend,
            workers=args.workers,
            max_concurrency=args.max_concurrency,
            queue_limit=args.queue_limit,
            default_deadline_ms=args.deadline_ms,
            reload_poll_seconds=args.reload_poll_seconds,
            enable_fault_injection=args.enable_fault_injection,
            prewarm=args.prewarm,
            cache_bytes=args.cache_bytes,
        )
        server = RouteServer(store_root, config)
    except (ConfigurationError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    server.start()
    host, port = server.address
    endpoints = "POST /route, GET /stats, GET /healthz"
    if args.enable_fault_injection:
        endpoints += ", POST /faults"
    print(f"repro serve: listening on http://{host}:{port} (store: {store_root})")
    print(f"endpoints: {endpoints}")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.stop()
    return 0


def _short(fingerprint: str | None) -> str:
    """Fingerprints are 32 hex chars; reports show a readable prefix."""
    return "-" if fingerprint is None else fingerprint[:12]


def _catalog_register(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, register_store

    rows = []
    with CatalogDB(args.db) as db:
        for store in args.stores:
            record = register_store(db, store)
            rows.append((record.path, f"v{record.format_version}", _short(record.pace_fingerprint)))
    print(render_report(f"Registered stores: {args.db}", ("path", "format", "pace"), rows))
    return 0


def _catalog_sync(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, sync_all, sync_store

    rows = []
    failures = 0
    with CatalogDB(args.db, create=False) as db:
        if args.stores:
            for store in args.stores:
                record, changed = sync_store(db, store)
                rows.append((record.path, "updated" if changed else "unchanged"))
        else:
            synced, errors = sync_all(db)
            for record, changed in synced:
                rows.append((record.path, "updated" if changed else "unchanged"))
            for path, message in errors:
                rows.append((path, f"FAILED: {message}"))
                failures += 1
    print(render_report(f"Synced stores: {args.db}", ("path", "result"), rows))
    # Unreadable stores are a per-store domain failure (the sync itself ran);
    # scripts branch on 1 vs the catalog-is-broken exit 2.
    return 1 if failures else 0


def _render_store_rows(records, staleness_by_path: dict | None = None) -> list:
    rows = []
    for record in records:
        staleness = None if staleness_by_path is None else staleness_by_path.get(record.path)
        rows.append(
            (
                record.path,
                f"v{record.format_version}",
                record.dataset or "-",
                _short(record.pace_fingerprint),
                # The fault tier an engine can draw on: how many persisted
                # heuristic documents, and the store's on-disk footprint
                # (live resident bytes / faults / evictions are per serving
                # process — GET /stats surfaces those).
                record.heuristic_documents,
                _human_bytes(record.total_bytes),
                record.last_synced_at,
                staleness or "fresh",
            )
        )
    return rows


def _human_bytes(count: int) -> str:
    """Bytes as a compact fixed-unit figure for report columns."""
    if count >= 1_000_000:
        return f"{count / 1_000_000:.1f}MB"
    if count >= 1_000:
        return f"{count / 1_000:.1f}kB"
    return f"{count}B"


_STORE_COLUMNS = ("path", "format", "dataset", "pace", "heur", "bytes", "synced", "state")


def _print_records(args: argparse.Namespace, title: str, records, staleness=None) -> None:
    if args.report_format == "json":
        payload = []
        for record in records:
            entry = record.to_dict()
            if staleness is not None:
                entry["staleness"] = staleness.get(record.path)
            payload.append(entry)
        print(json.dumps(payload, indent=2, allow_nan=False))
        return
    print(render_report(title, _STORE_COLUMNS, _render_store_rows(records, staleness)))


def _catalog_list(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, list_stores, store_staleness

    with CatalogDB(args.db, create=False) as db:
        records = list_stores(db)
    staleness = {record.path: store_staleness(record) for record in records}
    _print_records(args, f"Catalog: {args.db}", records, staleness)
    return 0


def _catalog_query(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, find_stores, store_staleness

    with CatalogDB(args.db, create=False) as db:
        records = find_stores(
            db,
            graph_fingerprint=args.graph_fingerprint,
            format_version=args.format_version,
            dataset=args.dataset,
        )
    staleness = {record.path: store_staleness(record) for record in records}
    if args.stale:
        records = [record for record in records if staleness[record.path] is not None]
    _print_records(args, f"Catalog query: {args.db}", records, staleness)
    return 0


def _catalog_verify(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, verify_fleet

    with CatalogDB(args.db, create=False) as db:
        results = verify_fleet(db, deep=args.deep)
    if args.report_format == "json":
        print(json.dumps([result.to_dict() for result in results], indent=2, allow_nan=False))
    else:
        rows = [
            (result.path, result.status, "; ".join(result.problems) or "-")
            for result in results
        ]
        print(render_report(f"Catalog verify: {args.db}", ("path", "status", "problems"), rows))
    return 0 if all(result.ok for result in results) else 1


def _catalog_migrate(args: argparse.Namespace) -> int:
    from repro.catalog import (
        CatalogDB,
        create_operation,
        find_resumable,
        get_store,
        list_stores,
        migrate_worker,
        run_operation,
    )

    parameters: dict = {}
    with CatalogDB(args.db, create=False) as db:
        if args.all_stores:
            targets = list_stores(db)
        else:
            targets = []
            for store in args.stores:
                record = get_store(db, store)
                if record is None:
                    print(
                        f"error: {store} is not registered in {args.db} "
                        "(run 'repro catalog register' first)",
                        file=sys.stderr,
                    )
                    return 2
                targets.append(record)
            parameters["stores"] = sorted(record.path for record in targets)
        operation = find_resumable(db, "migrate", parameters) if args.resume else None
        if operation is not None:
            done = len(operation.done_steps)
            print(
                f"resuming operation {operation.operation_id}: "
                f"{done}/{len(operation.steps)} stores already done",
                file=sys.stderr,
            )
        else:
            operation = create_operation(db, "migrate", parameters, targets)
        try:
            result = run_operation(
                db,
                operation,
                migrate_worker(),
                on_step=lambda step: print(
                    f"  {step.path}: {step.status}"
                    + (f" ({step.detail})" if step.detail else "")
                    + (f" ({step.error})" if step.error else ""),
                    file=sys.stderr,
                ),
            )
        except KeyboardInterrupt:
            print(
                f"interrupted; finished stores are recorded — rerun with "
                f"--resume to continue operation {operation.operation_id}",
                file=sys.stderr,
            )
            return 130
    rows = [
        ("operation", result.operation_id),
        ("status", result.status),
        ("stores done", f"{len(result.done_steps)}/{len(result.steps)}"),
    ]
    for step in result.failed_steps:
        rows.append((step.path, f"FAILED: {step.error}"))
    print(render_report("Fleet migrate", ("property", "value"), rows))
    return 0 if result.status == "done" else 1


def _catalog_gc(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, gc_fleet

    with CatalogDB(args.db, create=False) as db:
        actions = gc_fleet(db, root=args.root, apply=args.apply)
    if args.report_format == "json":
        print(json.dumps([action.to_dict() for action in actions], indent=2, allow_nan=False))
        return 0
    rows = [(action.path, action.kind, action.action) for action in actions] or [
        ("-", "-", "nothing to collect")
    ]
    suffix = "" if args.apply else " (dry run)"
    print(render_report(f"Catalog gc: {args.db}{suffix}", ("path", "kind", "action"), rows))
    return 0


def _catalog_unregister(args: argparse.Namespace) -> int:
    from repro.catalog import CatalogDB, unregister_store

    rows = []
    with CatalogDB(args.db, create=False) as db:
        for store in args.stores:
            dropped = unregister_store(db, store)
            rows.append((store, "dropped" if dropped else "not registered"))
    print(render_report(f"Unregistered stores: {args.db}", ("path", "result"), rows))
    return 0


_CATALOG_COMMANDS = {
    "register": _catalog_register,
    "sync": _catalog_sync,
    "list": _catalog_list,
    "query": _catalog_query,
    "verify": _catalog_verify,
    "migrate": _catalog_migrate,
    "unregister": _catalog_unregister,
    "gc": _catalog_gc,
}


def _command_catalog(args: argparse.Namespace) -> int:
    try:
        return _CATALOG_COMMANDS[args.catalog_command](args)
    except DataError as exc:
        # Catalog/store corruption is operational (exit 2), like every other
        # persistence failure surfaced through the CLI.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _command_bench(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.dataset)
    scale = ExperimentScale(
        taus=(15, 30), deltas=(60.0, 240.0), pairs_per_bucket=1, sample_destinations=2,
        max_explored=1000, accuracy_folds=3,
    )
    context = ExperimentContext.build(dataset, scale)
    report = _EXPERIMENTS[args.experiment](context)
    print(report.render())
    return 0


def _command_analyze(args: argparse.Namespace) -> int:
    """Run the repo's own static-analysis rules; exit 1 on violations, 2 on misuse."""
    registered = all_rules()
    if args.list_rules:
        for rule in registered:
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    rules = registered
    if args.rules is not None:
        by_id = {rule.rule_id: rule for rule in registered}
        selected = [token.strip() for token in args.rules.split(",") if token.strip()]
        unknown = sorted(set(selected) - set(by_id))
        if unknown or not selected:
            known = ", ".join(sorted(by_id))
            what = ", ".join(unknown) if unknown else "(empty selection)"
            print(f"error: unknown rule id(s) {what}; known rules: {known}", file=sys.stderr)
            return 2
        rules = [by_id[token] for token in dict.fromkeys(selected)]
    # Default target: the package this CLI shipped in, so `repro analyze`
    # with no arguments is the self-check CI runs.
    paths = args.paths or [str(FilePath(__file__).parent)]
    report = analyze_paths(paths, rules=rules)
    rendered = render_json(report) if args.report_format == "json" else render_text(report)
    if args.output == "-":
        print(rendered)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0 if report.ok else 1


_COMMANDS = {
    "stats": _command_stats,
    "build": _command_build,
    "build-artifacts": _command_build_artifacts,
    "migrate-artifacts": _command_migrate_artifacts,
    "prewarm": _command_prewarm,
    "route": _command_route,
    "route-batch": _command_route_batch,
    "serve": _command_serve,
    "catalog": _command_catalog,
    "bench": _command_bench,
    "analyze": _command_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
