"""Stochastic routing algorithms: baselines, heuristic-guided PACE routing and V-path routing.

The serving stack layers as: routers (one per method) → the batch
:class:`RoutingEngine` with its shared heuristic cache → pluggable
:mod:`execution backends <repro.routing.backends>` (serial / processes) →
the typed :mod:`service API <repro.routing.service>` with its wire-format
requests, responses and error taxonomy.
"""

from repro.routing.backends import (
    ArtifactRef,
    DatasetRecipe,
    EngineSpec,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
)
from repro.routing.dijkstra import (
    free_flow_costs,
    shortest_path,
    shortest_path_cost,
    single_source_costs,
)
from repro.routing.dominance import DominancePruner
from repro.routing.engine import (
    METHOD_NAMES,
    EngineStats,
    HeuristicCache,
    RouterSettings,
    RoutingEngine,
    StoreMigration,
    create_router,
    migrate_store,
)
from repro.routing.methods import MethodSpec
from repro.routing.queries import RoutingQuery, RoutingResult
from repro.routing.service import (
    ERROR_CODES,
    RouteError,
    RouteRequest,
    RouteResponse,
    RoutingService,
)
from repro.routing.tpath_routing import HeuristicPaceRouter
from repro.routing.vpath_routing import VPathRouter

__all__ = [
    "RoutingQuery",
    "RoutingResult",
    "HeuristicPaceRouter",
    "VPathRouter",
    "DominancePruner",
    "MethodSpec",
    "create_router",
    "RouterSettings",
    "RoutingEngine",
    "StoreMigration",
    "migrate_store",
    "EngineStats",
    "HeuristicCache",
    "METHOD_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "DatasetRecipe",
    "ArtifactRef",
    "EngineSpec",
    "ERROR_CODES",
    "RouteError",
    "RouteRequest",
    "RouteResponse",
    "RoutingService",
    "shortest_path",
    "shortest_path_cost",
    "single_source_costs",
    "free_flow_costs",
]
