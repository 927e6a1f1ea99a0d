"""repro — Efficient stochastic routing in path-centric (PACE) uncertain road networks.

This package reproduces the system described in *Efficient Stochastic Routing
in Path-Centric Uncertain Road Networks* (VLDB 2024): the PACE uncertain
road-network model, the binary and budget-specific admissible search
heuristics, the virtual-path (V-path) construction that restores
stochastic-dominance pruning, the routing algorithms built on top of them, and
the full experimental harness around two synthetic city datasets.

Typical usage::

    from repro import (
        build_pace_graph, UpdatedPaceGraph, create_router, RoutingQuery,
    )

    pace = build_pace_graph(network, trajectories)
    updated, _ = UpdatedPaceGraph.build(pace)
    router = create_router("V-BS-60", pace, updated)
    result = router.route(RoutingQuery(source, destination, budget=900))
    print(result.summary())
"""

from repro.core import (
    Distribution,
    EdgeGraph,
    ElementKind,
    JointDistribution,
    PaceGraph,
    Path,
    ReproError,
    WeightedElement,
)
from repro.heuristics import (
    BudgetHeuristicConfig,
    BudgetSpecificHeuristic,
    EdgeOnlyBinaryHeuristic,
    EuclideanBinaryHeuristic,
    NoHeuristic,
    PaceBinaryHeuristic,
)
from repro.network import GridCityConfig, RoadNetwork, generate_grid_city
from repro.routing import (
    METHOD_NAMES,
    EngineSpec,
    MethodSpec,
    ProcessBackend,
    RouterSettings,
    RouteRequest,
    RouteResponse,
    RoutingEngine,
    RoutingQuery,
    RoutingResult,
    RoutingService,
    SerialBackend,
    create_router,
)
from repro.tpaths import TPathMinerConfig, build_edge_graph, build_pace_graph, mine_tpaths
from repro.trajectories import Trajectory, TrajectoryGeneratorConfig, generate_trajectories
from repro.vpaths import UpdatedPaceGraph, VPathBuilderConfig, build_vpaths

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Distribution",
    "JointDistribution",
    "Path",
    "EdgeGraph",
    "PaceGraph",
    "ElementKind",
    "WeightedElement",
    "ReproError",
    # network
    "RoadNetwork",
    "GridCityConfig",
    "generate_grid_city",
    # trajectories
    "Trajectory",
    "TrajectoryGeneratorConfig",
    "generate_trajectories",
    # model construction
    "TPathMinerConfig",
    "mine_tpaths",
    "build_edge_graph",
    "build_pace_graph",
    "VPathBuilderConfig",
    "build_vpaths",
    "UpdatedPaceGraph",
    # heuristics
    "NoHeuristic",
    "EuclideanBinaryHeuristic",
    "EdgeOnlyBinaryHeuristic",
    "PaceBinaryHeuristic",
    "BudgetHeuristicConfig",
    "BudgetSpecificHeuristic",
    # routing
    "RoutingQuery",
    "RoutingResult",
    "RouterSettings",
    "create_router",
    "METHOD_NAMES",
    "MethodSpec",
    "RoutingEngine",
    "EngineSpec",
    "SerialBackend",
    "ProcessBackend",
    "RouteRequest",
    "RouteResponse",
    "RoutingService",
]
