"""Core data types of the PACE reproduction: distributions, paths and uncertain graphs."""

from repro.core.distributions import Distribution
from repro.core.edge_graph import EdgeGraph
from repro.core.elements import ElementKind, WeightedElement
from repro.core.errors import (
    ConfigurationError,
    DataError,
    DistributionError,
    GraphError,
    HeuristicError,
    JointDistributionError,
    NoPathError,
    PathError,
    ReproError,
    RoutingError,
    UnknownEdgeError,
    UnknownVertexError,
)
from repro.core.joint import JointDistribution, assemble_sequence
from repro.core.layout import ElementLayout, element_layout
from repro.core.pace_graph import PaceGraph
from repro.core.paths import Path

__all__ = [
    "Distribution",
    "JointDistribution",
    "assemble_sequence",
    "Path",
    "EdgeGraph",
    "PaceGraph",
    "ElementKind",
    "WeightedElement",
    "ElementLayout",
    "element_layout",
    "ReproError",
    "DistributionError",
    "JointDistributionError",
    "PathError",
    "GraphError",
    "UnknownVertexError",
    "UnknownEdgeError",
    "RoutingError",
    "NoPathError",
    "HeuristicError",
    "DataError",
    "ConfigurationError",
]
