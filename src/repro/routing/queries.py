"""Routing queries and results.

A stochastic routing query is the triple the paper defines in Section 2.3:
source, destination and travel-cost budget (plus a departure time selecting
the peak or off-peak model).  A result carries the best path found, its cost
distribution and arrival probability, and the bookkeeping the experiments
report (runtime, number of explored candidate paths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.distributions import Distribution
from repro.core.errors import ConfigurationError
from repro.core.paths import Path

__all__ = ["RoutingQuery", "RoutingResult"]


@dataclass(frozen=True)
class RoutingQuery:
    """One arriving-on-time query: maximise ``Prob(cost <= budget)`` from source to destination."""

    source: int
    destination: int
    budget: float
    departure_time: float = 8 * 3600.0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ConfigurationError("source and destination must differ")
        if self.budget <= 0 or not math.isfinite(self.budget):
            raise ConfigurationError("the travel cost budget must be positive and finite")


@dataclass(frozen=True)
class RoutingResult:
    """The outcome of evaluating a routing query with one of the algorithms."""

    query: RoutingQuery
    method: str
    path: Path | None
    probability: float
    distribution: Distribution | None
    explored: int
    runtime_seconds: float

    def __post_init__(self) -> None:
        # A path's arrival probability sums its support's probabilities, which
        # can overshoot 1 by an ulp or two; answers are capped at 1.  The search
        # itself compares the unclamped distributions.
        if self.probability > 1.0:
            object.__setattr__(self, "probability", 1.0)

    @property
    def found(self) -> bool:
        """True when a path with positive arrival probability was found."""
        return self.path is not None

    def summary(self) -> str:
        """A one-line human-readable summary of the result."""
        if not self.found:
            return (
                f"[{self.method}] {self.query.source}->{self.query.destination}: "
                f"no path within budget {self.query.budget:g}"
            )
        return (
            f"[{self.method}] {self.query.source}->{self.query.destination}: "
            f"P(arrive within {self.query.budget:g}) = {self.probability:.3f} "
            f"({len(self.path.edges)} edges, {self.explored} candidates, "
            f"{self.runtime_seconds * 1000:.1f} ms)"
        )
