"""Building virtual paths (V-paths) from overlapping T-paths.

Stochastic-dominance pruning needs independence between the pieces a path's
cost is assembled from.  The PACE model breaks that independence through
overlapping T-paths, so the paper pre-computes *virtual paths*: whenever two
T-paths overlap, their assembly (Eq. 1) is evaluated offline and stored as a
new V-path; overlapping V-paths are then merged into longer V-paths, and so
on.  After this closure, the distribution of any path decomposes into
non-overlapping edges / T-paths / V-paths, whose total costs are independent
(Lemma 4.1) — so online routing only needs convolution and can prune with
stochastic dominance again.

The construction here follows Section 4.1:

* round 1 combines overlapping T-path pairs whose merged underlying path is
  not itself a T-path,
* later rounds combine overlapping V-paths (the merged path can never be a
  T-path, because its sub-paths already had fewer than ``τ`` trajectories),
* merging stops when a round produces nothing new, or when the optional
  cardinality / count budgets are exhausted (the knobs this laptop-scale
  reproduction exposes because the closure is the expensive part of the
  paper's offline phase).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.elements import ElementKind, WeightedElement
from repro.core.errors import ConfigurationError, JointDistributionError
from repro.core.joint import JointDistribution
from repro.core.pace_graph import PaceGraph

__all__ = ["VPathBuilderConfig", "VPathBuildResult", "build_vpaths"]


@dataclass(frozen=True)
class VPathBuilderConfig:
    """Parameters bounding the V-path closure."""

    max_cardinality: int = 8
    max_vpaths: int = 20000
    max_joint_outcomes: int = 512
    max_rounds: int | None = None

    def validate(self) -> None:
        if self.max_cardinality < 2:
            raise ConfigurationError("max_cardinality must be at least 2")
        if self.max_vpaths < 1:
            raise ConfigurationError("max_vpaths must be positive")
        if self.max_joint_outcomes < 1:
            raise ConfigurationError("max_joint_outcomes must be positive")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ConfigurationError("max_rounds must be positive when given")


@dataclass(frozen=True)
class VPathBuildResult:
    """The outcome of the V-path closure."""

    vpaths: dict[tuple[int, ...], WeightedElement]
    rounds: int
    build_seconds: float

    @property
    def count(self) -> int:
        return len(self.vpaths)

    def cardinality_histogram(self) -> dict[int, int]:
        """Number of V-paths per cardinality (Fig. 10c groups V-paths this way)."""
        histogram: dict[int, int] = {}
        for element in self.vpaths.values():
            histogram[element.cardinality] = histogram.get(element.cardinality, 0) + 1
        return histogram


def _cap_joint(joint: JointDistribution, max_outcomes: int) -> JointDistribution:
    """Keep only the ``max_outcomes`` most likely outcomes (renormalised)."""
    if len(joint) <= max_outcomes:
        return joint
    ranked = sorted(joint.items(), key=lambda item: item[1], reverse=True)[:max_outcomes]
    return JointDistribution._trusted(joint.edge_ids, dict(ranked))


def _combine(
    left: WeightedElement,
    right: WeightedElement,
    max_outcomes: int,
) -> WeightedElement | None:
    """Merge two overlapping elements into a V-path candidate, or ``None`` if impossible."""
    overlap = left.path.overlap_with(right.path)
    if overlap is None or len(overlap) == len(right.path):
        return None
    merged_path = left.path.merge_overlapping(right.path)
    if not merged_path.is_simple():
        return None
    try:
        joint = left.joint_distribution().assemble(right.joint_distribution())
    except JointDistributionError:
        # The two joints disagree completely on their shared edges; skip the pair.
        return None
    joint = _cap_joint(joint, max_outcomes)
    return WeightedElement(
        kind=ElementKind.VPATH,
        path=merged_path,
        distribution=joint.total_cost_distribution(),
        joint=joint,
        support=0,
    )


def build_vpaths(
    pace_graph: PaceGraph, config: VPathBuilderConfig | None = None
) -> VPathBuildResult:
    """Run the V-path closure over the T-paths of a PACE graph."""
    config = config or VPathBuilderConfig()
    config.validate()
    start_time = time.perf_counter()

    tpath_keys = {tpath.path.edges for tpath in pace_graph.tpaths()}
    vpaths: dict[tuple[int, ...], WeightedElement] = {}
    # Elements of the previous round, indexed by their first edge for fast overlap probing.
    current_generation = list(pace_graph.tpaths())
    rounds = 0

    def register(element: WeightedElement) -> bool:
        key = element.path.edges
        if key in tpath_keys or key in vpaths:
            return False
        if element.cardinality > config.max_cardinality:
            return False
        vpaths[key] = element
        return True

    # Index all combinable elements (T-paths in round 1, V-paths later) by source vertex.
    while current_generation and (config.max_rounds is None or rounds < config.max_rounds):
        rounds += 1
        by_source: dict[int, list[WeightedElement]] = {}
        pool = current_generation if rounds > 1 else list(pace_graph.tpaths())
        for element in pool:
            by_source.setdefault(element.source, []).append(element)

        next_generation: list[WeightedElement] = []
        for left in current_generation if rounds > 1 else list(pace_graph.tpaths()):
            # Candidates must start at one of the vertices interior to / at the end of `left`.
            for start_vertex in left.path.vertices[1:]:
                for right in by_source.get(start_vertex, []):
                    if len(vpaths) >= config.max_vpaths:
                        break
                    combined = _combine(left, right, config.max_joint_outcomes)
                    if combined is None:
                        continue
                    if register(combined):
                        next_generation.append(combined)
                if len(vpaths) >= config.max_vpaths:
                    break
            if len(vpaths) >= config.max_vpaths:
                break
        if len(vpaths) >= config.max_vpaths:
            break
        current_generation = next_generation

    # The stored V-paths keep only their total-cost distribution: once the closure is
    # complete the joints are no longer needed (the whole point of V-paths).
    stripped = {
        key: WeightedElement(
            kind=ElementKind.VPATH,
            path=element.path,
            distribution=element.distribution,
            joint=None,
            support=0,
        )
        for key, element in vpaths.items()
    }
    elapsed = time.perf_counter() - start_time
    return VPathBuildResult(vpaths=stripped, rounds=rounds, build_seconds=elapsed)
