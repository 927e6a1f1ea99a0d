"""Joint cost distributions over the edges of a path, and the assembly operator.

The PACE model maintains, for every T-path, a *joint* distribution over the
cost vectors of its edges (Table 2(a) of the paper).  The joint preserves the
dependency among edge costs — e.g. that a driver who is fast on ``e1`` is also
fast on ``e2`` — which a product of edge marginals would destroy.

The key operation is the T-path assembly ``⋄`` (Eq. 1):

    D_J(P) = W_J(p1) ⋄ W_J(p2) ⋄ ... ⋄ W_J(pm)
           = Π W_J(p_i)  /  Π W_J(p_i ∩ p_{i+1})

for a coarsest T-path sequence of ``P`` whose consecutive elements overlap.
Dividing by the overlap joint is the usual conditional-chain (Markov)
construction: the cost of the next T-path is conditioned on the costs of the
edges it shares with the previous one.  When consecutive elements do not
overlap they are independent and the assembly degenerates to a product, which
at the total-cost level is plain convolution — the basis of Lemma 4.1 and the
V-path construction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from repro.core.distributions import PROBABILITY_TOLERANCE, Distribution
from repro.core.errors import JointDistributionError

__all__ = ["JointDistribution", "assemble_sequence"]


class JointDistribution:
    """A discrete joint distribution over the per-edge costs of a path.

    Parameters
    ----------
    edge_ids:
        The edges the joint is defined over, in path order.
    pmf:
        Mapping from cost vectors (tuples aligned with ``edge_ids``) to
        probabilities.  Probabilities must sum to one.
    """

    __slots__ = ("_edge_ids", "_pmf")

    def __init__(
        self,
        edge_ids: Sequence[int],
        pmf: Mapping[tuple[float, ...], float] | Iterable[tuple[tuple[float, ...], float]],
        *,
        normalise: bool = False,
    ):
        edge_ids = tuple(int(e) for e in edge_ids)
        if not edge_ids:
            raise JointDistributionError("a joint distribution needs at least one edge")
        if len(set(edge_ids)) != len(edge_ids):
            raise JointDistributionError("edge ids in a joint distribution must be distinct")
        items = pmf.items() if isinstance(pmf, Mapping) else pmf
        accumulator: dict[tuple[float, ...], float] = {}
        for costs, prob in items:
            costs = tuple(float(c) for c in costs)
            if len(costs) != len(edge_ids):
                raise JointDistributionError(
                    f"cost vector {costs!r} does not match the {len(edge_ids)} edges of the joint"
                )
            if any(c < 0 or not math.isfinite(c) for c in costs):
                raise JointDistributionError(f"costs must be finite and non-negative, got {costs!r}")
            if prob < -PROBABILITY_TOLERANCE or not math.isfinite(prob):
                raise JointDistributionError(f"probabilities must be non-negative, got {prob!r}")
            if prob <= 0:
                continue
            accumulator[costs] = accumulator.get(costs, 0.0) + float(prob)
        if not accumulator:
            raise JointDistributionError("a joint distribution needs at least one outcome")
        total = sum(accumulator.values())
        if not normalise and abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise JointDistributionError(f"probabilities must sum to 1, got {total!r}")
        self._edge_ids = edge_ids
        self._pmf = {costs: prob / total for costs, prob in accumulator.items()}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_normalised(
        cls,
        edge_ids: Sequence[int],
        items: Iterable[tuple[tuple[float, ...], float]],
    ) -> "JointDistribution":
        """Reconstruct a joint from already-normalised persisted outcomes.

        Like :meth:`repro.core.distributions.Distribution.from_normalised`,
        this skips the constructor's rescale-by-total so loading a persisted
        joint restores the exact probabilities it was saved with (rescaling
        by a sum one ULP off 1.0 would change every float and with it the
        graph's content fingerprint).  Outcomes must be distinct, finite and
        positive, with probabilities summing to 1 within the tolerance.
        """
        edge_ids = tuple(int(e) for e in edge_ids)
        if not edge_ids:
            raise JointDistributionError("a joint distribution needs at least one edge")
        if len(set(edge_ids)) != len(edge_ids):
            raise JointDistributionError("edge ids in a joint distribution must be distinct")
        pmf: dict[tuple[float, ...], float] = {}
        for costs, prob in items:
            costs = tuple(float(c) for c in costs)
            if len(costs) != len(edge_ids):
                raise JointDistributionError(
                    f"cost vector {costs!r} does not match the {len(edge_ids)} edges of the joint"
                )
            if any(c < 0 or not math.isfinite(c) for c in costs):
                raise JointDistributionError(f"costs must be finite and non-negative, got {costs!r}")
            prob = float(prob)
            if prob <= 0 or not math.isfinite(prob):
                raise JointDistributionError(
                    f"persisted probabilities must be positive and finite, got {prob!r}"
                )
            if costs in pmf:
                raise JointDistributionError(f"duplicate persisted outcome {costs!r}")
            pmf[costs] = prob
        if not pmf:
            raise JointDistributionError("a joint distribution needs at least one outcome")
        total = sum(pmf.values())
        if abs(total - 1.0) > PROBABILITY_TOLERANCE:
            raise JointDistributionError(
                f"persisted probabilities must sum to 1, got {total!r}"
            )
        self = object.__new__(cls)
        self._edge_ids = edge_ids
        self._pmf = pmf
        return self

    @classmethod
    def _trusted(
        cls,
        edge_ids: tuple[int, ...],
        outcomes: dict[tuple[float, ...], float],
    ) -> "JointDistribution":
        """Normalise outcomes built from the cost vectors of validated joints.

        The cost vectors are concatenations of already validated ones and
        ``edge_ids`` is distinct, so only the checks the constructor applies
        to the probabilities remain: non-positive entries are dropped, a
        non-finite one is refused, and the rest are divided by their sum —
        the same floats ``JointDistribution(edge_ids, outcomes,
        normalise=True)`` would produce, without re-checking every cost.
        """
        positive = {costs: prob for costs, prob in outcomes.items() if prob > 0}
        if not positive:
            raise JointDistributionError("a joint distribution needs at least one outcome")
        total = sum(positive.values())
        if not math.isfinite(total):
            for prob in positive.values():
                if not math.isfinite(prob):
                    raise JointDistributionError(
                        f"probabilities must be non-negative, got {prob!r}"
                    )
        self = object.__new__(cls)
        self._edge_ids = edge_ids
        self._pmf = {costs: prob / total for costs, prob in positive.items()}
        return self

    @classmethod
    def from_samples(
        cls,
        edge_ids: Sequence[int],
        cost_vectors: Sequence[Sequence[float]],
        *,
        resolution: float = 1.0,
    ) -> "JointDistribution":
        """Estimate a joint from observed per-edge cost vectors (one per trajectory)."""
        if not cost_vectors:
            raise JointDistributionError("cannot estimate a joint from zero trajectories")
        if resolution <= 0:
            raise JointDistributionError("resolution must be positive")
        counts: dict[tuple[float, ...], int] = {}
        for vector in cost_vectors:
            binned = tuple(round(c / resolution) * resolution for c in vector)
            counts[binned] = counts.get(binned, 0) + 1
        n = len(cost_vectors)
        return cls(edge_ids, {costs: count / n for costs, count in counts.items()})

    @classmethod
    def independent(cls, edge_ids: Sequence[int], marginals: Sequence[Distribution]) -> "JointDistribution":
        """Build a joint as the product of independent per-edge marginals."""
        if len(edge_ids) != len(marginals):
            raise JointDistributionError("need exactly one marginal per edge")
        outcomes: dict[tuple[float, ...], float] = {(): 1.0}
        for marginal in marginals:
            extended: dict[tuple[float, ...], float] = {}
            for costs, prob in outcomes.items():
                for value, p in marginal.items():
                    extended[costs + (value,)] = extended.get(costs + (value,), 0.0) + prob * p
            outcomes = extended
        return cls(edge_ids, outcomes)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def edge_ids(self) -> tuple[int, ...]:
        """The edges this joint is defined over, in path order."""
        return self._edge_ids

    @property
    def pmf(self) -> dict[tuple[float, ...], float]:
        """A copy of the probability mass function."""
        return dict(self._pmf)

    def items(self):
        """Iterate over ``(cost_vector, probability)`` pairs."""
        return self._pmf.items()

    def __len__(self) -> int:
        return len(self._pmf)

    def __repr__(self) -> str:
        return f"JointDistribution(edges={list(self._edge_ids)}, outcomes={len(self._pmf)})"

    def probability_of(self, costs: Sequence[float]) -> float:
        """The probability of an exact per-edge cost vector."""
        return self._pmf.get(tuple(float(c) for c in costs), 0.0)

    # ------------------------------------------------------------------ #
    # Projections
    # ------------------------------------------------------------------ #
    def marginal(self, edge_ids: Sequence[int]) -> "JointDistribution":
        """The marginal joint over a subset of edges (kept in the given order)."""
        edge_ids = tuple(int(e) for e in edge_ids)
        try:
            positions = [self._edge_ids.index(e) for e in edge_ids]
        except ValueError as exc:
            raise JointDistributionError(f"edge not covered by this joint: {exc}") from exc
        accumulator: dict[tuple[float, ...], float] = {}
        for costs, prob in self._pmf.items():
            key = tuple(costs[i] for i in positions)
            accumulator[key] = accumulator.get(key, 0.0) + prob
        return JointDistribution(edge_ids, accumulator)

    def edge_marginal(self, edge_id: int) -> Distribution:
        """The marginal cost distribution of a single edge."""
        accumulator: dict[float, float] = {}
        position = self._edge_ids.index(edge_id)
        for costs, prob in self._pmf.items():
            accumulator[costs[position]] = accumulator.get(costs[position], 0.0) + prob
        return Distribution(accumulator.items(), normalise=True)

    def total_cost_distribution(self) -> Distribution:
        """The distribution of the total (summed) cost — Table 2(b) in the paper."""
        accumulator: dict[float, float] = {}
        for costs, prob in self._pmf.items():
            total = sum(costs)
            accumulator[total] = accumulator.get(total, 0.0) + prob
        return Distribution(accumulator.items(), normalise=True)

    # ------------------------------------------------------------------ #
    # Assembly (Eq. 1)
    # ------------------------------------------------------------------ #
    def assemble(
        self,
        other: "JointDistribution",
        *,
        overlap: "JointDistribution | None" = None,
    ) -> "JointDistribution":
        """The assembly ``self ⋄ other`` of two (possibly overlapping) path joints.

        The overlap is the set of edges the two joints share; it must be a
        suffix of ``self`` and a prefix of ``other`` in edge order.  The
        result is defined over the union of the edges, with

            P(a ∪ b) = P_self(a) * P_other(b) / P_overlap(o)

        where ``o`` is the shared sub-vector.  ``overlap`` defaults to the
        marginal of ``other`` on the shared edges, which makes the operation a
        proper conditional chain (probabilities sum to one as long as every
        overlap outcome of ``self`` also has positive mass under ``other``).
        When the two joints share no edges they are treated as independent.

        Cost: with shared edges, one pass groups the left outcomes by their
        overlap suffix and each right outcome walks only its group, so the
        work is ``O(|self| + |other| + produced pairs)`` rather than
        ``|self| · |other|`` steps (262k at the 512-outcome cap of the V-path
        closure).  Without shared edges the product takes every pair.
        """
        shared = [e for e in self._edge_ids if e in other._edge_ids]
        if not shared:
            combined: dict[tuple[float, ...], float] = {}
            for costs_a, prob_a in self._pmf.items():
                for costs_b, prob_b in other._pmf.items():
                    combined[costs_a + costs_b] = (
                        combined.get(costs_a + costs_b, 0.0) + prob_a * prob_b
                    )
            return JointDistribution(self._edge_ids + other._edge_ids, combined)

        shared_tuple = tuple(shared)
        if self._edge_ids[-len(shared_tuple) :] != shared_tuple:
            raise JointDistributionError(
                f"overlap {shared_tuple} is not a suffix of the left joint {self._edge_ids}"
            )
        if other._edge_ids[: len(shared_tuple)] != shared_tuple:
            raise JointDistributionError(
                f"overlap {shared_tuple} is not a prefix of the right joint {other._edge_ids}"
            )
        overlap_joint = overlap if overlap is not None else other.marginal(shared_tuple)
        if tuple(overlap_joint.edge_ids) != shared_tuple:
            overlap_joint = overlap_joint.marginal(shared_tuple)

        width = len(shared_tuple)
        new_edges = self._edge_ids + other._edge_ids[width:]
        # Hash join on the overlap: each right outcome meets only the left
        # outcomes whose suffix equals its prefix, in the left joint's order,
        # so ``combined`` sees the same pairs in the same order (and the same
        # float sums) as a scan of every left outcome would.
        left_by_overlap: dict[tuple[float, ...], list[tuple[tuple[float, ...], float]]] = {}
        for costs_a, prob_a in self._pmf.items():
            left_by_overlap.setdefault(costs_a[-width:], []).append((costs_a, prob_a))
        overlap_pmf = overlap_joint._pmf
        combined = {}
        for costs_b, prob_b in other._pmf.items():
            overlap_costs = costs_b[:width]
            denom = overlap_pmf.get(overlap_costs, 0.0)
            if denom <= 0:
                continue
            tail = costs_b[width:]
            for costs_a, prob_a in left_by_overlap.get(overlap_costs, ()):
                key = costs_a + tail
                combined[key] = combined.get(key, 0.0) + prob_a * prob_b / denom
        if not combined:
            raise JointDistributionError(
                "assembly produced an empty distribution: the overlap outcomes of the two "
                "joints are disjoint"
            )
        return JointDistribution._trusted(new_edges, combined)

    def restrict_to_resolution(self, resolution: float) -> "JointDistribution":
        """Round every per-edge cost to the nearest multiple of ``resolution``."""
        if resolution <= 0:
            raise JointDistributionError("resolution must be positive")
        accumulator: dict[tuple[float, ...], float] = {}
        for costs, prob in self._pmf.items():
            key = tuple(round(c / resolution) * resolution for c in costs)
            accumulator[key] = accumulator.get(key, 0.0) + prob
        return JointDistribution(self._edge_ids, accumulator, normalise=True)


def assemble_sequence(joints: Sequence[JointDistribution]) -> JointDistribution:
    """Assemble a whole coarsest T-path sequence ``p1 ⋄ p2 ⋄ ... ⋄ pm``.

    Consecutive joints may overlap (shared edges) or be merely adjacent
    (no shared edges, treated as independent).
    """
    if not joints:
        raise JointDistributionError("cannot assemble an empty sequence")
    result = joints[0]
    for joint in joints[1:]:
        result = result.assemble(joint)
    return result
