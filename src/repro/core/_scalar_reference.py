"""Scalar reference implementations of the distribution kernel and of Eq. 1.

This module preserves the original pure-Python semantics of
:class:`repro.core.distributions.Distribution` — dict-accumulator
convolution, tuple-scan CDF lookups, pairwise dominance over the merged
support — from before the NumPy rewrite, and the nested-loop T-path
assembly ``⋄`` that :meth:`repro.core.joint.JointDistribution.assemble`
replaced with a hash join.  It exists for two reasons:

* the property-based tests in ``tests/test_kernel_reference.py`` and
  ``tests/test_joint.py`` check that the production code agrees with these
  (much simpler, obviously-correct) implementations, and
* the micro-benchmark in ``benchmarks/test_kernel_microbench.py`` measures
  the vectorized kernel's speed-up against it on chained convolution and
  dominance workloads, and ``benchmarks/test_closure_parity.py`` builds a
  city-scale V-path closure with each assembly.

It is deliberately *not* exported from :mod:`repro.core`: production code
must use :class:`~repro.core.distributions.Distribution` and
:class:`~repro.core.joint.JointDistribution`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator

from repro.core.errors import JointDistributionError
from repro.core.joint import JointDistribution

__all__ = ["ScalarDistribution", "assemble_reference"]

_PROBABILITY_TOLERANCE = 1e-6


def _merge_identical_values(pairs: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge bit-identical support values, summing their probabilities."""
    merged: dict[float, float] = {}
    for value, prob in pairs:
        merged[value] = merged.get(value, 0.0) + prob
    return sorted(merged.items())


class ScalarDistribution:
    """The seed's dict-and-tuple distribution, kept as a reference oracle."""

    __slots__ = ("_values", "_probs", "_cdf")

    def __init__(self, pairs: Iterable[tuple[float, float]], *, normalise: bool = False):
        merged = _merge_identical_values(pairs)
        if not merged:
            raise ValueError("a distribution needs at least one (cost, probability) pair")
        values: list[float] = []
        probs: list[float] = []
        for value, prob in merged:
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"cost values must be finite and non-negative, got {value!r}")
            if not math.isfinite(prob) or prob < -_PROBABILITY_TOLERANCE:
                raise ValueError(f"probabilities must be non-negative, got {prob!r}")
            if prob <= 0:
                continue
            values.append(float(value))
            probs.append(float(prob))
        if not values:
            raise ValueError("all probabilities were zero")
        total = sum(probs)
        if not normalise and abs(total - 1.0) > _PROBABILITY_TOLERANCE:
            raise ValueError(f"probabilities must sum to 1, got {total!r}")
        probs = [p / total for p in probs]
        self._values: tuple[float, ...] = tuple(values)
        self._probs: tuple[float, ...] = tuple(probs)
        cdf = []
        acc = 0.0
        for p in self._probs:
            acc += p
            cdf.append(acc)
        self._cdf: tuple[float, ...] = tuple(cdf)

    # ------------------------------------------------------------------ #
    @property
    def support(self) -> tuple[float, ...]:
        return self._values

    @property
    def probabilities(self) -> tuple[float, ...]:
        return self._probs

    def items(self) -> Iterator[tuple[float, float]]:
        return zip(self._values, self._probs)

    def __len__(self) -> int:
        return len(self._values)

    def min(self) -> float:
        return self._values[0]

    def max(self) -> float:
        return self._values[-1]

    def expectation(self) -> float:
        return sum(v * p for v, p in self.items())

    def pdf(self, value: float, *, tolerance: float = 1e-9) -> float:
        for v, p in self.items():
            if abs(v - value) <= tolerance:
                return p
        return 0.0

    def cdf(self, value: float) -> float:
        lo, hi = 0, len(self._values)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._values[mid] <= value:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return 0.0
        return self._cdf[lo - 1]

    def quantile(self, q: float) -> float:
        for value, acc in zip(self._values, self._cdf):
            if acc >= q - _PROBABILITY_TOLERANCE:
                return value
        return self._values[-1]

    def convolve(self, other: "ScalarDistribution", *, max_support: int | None = None) -> "ScalarDistribution":
        accumulator: dict[float, float] = {}
        for v1, p1 in self.items():
            for v2, p2 in other.items():
                total = v1 + v2
                accumulator[total] = accumulator.get(total, 0.0) + p1 * p2
        result = ScalarDistribution(accumulator.items(), normalise=True)
        if max_support is not None and len(result) > max_support:
            result = result.compress(max_support)
        return result

    def compress(self, max_support: int) -> "ScalarDistribution":
        if max_support < 1:
            raise ValueError("max_support must be at least 1")
        if len(self) <= max_support:
            return self
        lo, hi = self.min(), self.max()
        if max_support == 1 or hi == lo:
            return ScalarDistribution([(self.expectation(), 1.0)])
        step = (hi - lo) / (max_support - 1)
        accumulator: dict[float, float] = {}
        for v, p in self.items():
            idx = round((v - lo) / step)
            grid_value = lo + idx * step
            accumulator[grid_value] = accumulator.get(grid_value, 0.0) + p
        return ScalarDistribution(accumulator.items(), normalise=True)

    def stochastically_dominates(self, other: "ScalarDistribution", *, strict: bool = False) -> bool:
        points = sorted(set(self._values) | set(other._values))
        some_strict = False
        for x in points:
            own = self.cdf(x)
            theirs = other.cdf(x)
            if own < theirs - _PROBABILITY_TOLERANCE:
                return False
            if own > theirs + _PROBABILITY_TOLERANCE:
                some_strict = True
        return some_strict if strict else True


def assemble_reference(
    left: JointDistribution,
    right: JointDistribution,
    *,
    overlap: JointDistribution | None = None,
) -> JointDistribution:
    """``left ⋄ right`` by the original nested loop (same contract as ``assemble``).

    Every right outcome scans every left outcome and compares the projection
    of the shared edges, and the result goes through the validating
    constructor.  Bound to ``JointDistribution.assemble`` it reproduces the
    pre-hash-join behaviour bit for bit.
    """
    left_edges = tuple(left.edge_ids)
    right_edges = tuple(right.edge_ids)
    shared = [e for e in left_edges if e in right_edges]
    if not shared:
        combined: dict[tuple[float, ...], float] = {}
        for costs_a, prob_a in left.items():
            for costs_b, prob_b in right.items():
                combined[costs_a + costs_b] = (
                    combined.get(costs_a + costs_b, 0.0) + prob_a * prob_b
                )
        return JointDistribution(left_edges + right_edges, combined)

    shared_tuple = tuple(shared)
    if left_edges[-len(shared_tuple) :] != shared_tuple:
        raise JointDistributionError(
            f"overlap {shared_tuple} is not a suffix of the left joint {left_edges}"
        )
    if right_edges[: len(shared_tuple)] != shared_tuple:
        raise JointDistributionError(
            f"overlap {shared_tuple} is not a prefix of the right joint {right_edges}"
        )
    overlap_joint = overlap if overlap is not None else right.marginal(shared_tuple)
    if tuple(overlap_joint.edge_ids) != shared_tuple:
        overlap_joint = overlap_joint.marginal(shared_tuple)

    new_edges = left_edges + right_edges[len(shared_tuple) :]
    left_positions = [left_edges.index(e) for e in shared_tuple]
    combined = {}
    for costs_b, prob_b in right.items():
        overlap_costs = costs_b[: len(shared_tuple)]
        denom = overlap_joint.probability_of(overlap_costs)
        if denom <= 0:
            continue
        tail = costs_b[len(shared_tuple) :]
        for costs_a, prob_a in left.items():
            if tuple(costs_a[i] for i in left_positions) != overlap_costs:
                continue
            key = costs_a + tail
            combined[key] = combined.get(key, 0.0) + prob_a * prob_b / denom
    if not combined:
        raise JointDistributionError(
            "assembly produced an empty distribution: the overlap outcomes of the two "
            "joints are disjoint"
        )
    return JointDistribution(new_edges, combined, normalise=True)
