"""Heuristic interface shared by the routing algorithms.

A heuristic estimates, for an intermediate vertex ``v_i`` and a remaining
budget ``x``, the largest possible probability ``U(v_i, x)`` of reaching the
query destination within ``x`` cost units (Section 3.1).  Routing only relies
on two properties:

* **admissibility** — ``U`` never under-estimates the true maximum
  probability, so pruning and early termination stay correct, and
* a cheap lower bound ``getMin(v_i)`` on the cost of reaching the destination
  at all, used for budget pruning (``D(P).min + v.getMin() <= B``).

Three implementations exist: the trivial heuristic (used by T-None / V-None),
the binary heuristics (:mod:`repro.heuristics.binary`), and the
budget-specific heuristic tables (:mod:`repro.heuristics.budget`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.distributions import Distribution

__all__ = ["Heuristic", "NoHeuristic", "max_prob", "max_prob_segments"]

#: Below this support size (and only for a single segment) the scalar
#: ``maxProb`` loop beats the fixed per-call overhead of the vectorized
#: lookup.  This lives next to :func:`max_prob_segments` — the one Eq. 3
#: implementation — and selects between its two arithmetically identical
#: evaluation strategies.
_BATCH_THRESHOLD = 8


class Heuristic(abc.ABC):
    """Destination-specific admissible estimate of reachability probabilities."""

    @property
    @abc.abstractmethod
    def destination(self) -> int:
        """The destination vertex this heuristic was built for."""

    @abc.abstractmethod
    def min_cost(self, vertex: int) -> float:
        """``v.getMin()``: a lower bound on the cost from ``vertex`` to the destination.

        Returns ``inf`` when the destination is unreachable from ``vertex``.
        """

    @abc.abstractmethod
    def probability(self, vertex: int, remaining_budget: float) -> float:
        """``U(vertex, x)``: an upper bound on the probability of arriving within ``x``."""

    def min_cost_many(self, vertices) -> np.ndarray:
        """``getMin`` for a whole array of vertices.

        The default loops over :meth:`min_cost`; the binary heuristics
        override it with one sorted-array gather so the batched frontier
        kernel prices an entire successor slice in a single call.
        """
        return np.array([self.min_cost(int(vertex)) for vertex in np.asarray(vertices)])

    def probability_many(self, vertices, budgets) -> np.ndarray:
        """``U(v_k, x_k)`` for paired arrays of vertices and residual budgets.

        One lookup per (vertex, budget) *pair* is what the segmented Eq. 3
        kernel needs: the concatenated supports of many candidate
        distributions, each paired with its candidate's end vertex.  The
        default loops; the concrete heuristics override it vectorized.
        """
        vertices = np.asarray(vertices)
        budgets = np.asarray(budgets, dtype=float)
        return np.array(
            [
                self.probability(int(vertex), float(budget))
                for vertex, budget in zip(vertices, budgets)
            ]
        )

    def storage_bytes(self) -> int:
        """Approximate storage needed to keep this heuristic in memory (for Tables 8–10)."""
        return 0


class NoHeuristic(Heuristic):
    """The trivial heuristic: everything looks reachable for free.

    Used by the baselines T-None and V-None; with it, ``maxProb`` degenerates
    to the probability of the candidate path itself, exactly the priority the
    existing PACE routing uses (Algorithm 1).
    """

    def __init__(self, destination: int):
        self._destination = destination

    @property
    def destination(self) -> int:
        return self._destination

    def min_cost(self, vertex: int) -> float:
        return 0.0

    def probability(self, vertex: int, remaining_budget: float) -> float:
        return 1.0 if remaining_budget >= 0 else 0.0

    def min_cost_many(self, vertices) -> np.ndarray:
        return np.zeros(len(np.asarray(vertices)))

    def probability_many(self, vertices, budgets) -> np.ndarray:
        budgets = np.asarray(budgets, dtype=float)
        return np.where(budgets >= 0, 1.0, 0.0)


def max_prob_segments(
    values: np.ndarray,
    probabilities: np.ndarray,
    offsets: np.ndarray,
    vertices: np.ndarray,
    heuristic: Heuristic,
    budget: float,
) -> np.ndarray:
    """Eq. 3 over many candidate distributions at once — the one implementation.

    ``values`` / ``probabilities`` are the concatenated supports of the
    candidates' cost distributions, ``offsets`` the ``len(candidates) + 1``
    segment boundaries into them, and ``vertices[k]`` the end vertex of
    candidate ``k``.  Returns one ``maxProb`` per candidate.  Segments must be
    non-empty (a distribution always has at least one support point).

    Both strategies below — the scalar small-support one and the vectorized
    one — build the exact same per-outcome terms (infeasible outcomes, with
    residual budget < 0, contribute an exact ``0.0``) and reduce them through
    the *same* ``np.add.reduceat`` op, whose per-segment result depends only
    on the segment's contents (not on its offset, nor on the other segments).
    A hand-written sequential Python sum would NOT do: numpy's reduction
    loops are unrolled and may associate additions differently, which
    changes the last ulp.  So the scalar path, the single-candidate
    :func:`max_prob` wrapper and a whole-frontier batch all produce bitwise
    identical numbers.
    """
    count = len(offsets) - 1
    if count == 0:
        return np.empty(0)
    if count == 1 and offsets[1] - offsets[0] <= _BATCH_THRESHOLD:
        vertex = int(vertices[0])
        terms = np.empty(len(values))
        for index, (cost, probability) in enumerate(zip(values, probabilities)):
            remaining = budget - cost
            if remaining < 0:
                terms[index] = 0.0
            else:
                terms[index] = probability * heuristic.probability(vertex, float(remaining))
        return np.add.reduceat(terms, np.array([0], dtype=np.intp))
    remaining = budget - np.asarray(values, dtype=float)
    segment_vertices = np.repeat(np.asarray(vertices), np.diff(offsets))
    bounds = heuristic.probability_many(segment_vertices, remaining)
    terms = np.where(remaining < 0, 0.0, np.asarray(probabilities, dtype=float) * bounds)
    return np.add.reduceat(terms, np.asarray(offsets[:-1], dtype=np.intp))


def max_prob(distribution: Distribution, heuristic: Heuristic, vertex: int, budget: float) -> float:
    """Eq. 3: the admissible upper bound on the arrival probability of a candidate path.

    ``distribution`` is the cost distribution of the candidate path from the
    source to ``vertex``; the heuristic bounds the probability of covering the
    remaining distance within what is left of ``budget``.  A thin
    single-candidate wrapper over :func:`max_prob_segments`.
    """
    values = distribution.values_array
    result = max_prob_segments(
        values,
        distribution.probabilities_array,
        np.array([0, len(values)]),
        np.array([vertex]),
        heuristic,
        budget,
    )
    return float(result[0])
