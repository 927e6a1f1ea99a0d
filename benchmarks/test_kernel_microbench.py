"""Micro-benchmark: vectorized distribution kernel vs the scalar reference.

The routing algorithms bottom out in chained ``convolve`` (candidate
extension) and ``stochastically_dominates`` (pruning) calls, so this
benchmark times exactly that workload on both kernels:

* build a pool of random distributions on a 5-second resolution grid,
* run convolution chains bounded by ``max_support`` (the router's usage), and
* run all-pairs dominance checks over the chain results.

The acceptance bar for the NumPy rewrite is a >= 3x speed-up over the seed's
dict/tuple-scan implementation (preserved verbatim in
:mod:`tests.oracles.core`); in practice the margin is far larger.
A report with the measured timings is written to ``results/``.
"""

from __future__ import annotations

import random
import time

from tests.oracles.core import ScalarDistribution
from repro.core.distributions import Distribution
from repro.evaluation.reporting import render_report, write_report

#: Workload shape: convolution chains as the V-path router produces them.
POOL_SIZE = 24
SUPPORT_SIZE = 48
CHAIN_LENGTH = 12
MAX_SUPPORT = 128
SPEEDUP_FLOOR = 3.0


def _random_pairs(rng: random.Random) -> list[tuple[float, float]]:
    values = rng.sample(range(0, 4000, 5), SUPPORT_SIZE)
    weights = [rng.random() + 0.05 for _ in values]
    total = sum(weights)
    return [(float(v), w / total) for v, w in zip(values, weights)]


def _workload(kernel, pool) -> float:
    """Run the chained convolve + dominance workload; return a checksum."""
    chained = []
    for start in range(0, POOL_SIZE, CHAIN_LENGTH):
        acc = pool[start]
        for other in pool[start + 1 : start + CHAIN_LENGTH]:
            acc = acc.convolve(other, max_support=MAX_SUPPORT)
        chained.append(acc)
    checksum = sum(d.expectation() for d in chained)
    dominance_hits = 0
    for a in chained:
        for b in pool:
            if a.stochastically_dominates(b):
                dominance_hits += 1
            if b.stochastically_dominates(a):
                dominance_hits += 1
    return checksum + dominance_hits


def _time(function, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_microbench():
    rng = random.Random(1234)
    pair_lists = [_random_pairs(rng) for _ in range(POOL_SIZE)]
    vector_pool = [Distribution.from_pairs(pairs) for pairs in pair_lists]
    scalar_pool = [ScalarDistribution(pairs) for pairs in pair_lists]

    # Same workload, same inputs: the kernels must agree before being timed.
    vector_checksum = _workload(Distribution, vector_pool)
    scalar_checksum = _workload(ScalarDistribution, scalar_pool)
    assert abs(vector_checksum - scalar_checksum) <= 1e-6 * max(abs(scalar_checksum), 1.0)

    vector_seconds = _time(_workload, Distribution, vector_pool)
    scalar_seconds = _time(_workload, ScalarDistribution, scalar_pool)
    speedup = scalar_seconds / max(vector_seconds, 1e-12)

    report = render_report(
        "Kernel micro-benchmark: chained convolve + stochastic dominance",
        ("kernel", "best-of-3 (ms)", "speedup"),
        (
            ("scalar (seed)", round(scalar_seconds * 1000, 2), "1.0x"),
            ("vectorized (NumPy)", round(vector_seconds * 1000, 2), f"{speedup:.1f}x"),
        ),
    )
    write_report(report, "kernel_microbench.txt")

    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized kernel is only {speedup:.2f}x faster than the scalar seed "
        f"(expected >= {SPEEDUP_FLOOR}x): scalar {scalar_seconds * 1000:.1f} ms, "
        f"vectorized {vector_seconds * 1000:.1f} ms"
    )
