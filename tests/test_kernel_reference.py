"""Property-based agreement tests: vectorized kernel vs the scalar reference.

The NumPy-backed :class:`repro.core.distributions.Distribution` must agree
with the simple, obviously-correct scalar implementation preserved in
:mod:`tests.oracles.core` on every operation the routing algorithms
use.  Random distributions are drawn with well-separated support values (gaps
far above the kernel's merge tolerance) so both implementations see the same
support grid.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.core import ScalarDistribution
from repro.core.distributions import Distribution


def _pair_lists(max_size: int = 8):
    """Random (cost, weight) pair lists with well-separated costs."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=400).map(lambda n: n * 0.5),
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        ),
        min_size=1,
        max_size=max_size,
    )


def _both(pairs):
    return (
        Distribution.from_pairs(pairs, normalise=True),
        ScalarDistribution(pairs, normalise=True),
    )


def _assert_same(vectorized: Distribution, scalar: ScalarDistribution) -> None:
    assert len(vectorized) == len(scalar)
    for (v_value, v_prob), (s_value, s_prob) in zip(vectorized.items(), scalar.items()):
        assert v_value == pytest.approx(s_value, abs=1e-9)
        assert v_prob == pytest.approx(s_prob, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(_pair_lists())
def test_construction_agrees(pairs):
    _assert_same(*_both(pairs))


@settings(max_examples=60, deadline=None)
@given(_pair_lists(), _pair_lists())
def test_convolve_agrees(pairs_a, pairs_b):
    vec_a, ref_a = _both(pairs_a)
    vec_b, ref_b = _both(pairs_b)
    _assert_same(vec_a.convolve(vec_b), ref_a.convolve(ref_b))


@settings(max_examples=40, deadline=None)
@given(_pair_lists(), _pair_lists(), st.integers(min_value=2, max_value=12))
def test_convolve_with_max_support_agrees(pairs_a, pairs_b, max_support):
    vec_a, ref_a = _both(pairs_a)
    vec_b, ref_b = _both(pairs_b)
    _assert_same(
        vec_a.convolve(vec_b, max_support=max_support),
        ref_a.convolve(ref_b, max_support=max_support),
    )


@settings(max_examples=80, deadline=None)
@given(_pair_lists(), st.floats(min_value=-10, max_value=250, allow_nan=False))
def test_cdf_agrees(pairs, point):
    vectorized, scalar = _both(pairs)
    assert vectorized.cdf(point) == pytest.approx(scalar.cdf(point), abs=1e-9)
    # On-support queries exercise the boundary of the searchsorted lookup.
    for value in scalar.support:
        assert vectorized.cdf(value) == pytest.approx(scalar.cdf(value), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(_pair_lists(), st.floats(min_value=0, max_value=250, allow_nan=False))
def test_pdf_agrees(pairs, point):
    vectorized, scalar = _both(pairs)
    assert vectorized.pdf(point) == pytest.approx(scalar.pdf(point), abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(_pair_lists(), st.sampled_from([i / 20 for i in range(21)]))
def test_quantile_agrees(pairs, level):
    vectorized, scalar = _both(pairs)
    assert vectorized.quantile(level) == pytest.approx(scalar.quantile(level), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(_pair_lists(), _pair_lists())
def test_dominance_agrees(pairs_a, pairs_b):
    vec_a, ref_a = _both(pairs_a)
    vec_b, ref_b = _both(pairs_b)
    assert vec_a.stochastically_dominates(vec_b) == ref_a.stochastically_dominates(ref_b)
    assert vec_a.stochastically_dominates(vec_b, strict=True) == ref_a.stochastically_dominates(
        ref_b, strict=True
    )
    assert vec_b.stochastically_dominates(vec_a) == ref_b.stochastically_dominates(ref_a)


@settings(max_examples=60, deadline=None)
@given(_pair_lists(max_size=16), st.integers(min_value=1, max_value=10))
def test_compress_agrees(pairs, max_support):
    vectorized, scalar = _both(pairs)
    _assert_same(vectorized.compress(max_support), scalar.compress(max_support))


@settings(max_examples=60, deadline=None)
@given(_pair_lists())
def test_summaries_agree(pairs):
    vectorized, scalar = _both(pairs)
    assert vectorized.expectation() == pytest.approx(scalar.expectation(), abs=1e-9)
    assert vectorized.min() == pytest.approx(scalar.min(), abs=1e-12)
    assert vectorized.max() == pytest.approx(scalar.max(), abs=1e-12)
