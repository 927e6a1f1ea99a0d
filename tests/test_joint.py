"""Tests for joint distributions and the T-path assembly operator (Eq. 1)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tests.oracles.core import assemble_reference
from repro.core.distributions import Distribution
from repro.core.errors import JointDistributionError
from repro.core.joint import JointDistribution, assemble_sequence
from repro.vpaths.updated_graph import UpdatedPaceGraph


@pytest.fixture
def table2_joint() -> JointDistribution:
    """The paper's Table 2(a): joint over <e1, e2> with strong dependency."""
    return JointDistribution((1, 2), {(10.0, 10.0): 0.8, (15.0, 15.0): 0.2})


class TestConstruction:
    def test_pmf_normalised(self, table2_joint):
        assert sum(table2_joint.pmf.values()) == pytest.approx(1.0)

    def test_rejects_empty_edges(self):
        with pytest.raises(JointDistributionError):
            JointDistribution((), {(): 1.0})

    def test_rejects_duplicate_edges(self):
        with pytest.raises(JointDistributionError):
            JointDistribution((1, 1), {(2.0, 3.0): 1.0})

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(JointDistributionError):
            JointDistribution((1, 2), {(1.0,): 1.0})

    def test_rejects_negative_cost(self):
        with pytest.raises(JointDistributionError):
            JointDistribution((1,), {(-2.0,): 1.0})

    def test_rejects_unnormalised(self):
        with pytest.raises(JointDistributionError):
            JointDistribution((1,), {(2.0,): 0.5})

    def test_normalise_flag(self):
        joint = JointDistribution((1,), {(2.0,): 2.0, (3.0,): 2.0}, normalise=True)
        assert joint.probability_of((2.0,)) == pytest.approx(0.5)

    def test_from_samples(self):
        joint = JointDistribution.from_samples((1, 2), [(10, 10), (10, 10), (15, 15), (15, 16)], resolution=5)
        assert joint.probability_of((10.0, 10.0)) == pytest.approx(0.5)
        assert joint.probability_of((15.0, 15.0)) == pytest.approx(0.5)

    def test_from_samples_rejects_empty(self):
        with pytest.raises(JointDistributionError):
            JointDistribution.from_samples((1,), [])

    def test_independent_product(self):
        m1 = Distribution.from_pairs([(1, 0.5), (2, 0.5)])
        m2 = Distribution.from_pairs([(10, 0.25), (20, 0.75)])
        joint = JointDistribution.independent((1, 2), [m1, m2])
        assert joint.probability_of((1.0, 10.0)) == pytest.approx(0.125)
        assert joint.probability_of((2.0, 20.0)) == pytest.approx(0.375)

    def test_independent_requires_matching_lengths(self):
        with pytest.raises(JointDistributionError):
            JointDistribution.independent((1, 2), [Distribution.point(1)])

    def test_repr(self, table2_joint):
        assert "edges=[1, 2]" in repr(table2_joint)


class TestProjections:
    def test_total_cost_matches_table2(self, table2_joint):
        """Table 2(b): the derived cost distribution is {20: 0.8, 30: 0.2}."""
        total = table2_joint.total_cost_distribution()
        assert total.pdf(20) == pytest.approx(0.8)
        assert total.pdf(30) == pytest.approx(0.2)

    def test_edge_marginal(self, table2_joint):
        marginal = table2_joint.edge_marginal(1)
        assert marginal.pdf(10) == pytest.approx(0.8)
        assert marginal.pdf(15) == pytest.approx(0.2)

    def test_marginal_subset_order_preserved(self):
        joint = JointDistribution((1, 2, 3), {(1.0, 2.0, 3.0): 0.5, (2.0, 2.0, 4.0): 0.5})
        marginal = joint.marginal((3, 1))
        assert marginal.edge_ids == (3, 1)
        assert marginal.probability_of((3.0, 1.0)) == pytest.approx(0.5)

    def test_marginal_unknown_edge_raises(self, table2_joint):
        with pytest.raises(JointDistributionError):
            table2_joint.marginal((42,))

    def test_restrict_to_resolution(self):
        joint = JointDistribution((1,), {(9.0,): 0.5, (11.0,): 0.5})
        coarse = joint.restrict_to_resolution(10)
        assert coarse.probability_of((10.0,)) == pytest.approx(1.0)


class TestAssembly:
    def test_independent_assembly_is_product(self):
        a = JointDistribution((1,), {(5.0,): 0.5, (6.0,): 0.5})
        b = JointDistribution((2,), {(10.0,): 1.0})
        combined = a.assemble(b)
        assert combined.edge_ids == (1, 2)
        assert combined.probability_of((5.0, 10.0)) == pytest.approx(0.5)
        # Totals equal the convolution of the totals.
        convolved = a.total_cost_distribution() + b.total_cost_distribution()
        assert combined.total_cost_distribution() == convolved

    def test_overlapping_assembly_eq1(self):
        """Eq. 1 on a two-T-path chain: divide by the overlap marginal."""
        p1 = JointDistribution((1, 4), {(8.0, 8.0): 0.2, (10.0, 8.0): 0.8})
        p2 = JointDistribution((4, 9), {(8.0, 5.0): 0.7, (8.0, 7.0): 0.3})
        combined = p1.assemble(p2)
        assert combined.edge_ids == (1, 4, 9)
        assert combined.probability_of((8.0, 8.0, 5.0)) == pytest.approx(0.14)
        assert combined.probability_of((10.0, 8.0, 7.0)) == pytest.approx(0.24)
        total = combined.total_cost_distribution()
        assert total.pdf(21) == pytest.approx(0.14)
        assert total.pdf(23) == pytest.approx(0.62)
        assert total.pdf(25) == pytest.approx(0.24)

    def test_assembly_preserves_dependency_vs_convolution(self):
        """The joint assembly differs from independence when costs are correlated."""
        p1 = JointDistribution((1, 2), {(10.0, 10.0): 0.5, (20.0, 20.0): 0.5})
        p2 = JointDistribution((2, 3), {(10.0, 10.0): 0.5, (20.0, 20.0): 0.5})
        joint_total = p1.assemble(p2).total_cost_distribution()
        independent_total = p1.total_cost_distribution() + p2.total_cost_distribution()
        # Perfect correlation keeps only the extreme totals 30 and 60.
        assert joint_total.pdf(30) == pytest.approx(0.5)
        assert joint_total.pdf(60) == pytest.approx(0.5)
        # The EDGE-style (independence) estimate smears mass onto intermediate totals instead.
        assert independent_total.pdf(30) == pytest.approx(0.0)
        assert independent_total.pdf(40) > 0

    def test_assembly_requires_suffix_prefix_overlap(self):
        p1 = JointDistribution((1, 2), {(1.0, 1.0): 1.0})
        p2 = JointDistribution((1, 3), {(1.0, 1.0): 1.0})
        with pytest.raises(JointDistributionError):
            p1.assemble(p2)

    def test_assembly_with_explicit_overlap_joint(self):
        p1 = JointDistribution((1, 2), {(5.0, 5.0): 0.5, (5.0, 7.0): 0.5})
        p2 = JointDistribution((2, 3), {(5.0, 1.0): 0.4, (7.0, 2.0): 0.6})
        overlap = JointDistribution((2,), {(5.0,): 0.4, (7.0,): 0.6})
        combined = p1.assemble(p2, overlap=overlap)
        assert sum(dict(combined.items()).values()) == pytest.approx(1.0)

    def test_assembly_disjoint_outcomes_raise(self):
        p1 = JointDistribution((1, 2), {(1.0, 1.0): 1.0})
        p2 = JointDistribution((2, 3), {(9.0, 9.0): 1.0})
        with pytest.raises(JointDistributionError):
            p1.assemble(p2)

    def test_assemble_sequence(self):
        p1 = JointDistribution((1, 2), {(1.0, 2.0): 1.0})
        p2 = JointDistribution((2, 3), {(2.0, 3.0): 1.0})
        p3 = JointDistribution((4,), {(10.0,): 1.0})
        combined = assemble_sequence([p1, p2, p3])
        assert combined.edge_ids == (1, 2, 3, 4)
        assert combined.total_cost_distribution().pdf(16) == pytest.approx(1.0)

    def test_assemble_sequence_rejects_empty(self):
        with pytest.raises(JointDistributionError):
            assemble_sequence([])


# --------------------------------------------------------------------------- #
# Property-based invariants
# --------------------------------------------------------------------------- #
@st.composite
def _chain_joints(draw):
    """Two joints over consecutive edges (1,2) and (2,3) with a shared, consistent overlap."""
    overlap_values = draw(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3, unique=True)
    )
    left = {}
    right = {}
    for value in overlap_values:
        left[(float(draw(st.integers(1, 20))), float(value))] = draw(
            st.floats(min_value=0.05, max_value=1.0)
        )
        right[(float(value), float(draw(st.integers(1, 20))))] = draw(
            st.floats(min_value=0.05, max_value=1.0)
        )
    return (
        JointDistribution((1, 2), left, normalise=True),
        JointDistribution((2, 3), right, normalise=True),
    )


@settings(max_examples=40, deadline=None)
@given(_chain_joints())
def test_assembly_produces_normalised_joint(joints):
    left, right = joints
    combined = left.assemble(right)
    assert sum(prob for _, prob in combined.items()) == pytest.approx(1.0, abs=1e-9)
    assert combined.edge_ids == (1, 2, 3)


@settings(max_examples=40, deadline=None)
@given(_chain_joints())
def test_assembly_marginal_on_left_edges_is_preserved(joints):
    """Conditioning on the overlap never changes the distribution of the left T-path."""
    left, right = joints
    combined = left.assemble(right)
    recovered = combined.marginal((1, 2))
    for costs, prob in left.items():
        assert recovered.probability_of(costs) == pytest.approx(prob, abs=1e-9)


# --------------------------------------------------------------------------- #
# The hash-join assembly against the nested-loop reference
# --------------------------------------------------------------------------- #
def _random_joint(rng: random.Random, edge_ids, size: int, alphabets) -> JointDistribution:
    """Up to ``size`` distinct outcomes drawn from per-edge cost alphabets."""
    capacity = 1
    for alphabet in alphabets:
        capacity *= len(alphabet)
    outcomes: dict[tuple[float, ...], float] = {}
    while len(outcomes) < min(size, capacity):
        costs = tuple(rng.choice(alphabet) for alphabet in alphabets)
        outcomes[costs] = rng.uniform(0.01, 1.0)
    return JointDistribution(edge_ids, outcomes, normalise=True)


def _assembly_case(
    seed: int,
    left_only: int,
    width: int,
    right_only: int,
    left_size: int,
    right_size: int,
    shared_values: int,
    layout: str,
    overlap_mode: str,
):
    """Two joints sharing ``width`` edges, laid out for ``left ⋄ right``.

    ``shared_values`` sizes the cost alphabet of the shared edges: small
    alphabets make overlap outcomes collide, large ones leave left overlap
    outcomes that the right joint lacks (and sometimes no common outcome at
    all, which must raise).  ``layout="misaligned"`` breaks the
    suffix/prefix rule, and ``overlap_mode`` passes an explicit overlap
    joint (the left marginal, whose outcomes the right joint may lack).
    """
    rng = random.Random(seed)
    free = [5.0, 7.5, 10.0, 12.5, 15.0, 20.0, 30.0, 45.0]
    shared_alphabet = [float(v) for v in range(3, 3 + shared_values)]
    shared = tuple(range(20, 20 + width))
    left_edges = tuple(range(10, 10 + left_only)) + shared
    right_edges = shared + tuple(range(30, 30 + right_only))
    if layout == "misaligned" and width:
        right_edges = (99,) + right_edges
    left = _random_joint(
        rng,
        left_edges,
        left_size,
        [free] * left_only + [shared_alphabet] * width,
    )
    right = _random_joint(
        rng,
        right_edges,
        right_size,
        [free if e not in shared else shared_alphabet for e in right_edges],
    )
    overlap = left.marginal(shared) if overlap_mode == "left" and width else None
    return left, right, overlap


@st.composite
def _assembly_cases(draw):
    width = draw(st.integers(0, 2))
    left_only = draw(st.integers(0 if width else 1, 3))
    right_only = draw(st.integers(0 if width else 1, 3))
    return _assembly_case(
        seed=draw(st.integers(0, 2**32 - 1)),
        left_only=left_only,
        width=width,
        right_only=right_only,
        left_size=draw(st.sampled_from([1, 2, 7, 40, 512])),
        right_size=draw(st.sampled_from([1, 2, 7, 40, 512])),
        shared_values=draw(st.integers(1, 6)),
        layout=draw(st.sampled_from(["chain", "chain", "misaligned"])),
        overlap_mode=draw(st.sampled_from(["default", "default", "left"])),
    )


def _assembled(left, right, overlap, assemble):
    try:
        return assemble(left, right, overlap=overlap)
    except JointDistributionError:
        return None


@settings(max_examples=60, deadline=None)
@given(_assembly_cases())
@example(_assembly_case(7, 3, 1, 3, 512, 512, 2, "chain", "default"))
@example(_assembly_case(11, 2, 2, 2, 512, 512, 6, "chain", "default"))
@example(_assembly_case(13, 2, 1, 1, 40, 40, 1, "chain", "left"))
def test_assemble_matches_the_nested_loop_reference(case):
    """Same outcomes, in the same order, with ``==`` floats — or the same refusal."""
    left, right, overlap = case
    produced = _assembled(left, right, overlap, JointDistribution.assemble)
    expected = _assembled(left, right, overlap, assemble_reference)
    assert (produced is None) == (expected is None)
    if expected is not None:
        assert produced.edge_ids == expected.edge_ids
        assert list(produced.pmf.items()) == list(expected.pmf.items())


def test_closure_with_the_reference_assembly_is_identical(
    small_pace_graph, small_updated_graph, monkeypatch
):
    """The tiny city's V-path closure does not depend on how ``⋄`` is evaluated."""
    assert small_updated_graph.num_vpaths > 0
    monkeypatch.setattr(JointDistribution, "assemble", assemble_reference)
    reference, _ = UpdatedPaceGraph.build(small_pace_graph)
    assert reference.content_fingerprint() == small_updated_graph.content_fingerprint()
