"""The PACE chain fold of ``repro.core.chain`` is bitwise the dict oracle.

:meth:`PaceGraph.path_cost_distribution` and the routers' frontier kernel
both run the array fold of :mod:`repro.core.chain`.  This module checks it
against the textbook dict-of-dicts fold kept in :mod:`tests.oracles.chain`,
state by state and on the finished distribution, over every short simple
path of the random graphs ``tests/test_property_routing.py`` routes on.
Three state bounds are covered: none, the default, and a cap small enough
that pruning fires.  The array fold runs small groups as a dict loop and
larger ones as ndarray kernels, so each case also runs with the ndarray
threshold at 0, forcing every group through the ndarray path.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core import chain
from repro.core.chain import DEFAULT_MAX_CHAIN_STATES, _states_to_dicts, chain_step, seed_states
from tests.oracles import chain as oracle
from tests.test_property_routing import _random_instance

#: Longest simple path (in edges) walked from the source of each graph.
MAX_EDGES = 6
#: A state bound far below what the longer paths accumulate.
PRUNING_CAP = 6


def _simple_paths(network, source: int, max_edges: int):
    """Every simple path of 1..``max_edges`` edges leaving ``source``, depth first."""
    stack = [[source]]
    while stack:
        walk = stack.pop()
        if len(walk) > 1:
            yield network.path_from_vertex_ids(walk)
        if len(walk) <= max_edges:
            for edge in network.out_edges(walk[-1]):
                if edge.target not in walk:
                    stack.append([*walk, edge.target])


def _exact(states: dict) -> list:
    """Chain states as a list of exact float spellings, order included."""
    return [
        (tuple(c.hex() for c in outcome), [(t.hex(), p.hex()) for t, p in bucket.items()])
        for outcome, bucket in states.items()
    ]


def _bits(distribution) -> tuple[bytes, bytes]:
    return distribution.values_array.tobytes(), distribution.probabilities_array.tobytes()


@pytest.mark.parametrize("vector_min_work", [None, 0], ids=["default-kernels", "ndarray-only"])
@pytest.mark.parametrize(
    "max_states",
    [None, DEFAULT_MAX_CHAIN_STATES, PRUNING_CAP],
    ids=["unbounded", "default-cap", "pruning"],
)
@pytest.mark.parametrize("seed", range(4))
def test_array_fold_is_bitwise_the_dict_fold(seed, max_states, vector_min_work, monkeypatch):
    if vector_min_work is not None:
        monkeypatch.setattr(chain, "_VECTOR_FOLD_MIN_WORK", vector_min_work)
    pace, _, source, _ = _random_instance(seed)
    plans = pace.fold_plans
    folds = overlapping = pruned = 0
    for path in _simple_paths(pace.network, source, MAX_EDGES):
        sequence = pace.coarsest_sequence(path)
        states = seed_states(sequence[0])
        expected = oracle.seed_chain_states(sequence[0])
        assert _exact(_states_to_dicts(states)) == _exact(expected), path.edges
        for previous, element in itertools.pairwise(sequence):
            unpruned = oracle.chain_step(expected, previous, element, None)
            if max_states is not None and sum(map(len, unpruned.values())) > max_states:
                pruned += 1
            overlapping += previous.path.overlap_with(element.path) is not None
            states = chain_step(plans, states, previous, element, max_states)
            expected = oracle.chain_step(expected, previous, element, max_states)
            assert _exact(_states_to_dicts(states)) == _exact(expected), path.edges
            folds += 1
        for max_support in (None, 4):
            got = pace.path_cost_distribution(path, max_support=max_support, max_states=max_states)
            want = oracle.path_cost_distribution(
                pace, path, max_support=max_support, max_states=max_states
            )
            assert _bits(got) == _bits(want), path.edges
    assert folds and overlapping
    if max_states == PRUNING_CAP:
        assert pruned
    else:
        assert not pruned
