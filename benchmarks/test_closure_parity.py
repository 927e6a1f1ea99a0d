"""Closure parity at city scale: the hash-join assembly equals the nested loop.

The V-path closure (Section 4.1) is built from the Eq. 1 assembly ``⋄``.
:meth:`repro.core.joint.JointDistribution.assemble` evaluates it as a hash
join on the overlap; :func:`tests.oracles.core.assemble_reference`
keeps the original nested loop.  Both must visit the same outcome pairs in
the same order, so the closure they build is bit-for-bit the same.  This
check builds the aalborg-like (peak, τ = 50) closure with each and compares
the ``content_fingerprint()`` of the two updated graphs, which digests every
V-path's edges and total-cost distribution.  The reference closure takes a
few seconds on a 2-core machine; the tests in ``tests/test_joint.py`` hold
the two assemblies to the same outcomes on random joints.
"""

from __future__ import annotations

import time

from tests.oracles.core import assemble_reference
from repro.core.joint import JointDistribution
from repro.datasets.synthetic import aalborg_like
from repro.evaluation.experiments import ExperimentScale
from repro.tpaths.extraction import build_pace_graph
from repro.vpaths.updated_graph import UpdatedPaceGraph

TAU = 50


def _timed_closure(pace_graph, config):
    started = time.perf_counter()
    updated, result = UpdatedPaceGraph.build(pace_graph, config)
    return updated, result, time.perf_counter() - started


def test_city_closure_matches_the_reference_assembly(monkeypatch):
    scale = ExperimentScale()
    dataset = aalborg_like()
    pace = build_pace_graph(dataset.network, list(dataset.regime("peak")), scale.miner_config(TAU))
    config = scale.vpath_config()

    produced, produced_result, produced_seconds = _timed_closure(pace, config)
    with monkeypatch.context() as patch:
        patch.setattr(JointDistribution, "assemble", assemble_reference)
        expected, expected_result, expected_seconds = _timed_closure(pace, config)

    print(
        f"aalborg-like tau={TAU}: {produced_result.count} V-paths; closure "
        f"{produced_seconds:.2f} s (hash join) vs {expected_seconds:.2f} s (nested loop)"
    )
    assert produced_result.count > 0
    assert produced_result.rounds == expected_result.rounds
    assert sorted(produced_result.vpaths) == sorted(expected_result.vpaths)
    assert produced.content_fingerprint() == expected.content_fingerprint()
