"""Residency accounting for the tiered heuristic cache.

Country-scale stores hold far more pre-computed heuristic tables than one
serving process wants resident at once (Section 6 scales destinations with
the road network).  The :class:`~repro.routing.engine.HeuristicCache` is
therefore two-tier: a byte-budgeted resident tier in memory, backed by the
artifact store's on-demand fault tier
(:meth:`~repro.persistence.store.ArtifactStore.open_heuristics`).  This
module holds the small, strictly typed vocabulary shared by both tiers:

* :class:`CacheCounters` — the one consistent snapshot of the cache's
  behaviour counters (entries/hits/misses plus the residency trio
  faults/evictions/resident bytes),
* :func:`heuristic_nbytes` — the deterministic in-memory size estimate used
  for *all* budget accounting, so built and faulted entries are charged the
  same way,
* :func:`normalise_prewarm` — validation of the ``prewarm`` policy accepted
  by :meth:`~repro.routing.engine.RoutingEngine.from_artifacts`.
"""

from __future__ import annotations

import sys
from typing import NamedTuple

from repro.core.errors import ConfigurationError
from repro.heuristics.base import Heuristic

__all__ = ["CacheCounters", "PrewarmPolicy", "heuristic_nbytes", "normalise_prewarm"]

#: A validated prewarm policy: ``"all"`` (eagerly load every persisted
#: heuristic — the classic boot) or ``"none"`` (resident tier starts empty,
#: entries fault in on first touch).
PrewarmPolicy = str


class CacheCounters(NamedTuple):
    """One consistent snapshot of a :class:`HeuristicCache`'s counters.

    ``entries``/``resident_bytes`` describe the resident tier right now;
    ``hits``/``misses``/``faults``/``evictions`` are cumulative.  A *fault*
    is a miss answered by loading the persisted table from the artifact
    store instead of rebuilding it; ``misses`` counts only the lookups that
    paid for a fresh build (whose wall-clock accumulates into
    ``build_seconds``).
    """

    entries: int
    hits: int
    misses: int
    faults: int
    evictions: int
    resident_bytes: int
    build_seconds: float


def heuristic_nbytes(heuristic: Heuristic) -> int:
    """The in-memory footprint charged against the cache's byte budget.

    Uses the heuristic's own ``storage_bytes`` accounting (the paper's
    Tables 8–10 storage metric) so built and faulted entries are charged
    identically — budget semantics must not depend on *how* an entry became
    resident.  Objects without the accounting (test doubles, third-party
    heuristics) are charged their shallow size.  Estimates are clamped to at
    least one byte so a degenerate accounting can never admit unbounded
    entries for free.
    """
    accounting = getattr(heuristic, "storage_bytes", None)
    if accounting is None:
        return max(1, sys.getsizeof(heuristic))
    return max(1, int(accounting()))


def normalise_prewarm(prewarm: str) -> PrewarmPolicy:
    """Validate a ``prewarm`` argument: ``"all"`` or ``"none"``."""
    if prewarm not in ("all", "none"):
        raise ConfigurationError(f"prewarm must be 'all' or 'none', got {prewarm!r}")
    return prewarm
