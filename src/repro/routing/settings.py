"""The one settings object every router reads.

:class:`RouterSettings` holds the search limits shared by all routers
(``max_support``, ``max_explored``) and the budget-table knobs of the
heuristic factories (``max_budget``, ``heuristic_sweeps``).  Artifact stores
record it in their manifest, and :meth:`RouterSettings.from_manifest` reads
it back.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.core.errors import ConfigurationError, DataError
from repro.heuristics.budget import BudgetHeuristicConfig

__all__ = ["RouterSettings"]

#: ``manifest.settings`` keys of removed :class:`RouterSettings` options.
#: Stores saved while ``expansion`` chose between the batched kernels and a
#: scalar loop record it; the routers now have one search loop.
_RETIRED_SETTINGS = frozenset({"expansion"})


@dataclass(frozen=True)
class RouterSettings:
    """Knobs shared by every router and heuristic factory.

    ``max_support`` caps the support of a candidate's cost distribution and
    ``max_explored`` the candidates a search pops; both must be at least 1.
    ``heuristic_sweeps`` caps the Eq. 5 Bellman passes per budget table;
    ``None`` runs the sweep to its fixpoint (converged tables — the default
    for artifact builds, where the cost is paid once offline and the tables
    are served forever).
    """

    max_support: int = 64
    max_explored: int = 100000
    max_budget: float = 5000.0
    heuristic_sweeps: int | None = 2

    def __post_init__(self) -> None:
        for name in ("max_support", "max_explored"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive, got {getattr(self, name)!r}")

    @classmethod
    def from_manifest(cls, settings: Mapping[str, Any]) -> RouterSettings:
        """The settings an artifact store's manifest recorded.

        Keys of retired options (stores saved before they were removed still
        record them) are dropped; any other key this version does not know,
        and any recorded value these settings refuse, is a :class:`DataError`.
        """
        current = {k: v for k, v in settings.items() if k not in _RETIRED_SETTINGS}
        try:
            return cls(**current)
        except (TypeError, ConfigurationError) as exc:
            raise DataError(
                f"artifact manifest settings {sorted(settings)} do not match "
                f"this version's RouterSettings: {exc}"
            ) from exc

    def budget_config(self, delta: float) -> BudgetHeuristicConfig:
        return BudgetHeuristicConfig(
            delta=delta,
            max_budget=max(self.max_budget, delta),
            sweeps=self.heuristic_sweeps,
        )
