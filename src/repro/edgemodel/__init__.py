"""Routing in the classical edge-centric (EDGE) model."""

from repro.edgemodel.routing import EdgeModelRouter

__all__ = ["EdgeModelRouter"]
