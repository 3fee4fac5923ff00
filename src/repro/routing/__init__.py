"""Routing algorithms: DOR, Odd-Even, DBAR, Footprint, and XORDET overlays."""

from repro.routing.base import OutputPortView, RouteContext, RoutingAlgorithm
from repro.routing.requests import Priority, RequestTier
from repro.routing.registry import available_algorithms, create_routing

__all__ = [
    "OutputPortView",
    "RouteContext",
    "RoutingAlgorithm",
    "Priority",
    "RequestTier",
    "available_algorithms",
    "create_routing",
]
