"""List-form VC requests: the oracle for top-tier request generation.

Routing algorithms return only each packet's top-priority
:class:`~repro.routing.requests.RequestTier`.  This module keeps the
full list form they replace — every ``ADD(P, v, priority)`` of
Algorithm 1 for a grantable VC, one :class:`VcRequest` per VC — copied
from the algorithms, together with :func:`top_tier` (the input stage of
the list-form allocator) and :func:`allocate_vcs` (the whole list-form
allocator).  A tier is correct when it equals the oracle list's top
tier.

The ``checked_*`` helpers return the oracle list, so tests can keep
asserting the full request sets, and assert on the way that the
algorithm's tier is that list's top tier.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.router.allocator import VaGrant
from repro.routing.dor import DorRouting
from repro.routing.duato import DuatoAdaptiveRouting
from repro.routing.footprint import FootprintRouting
from repro.routing.oddeven import OddEvenRouting
from repro.routing.requests import Priority, RequestTier
from repro.routing.xordet import XordetOverlay, xordet_vc
from repro.topology.ports import Direction


class VcRequest(NamedTuple):
    """A request for one downstream VC at one output port."""

    direction: Direction
    vc: int
    priority: Priority

    def __repr__(self) -> str:
        return (
            f"VcRequest({self.direction.name}, vc={self.vc}, "
            f"{self.priority.name})"
        )


# ----------------------------------------------------------------------
# Shared helpers (RoutingAlgorithm.eject_requests / escape_request)
# ----------------------------------------------------------------------
def eject_requests(ctx) -> list[VcRequest]:
    view = ctx.outputs[Direction.LOCAL]
    return [
        VcRequest(Direction.LOCAL, v, Priority.LOW) for v in view.idle_vcs()
    ]


def escape_request(ctx) -> list[VcRequest]:
    escape_dir = ctx.mesh.dor_direction(ctx.current, ctx.destination)
    view = ctx.outputs[escape_dir]
    if ctx.mesh.num_vc_classes > 1:
        evcs = view.escape_vcs
        if len(evcs) < ctx.mesh.num_vc_classes:
            return []
        vc = evcs[
            ctx.mesh.wrap_vc_class(ctx.current, ctx.destination, escape_dir)
        ]
    else:
        vc = view.escape_vc
    if vc is None or not view.grantable(vc):
        return []
    return [VcRequest(escape_dir, vc, Priority.LOWEST)]


# ----------------------------------------------------------------------
# Adaptive requests of the Duato family (``vc_requests``)
# ----------------------------------------------------------------------
def dbar_vc_requests(ctx, direction) -> list[VcRequest]:
    view = ctx.outputs[direction]
    return [
        VcRequest(direction, v, Priority.LOW) for v in view.idle_vcs()
    ]


def footprint_vc_requests(ctx, direction) -> list[VcRequest]:
    view = ctx.outputs[direction]
    dst = ctx.destination
    established = view.established_idle_vcs()
    fresh_mine = view.fresh_footprint_vcs(dst)

    if ctx.footprint_vc_limit is not None and (
        len(view.footprint_vcs(dst)) >= ctx.footprint_vc_limit
    ):
        return [VcRequest(direction, v, Priority.HIGH) for v in fresh_mine]

    if len(established) >= ctx.congestion_threshold:
        return [
            VcRequest(direction, v, Priority.LOW) for v in view.idle_vcs()
        ]

    if not established:
        if fresh_mine:
            return [
                VcRequest(direction, v, Priority.HIGH) for v in fresh_mine
            ]
        if view.footprint_vcs(dst):
            return []
        return [
            VcRequest(direction, v, Priority.LOW)
            for v in view.fresh_other_vcs(dst)
        ]

    requests = [
        VcRequest(direction, v, Priority.HIGHEST) for v in established
    ]
    requests.extend(
        VcRequest(direction, v, Priority.HIGH) for v in fresh_mine
    )
    requests.extend(
        VcRequest(direction, v, Priority.LOW)
        for v in view.fresh_other_vcs(dst)
    )
    return requests


def adaptive_requests(algo, ctx, direction) -> list[VcRequest]:
    """The Duato-family ``vc_requests``: adaptive VCs at ``direction``."""
    if isinstance(algo, FootprintRouting):
        return footprint_vc_requests(ctx, direction)
    return dbar_vc_requests(ctx, direction)


# ----------------------------------------------------------------------
# vc_requests_at per algorithm
# ----------------------------------------------------------------------
def _duato_requests_at(algo, ctx, direction) -> list[VcRequest]:
    if direction is Direction.LOCAL:
        return eject_requests(ctx)
    requests = adaptive_requests(algo, ctx, direction)
    requests.extend(escape_request(ctx))
    return requests


def _footprint_requests_at(algo, ctx, direction) -> list[VcRequest]:
    if direction is Direction.LOCAL:
        return eject_requests(ctx)
    requests = footprint_vc_requests(ctx, direction)
    waiting_on_footprint = not requests and bool(
        ctx.outputs[direction].footprint_vcs(ctx.destination)
    )
    if not waiting_on_footprint:
        requests.extend(escape_request(ctx))
    return requests


def _dor_requests_at(algo, ctx, direction) -> list[VcRequest]:
    if direction is Direction.LOCAL:
        return eject_requests(ctx)
    view = ctx.outputs[direction]
    if ctx.mesh.num_vc_classes > 1:
        cls = ctx.mesh.wrap_vc_class(ctx.current, ctx.destination, direction)
        half = ctx.num_vcs // 2
        lo, hi = (0, half) if cls == 0 else (half, ctx.num_vcs)
        return [
            VcRequest(direction, v, Priority.LOW)
            for v in view.idle_vcs()
            if lo <= v < hi
        ]
    return [
        VcRequest(direction, v, Priority.LOW) for v in view.idle_vcs()
    ]


def _oddeven_requests_at(algo, ctx, direction) -> list[VcRequest]:
    if direction is Direction.LOCAL:
        return eject_requests(ctx)
    view = ctx.outputs[direction]
    return [
        VcRequest(direction, v, Priority.LOW) for v in view.idle_vcs()
    ]


def _xordet_requests_at(algo, ctx, direction) -> list[VcRequest]:
    if direction is Direction.LOCAL:
        return eject_requests(ctx)
    view = ctx.outputs[direction]
    usable = view.adaptive_vcs()
    vc = usable[xordet_vc(ctx.mesh, ctx.destination, len(usable))]
    requests: list[VcRequest] = []
    if view.grantable(vc):
        requests.append(VcRequest(direction, vc, Priority.LOW))
    if algo.uses_escape:
        requests.extend(escape_request(ctx))
    return requests


def vc_requests_at(algo, ctx, direction) -> list[VcRequest]:
    """Algorithm 1's full request list for ``algo`` at ``direction``."""
    if isinstance(algo, XordetOverlay):
        return _xordet_requests_at(algo, ctx, direction)
    if isinstance(algo, FootprintRouting):
        return _footprint_requests_at(algo, ctx, direction)
    if isinstance(algo, DuatoAdaptiveRouting):
        return _duato_requests_at(algo, ctx, direction)
    if isinstance(algo, DorRouting):
        return _dor_requests_at(algo, ctx, direction)
    if isinstance(algo, OddEvenRouting):
        return _oddeven_requests_at(algo, ctx, direction)
    raise TypeError(f"no request oracle for {algo!r}")


# ----------------------------------------------------------------------
# The list-form allocator
# ----------------------------------------------------------------------
def top_tier(requests, outputs, dead_ports: int = 0) -> RequestTier | None:
    """The list-form allocator's input-stage choice set.

    Drops requests toward ``dead_ports`` (the router's filter), then
    keeps the grantable requests at the highest priority, in request
    order.  ``None`` when no grantable request remains.
    """
    best_priority: Priority | None = None
    best: list[VcRequest] = []
    for r in requests:
        if (dead_ports >> r.direction) & 1:
            continue
        if not outputs[r.direction].grantable(r.vc):
            continue
        if best_priority is None or r.priority > best_priority:
            best_priority = r.priority
            best = [r]
        elif r.priority == best_priority:
            best.append(r)
    if best_priority is None:
        return None
    directions = {r.direction for r in best}
    assert len(directions) == 1, f"top tier spans ports {directions}"
    return RequestTier(best[0].direction, best_priority, [r.vc for r in best])


def allocate_vcs(requests, outputs, rng: random.Random) -> list[VaGrant]:
    """The list-form separable allocator over ``(input_vc, requests)``."""
    selections: dict = {}
    for input_vc, reqs in requests:
        best_priority: Priority | None = None
        best: list[VcRequest] = []
        for r in reqs:
            if not outputs[r.direction].grantable(r.vc):
                continue
            if best_priority is None or r.priority > best_priority:
                best_priority = r.priority
                best = [r]
            elif r.priority == best_priority:
                best.append(r)
        if best_priority is None:
            continue
        choice = best[0] if len(best) == 1 else best[rng.randrange(len(best))]
        selections.setdefault((choice.direction, choice.vc), []).append(
            (choice.priority, input_vc)
        )

    grants: list[VaGrant] = []
    for (direction, vc), contenders in selections.items():
        top: Priority | None = None
        finalists: list = []
        for p, ivc in contenders:
            if top is None or p > top:
                top = p
                finalists = [ivc]
            elif p == top:
                finalists.append(ivc)
        winner = (
            finalists[0]
            if len(finalists) == 1
            else finalists[rng.randrange(len(finalists))]
        )
        grants.append(VaGrant(winner, direction, vc, top))
    return grants


# ----------------------------------------------------------------------
# Tier checks
# ----------------------------------------------------------------------
def tier_key(tiers) -> list[tuple]:
    """``[]`` or ``[(direction, priority, [vcs])]``, comparable across
    list- and tuple-valued ``vcs``."""
    return [(t.direction, t.priority, list(t.vcs)) for t in tiers]


def expected_tiers(requests, outputs, dead_ports: int = 0) -> list[tuple]:
    tier = top_tier(requests, outputs, dead_ports)
    return [] if tier is None else tier_key([tier])


def checked_requests_at(algo, ctx, direction) -> list[VcRequest]:
    """Oracle request list; asserts ``algo.vc_requests_at`` is its top
    tier."""
    requests = vc_requests_at(algo, ctx, direction)
    got = tier_key(algo.vc_requests_at(ctx, direction))
    assert got == expected_tiers(requests, ctx.outputs, ctx.dead_ports), (
        got,
        requests,
    )
    return requests


def checked_adaptive(algo, ctx, direction) -> list[VcRequest]:
    """Oracle adaptive list; asserts ``algo.adaptive_tier`` is its top
    tier (dead ports are the caller's concern here, as before)."""
    requests = adaptive_requests(algo, ctx, direction)
    tier = algo.adaptive_tier(ctx, direction)
    got = [] if tier is None else tier_key([tier])
    assert got == expected_tiers(requests, ctx.outputs), (got, requests)
    return requests


def checked_eject(algo, ctx) -> list[VcRequest]:
    requests = eject_requests(ctx)
    got = tier_key(algo.eject_requests(ctx))
    assert got == expected_tiers(requests, ctx.outputs, ctx.dead_ports)
    return requests


def checked_escape(algo, ctx) -> list[VcRequest]:
    requests = escape_request(ctx)
    got = tier_key(algo.escape_request(ctx))
    assert got == expected_tiers(requests, ctx.outputs, ctx.dead_ports)
    return requests
