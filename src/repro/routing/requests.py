"""Virtual-channel request records produced by routing algorithms.

Algorithm 1 of the paper expresses routing decisions as
``ADD(P, VCs, priority)`` calls: the packet requests the VCs ``VCs`` at
output port ``P`` with a given priority, and the VC allocator grants
free VCs to the highest-priority requesters.

This simulator recomputes requests from current state every cycle
rather than holding them, so a request on a busy VC could never be
granted and is never emitted (the observable effects of Algorithm 1's
busy-VC requests are reproduced against the *established* VC state; see
:mod:`repro.routing.footprint`).  With only grantable VCs requested, the
allocator's input stage always picks among the requests at the highest
priority, and every lower-priority ``ADD`` is dead weight.  Routing
therefore hands the allocator exactly that top tier: one
:class:`RequestTier` per waiting packet, or none.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

from repro.topology.ports import Direction


class Priority(enum.IntEnum):
    """VC request priorities of Algorithm 1; larger is more urgent.

    In a hardware (BookSim-style) allocator, requests persist while their
    target VC is busy and the priorities decide who wins the VC at the
    instant it frees (e.g. a footprint follower's HIGH beats the LOW
    requests other packets hold on the same busy VC).  This simulator
    recomputes requests every cycle, so the same outcomes are reproduced
    by requesting *freshly freed* VCs at the priority the held request
    would have had — see :mod:`repro.routing.footprint`.
    """

    LOWEST = 0
    LOW = 1
    HIGH = 2
    HIGHEST = 3


class RequestTier(NamedTuple):
    """The top-priority ``ADD(P, VCs, priority)`` of one waiting packet.

    Contract, relied on by :func:`repro.router.allocator.allocate_vcs`:

    * ``vcs`` is non-empty and lists only VCs of port ``direction`` that
      are grantable this cycle;
    * ``priority`` is the highest priority at which the packet has a
      grantable request, and ``vcs`` holds every grantable request at
      that priority, in the ascending order the algorithm emits them
      (the allocator's tie-break draw indexes into this order);
    * requests toward dead output ports (``RouteContext.dead_ports``)
      are already dropped.

    ``vcs`` may alias an output port's internal list (for example its
    idle-VC cache), so it is read-only.
    """

    direction: Direction
    priority: Priority
    vcs: Sequence[int]

    def __repr__(self) -> str:
        return (
            f"RequestTier({self.direction.name}, {self.priority.name}, "
            f"vcs={list(self.vcs)})"
        )
