"""Priority-based VC allocation.

The paper's router uses a priority-based VC allocator (Table 2): routing
produces VC requests tagged with the Algorithm-1 priorities, and the
allocator grants each *free* downstream VC to its highest-priority
requester.

Routing never requests a busy VC (requests are recomputed every cycle,
so a busy-VC request could not match; see :mod:`repro.routing.requests`)
and hands over only each packet's top-priority
:class:`~repro.routing.requests.RequestTier`, the set a full input stage
would choose from.

The allocator is separable, input-first:

1. every requesting input VC picks one VC of its tier — random
   tie-break (so competing inputs don't all pile onto the same VC, which
   the paper notes Footprint's prioritization already de-correlates);
2. every downstream VC picks the highest-priority input VC that selected
   it, with random tie-break among equals.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.exceptions import InvariantViolation
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc, VcState
from repro.routing.requests import Priority, RequestTier
from repro.topology.ports import Direction


class VaGrant(NamedTuple):
    """One VC-allocation grant produced by :func:`allocate_vcs`."""

    input_vc: InputVc
    direction: Direction
    out_vc: int
    priority: Priority


def allocate_vcs(
    requests: list[tuple[InputVc, RequestTier]],
    outputs: dict[Direction, OutputPort],
    rng: random.Random,
) -> list[VaGrant]:
    """Run one cycle of separable, priority-based VC allocation.

    Parameters
    ----------
    requests:
        ``(input_vc, its request tier)`` pairs for every input VC in the
        ROUTING state this cycle that has a tier.
    outputs:
        The router's output ports, providing ``grantable`` state.
    rng:
        Deterministic stream for tie-breaking.

    Returns
    -------
    Grants; the caller applies them to input VCs and output ports.
    """
    # Stage 1: each input VC draws one VC of its tier.  Only the drawn VC
    # is checked: routing emits grantable VCs only, so the check never
    # fails for tiers the router builds, and one draw over the tier
    # consumes the rng exactly as a draw over the filtered tier would.
    # A tier holding busy VCs is filtered and drawn again, so a busy VC
    # is never granted.
    selections: dict[tuple[Direction, int], list[tuple[Priority, InputVc]]] = {}
    for input_vc, (direction, priority, vcs) in requests:
        vc = vcs[0] if len(vcs) == 1 else vcs[rng.randrange(len(vcs))]
        port = outputs[direction]
        if not port.grantable(vc):
            vcs = [v for v in vcs if port.grantable(v)]
            if not vcs:
                continue
            vc = vcs[0] if len(vcs) == 1 else vcs[rng.randrange(len(vcs))]
        key = (direction, vc)
        contenders = selections.get(key)
        if contenders is None:
            selections[key] = [(priority, input_vc)]
        else:
            contenders.append((priority, input_vc))

    # Stage 2: each downstream VC grants its best selecting input.
    grants: list[VaGrant] = []
    for (direction, vc), contenders in selections.items():
        top: Priority | None = None
        finalists: list[InputVc] = []
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


def verify_grants(
    grants: list[VaGrant], outputs: dict[Direction, OutputPort]
) -> None:
    """Check one allocation round's grants before they are applied.

    Called by the router when :mod:`repro.validate` is active: every
    grant must target a distinct, currently grantable downstream VC and
    go to an input VC still in the ROUTING state (the ROUTING -> VA ->
    ACTIVE ordering).  Raises
    :class:`~repro.exceptions.InvariantViolation` otherwise.
    """
    granted: set[tuple[Direction, int]] = set()
    for grant in grants:
        key = (grant.direction, grant.out_vc)
        if key in granted:
            raise InvariantViolation(
                "vc_allocation",
                "downstream VC granted to two input VCs in one round",
                direction=grant.direction,
                vc=grant.out_vc,
            )
        granted.add(key)
        if grant.input_vc.state is not VcState.ROUTING:
            raise InvariantViolation(
                "vc_allocation",
                f"grant to an input VC in the "
                f"{grant.input_vc.state.value} state, expected routing",
                direction=grant.direction,
                vc=grant.out_vc,
            )
        if not outputs[grant.direction].grantable(grant.out_vc):
            raise InvariantViolation(
                "vc_allocation",
                "grant targets a busy downstream VC",
                direction=grant.direction,
                vc=grant.out_vc,
            )
