"""Property test: every algorithm's request tier is the list-form top tier.

For every registry name, on a mesh and (where the algorithm supports it)
a torus, over random states of real :class:`OutputPort` objects — busy
and draining VCs, VCs released in an earlier round (stale owners), VCs
released this round, busy or free escape VCs, any ``footprint_vc_limit``
and any set of dead ports — ``vc_requests_at`` must return exactly the
top tier of the list-form oracle: the tier the list-form allocator's
input stage picks from, after requests toward dead ports are dropped.
Direction, priority and VC order must all match.
"""

from hypothesis import given, settings, strategies as st

from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.routing.base import RouteContext
from repro.routing.registry import available_algorithms, create_routing
from repro.topology.mesh import Mesh2D
from repro.topology.ports import Direction
from repro.topology.torus import Torus2D

from tests import request_oracle as oracle

NAMES = sorted(set(available_algorithms()) | {"duato", "odd-even"})
CASES = [(name, "mesh") for name in NAMES] + [
    (name, "torus")
    for name in NAMES
    if "torus" in create_routing(name).topologies
]

_VC_STATES = ("idle", "established", "busy", "draining", "fresh")


def _send_tail(port: OutputPort, vc: int, dst: int) -> None:
    """Send a one-flit packet on ``vc`` and put it on the link."""
    port.new_cycle()
    port.send(Packet(src=0, dst=dst, size=1, creation_time=0).flits()[0], vc)
    port.pop_link()


@st.composite
def tier_case(draw):
    name, topology = draw(st.sampled_from(CASES))
    algo = create_routing(name)
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 4))
    if topology == "torus":
        mesh = Torus2D(max(width, 3), max(height, 3))
        num_vcs = draw(st.integers(3, 5))
    else:
        mesh = Mesh2D(width, height)
        num_vcs = draw(st.integers(2, 5))
    depth = draw(st.integers(1, 3))
    dests = st.integers(0, mesh.num_nodes - 1)
    cur = draw(dests)
    dst = draw(dests)
    src = draw(dests)

    # Escape VCs as the router reserves them: VC 0 (and VC 1 on a torus)
    # at transit ports of escape-using algorithms.
    escape = 0 if algo.uses_escape else None
    escape2 = 1 if algo.uses_escape and mesh.num_vc_classes > 1 else None
    atomic = algo.atomic_vc_reallocation
    outputs = {}
    for d in mesh.router_ports(cur):
        transit = d is not Direction.LOCAL
        port = OutputPort(
            direction=d,
            num_vcs=num_vcs,
            downstream_depth=depth,
            fifo_depth=2,
            speedup=1,
            escape_vc=escape if transit else None,
            atomic_realloc=atomic,
            escape_vc2=escape2 if transit else None,
        )
        states = [draw(st.sampled_from(_VC_STATES)) for _ in range(num_vcs)]
        # Owners mostly the packet's destination or one other node, so
        # footprints (and fresh footprint releases) are common.
        owner_pool = st.sampled_from((dst, (dst + 1) % mesh.num_nodes, src))
        owners = [draw(owner_pool) for _ in range(num_vcs)]
        # Earlier rounds: released VCs keep a stale owner, no longer fresh.
        for v, s in enumerate(states):
            if s == "established":
                port.allocate(v, owners[v])
                _send_tail(port, v, owners[v])
                if atomic:
                    port.credit_return(v)
        port.clear_fresh()
        # This round: busy, draining and freshly released VCs.
        for v, s in enumerate(states):
            if s == "busy" or (s == "draining" and not atomic):
                port.allocate(v, owners[v])
            elif s == "draining":
                port.allocate(v, owners[v])
                _send_tail(port, v, owners[v])
            elif s == "fresh":
                port.allocate(v, owners[v])
                _send_tail(port, v, owners[v])
                if atomic:
                    port.credit_return(v)
        outputs[d] = port

    dead = 0
    for d in outputs:
        if draw(st.integers(0, 3)) == 0:
            dead |= 1 << d
    ctx = RouteContext(
        mesh=mesh,
        current=cur,
        destination=dst,
        source=src,
        input_direction=Direction.LOCAL,
        outputs=outputs,
        num_vcs=num_vcs,
        congestion_threshold=draw(st.integers(1, num_vcs)),
        footprint_vc_limit=draw(st.one_of(st.none(), st.integers(0, 3))),
        rng=None,
        dead_ports=dead,
    )
    return algo, ctx


@given(tier_case())
@settings(max_examples=1000, deadline=None)
def test_tier_is_oracle_top_tier(case):
    algo, ctx = case
    # The drawn dead-port set, then none and each single dead port: one
    # port state serves every committed direction and every fault case.
    masks = [ctx.dead_ports, 0] + [1 << d for d in ctx.outputs]
    directions = algo.allowed_directions(
        ctx.mesh, ctx.current, ctx.destination, ctx.source
    )
    for ctx.dead_ports in masks:
        for direction in directions:
            oracle.checked_requests_at(algo, ctx, direction)
