"""Differential corruption test for the invariant sweep.

The checkers in :mod:`repro.validate.checker` reach their verdict through
fast paths (per-port tallies, a per-router clean verdict, idle-port
shortcuts).  Their contract is that, for every simulator state, a sweep
raises exactly the :class:`InvariantViolation` the plain recount below
raises -- same checker, message, cycle, node, direction and VC -- or
nothing where it raises nothing.

The oracle here is that plain recount: the ``Counter``-based credit
ledger, the per-VC ``vc_states`` loop, and full (shortcut-free) copies of
``InputVc.legality_violation`` and ``OutputPort.consistency_violation``.
Each example runs a small mesh or torus config for a few cycles, applies
one corruption of live state (22 kinds, below; most touch a single
field), and compares the two sweeps.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.exceptions import InvariantViolation
from repro.faults.schedule import random_link_faults, random_router_faults
from repro.router.vcstate import VcState
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.topology.ports import OPPOSITE, Direction
from repro.validate import ValidationConfig
from repro.validate.checker import router_clean

# ----------------------------------------------------------------------
# The reference sweep
# ----------------------------------------------------------------------


def reference_legality(ivc) -> str | None:
    state = ivc.state
    fifo = ivc.fifo
    if len(fifo) > ivc.depth:
        return "input VC holds more flits than its buffer depth"
    if state is VcState.IDLE:
        if fifo:
            return "IDLE input VC holds buffered flits"
        if ivc.out_direction is not None or ivc.out_vc is not None:
            return "IDLE input VC holds output registers"
        if ivc.committed_dir is not None:
            return "IDLE input VC holds a route commitment"
    elif state is VcState.ROUTING:
        if not fifo:
            return "ROUTING input VC has no buffered flit"
        if not fifo[0].is_head:
            return "ROUTING input VC fronted by a non-head flit"
        if ivc.out_direction is not None or ivc.out_vc is not None:
            return "ROUTING input VC already holds output registers"
    else:
        if ivc.out_direction is None or ivc.out_vc is None:
            return "ACTIVE input VC missing output registers"
        if ivc.committed_dir is not None:
            return "ACTIVE input VC still holds a route commitment"
    prev = None
    for flit in fifo:
        if prev is None:
            if not flit.is_head and state is not VcState.ACTIVE:
                return "non-head flit at the front of a non-ACTIVE input VC"
        elif prev.is_tail:
            if not flit.is_head:
                return "non-head flit follows a tail flit"
            if flit.packet is prev.packet:
                return "packet restarts behind its own tail"
        else:
            if flit.packet is not prev.packet:
                return "packet interleaving within one VC"
            if flit.index != prev.index + 1:
                return (
                    f"out-of-order flits within a packet "
                    f"({prev.index} then {flit.index})"
                )
        prev = flit
    return None


def reference_consistency(port) -> str | None:
    depth = port.downstream_depth
    for vc in range(port.num_vcs):
        credit = port.credits[vc]
        if not 0 <= credit <= depth:
            return f"VC {vc} credit count {credit} outside [0, {depth}]"
        if port.allocated[vc] and port._draining[vc]:
            return f"VC {vc} both allocated and draining"
        if port._draining[vc] and not port.atomic_realloc:
            return f"VC {vc} draining without atomic reallocation"
        if port.allocated[vc] and port.owner_dst[vc] is None:
            return f"allocated VC {vc} has no owner destination"
    if len(port.fifo) > port.fifo_depth:
        return "staging FIFO above its depth"
    busy = [
        v for v in port._adaptive if port.allocated[v] or port._draining[v]
    ]
    if port._busy_count != len(busy):
        return (
            f"busy count {port._busy_count} != recounted "
            f"{len(busy)} busy adaptive VCs"
        )
    adaptive_credits = sum(port.credits[v] for v in port._adaptive)
    if port._adaptive_credits != adaptive_credits:
        return (
            f"adaptive credit total {port._adaptive_credits} != "
            f"recounted {adaptive_credits}"
        )
    if port._idle_cache is not None:
        idle = [
            v
            for v in port._adaptive
            if not port.allocated[v] and not port._draining[v]
        ]
        if port._idle_cache != idle:
            return f"idle-VC cache {port._idle_cache} != recounted {idle}"
    indexed = set()
    for dst, vcs in port._fp_index.items():
        if not vcs:
            return f"empty footprint-index entry for destination {dst}"
        for v in vcs:
            if v == port.escape_vc or v == port.escape_vc2:
                return f"escape VC {v} in the footprint index"
            if port.owner_dst[v] != dst:
                return (
                    f"footprint index lists VC {v} under destination "
                    f"{dst} but its owner is {port.owner_dst[v]}"
                )
            if v in indexed:
                return f"VC {v} indexed twice in the footprint index"
            indexed.add(v)
    if indexed != set(busy):
        return (
            f"footprint index covers VCs {sorted(indexed)} but the "
            f"busy adaptive VCs are {sorted(busy)}"
        )
    return None


def reference_conservation(checker, sim, cycle: int) -> None:
    offered = sum(s.offered_flits for s in sim.sources)
    pending = sum(s.pending_flits for s in sim.sources)
    ejected = sum(s.ejected_flits for s in sim.sinks)
    accepted = checker.generated_flits - checker.discarded_flits
    if accepted != offered:
        raise InvariantViolation(
            "flit_conservation",
            f"sources offered {offered} flits but the generator "
            f"produced {checker.generated_flits} "
            f"({checker.discarded_flits} discarded)",
            cycle=cycle,
        )
    if sim._source_backlog != pending:
        raise InvariantViolation(
            "flit_conservation",
            f"engine source backlog {sim._source_backlog} != "
            f"recounted pending flits {pending}",
            cycle=cycle,
        )
    buffered = sim.total_buffered_flits()
    if sim._flits_in_network != buffered:
        raise InvariantViolation(
            "flit_conservation",
            f"engine in-network counter {sim._flits_in_network} != "
            f"recounted buffered flits {buffered}",
            cycle=cycle,
        )
    total = checker.discarded_flits + pending + buffered + ejected
    if checker.generated_flits != total:
        raise InvariantViolation(
            "flit_conservation",
            f"generated {checker.generated_flits} flits != "
            f"{checker.discarded_flits} discarded + {pending} pending + "
            f"{buffered} in-network + {ejected} delivered",
            cycle=cycle,
        )


def reference_credits(sim, cycle: int) -> None:
    wire_flits: Counter = Counter()
    for node, direction, vc, _flit in sim._flits_next:
        wire_flits[(node, direction, vc)] += 1
    wire_credits: Counter = Counter()
    for node, direction, vc in sim._credits_next:
        wire_credits[(node, direction, vc)] += 1
    sink_wire: Counter = Counter()
    for node, vc, _flit in sim._sink_next:
        sink_wire[(node, vc)] += 1
    held: Counter = Counter()
    fm = sim.faults
    if fm is not None:
        problem = fm.mask_violation()
        if problem is not None:
            raise InvariantViolation("credit_accounting", problem, cycle=cycle)
        for node, direction, vc in fm.held_snapshot():
            held[(node, direction, vc)] += 1
    for router in sim.routers:
        node = router.node
        for direction, port in router.output_ports.items():
            staged = [0] * port.num_vcs
            for _flit, vc in port.fifo:
                staged[vc] += 1
            if direction is Direction.LOCAL:
                sink = sim.sinks[node]
                downstream = [
                    len(sink.buffers[vc]) + sink_wire[(node, vc)]
                    for vc in range(port.num_vcs)
                ]
            else:
                nbr = sim.mesh.neighbor(node, direction)
                in_dir = OPPOSITE[direction]
                fifos = sim.routers[nbr].input_vcs[in_dir]
                downstream = [
                    len(fifos[vc].fifo) + wire_flits[(nbr, in_dir, vc)]
                    for vc in range(port.num_vcs)
                ]
            depth = port.downstream_depth
            for vc in range(port.num_vcs):
                total = (
                    port.credits[vc]
                    + staged[vc]
                    + downstream[vc]
                    + wire_credits[(node, direction, vc)]
                    + held[(node, direction, vc)]
                )
                if total != depth:
                    raise InvariantViolation(
                        "credit_accounting",
                        f"{port.credits[vc]} credits + {staged[vc]} "
                        f"staged + {downstream[vc]} downstream + "
                        f"{wire_credits[(node, direction, vc)]} "
                        f"returning + {held[(node, direction, vc)]} "
                        f"fault-held = {total}, expected the buffer "
                        f"depth {depth}",
                        cycle=cycle,
                        node=node,
                        direction=direction,
                        vc=vc,
                    )


def reference_router_vc_states(router, cycle: int) -> None:
    node = router.node
    buffered = 0
    routing_keys = set()
    claims: Counter = Counter()
    for direction, vcs in router.input_vcs.items():
        mask = router._occupied_masks[direction]
        for ivc in vcs:
            problem = reference_legality(ivc)
            if problem is not None:
                raise InvariantViolation(
                    "vc_states", problem, cycle=cycle, node=node,
                    direction=direction, vc=ivc.index,
                )
            occ = len(ivc.fifo)
            buffered += occ
            if bool((mask >> ivc.index) & 1) != bool(occ):
                raise InvariantViolation(
                    "vc_states",
                    f"occupancy bitmask disagrees with a {occ}-flit FIFO",
                    cycle=cycle, node=node, direction=direction,
                    vc=ivc.index,
                )
            if ivc.state is VcState.ROUTING:
                routing_keys.add((direction, ivc.index))
            elif ivc.state is VcState.ACTIVE:
                claims[(ivc.out_direction, ivc.out_vc)] += 1
    pending_keys = set(router._pending)
    if pending_keys != routing_keys:
        raise InvariantViolation(
            "vc_states",
            f"pending-allocation index {sorted(pending_keys)} != "
            f"ROUTING VCs {sorted(routing_keys)}",
            cycle=cycle, node=node,
        )
    if buffered != router.buffered_input_flits:
        raise InvariantViolation(
            "vc_states",
            f"router counts {router.buffered_input_flits} buffered "
            f"input flits, recount says {buffered}",
            cycle=cycle, node=node,
        )
    staged = sum(len(p.fifo) for p in router.output_ports.values())
    if staged != router.staged_flits:
        raise InvariantViolation(
            "vc_states",
            f"router counts {router.staged_flits} staged flits, "
            f"recount says {staged}",
            cycle=cycle, node=node,
        )
    if router.inflight != buffered + staged:
        raise InvariantViolation(
            "vc_states",
            f"router counts {router.inflight} inflight flits, "
            f"recount says {buffered} buffered + {staged} staged",
            cycle=cycle, node=node,
        )
    for direction, port in router.output_ports.items():
        problem = reference_consistency(port)
        if problem is not None:
            raise InvariantViolation(
                "vc_states", problem, cycle=cycle, node=node,
                direction=direction,
            )
        if port.fresh_released and not (
            router.inflight or router.credit_pending
        ):
            raise InvariantViolation(
                "vc_states",
                "freshly-released VC set on a router no longer "
                "scheduled for an allocation round",
                cycle=cycle, node=node, direction=direction,
            )
        for vc in range(port.num_vcs):
            holders = claims[(direction, vc)]
            if port.allocated[vc]:
                if holders != 1:
                    raise InvariantViolation(
                        "vc_states",
                        f"allocated downstream VC held by {holders} "
                        f"ACTIVE input VCs, expected exactly one",
                        cycle=cycle, node=node, direction=direction, vc=vc,
                    )
            elif holders:
                raise InvariantViolation(
                    "vc_states",
                    f"{holders} ACTIVE input VCs hold an unallocated "
                    f"downstream VC",
                    cycle=cycle, node=node, direction=direction, vc=vc,
                )


def reference_vc_states(sim, cycle: int) -> None:
    for router in sim.routers:
        reference_router_vc_states(router, cycle)


def reference_run_checks(checker, sim, cycle: int) -> None:
    reference_conservation(checker, sim, cycle)
    reference_credits(sim, cycle)
    reference_vc_states(sim, cycle)
    # The routing sweep's only change is skipping IDLE VCs, which it
    # never checked; it is shared.
    checker._check_routing(sim, cycle)


def outcome(check) -> tuple | None:
    """What ``check()`` raised, as comparable fields (``None``: nothing)."""
    try:
        check()
    except InvariantViolation as exc:
        return (
            "InvariantViolation",
            exc.checker,
            str(exc),
            exc.cycle,
            exc.node,
            exc.direction,
            exc.vc,
        )
    return None


# ----------------------------------------------------------------------
# Corruptions: one piece of live state each
# ----------------------------------------------------------------------


def _input_vcs(sim, rng) -> list:
    """Every input VC, or (half the time, when there are any) only the
    occupied or non-IDLE ones."""
    every = [
        (router, direction, ivc)
        for router in sim.routers
        for direction, vcs in router.input_vcs.items()
        for ivc in vcs
    ]
    busy = [e for e in every if e[2].fifo or e[2].state is not VcState.IDLE]
    return busy if busy and rng.random() < 0.5 else every


def _ports(sim) -> list:
    return [
        (router, direction, port)
        for router in sim.routers
        for direction, port in router.output_ports.items()
    ]


def _vc_state(sim, rng):
    _, _, ivc = rng.choice(_input_vcs(sim, rng))
    ivc.state = rng.choice([s for s in VcState if s is not ivc.state])


def _out_direction(sim, rng):
    _, _, ivc = rng.choice(_input_vcs(sim, rng))
    ivc.out_direction = rng.choice([*Direction, None])


def _out_vc(sim, rng):
    router, _, ivc = rng.choice(_input_vcs(sim, rng))
    active = [
        other
        for vcs in router.input_vcs.values()
        for other in vcs
        if other.state is VcState.ACTIVE and other is not ivc
    ]
    if active and rng.random() < 0.5:
        # Claim another ACTIVE VC's downstream VC.
        other = rng.choice(active)
        ivc.out_direction, ivc.out_vc = other.out_direction, other.out_vc
    else:
        ivc.out_vc = rng.choice([*range(sim.config.num_vcs), None])


def _committed_dir(sim, rng):
    _, _, ivc = rng.choice(_input_vcs(sim, rng))
    ivc.committed_dir = rng.choice([*Direction, None])


def _port(sim, rng):
    """A fully idle output port a third of the time, a busy one a third
    of the time, any port otherwise (when such ports exist)."""
    ports = [port for _, _, port in _ports(sim)]
    idle = [
        p
        for p in ports
        if not p.fifo
        and not any(p.allocated)
        and not any(p._draining)
        and min(p.credits) == p.downstream_depth
    ]
    busy = [p for p in ports if p not in idle]
    roll = rng.random()
    pool = idle if roll < 1 / 3 else busy if roll < 2 / 3 else ports
    return rng.choice(pool or ports)


def _port_vc(sim, rng):
    """A port and one of its VCs, half the time one owed credits."""
    port = _port(sim, rng)
    owed = [
        vc
        for vc in range(port.num_vcs)
        if port.credits[vc] < port.downstream_depth
    ]
    if owed and rng.random() < 0.5:
        return port, rng.choice(owed)
    return port, rng.randrange(port.num_vcs)


def _credit(sim, rng):
    held = sim.faults.held_snapshot() if sim.faults is not None else []
    # Ports owed exactly one credit: returning it early makes the port
    # read as fully credited while its flit still sits downstream.
    last_owed = [
        (p, vc)
        for _, _, p in _ports(sim)
        if sum(p.credits) == p.num_vcs * p.downstream_depth - 1
        for vc in range(p.num_vcs)
        if p.credits[vc] < p.downstream_depth
    ]
    roll = rng.random()
    if held and roll < 0.25:
        node, direction, vc = rng.choice(held)
        port = sim.routers[node].output_ports[direction]
    elif last_owed and roll < 0.5:
        port, vc = rng.choice(last_owed)
        port.credits[vc] += 1
        return
    else:
        port, vc = _port_vc(sim, rng)
    port.credits[vc] += rng.choice((-1, 1))


def _allocated(sim, rng):
    # An owned escape VC: the port's own caches track adaptive VCs only,
    # so only the claim bijection sees its flag.
    owned_escape = [
        (port, vc)
        for _, _, port in _ports(sim)
        for vc in port.escape_vcs
        if port.owner_dst[vc] is not None
    ]
    claimed = [
        r
        for r in sim.routers
        for vcs in r.input_vcs.values()
        for ivc in vcs
        if ivc.state is VcState.ACTIVE
    ]
    roll = rng.random()
    if owned_escape and roll < 1 / 3:
        port, vc = rng.choice(owned_escape)
    elif claimed and roll < 2 / 3:
        # Beside an ACTIVE claim, where the claim count is not zero.
        port = rng.choice(list(rng.choice(claimed).output_ports.values()))
        vc = rng.randrange(port.num_vcs)
    else:
        port, vc = _port_vc(sim, rng)
    port.allocated[vc] = not port.allocated[vc]


def _draining(sim, rng):
    port, vc = _port_vc(sim, rng)
    port._draining[vc] = not port._draining[vc]


def _owner(sim, rng):
    port, vc = _port_vc(sim, rng)
    port.owner_dst[vc] = rng.choice([*range(sim.mesh.num_nodes), None])


def _busy_count(sim, rng):
    port = _port(sim, rng)
    port._busy_count += rng.choice((-1, 1))


def _fp_index(sim, rng):
    port, vc = _port_vc(sim, rng)
    index = port._fp_index
    if index and rng.random() < 0.5:
        vcs = index[rng.choice(sorted(index))]
        vcs.remove(rng.choice(vcs))
    else:
        index.setdefault(rng.randrange(sim.mesh.num_nodes), []).append(vc)


def _idle_cache(sim, rng):
    port, vc = _port_vc(sim, rng)
    cache = list(port.idle_vcs())
    if cache and rng.random() < 0.5:
        cache.remove(rng.choice(cache))
    else:
        cache.append(vc)
    port._idle_cache = cache


def _adaptive_credits(sim, rng):
    port = _port(sim, rng)
    port._adaptive_credits += rng.choice((-1, 1))


def _fifo_pop(sim, rng):
    held = [e for e in _input_vcs(sim, rng) if e[2].fifo]
    if held:
        _, _, ivc = rng.choice(held)
        ivc.fifo.pop() if rng.random() < 0.5 else ivc.fifo.popleft()


def _fifo_dup(sim, rng):
    held = [e for e in _input_vcs(sim, rng) if e[2].fifo]
    if held:
        _, _, ivc = rng.choice(held)
        flit = rng.choice(ivc.fifo)
        if rng.random() < 0.5:
            # Into another (most likely empty) VC, behind a full-credit
            # upstream port.
            _, _, ivc = rng.choice(_input_vcs(sim, rng))
        ivc.fifo.append(flit)


def _staged_fifo(sim, rng):
    staged = [e for e in _ports(sim) if e[2].fifo]
    if staged:
        _, _, port = rng.choice(staged)
        if rng.random() < 0.5:
            port.fifo.pop()
        else:
            port.fifo.append(rng.choice(port.fifo))


def _occupancy_mask(sim, rng):
    router, direction, ivc = rng.choice(_input_vcs(sim, rng))
    router._occupied_masks[direction] ^= 1 << ivc.index


def _pending(sim, rng):
    router, direction, ivc = rng.choice(_input_vcs(sim, rng))
    pending = router._pending
    if pending and rng.random() < 0.5:
        del pending[rng.choice(list(pending))]
    else:
        pending[(direction, ivc.index)] = ivc


def _counter(name):
    def corrupt(sim, rng):
        router = rng.choice(sim.routers)
        setattr(router, name, getattr(router, name) + rng.choice((-1, 1)))

    return corrupt


def _fresh(sim, rng):
    router, _, port = rng.choice(_ports(sim))
    roll = rng.random()
    if port.fresh_released and roll < 0.3:
        port.fresh_released.clear()
        return
    if roll < 0.6:
        # The flag that keeps a fresh set legal on an empty router.
        router = rng.choice(
            [r for r in sim.routers if not r.inflight] or sim.routers
        )
        port = rng.choice(list(router.output_ports.values()))
        router.credit_pending = not router.credit_pending
    port.fresh_released.add(rng.randrange(port.num_vcs))


def _wire(sim, rng):
    wires = [
        w
        for w in (sim._flits_next, sim._credits_next, sim._sink_next)
        if w
    ]
    if wires:
        wire = rng.choice(wires)
        i = rng.randrange(len(wire))
        roll = rng.random()
        if roll < 0.4:
            del wire[i]
        elif roll < 0.8:
            wire.append(wire[i])
        else:
            # Re-tag the entry with another VC, possibly out of range.
            entry = list(wire[i])
            at = 1 if wire is sim._sink_next else 2
            entry[at] = rng.randrange(-1, sim.config.num_vcs + 1)
            wire[i] = tuple(entry)


CORRUPTIONS = {
    "vc_state": _vc_state,
    "out_direction": _out_direction,
    "out_vc": _out_vc,
    "committed_dir": _committed_dir,
    "credit": _credit,
    "allocated": _allocated,
    "draining": _draining,
    "owner": _owner,
    "busy_count": _busy_count,
    "fp_index": _fp_index,
    "idle_cache": _idle_cache,
    "adaptive_credits": _adaptive_credits,
    "fifo_pop": _fifo_pop,
    "fifo_dup": _fifo_dup,
    "staged_fifo": _staged_fifo,
    "occupancy_mask": _occupancy_mask,
    "pending": _pending,
    "buffered_counter": _counter("buffered_input_flits"),
    "staged_counter": _counter("staged_flits"),
    "inflight_counter": _counter("inflight"),
    "fresh": _fresh,
    "wire": _wire,
}


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------

MESH_ALGORITHMS = ("footprint", "dbar", "dor", "oddeven", "duato")
TORUS_ALGORITHMS = ("footprint", "dbar", "dor", "duato")


def _config(
    topology, routing, width, num_vcs, packet_size, rate, faults, seed
):
    if faults:
        # Faults strike mid-run, so credits of flits already on a severed
        # wire are held (a dead router holds every credit sent to it).
        maker = (
            random_router_faults if faults == "router" else random_link_faults
        )
        faults = maker(
            width, k=2, cycle=10, duration=30, seed=seed, topology=topology
        )
    return SimulationConfig(
        width=width,
        topology=topology,
        routing=routing,
        num_vcs=num_vcs,
        vc_buffer_depth=4,
        traffic="uniform",
        injection_rate=rate,
        packet_size=packet_size,
        warmup_cycles=20,
        measure_cycles=60,
        drain_cycles=400,
        seed=seed,
        faults=faults or None,
    )


def assert_same_verdict(config, stop: int, kind: str, target: int) -> None:
    sim = Simulator(config, validation=ValidationConfig())
    for _ in range(stop):
        sim.step()  # every checker runs clean at the end of each cycle
    CORRUPTIONS[kind](sim, random.Random(target))
    checker = sim.validator
    cycle = sim.cycle
    # Checker by checker, so an earlier one firing cannot hide a later
    # one's difference, then the whole sweep.
    pairs = [
        (
            lambda: reference_conservation(checker, sim, cycle),
            lambda: checker._check_conservation(sim, cycle),
        ),
        (
            lambda: reference_credits(sim, cycle),
            lambda: checker._check_credits(sim, cycle),
        ),
        (
            lambda: reference_vc_states(sim, cycle),
            lambda: checker._check_vc_states(sim, cycle),
        ),
        (
            lambda: reference_run_checks(checker, sim, cycle),
            lambda: checker.run_checks(sim, cycle),
        ),
    ]
    for reference, fast in pairs:
        assert outcome(fast) == outcome(reference)
    domains = checker._geometry(sim).claim_domains
    for router, domain in zip(sim.routers, domains):
        clean = outcome(lambda: reference_router_vc_states(router, cycle))
        assert router_clean(router, domain) == (clean is None)


@st.composite
def scenarios(draw):
    topology = draw(st.sampled_from(("mesh", "torus")))
    torus = topology == "torus"
    config = _config(
        topology,
        draw(st.sampled_from(TORUS_ALGORITHMS if torus else MESH_ALGORITHMS)),
        draw(st.sampled_from((3, 4))),
        draw(st.sampled_from((3, 4) if torus else (2, 3, 4))),
        draw(st.sampled_from((1, 4))),
        draw(st.sampled_from((0.15, 0.3, 0.5))),
        draw(st.sampled_from((None, "link", "router"))),
        draw(st.integers(1, 1 << 16)),
    )
    stop = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(sorted(CORRUPTIONS)))
    return config, stop, kind, draw(st.integers(0, 1 << 30))


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenarios())
def test_fast_sweep_matches_reference(scenario):
    assert_same_verdict(*scenario)


#: A loaded multi-flit point, a few cycles after its faults struck:
#: every corruption kind finds its target state, and credits are held.
LOADED_STOP = 16


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
@pytest.mark.parametrize(
    "topology, num_vcs",
    # The fewest VCs each topology allows put packets on escape VCs.
    [("mesh", 4), ("torus", 4), ("mesh", 2), ("torus", 3)],
)
def test_every_corruption_kind(kind, topology, num_vcs):
    for faults in ("link", "router"):
        config = _config(
            topology, "footprint", 4, num_vcs, 4, 0.5, faults, 7
        )
        for target in range(2):
            assert_same_verdict(config, LOADED_STOP, kind, target)


@pytest.mark.parametrize("topology", ("mesh", "torus"))
def test_loaded_point_holds_credits(topology):
    # The fault-held term of the credit ledger is exercised above.
    for faults in ("link", "router"):
        config = _config(topology, "footprint", 4, 4, 4, 0.5, faults, 7)
        sim = Simulator(config)
        for _ in range(LOADED_STOP):
            sim.step()
        assert sim.faults.held_credits > 0


def test_clean_run_needs_no_explanation():
    # A healthy run never enters the per-VC explanation loop.
    config = _config("torus", "footprint", 4, 4, 4, 0.5, "router", 5)
    sim = Simulator(config, validation=ValidationConfig())

    def explain(router, cycle):  # pragma: no cover - must not run
        raise AssertionError(f"router {router.node} explained at {cycle}")

    sim.validator._explain_vc_states = explain
    sim.run()
    assert sim.validator.checks_run > 0
