"""Unit tests for the priority-based VC allocator."""

import random

from repro.router.allocator import allocate_vcs
from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc, VcState
from repro.routing.requests import Priority, RequestTier
from repro.topology.ports import Direction


def make_outputs(num_vcs=4):
    return {
        d: OutputPort(
            direction=d,
            num_vcs=num_vcs,
            downstream_depth=4,
            fifo_depth=8,
            speedup=2,
            escape_vc=None,
            atomic_realloc=False,
        )
        for d in (Direction.EAST, Direction.SOUTH)
    }


def make_input(direction=Direction.WEST, index=0, dst=9):
    ivc = InputVc(direction, index, depth=4)
    ivc.push(Packet(src=0, dst=dst, size=1, creation_time=0).flits()[0])
    ivc.refresh_state()
    assert ivc.state is VcState.ROUTING
    return ivc


def tier(*vcs, pri=Priority.LOW, direction=Direction.EAST):
    return RequestTier(direction, pri, list(vcs))


def test_single_request_granted():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs([(ivc, tier(1))], outputs, random.Random(1))
    assert len(grants) == 1
    assert grants[0].input_vc is ivc
    assert grants[0].direction is Direction.EAST
    assert grants[0].out_vc == 1


def test_busy_vc_not_granted():
    outputs = make_outputs()
    outputs[Direction.EAST].allocate(1, dst=5)
    ivc = make_input()
    grants = allocate_vcs([(ivc, tier(1))], outputs, random.Random(1))
    assert grants == []


def test_priority_wins_contention():
    outputs = make_outputs()
    low = make_input(index=0)
    high = make_input(index=1)
    grants = allocate_vcs(
        [
            (low, tier(2, pri=Priority.LOW)),
            (high, tier(2, pri=Priority.HIGH)),
        ],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 1
    assert grants[0].input_vc is high
    assert grants[0].priority is Priority.HIGH


def test_grant_carries_tier_priority():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs(
        [(ivc, tier(3, pri=Priority.HIGHEST))], outputs, random.Random(1)
    )
    assert len(grants) == 1
    assert grants[0].out_vc == 3
    assert grants[0].priority is Priority.HIGHEST


def test_one_grant_per_input_vc():
    outputs = make_outputs()
    ivc = make_input()
    grants = allocate_vcs(
        [(ivc, tier(0, 1, 2, 3))],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 1


def test_distinct_vcs_allow_parallel_grants():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [(a, tier(0)), (b, tier(1))], outputs, random.Random(1)
    )
    assert len(grants) == 2
    assert {g.out_vc for g in grants} == {0, 1}


def test_collision_on_same_vc_grants_exactly_one():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [(a, tier(2)), (b, tier(2))], outputs, random.Random(1)
    )
    assert len(grants) == 1


def test_requests_to_different_ports():
    outputs = make_outputs()
    a = make_input(index=0)
    b = make_input(index=1)
    grants = allocate_vcs(
        [
            (a, tier(0, direction=Direction.EAST)),
            (b, tier(0, direction=Direction.SOUTH)),
        ],
        outputs,
        random.Random(1),
    )
    assert len(grants) == 2
    assert {g.direction for g in grants} == {Direction.EAST, Direction.SOUTH}


def test_deterministic_given_seed():
    def run(seed):
        outputs = make_outputs()
        inputs = [make_input(index=i) for i in range(3)]
        grants = allocate_vcs(
            [(ivc, tier(0, 1, 2, 3)) for ivc in inputs],
            outputs,
            random.Random(seed),
        )
        return sorted((g.input_vc.index, g.out_vc) for g in grants)

    assert run(5) == run(5)

