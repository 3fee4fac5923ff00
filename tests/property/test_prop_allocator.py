"""Property-based tests for the VC allocator.

For any set of request tiers over any port state, one allocation round
must be a *matching*: at most one grant per input VC, at most one grant
per (port, VC), and only grantable VCs granted — even when a tier holds
busy VCs, which routing never emits.  On tiers routing can emit (only
grantable VCs), the allocator makes exactly the grants and rng draws of
the list-form allocator over the full request lists.
"""

import random

from hypothesis import given, strategies as st

from repro.router.allocator import allocate_vcs
from repro.router.flit import Packet
from repro.router.output import OutputPort
from repro.router.vcstate import InputVc
from repro.routing.requests import Priority, RequestTier
from repro.topology.ports import Direction

from tests import request_oracle as oracle

NUM_VCS = 4
DIRECTIONS = (Direction.EAST, Direction.SOUTH)


@st.composite
def allocation_round(draw):
    outputs = {}
    for d in DIRECTIONS:
        port = OutputPort(
            direction=d,
            num_vcs=NUM_VCS,
            downstream_depth=4,
            fifo_depth=8,
            speedup=2,
            escape_vc=None,
            atomic_realloc=False,
        )
        for v in range(NUM_VCS):
            if draw(st.booleans()):
                port.allocate(v, dst=draw(st.integers(0, 15)))
        outputs[d] = port

    requests = []
    n_inputs = draw(st.integers(1, 6))
    for i in range(n_inputs):
        ivc = InputVc(Direction.WEST, i, depth=4)
        ivc.push(
            Packet(src=0, dst=draw(st.integers(0, 15)), size=1,
                   creation_time=0).flits()[0]
        )
        ivc.refresh_state()
        vcs = draw(
            st.lists(
                st.integers(0, NUM_VCS - 1),
                min_size=1,
                max_size=NUM_VCS,
                unique=True,
            )
        )
        tier = RequestTier(
            draw(st.sampled_from(DIRECTIONS)),
            draw(st.sampled_from(list(Priority))),
            sorted(vcs),
        )
        requests.append((ivc, tier))
    seed = draw(st.integers(0, 999))
    return outputs, requests, seed


@given(allocation_round())
def test_allocation_is_a_valid_matching(round_):
    outputs, requests, seed = round_
    grantable_before = {
        (d, v): outputs[d].grantable(v)
        for d in DIRECTIONS
        for v in range(NUM_VCS)
    }
    grants = allocate_vcs(requests, outputs, random.Random(seed))

    # At most one grant per input VC.
    input_ids = [id(g.input_vc) for g in grants]
    assert len(input_ids) == len(set(input_ids))

    # At most one grant per output VC, and only previously-free VCs.
    out_keys = [(g.direction, g.out_vc) for g in grants]
    assert len(out_keys) == len(set(out_keys))
    for key in out_keys:
        assert grantable_before[key]

    # Every grant is a VC of that input VC's tier, at its priority.
    by_input = {id(ivc): tier for ivc, tier in requests}
    for g in grants:
        tier = by_input[id(g.input_vc)]
        assert tier.direction is g.direction
        assert g.out_vc in tier.vcs
        assert g.priority is tier.priority


@given(allocation_round())
def test_work_conserving(round_):
    """A round issues a grant exactly when some grantable request exists
    (the allocator never wastes a cycle entirely)."""
    outputs, requests, seed = round_
    any_grantable = any(
        outputs[tier.direction].grantable(vc)
        for _, tier in requests
        for vc in tier.vcs
    )
    grants = allocate_vcs(requests, outputs, random.Random(seed))
    assert bool(grants) == any_grantable


@given(allocation_round())
def test_allocation_deterministic_for_seed(round_):
    """allocate_vcs is a pure function of (requests, ports, rng seed)."""
    outputs, requests, seed = round_

    def run():
        return [
            (id(g.input_vc), g.direction, g.out_vc, g.priority)
            for g in allocate_vcs(requests, outputs, random.Random(seed))
        ]

    assert run() == run()


@given(allocation_round(), st.data())
def test_draws_match_list_form_allocator(round_, data):
    """Full request lists for grantable VCs only (what routing emits),
    allocated in list form and as their top tiers: same grants, same rng
    state afterwards."""
    outputs, requests, seed = round_
    free = [
        (d, v) for d in DIRECTIONS for v in range(NUM_VCS)
        if outputs[d].grantable(v)
    ]
    lists = []
    for ivc, _ in requests:
        direction = data.draw(st.sampled_from(DIRECTIONS))
        vcs = [v for d, v in free if d is direction]
        pris = data.draw(
            st.lists(
                st.sampled_from(list(Priority)),
                min_size=len(vcs),
                max_size=len(vcs),
            )
        )
        lists.append(
            (
                ivc,
                [
                    oracle.VcRequest(direction, v, p)
                    for v, p in zip(vcs, pris)
                ],
            )
        )
    tiers = [
        (ivc, tier)
        for ivc, reqs in lists
        if (tier := oracle.top_tier(reqs, outputs)) is not None
    ]
    old_rng = random.Random(seed)
    new_rng = random.Random(seed)
    assert allocate_vcs(tiers, outputs, new_rng) == oracle.allocate_vcs(
        lists, outputs, old_rng
    )
    assert new_rng.getstate() == old_rng.getstate()
