"""Property test: the word-parallel Bernoulli scan against per-draw scanning.

:class:`~repro.traffic.patterns.BernoulliScanner` reads ``random()``
values out of ``getrandbits`` chunks and claims bit-exactness with one
``rng.random() < t`` per draw.  The oracle here is the per-draw scan the
lookahead used before it: draw every threshold of every cycle, stop at
the first cycle with a hit.  Both must return the same cycle and leave
the generator in the same state, for any thresholds (including ones
that always fire), node counts from 1 to 256, and horizons shorter or
longer than one chunk.  The same comparison runs one level up, through
:class:`~repro.traffic.patterns.LookaheadTraffic`, packet for packet.

The scan relies on how CPython builds ``random()`` from Mersenne-Twister
words; these tests pin that, and fail loudly on an interpreter where it
differs.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.router.flit import Packet
from repro.traffic import patterns
from repro.traffic.patterns import (
    SCAN_MAX_FIRE,
    BernoulliScanner,
    LookaheadTraffic,
    bernoulli_scanner,
)

_TWO53 = 1 << 53


def _per_draw_scan(rng, thresholds, cycles):
    """The oracle: draw by draw, rewound to the start of a firing cycle."""
    for cycle in range(cycles):
        state = rng.getstate()
        fired = [rng.random() < t for t in thresholds]
        if any(fired):
            rng.setstate(state)
            return cycle
    return None


_threshold = st.one_of(
    st.floats(0.0, 0.01),
    st.floats(0.0, 1e-5),
    st.floats(1.0, 4.0),
    st.sampled_from([0.0, 5e-324, 1.0 - 2**-53, 1.0]),
)


@st.composite
def scan_case(draw):
    nodes = draw(st.integers(1, 256))
    base = draw(st.floats(0.0, 0.01))
    thresholds = [base] * nodes
    # A few sources with their own thresholds, possibly sure to fire.
    for index in draw(st.lists(st.integers(0, nodes - 1), max_size=4)):
        thresholds[index] = draw(_threshold)
    chunk = draw(st.integers(1, 48))
    cycles = draw(st.integers(1, 3 * chunk))
    seed = draw(st.integers(0, 2**32 - 1))
    return thresholds, chunk, cycles, seed


def test_interpreter_builds_random_from_word_pairs():
    # Without this the scanner never engages and the engine tests would
    # only exercise the per-draw fallback.
    assert patterns._WORD_PAIR_RANDOM


@given(scan_case())
@settings(max_examples=120, deadline=None)
def test_scan_matches_per_draw(case):
    thresholds, chunk, cycles, seed = case
    scanner = BernoulliScanner(thresholds, chunk)
    fast, slow = random.Random(seed), random.Random(seed)
    # Two scans back to back: the second resumes where the first left.
    for _ in range(2):
        assert scanner.scan(fast, cycles) == _per_draw_scan(
            slow, thresholds, cycles
        )
        assert fast.getstate() == slow.getstate()
        # Step over the firing cycle (or one more idle one) draw by draw.
        for t in thresholds:
            assert (fast.random() < t) == (slow.random() < t)


def _draw_integer(seed, lane):
    """The 53-bit integer behind draw ``lane`` of ``Random(seed)``."""
    rng = random.Random(seed)
    for _ in range(lane):
        rng.random()
    return int(rng.random() * _TWO53)


@st.composite
def boundary_case(draw):
    nodes = draw(st.integers(1, 256))
    return (
        draw(st.integers(0, 2**32 - 1)),
        nodes,
        draw(st.integers(0, nodes - 1)),
        draw(st.booleans()),
        draw(st.integers(1, 4)),
    )


@given(boundary_case())
@settings(max_examples=80, deadline=None)
def test_boundary_lane_is_decided_by_the_full_check(case):
    # Put one threshold exactly on (or 2**-53 above) the first cycle's
    # draw ``lane``: its high word passes the coarse ``a <= T >> 26``
    # test, so only the full 53-bit comparison tells hit from miss.
    # Every other source has threshold 0 and never fires.
    seed, nodes, lane, above, chunk = case
    m = _draw_integer(seed, lane)
    limit = m + 1 if above else m
    thresholds = [0.0] * nodes
    thresholds[lane] = limit / _TWO53
    assert m >> 26 <= limit >> 26  # a candidate lane
    fast, slow = random.Random(seed), random.Random(seed)
    got = BernoulliScanner(thresholds, chunk).scan(fast, 1)
    assert got == _per_draw_scan(slow, thresholds, 1)
    assert got == (0 if above else None)
    assert fast.getstate() == slow.getstate()


class _ToyTraffic(LookaheadTraffic):
    """Bernoulli sources with their own thresholds and a draw-consuming,
    sometimes silent, destination — the shape of synthetic traffic."""

    def __init__(self, thresholds, seed, scanner):
        super().__init__()
        self.thresholds = thresholds
        self.rng = random.Random(seed)
        # Overrides the cached property: the test picks the path.
        self._scanner = scanner

    def _generate_packets(self, cycle):
        packets = []
        for src, t in enumerate(self.thresholds):
            if self.rng.random() >= t:
                continue
            dst = self.rng.randrange(len(self.thresholds) + 1)
            if dst == src:
                continue  # silent, like a transpose diagonal node
            packets.append(
                Packet(src=src, dst=dst, size=1, creation_time=cycle)
            )
        return packets


def _key(packets):
    return [
        (p.src, p.dst, p.size, p.creation_time, p.measured) for p in packets
    ]


@given(
    case=scan_case(),
    moves=st.lists(
        st.tuples(st.booleans(), st.integers(0, 150), st.booleans()),
        min_size=1,
        max_size=40,
    ),
)
@settings(max_examples=80, deadline=None)
def test_lookahead_matches_per_draw_traffic(case, moves):
    thresholds, chunk, _, seed = case
    fast = _ToyTraffic(thresholds, seed, BernoulliScanner(thresholds, chunk))
    slow = _ToyTraffic(thresholds, seed, None)
    now = 0
    # Drive both like the engine: jump to the next event, clamped to a
    # horizon, or step one cycle.  Having scanned further ahead, the
    # scanner may name an event past the horizon where the oracle says
    # ``None``; the engine clamps both to the same target.
    for skip, span, measured in moves:
        if skip:
            horizon = now + span
            event = fast.next_event_cycle(now, horizon)
            target = horizon if event is None else min(event, horizon)
            expected = slow.next_event_cycle(now, horizon)
            assert target == (
                horizon if expected is None else min(expected, horizon)
            )
            if target < horizon:
                assert fast.rng.getstate() == slow.rng.getstate()
            now = target
        else:
            assert _key(fast.generate(now, measured)) == _key(
                slow.generate(now, measured)
            )
            now += 1


@given(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=256))
@settings(max_examples=60, deadline=None)
def test_scanner_engages_only_at_light_load(thresholds):
    fire = 1.0
    for t in thresholds:
        fire *= 1.0 - min(t, 1.0)
    fire = 1.0 - fire
    scanner = bernoulli_scanner(thresholds)
    if fire > SCAN_MAX_FIRE:
        assert scanner is None
    else:
        assert scanner is not None and scanner.draws == len(thresholds)
        assert scanner.chunk_cycles >= 1


def test_silent_scanner_draws_nothing():
    rng = random.Random(3)
    state = rng.getstate()
    assert bernoulli_scanner([]).scan(rng, 10**6) is None
    assert rng.getstate() == state
