"""Unit tests for ``TrafficGenerator.next_event_cycle`` lookahead."""

import random

from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.mesh import Mesh2D
from repro.traffic.hotspot import HotspotTraffic
from repro.traffic.patterns import SyntheticTraffic, TrafficGenerator
from repro.traffic.trace import TraceEvent, TraceTraffic


class _MinimalTraffic(TrafficGenerator):
    def generate(self, cycle, measured):
        return []


def _synthetic(rate, seed=1, width=4, pattern="uniform"):
    config = SimulationConfig(
        width=width, traffic=pattern, injection_rate=rate, seed=seed
    )
    mesh = Mesh2D(width)
    return SyntheticTraffic(pattern, config, mesh, random.Random(seed))


def _per_draw(traffic):
    """Force per-draw scanning: the oracle the word-parallel scan must
    match (overrides the cached ``_scanner`` property)."""
    traffic._scanner = None
    return traffic


def _drive(traffic, horizon, busy=6):
    """Jump from event to event like the engine, stepping ``busy``
    cycles of generation after each; return every non-empty cycle's
    packets and the RNG state right after each event was found."""
    seen = []
    now = 0
    while now < horizon:
        event = traffic.next_event_cycle(now, horizon)
        if event is None or event >= horizon:
            break
        state = traffic.rng.getstate()
        for cycle in range(event, min(event + busy, horizon)):
            packets = traffic.generate(cycle, True)
            if packets:
                seen.append(
                    (cycle, [(p.src, p.dst, p.size, p.flow) for p in packets])
                )
        seen.append(("state", event, state))
        now = min(event + busy, horizon)
    return seen


class TestDefaultContract:
    def test_default_returns_now(self):
        # Custom generators that know nothing about skipping must keep
        # their exact cycle-by-cycle behaviour: returning ``now``
        # disables skipping.
        traffic = _MinimalTraffic()
        assert traffic.next_event_cycle(17, 1000) == 17


class TestSyntheticLookahead:
    def test_rate_zero_is_provably_silent(self):
        traffic = _synthetic(0.0)
        assert traffic.next_event_cycle(0, 10_000) is None

    def test_scan_matches_per_cycle_generation(self):
        # The lookahead must find exactly the cycle at which a twin
        # generator, stepped cycle by cycle, first produces packets —
        # and hand back the same packets.
        scanner = _synthetic(0.004, seed=9)
        stepper = _synthetic(0.004, seed=9)

        event = scanner.next_event_cycle(0, 100_000)
        assert event is not None

        for cycle in range(event):
            assert stepper.generate(cycle, True) == []
        expected = stepper.generate(event, True)
        assert expected

        got = scanner.generate(event, True)
        assert [
            (p.src, p.dst, p.size, p.creation_time) for p in got
        ] == [(p.src, p.dst, p.size, p.creation_time) for p in expected]

    def test_replayed_cycles_do_not_touch_rng(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        state = traffic.rng.getstate()
        # Cycles the scan already consumed replay as empty without
        # advancing the RNG.
        for cycle in range(min(event, 5)):
            assert traffic.generate(cycle, True) == []
        assert traffic.rng.getstate() == state

    def test_buffered_event_returned_without_rescanning(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        state = traffic.rng.getstate()
        assert traffic.next_event_cycle(0, 100_000) == event
        assert traffic.rng.getstate() == state

    def test_none_before_horizon_then_scan_resumes(self):
        traffic = _synthetic(0.004, seed=9)
        stepper = _synthetic(0.004, seed=9)
        event = stepper.next_event_cycle(0, 100_000)

        # Scan in two bounded windows; the second resumes where the
        # first stopped and still lands on the same cycle.
        half = event // 2
        assert traffic.next_event_cycle(0, half) is None
        assert traffic.next_event_cycle(half, 100_000) == event

    def test_unmeasured_replay_downgrades_packets(self):
        traffic = _synthetic(0.004, seed=9)
        event = traffic.next_event_cycle(0, 100_000)
        packets = traffic.generate(event, False)
        assert packets and all(not p.measured for p in packets)

    def test_light_load_scans_word_parallel(self):
        assert _synthetic(1e-4, width=8)._scanner is not None
        # Dense traffic fires nearly every cycle: per-draw stays.
        assert _synthetic(0.3, width=8)._scanner is None

    def test_uniform_light_load_matches_per_draw(self):
        scanner = _synthetic(1e-4, seed=4, width=8)
        oracle = _per_draw(_synthetic(1e-4, seed=4, width=8))
        seen = _drive(scanner, 40_000)
        assert len(seen) > 20
        assert seen == _drive(oracle, 40_000)

    def test_transpose_silent_diagonal_matches_per_draw(self):
        # Diagonal nodes draw, and may fire, but send nothing: the scan
        # stops on such cycles, generates them, and must move on.
        rate, seed, horizon = 1e-4, 6, 60_000
        scanner = _synthetic(rate, seed=seed, width=8, pattern="transpose")
        oracle = _per_draw(
            _synthetic(rate, seed=seed, width=8, pattern="transpose")
        )
        assert scanner._scanner is not None
        seen = _drive(scanner, horizon)
        assert seen == _drive(oracle, horizon)
        # Transpose with fixed-size packets draws exactly one random()
        # per node per cycle, so the silent firing cycles can be counted.
        rng = random.Random(seed)
        mesh = Mesh2D(8)
        diagonal = {mesh.node_at(i, i) for i in range(8)}
        silent = 0
        for _ in range(horizon):
            fired = {n for n in range(64) if rng.random() < rate}
            silent += bool(fired) and fired <= diagonal
        assert silent > 0


class TestTraceLookahead:
    def _traffic(self, events):
        config = SimulationConfig(width=4, traffic="trace", trace=events)
        return TraceTraffic(events, config, Mesh2D(4), random.Random(1))

    def test_returns_next_event_cycle(self):
        traffic = self._traffic([TraceEvent(50, 0, 5), TraceEvent(90, 1, 6)])
        assert traffic.next_event_cycle(0, 10_000) == 50
        traffic.generate(50, True)
        assert traffic.next_event_cycle(51, 10_000) == 90

    def test_past_event_clamps_to_now(self):
        # An event whose cycle already passed fires on the next generate
        # call, so the lookahead reports "now", never a cycle in the past.
        traffic = self._traffic([TraceEvent(5, 0, 5)])
        assert traffic.next_event_cycle(30, 10_000) == 30

    def test_exhausted_trace_is_silent(self):
        traffic = self._traffic([TraceEvent(2, 0, 5)])
        traffic.generate(2, True)
        assert traffic.next_event_cycle(3, 10_000) is None


class TestHotspotLookahead:
    def _traffic(self, hotspot_rate, background_rate, seed=1):
        config = SimulationConfig(
            width=4,
            traffic="hotspot",
            hotspot_rate=hotspot_rate,
            background_rate=background_rate,
            seed=seed,
        )
        return HotspotTraffic(config, Mesh2D(4), random.Random(seed))

    def test_both_rates_zero_is_silent(self):
        traffic = self._traffic(0.0, 0.0)
        assert traffic.next_event_cycle(0, 10_000) is None

    def test_scan_matches_per_cycle_generation(self):
        scanner = self._traffic(0.002, 0.002, seed=5)
        stepper = self._traffic(0.002, 0.002, seed=5)

        event = scanner.next_event_cycle(0, 100_000)
        assert event is not None
        for cycle in range(event):
            assert stepper.generate(cycle, True) == []
        expected = stepper.generate(event, True)
        got = scanner.generate(event, True)
        assert [
            (p.src, p.dst, p.size, p.measured) for p in got
        ] == [(p.src, p.dst, p.size, p.measured) for p in expected]

    def test_low_rate_scans_word_parallel_and_matches_per_draw(self):
        def make(seed):
            config = SimulationConfig(
                width=8,
                traffic="hotspot",
                hotspot_rate=1e-3,
                background_rate=1e-4,
                seed=seed,
            )
            return HotspotTraffic(config, Mesh2D(8), random.Random(seed))

        scanner = make(8)
        assert scanner._scanner is not None
        seen = _drive(scanner, 30_000)
        flows = {
            flow
            for item in seen
            if item[0] != "state"
            for *_, flow in item[1]
        }
        assert flows == {"hotspot", "background"}
        assert seen == _drive(_per_draw(make(8)), 30_000)

    def test_rate_zero_flows_draw_nothing(self):
        # Only the background draws; the flows drop out of the scan.
        scanner = self._traffic(0.0, 2e-4, seed=3)
        oracle = _per_draw(self._traffic(0.0, 2e-4, seed=3))
        assert scanner._idle_thresholds() == [2e-4] * 8
        assert _drive(scanner, 50_000) == _drive(oracle, 50_000)
