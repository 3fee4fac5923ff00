"""Synthetic traffic patterns.

The paper evaluates uniform random, transpose, and shuffle (plus hotspot,
which lives in :mod:`repro.traffic.hotspot`).  A few additional standard
patterns (bit-complement, bit-reverse, tornado, neighbor) are provided for
completeness; they follow the definitions in Dally & Towles.

Pattern conventions:

* **uniform** — destination drawn uniformly from all other nodes.
* **transpose** — node ``(x, y)`` sends to ``(y, x)`` (requires a square
  mesh); nodes on the diagonal are silent.
* **shuffle** — destination id is the source id rotated left by one bit
  (perfect shuffle, requires a power-of-two node count); fixed points are
  silent.
* **bitcomp** — destination id is the bitwise complement of the source id.
* **bitrev** — destination id is the bit-reversed source id.
* **tornado** — ``(x, y)`` sends to ``(x + ceil(k/2) - 1 mod k, y)``.
* **neighbor** — ``(x, y)`` sends to ``(x + 1 mod k, y)``.
"""

from __future__ import annotations

import abc
import functools
import math
import random
from typing import Callable

from repro.exceptions import TrafficError
from repro.router.flit import Packet
from repro.sim.config import SimulationConfig
from repro.topology.base import Topology
from repro.traffic.injection import bernoulli_generates, sample_packet_size


class TrafficGenerator(abc.ABC):
    """Produces packets for every cycle of the simulation."""

    @abc.abstractmethod
    def generate(self, cycle: int, measured: bool) -> list[Packet]:
        """Packets created at ``cycle``; ``measured`` marks the window."""

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        """Earliest cycle ``>= now`` at which :meth:`generate` may produce
        packets.

        Used by the engine's idle-cycle skipping: when the network is
        completely quiescent, the engine advances its clock directly to
        the returned cycle instead of stepping through empty cycles.

        Contract:

        * ``None`` means *provably no packets before* ``horizon``; the
          engine may jump straight to ``horizon``.
        * A returned cycle may lie at or beyond ``horizon``; the engine
          clamps.  Returning ``now`` is always safe (it disables
          skipping for this generator), and is the default so that
          custom generators that know nothing about skipping keep their
          exact cycle-by-cycle behaviour.
        * Implementations that consume RNG state per simulated cycle
          (Bernoulli injection) must consume *exactly* the draws that
          per-cycle :meth:`generate` calls would have made for the
          scanned cycles, so that skipping stays bit-identical to
          stepping.  :class:`LookaheadTraffic` provides that machinery.
        """
        return now


# ----------------------------------------------------------------------
# Word-parallel Bernoulli scanning
# ----------------------------------------------------------------------
#: CPython's ``random()`` is ``m / 2**53`` for the 53-bit integer
#: ``m = (A >> 5) << 26 | (B >> 6)`` over two consecutive 32-bit
#: Mersenne-Twister words ``A`` and ``B``.
_TWO53 = 1 << 53
_WORD = 1 << 32
#: One 64-bit lane with ``A``'s bits set, and with only bit 32 set.
_LANE_LOW = (_WORD - 1).to_bytes(8, "little")
_LANE_CARRY = _WORD.to_bytes(8, "little")
#: The scan engages only below this per-cycle fire probability.  Denser
#: traffic fires nearly every cycle, and every firing cycle is generated
#: draw by draw anyway.
SCAN_MAX_FIRE = 0.02
#: Draws per chunk at most, so a chunk's integers stay near 128 KiB.
SCAN_MAX_DRAWS = 1 << 14
#: What a chunk's fixed work (saving the generator state, and restoring
#: it on a hit) costs, in draws' worth of scanning.
SCAN_CHUNK_COST_DRAWS = 128


def _draw_integer(word: int) -> int:
    """The ``m`` of the draw whose words ``A``, ``B`` are the low 64 bits
    of ``word``, ``A`` lowest."""
    return ((word & 0xFFFFFFFF) >> 5) << 26 | (word >> 38) & 0x3FFFFFF


def _random_is_word_pair() -> bool:
    """Whether ``random()`` and ``getrandbits`` share CPython's layout.

    :class:`BernoulliScanner` reads ``random()`` values out of
    ``getrandbits(64 * n)``, lowest 64-bit lane first; an interpreter
    that builds either differently leaves scanning off.
    """
    draws, words = random.Random(0), random.Random(0)
    chunk = words.getrandbits(64 * 8)
    for lane in range(8):
        if draws.random() != _draw_integer(chunk >> (64 * lane)) / _TWO53:
            return False
    return draws.getstate() == words.getstate()


_WORD_PAIR_RANDOM = _random_is_word_pair()


class BernoulliScanner:
    """Finds the next firing cycle of a Bernoulli process word-parallel.

    A cycle makes ``len(thresholds)`` draws ``u = rng.random()``, draw
    ``i`` firing iff ``u < thresholds[i]``.  :meth:`scan` consumes whole
    non-firing cycles from ``rng`` in chunks and stops at the first
    cycle with a firing draw, so the caller can generate that cycle draw
    by draw.  The result is exact, not statistical:

    * ``u = m / 2**53`` with ``m`` as above, so ``u < t`` iff
      ``m < ceil(t * 2**53) = T`` (the scaling by a power of two is
      exact in floating point);
    * ``getrandbits(64 * n)`` returns the words of ``n`` draws in draw
      order, draw ``j`` in bits ``64j .. 64j + 63`` with ``A`` low;
    * ``m < T`` needs ``A >> 5 <= T >> 26``, i.e. ``A < C`` with
      ``C = ((T >> 26) + 1) << 5``.  Adding ``2**32 - C`` to every lane's
      ``A`` carries into bit 32 exactly where ``A >= C``, so three
      integer operations over the whole chunk leave a bit clear for
      every candidate lane, and each candidate is confirmed with the
      full ``m < T``.

    ``scan`` relies on CPython's ``random`` module; the module checks
    the layout once at import and :func:`bernoulli_scanner` declines to
    scan where it differs.
    """

    def __init__(self, thresholds: list[float], chunk_cycles: int) -> None:
        self.draws = len(thresholds)
        self.chunk_cycles = chunk_cycles
        self._limits = [max(0, math.ceil(t * _TWO53)) for t in thresholds]
        # Per lane ``2**32 - C``; ``C`` caps at ``2**32``, where every
        # ``A`` is a candidate.
        bounds = [
            min(((limit >> 26) + 1) << 5, _WORD) for limit in self._limits
        ]
        guards = b"".join((_WORD - c).to_bytes(8, "little") for c in bounds)
        lanes = self.draws * chunk_cycles
        self._guard = int.from_bytes(guards * chunk_cycles, "little")
        self._low = int.from_bytes(_LANE_LOW * lanes, "little")
        self._carry = int.from_bytes(_LANE_CARRY * lanes, "little")

    def scan(self, rng: random.Random, cycles: int) -> int | None:
        """Consume non-firing cycles; return how many preceded a firing one.

        On a return ``n``, ``rng`` has consumed exactly the draws of
        ``n`` cycles and the next one fires.  ``None`` means none of
        the ``cycles`` cycles fires, and all their draws are consumed.
        """
        draws = self.draws
        if not draws:
            return None
        limits = self._limits
        cycle_bits = 64 * draws
        done = 0
        while done < cycles:
            n = min(self.chunk_cycles, cycles - done)
            bits = n * cycle_bits
            state = rng.getstate()
            chunk = rng.getrandbits(bits)
            misses = ((chunk & self._low) + self._guard) & self._carry
            if misses == self._carry:
                done += n
                continue
            # Clear carry bits mark candidates.  Lanes past ``bits`` (a
            # short final chunk) come out as candidates and end the
            # search.
            candidates = misses ^ self._carry
            while candidates:
                low = candidates & -candidates
                start = low.bit_length() - 33
                if start >= bits:
                    break
                lane = start >> 6
                if _draw_integer(chunk >> start) < limits[lane % draws]:
                    skipped = lane // draws
                    rng.setstate(state)
                    if skipped:
                        rng.getrandbits(skipped * cycle_bits)
                    return done + skipped
                candidates ^= low
            done += n
        return None


def bernoulli_scanner(thresholds: list[float]) -> BernoulliScanner | None:
    """A scanner for ``thresholds``, or ``None`` where it does not pay.

    Engages only when the per-cycle fire probability
    ``1 - prod(1 - t)`` is at most :data:`SCAN_MAX_FIRE`, with chunks
    sized from the expected gap between firing cycles.  An empty
    ``thresholds`` (nothing draws) gets a scanner that never fires.
    """
    if not thresholds:
        return BernoulliScanner([], SCAN_MAX_DRAWS)
    if not _WORD_PAIR_RANDOM:
        return None
    fire = 1.0 - math.prod(1.0 - min(t, 1.0) for t in thresholds)
    if fire > SCAN_MAX_FIRE:
        return None
    draws = len(thresholds)
    cap = max(1, SCAN_MAX_DRAWS // draws)
    if fire <= 0.0:
        return BernoulliScanner(list(thresholds), cap)
    # Longer chunks pay the fixed cost less often but overshoot the
    # firing cycle more; the balance is the root of the product.
    gap_draws = draws / fire
    chunk = math.sqrt(2 * SCAN_CHUNK_COST_DRAWS * gap_draws) / draws
    return BernoulliScanner(list(thresholds), max(1, min(cap, round(chunk))))


class LookaheadTraffic(TrafficGenerator):
    """RNG-consuming generator with buffered lookahead for idle skipping.

    Subclasses implement :meth:`_generate_packets` — the per-cycle
    generation including every RNG draw — and mark packets that are
    *eligible* for measurement with ``measured=True`` (ineligible flows,
    e.g. hotspot foreground traffic, with ``False``).  The base class
    then serves both entry points from that single implementation:

    * :meth:`generate` runs (or replays) one cycle and downgrades
      ``measured`` to ``False`` outside the measurement window;
    * :meth:`next_event_cycle` scans forward, consuming the RNG exactly
      as per-cycle generation would, and buffers the first non-empty
      cycle's packets so the subsequent :meth:`generate` call returns
      them unchanged.

    ``_scanned_to`` tracks the first cycle whose RNG draws have *not*
    been consumed yet; replayed cycles below it return the buffer (or
    nothing) without touching the RNG, which keeps results bit-identical
    whether the engine steps or skips.

    A subclass whose idle cycles are plain Bernoulli draws on
    ``self.rng`` says so through :meth:`_idle_thresholds`; at light load
    both entry points then skip non-firing cycles with a
    :class:`BernoulliScanner` and generate only the firing ones.
    """

    def __init__(self) -> None:
        self._buffer: list[Packet] = []
        self._buffer_cycle = -1
        self._scanned_to = 0

    @abc.abstractmethod
    def _generate_packets(self, cycle: int) -> list[Packet]:
        """One cycle of generation; ``measured`` marks *eligibility*."""

    def _idle_thresholds(self) -> list[float] | None:
        """Thresholds of the draws of a cycle that fires nothing.

        A subclass returns them, in draw order, when such a cycle makes
        exactly one ``self.rng.random()`` per entry, fires iff a draw
        falls below its entry, and otherwise draws nothing and emits
        nothing.  ``None`` (the default) keeps per-cycle scanning.
        """
        return None

    @functools.cached_property
    def _scanner(self) -> BernoulliScanner | None:
        thresholds = self._idle_thresholds()
        if thresholds is None:
            return None
        if thresholds and type(self.rng) is not random.Random:
            return None
        return bernoulli_scanner(thresholds)

    def generate(self, cycle: int, measured: bool) -> list[Packet]:
        if cycle >= self._scanned_to:
            scanner = self._scanner
            if scanner is None:
                packets = self._generate_packets(cycle)
                self._scanned_to = cycle + 1
                return _downgrade(packets, measured)
            # Scan a chunk ahead: the stepped cycles that follow then
            # replay without drawing.
            self._lookahead(cycle, cycle + scanner.chunk_cycles)
        # The lookahead already consumed this cycle's RNG draws.
        if cycle != self._buffer_cycle:
            return []
        packets = self._buffer
        self._buffer = []
        self._buffer_cycle = -1
        return _downgrade(packets, measured)

    def next_event_cycle(self, now: int, horizon: int) -> int | None:
        if self._buffer_cycle >= now:
            return self._buffer_cycle
        return self._lookahead(max(now, self._scanned_to), horizon)

    def _lookahead(self, cycle: int, horizon: int) -> int | None:
        """First cycle in ``[cycle, horizon)`` with packets, buffered.

        ``cycle`` must not precede ``_scanned_to``.  Shared by both
        entry points; :meth:`generate` must not go through the public
        :meth:`next_event_cycle`, which tracers wrap and count.
        """
        scanner = self._scanner
        while cycle < horizon:
            if scanner is not None:
                skipped = scanner.scan(self.rng, horizon - cycle)
                if skipped is None:
                    self._scanned_to = horizon
                    return None
                cycle += skipped
            packets = self._generate_packets(cycle)
            self._scanned_to = cycle + 1
            if packets:
                self._buffer = packets
                self._buffer_cycle = cycle
                return cycle
            cycle += 1
        return None


def _downgrade(packets: list[Packet], measured: bool) -> list[Packet]:
    """``packets``, marked unmeasured outside the measurement window."""
    if not measured:
        for packet in packets:
            packet.measured = False
    return packets


# ----------------------------------------------------------------------
# Destination functions
# ----------------------------------------------------------------------
def _num_bits(n: int) -> int:
    bits = (n - 1).bit_length()
    if 1 << bits != n:
        raise TrafficError(f"pattern requires power-of-two node count, got {n}")
    return bits


def _uniform(mesh: Topology, src: int, rng: random.Random) -> int | None:
    dst = rng.randrange(mesh.num_nodes - 1)
    return dst if dst < src else dst + 1


def _transpose(mesh: Topology, src: int, rng: random.Random) -> int | None:
    if mesh.width != mesh.height:
        raise TrafficError("transpose requires a square mesh")
    x, y = mesh.coords(src)
    dst = mesh.node_at(y, x)
    return None if dst == src else dst


def _shuffle(mesh: Topology, src: int, rng: random.Random) -> int | None:
    bits = _num_bits(mesh.num_nodes)
    dst = ((src << 1) | (src >> (bits - 1))) & (mesh.num_nodes - 1)
    return None if dst == src else dst


def _bitcomp(mesh: Topology, src: int, rng: random.Random) -> int | None:
    _num_bits(mesh.num_nodes)
    dst = ~src & (mesh.num_nodes - 1)
    return None if dst == src else dst


def _bitrev(mesh: Topology, src: int, rng: random.Random) -> int | None:
    bits = _num_bits(mesh.num_nodes)
    dst = 0
    for i in range(bits):
        if src & (1 << i):
            dst |= 1 << (bits - 1 - i)
    return None if dst == src else dst


def _tornado(mesh: Topology, src: int, rng: random.Random) -> int | None:
    x, y = mesh.coords(src)
    shift = (mesh.width + 1) // 2 - 1
    dst = mesh.node_at((x + shift) % mesh.width, y)
    return None if dst == src else dst


def _neighbor(mesh: Topology, src: int, rng: random.Random) -> int | None:
    x, y = mesh.coords(src)
    dst = mesh.node_at((x + 1) % mesh.width, y)
    return None if dst == src else dst


DestinationFn = Callable[[Topology, int, random.Random], "int | None"]

#: Registry of destination functions by pattern name.
PATTERNS: dict[str, DestinationFn] = {
    "uniform": _uniform,
    "transpose": _transpose,
    "shuffle": _shuffle,
    "bitcomp": _bitcomp,
    "bitrev": _bitrev,
    "tornado": _tornado,
    "neighbor": _neighbor,
}


def pattern_destination(
    name: str, mesh: Topology, src: int, rng: random.Random
) -> int | None:
    """Destination of ``src`` under pattern ``name`` (``None`` = silent)."""
    fn = PATTERNS.get(name)
    if fn is None:
        raise TrafficError(
            f"unknown traffic pattern '{name}'; available: {sorted(PATTERNS)}"
        )
    return fn(mesh, src, rng)


def pattern_compatibility(name: str, mesh: Topology) -> None:
    """Raise :class:`TrafficError` if ``name`` cannot run on ``mesh``.

    A pure geometry check — consumes no RNG — so the factory can fail
    fast at construction with a one-line error instead of mid-setup (or,
    for a custom generator that skipped the up-front sweep, mid-run).
    Unknown names are reported by the callers' own name lookups.
    """
    if name == "transpose" and mesh.width != mesh.height:
        raise TrafficError(
            f"transpose requires a square mesh, got "
            f"{mesh.width}x{mesh.height}"
        )
    if name in ("shuffle", "bitcomp", "bitrev"):
        n = mesh.num_nodes
        if 1 << (n - 1).bit_length() != n:
            raise TrafficError(
                f"pattern '{name}' requires power-of-two node count, "
                f"got {n}"
            )


# ----------------------------------------------------------------------
class SyntheticTraffic(LookaheadTraffic):
    """Bernoulli-injected synthetic traffic under a named pattern."""

    def __init__(
        self,
        pattern: str,
        config: SimulationConfig,
        mesh: Topology,
        rng: random.Random,
    ) -> None:
        super().__init__()
        if pattern not in PATTERNS:
            raise TrafficError(
                f"unknown traffic pattern '{pattern}'; "
                f"available: {sorted(PATTERNS)}"
            )
        # Fail fast on geometry mismatches before touching the RNG.
        pattern_compatibility(pattern, mesh)
        self.pattern = pattern
        self.config = config
        self.mesh = mesh
        self.rng = rng
        # Validate the pattern against the mesh once, up front.
        for src in range(mesh.num_nodes):
            pattern_destination(pattern, mesh, src, rng)

    def _generate_packets(self, cycle: int) -> list[Packet]:
        packets: list[Packet] = []
        rate = self.config.injection_rate
        if rate <= 0.0:
            # bernoulli_generates draws nothing at rate 0, so skipping
            # the whole scan consumes the same RNG state: none.
            return packets
        # Inlined Bernoulli process: one rng.random() per node per
        # cycle, exactly like bernoulli_generates and as
        # _idle_thresholds declares.
        threshold = rate / self.config.mean_packet_size
        rng_random = self.rng.random
        for src in range(self.mesh.num_nodes):
            if rng_random() >= threshold:
                continue
            dst = pattern_destination(self.pattern, self.mesh, src, self.rng)
            if dst is None:
                continue
            packets.append(
                Packet(
                    src=src,
                    dst=dst,
                    size=sample_packet_size(self.config, self.rng),
                    creation_time=cycle,
                    flow=self.pattern,
                    measured=True,
                )
            )
        return packets

    def _idle_thresholds(self) -> list[float]:
        rate = self.config.injection_rate
        if rate <= 0.0:
            return []
        return [rate / self.config.mean_packet_size] * self.mesh.num_nodes
