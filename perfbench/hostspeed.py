"""Host-speed sampling: a fixed piece of pure-Python work, timed at
regular intervals while the workload runs.

On a shared host the interpreter's speed swings by tens of percent
within seconds (CPU time stays equal to wall time and no steal time is
reported, so the swing is in how fast the host executes, not in
scheduling).  A loop timed before and after a pass misses swings inside
it, so :class:`HostSpeed` interleaves the loop with the workload: an
interval timer interrupts the process every ``interval`` seconds and
runs one short *slice* of the fixed work, timed in thread CPU time so a
slice that is preempted does not read slow.  A time measured while the
sampler ran is scaled by :func:`speed_factor` to the speed the slices
have on the reference host.

The work is the benchmark's own code, so a change to the program cannot
move it: a program that gets slower still reads slower.  It is shaped
like the simulator's inner loops: attribute reads and writes on slotted
objects, small dict and list operations, method calls and integer
arithmetic.
"""

from __future__ import annotations

import signal
from time import thread_time

#: Thread CPU seconds one slice takes on the reference host (a 2 vCPU
#: Xeon VM at 2.1 GHz running Python 3.11, near its fastest).
REFERENCE_SLICE_S = 0.0005

#: Rounds of the fixed work in one slice.
SLICE_ROUNDS = 20


class _Port:
    __slots__ = ("credits", "owner", "queue")

    def __init__(self, index: int) -> None:
        self.credits = 4
        self.owner = index
        self.queue: list[int] = []

    def offer(self, value: int) -> bool:
        if self.credits and value & 1:
            self.credits -= 1
            self.queue.append(value)
            return True
        if self.queue:
            self.queue.pop()
            self.credits += 1
        return False


def _work(rounds: int) -> int:
    ports = [_Port(i) for i in range(64)]
    table: dict[int, int] = {}
    state = 12345
    granted = 0
    for _ in range(rounds):
        for port in ports:
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            if port.offer(state >> 7):
                granted += 1
                table[state & 255] = port.owner
            elif table:
                table.pop(state & 255, None)
    return granted + len(table)


class HostSpeed:
    """Context manager that runs a timed slice every ``interval``
    seconds of wall time while its block runs; ``slices`` holds each
    slice's thread CPU seconds.  The slices' own time stays in what the
    caller measures (about 1.5% at the default interval, the same on
    every commit).
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.slices: list[float] = []
        self._previous = None

    def _slice(self, signum, frame) -> None:
        cpu = thread_time()
        _work(SLICE_ROUNDS)
        self.slices.append(thread_time() - cpu)

    def __enter__(self) -> "HostSpeed":
        self.slices = []
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_factor(slices: list[float]) -> float:
    """Multiplier from the host speed the slices saw to the reference
    host's: ``REFERENCE_SLICE_S`` over their mean."""
    if not slices:
        raise ValueError("no host-speed slice ran while timing")
    return REFERENCE_SLICE_S / (sum(slices) / len(slices))
