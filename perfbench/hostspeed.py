"""CPU time scaled to a fixed host speed, sampled inside the timed code.

A shared host's speed drifts by 10-30% within tens of seconds (other
tenants on the same cores and caches), so raw seconds of identical work
spread too widely to compare two commits.  :class:`SpeedProbe` times a
block of code in CPU seconds of the calling thread (time the vCPU was
preempted does not count) and, every ``PERIOD_S`` of CPU time while the
block runs, interrupts it with a signal whose handler runs a fixed
calibration loop.  The loop runs no program code and allocates nothing
the garbage collector tracks, so its time measures how fast the host
runs interpreter code right then.  The block's
cost, net of the loop, divided by the loop's mean time and multiplied by
``LOOP_REF_S``, reads as seconds on a host that runs the loop in exactly
``LOOP_REF_S``.

The block must run in the main thread, and must not use ``SIGPROF`` or
``ITIMER_PROF`` itself.  Thread CPU time is used because the process CPU
clock only advances on scheduler ticks while a process CPU timer is
armed.
"""

from __future__ import annotations

import signal
import time
from typing import List, Optional

#: Accesses per calibration loop; about 0.5 ms on a 2-vCPU Intel Xeon
#: under CPython 3.11.
LOOPS = 600
#: Untimed accesses that warm the caches before each timed loop.
WARM_LOOPS = 200
#: CPU seconds between two calibration loops (about 6% overhead).
PERIOD_S = 0.01
#: CPU seconds one calibration loop counts for.
LOOP_REF_S = 0.0005


class _Line:
    __slots__ = ("tag", "dirty", "hits")

    def __init__(self) -> None:
        self.tag = -1
        self.dirty = False
        self.hits = 0


class _Cache:
    """A 4-way, 128-set cache behind a 256-entry direct-mapped TLB.

    The calibration loop drives this rather than a tight arithmetic loop
    because host contention slows code like the simulator's (method
    calls, attribute and dict access, short loops, branches) more than
    it slows arithmetic: on a noisy 2-vCPU host, ten-pass windows of the
    capacity workload normalised by this loop spread about 2.5% (standard
    deviation) against 3.9% with an arithmetic loop and 12% raw.  Every
    object is made once; a loop allocates nothing the garbage collector
    tracks.
    """

    def __init__(self) -> None:
        self.sets = [[_Line() for _ in range(4)] for _ in range(128)]
        self.tlb = {slot: -1 for slot in range(256)}
        self.misses = 0

    def translate(self, addr: int) -> bool:
        page = addr >> 12
        slot = page & 255
        if self.tlb[slot] != page:
            self.tlb[slot] = page
            return False
        return True

    def access(self, addr: int, write: int) -> bool:
        self.translate(addr)
        tag = addr >> 12
        lines = self.sets[(addr >> 5) & 127]
        for line in lines:
            if line.tag == tag:
                line.hits += 1
                if write:
                    line.dirty = True
                return True
        victim = lines[addr & 3]
        victim.tag = tag
        victim.dirty = bool(write)
        self.misses += 1
        return False


_CACHE = _Cache()


def calibration_loop(loops: int = LOOPS) -> float:
    """Thread CPU seconds of a fixed run of cache accesses."""
    cache = _CACHE
    addr = 12345
    start = time.thread_time()
    for _ in range(loops):
        addr = (addr * 1103515245 + 12345) & 0x3FFFF
        cache.access(addr, addr & 1)
    return time.thread_time() - start


class SpeedProbe:
    """Times a ``with`` block in host-speed-scaled CPU seconds."""

    def __init__(self) -> None:
        #: Thread CPU seconds of each timed calibration loop.
        self.loops: List[float] = []
        #: Thread CPU seconds of the block, calibration included.
        self.gross_s = 0.0
        #: Thread CPU seconds the calibration took inside the block.
        self.overhead_s = 0.0
        self._start = 0.0
        self._previous: Optional[object] = None

    def _sample(self, _signum=None, _frame=None) -> None:
        start = time.thread_time()
        # The program has just evicted the loop's objects from the CPU
        # caches; refill them first, so that the timed loop measures the
        # host, not how much memory the program touches.
        calibration_loop(WARM_LOOPS)
        self.loops.append(calibration_loop())
        self.overhead_s += time.thread_time() - start

    def __enter__(self) -> "SpeedProbe":
        self.loops.clear()
        self.overhead_s = 0.0
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._start = time.thread_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.gross_s = time.thread_time() - self._start
        signal.signal(signal.SIGPROF, self._previous)
        if not self.loops:
            overhead = self.overhead_s
            self._sample()
            self.overhead_s = overhead

    @property
    def cpu_s(self) -> float:
        """CPU seconds of the block itself, net of the calibration."""
        return self.gross_s - self.overhead_s

    @property
    def speed(self) -> float:
        """Host speed while the block ran: 1.0 at the reference speed."""
        return LOOP_REF_S / (sum(self.loops) / len(self.loops))

    @property
    def scaled_s(self) -> float:
        """The block's CPU seconds at the reference host speed."""
        return self.cpu_s * self.speed
