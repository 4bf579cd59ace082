"""Time in reference seconds: wall time corrected for the machine's speed.

On shared machines a core's speed for pure-Python work drifts by up to 2x
for tens of seconds at a time, as neighbours come and go; CPU time drifts
with it, so neither wall nor CPU seconds of one run can be compared with
those of another.  `RefClock` therefore runs a fixed chunk of pure-Python work
(interval-style float arithmetic, object allocation and method dispatch,
like the certifier's inner loops) right before and after a timed region
and every `PERIOD_S` seconds inside it, from a SIGALRM handler in the main
thread (no extra thread or process).  The region's work at the reference
speed is its wall time, less the time spent in the loop, scaled by the
mean loop speed:

    ref_seconds = (wall - sampling) * mean(NOMINAL_S / chunk_seconds)

`NOMINAL_S` fixes the unit: a reference second is a second on a machine
where one chunk takes `NOMINAL_S`.  The chunk lives in the benchmark, so
no change to the program can move it.
"""

import random
import signal
import statistics
import time

PERIOD_S = 0.05
NOMINAL_S = 1.25e-3
HEAP_SIZE = 1 << 16
CHUNK = 500


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def __mul__(self, other):
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return _Pair(min(c), max(c))

    def __add__(self, other):
        return _Pair(self.lo + other.lo, self.hi + other.hi)


class _Reference:
    """A fixed chunk of interval-style work over a heap of 64Ki small
    objects visited in a shuffled order.  The heap makes the loop as
    sensitive as the certifier to neighbours competing for the caches; a
    loop over a few objects tracks their slowdown only in part."""

    def __init__(self):
        rng = random.Random(0)
        self.heap = [_Pair(rng.random(), 1.0 + rng.random())
                     for _ in range(HEAP_SIZE)]
        self.order = list(range(HEAP_SIZE))
        rng.shuffle(self.order)
        self.pos = 0

    def seconds(self):
        """Seconds taken by the next chunk."""
        heap, order, mask = self.heap, self.order, HEAP_SIZE - 1
        start = time.perf_counter()
        acc = _Pair(0.0, 0.0)
        for k in range(self.pos, self.pos + CHUNK):
            j = order[k & mask]
            x = heap[j]
            y = x * heap[j ^ 1] + acc
            heap[j] = _Pair(0.5 * y.lo, 0.5 * y.lo + 1.0)
            acc = _Pair(1e-3 * x.lo, 1e-3 * x.hi)
        self.pos = (self.pos + CHUNK) & mask
        return time.perf_counter() - start


class RefClock:
    """Times callables in wall and in reference seconds."""

    def __init__(self):
        self._reference = _Reference()
        self._loops = []
        self._sampling = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._loops.append(self._reference.seconds())
        self._sampling += time.perf_counter() - start

    def time(self, fn, *args):
        """Run fn(*args); return (result, wall seconds, reference seconds).

        Wall seconds exclude the sampling done inside the region.
        """
        self._loops = [self._reference.seconds()]
        self._sampling = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        self._loops.append(self._reference.seconds())
        wall -= self._sampling
        speed = statistics.fmean(NOMINAL_S / t for t in self._loops)
        return result, wall, wall * speed
