"""The host's speed, measured beside the program it is timed with.

The 2-core virtual machines this benchmark runs on share their host, and the
same code runs up to 1.7 times slower from one second to the next: process
CPU time grows with wall time, so the process is not waiting, it runs slower.
A pass therefore times ``chunk_s()``, a fixed pure-Python computation shaped
like the kernel's work (products of sparse polynomials held in dicts with
tuple keys, and small objects added into a dict), between its checks, and
divides each stretch of checks by the chunk times around it.  The result is
in nominal seconds: the time the stretch would take on a host where one
chunk takes ``NOMINAL_CHUNK_S``.  The chunk imports nothing from jetpoisson,
so a change to the program does not move it, and the garbage collector is
off while it runs, so the program's heap does not move it either.
"""

import gc
import signal
import time

# About the median chunk time on the 2-vCPU host the bounds were set on.  It
# only sets the scale of nominal seconds.
NOMINAL_CHUNK_S = 0.004

# Seconds between two chunks while a clock ticks.
CHUNK_EVERY_S = 0.05

_A = {(i, j, k): (i * 7 + j * 3 + k) % 11 - 5 for i in range(6) for j in range(6) for k in range(2)}
_B = {(i, j, k): (i * 5 + j + 2 * k) % 13 - 6 for i in range(6) for j in range(6) for k in range(2)}


class _Sparse:
    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = terms

    def __add__(self, other):
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0) + coeff
        return _Sparse({key: coeff for key, coeff in out.items() if coeff})


def _work():
    out = {}
    for ka, ca in _A.items():
        for kb, cb in _B.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            out[key] = out.get(key, 0) + ca * cb
    acc = _Sparse({})
    for i in range(300):
        acc = acc + _Sparse({(i % 13, i % 5): i % 3 - 1})
    return len(out) + len(acc.terms)


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its own reading
    # taken before it started a pass's interpreter.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def chunk_s() -> float:
    """Seconds one run of the fixed computation takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()




class NominalClock:
    """Time from start to stop, less its chunks, raw and in nominal seconds.

    A SIGALRM timer runs a calibration chunk every ``every`` seconds, inside
    long checks too, so that a change of host speed within a check is seen.  The
    time between two chunks, less the chunks, counts at the mean speed of the
    two.  With ``every=None`` (traced passes, where a chunk would land inside
    a span) chunks run only at start and stop.  Only one clock may tick at a
    time, as there is one SIGALRM timer.
    """

    def __init__(self, every):
        self.every = every
        self.chunks = []
        self.raw_s = self.nominal_s = 0.0
        self._mark = 0.0

    def _chunk(self):
        start = now()
        chunk = chunk_s()
        if self.chunks:
            work = start - self._mark
            self.raw_s += work
            self.nominal_s += work * 2 * NOMINAL_CHUNK_S / (self.chunks[-1] + chunk)
        self.chunks.append(chunk)
        self._mark = now()
        if self.every:
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def _alarm(self, *_):
        if self.every:  # an alarm already due when stop() ran is dropped
            self._chunk()

    def start(self):
        if self.every:
            signal.signal(signal.SIGALRM, self._alarm)
        self._chunk()

    def stop(self):
        self.every = None
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._chunk()
