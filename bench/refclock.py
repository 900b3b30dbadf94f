"""Timing in reference seconds, which a change in host CPU speed cancels.

On a shared host the CPU speed a process sees changes by up to 1.7x, for
seconds to minutes at a time, with CPU time equal to wall time. Raw wall
times of two runs taken minutes apart then differ by more than any useful
bound. So while the benchmark measures, a fixed pure-Python reference round,
which does not use the package, runs every INTERVAL_S from a SIGALRM handler
(or by hand, in the process being timed). Its duration samples the host's
speed at that moment.

A measured interval is converted stretch by stretch: the program time
between two neighbouring rounds is multiplied by NOMINAL_ROUND_S over the
mean duration of the rounds started within WINDOW_S of that stretch. The
rounds' own time is left out. On a host that runs a round in exactly
NOMINAL_ROUND_S, a reference second is a wall second.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.1
NOMINAL_ROUND_S = 0.001

_Q = [[Fraction(i - j, 1 + (i * j) % 5) for j in range(5)] for i in range(5)]


def to_reference(seconds: float, round_s: float) -> float:
    """Wall seconds run at a speed of ``round_s`` per round, in reference
    seconds."""
    return seconds * NOMINAL_ROUND_S / round_s


def reference_round():
    """Fixed work in the package's style: a product of 5x5 Fraction
    matrices, six products of 6x6 matrices mod 7, and dict updates."""
    m = [[(3 * i + j) % 7 for j in range(6)] for i in range(6)]
    for _ in range(6):
        m = [[sum(m[i][k] * m[k][j] for k in range(6)) % 7 for j in range(6)]
             for i in range(6)]
    q = [[sum((_Q[i][k] * _Q[k][j] for k in range(5)), Fraction(0))
          for j in range(5)] for i in range(5)]
    d = {}
    for i in range(400):
        d[(i * 7919) % 1013] = d.get(i % 17, 0) + i
    return m, q, d


class ReferenceClock:
    """Records reference rounds; as a context manager, runs them on a timer."""

    def __init__(self):
        self.starts: list = []  # the rounds, in the order they ran
        self.ends: list = []

    def sample(self, rounds: int = 1) -> None:
        # A collection inside a round would charge the program's heap to
        # the round; the allocation counts carry over to the program.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(rounds):
                start = time.perf_counter()
                reference_round()
                self.starts.append(start)
                self.ends.append(time.perf_counter())
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_round_s(self) -> float:
        """Mean duration of the rounds so far, in seconds."""
        return statistics.fmean(e - s for s, e in zip(self.starts, self.ends))

    def _rate(self, a: float, b: float) -> float:
        """Mean round duration near the stretch [a, b]."""
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:  # no round that close: take the nearest on each side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.starts))
        return statistics.fmean(self.ends[k] - self.starts[k]
                                for k in range(lo, hi))

    def reference_seconds(self, a: float, b: float) -> float:
        """The program time of the interval [a, b] in reference seconds.

        Rounds never straddle ``a`` or ``b``: both are ``perf_counter``
        readings of the measuring code, and a handler runs between them.
        """
        if not self.starts:
            raise RuntimeError("no reference round was run")
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.ends, b)
        edges = [a]
        for k in range(first, last):
            edges += [self.starts[k], self.ends[k]]
        edges.append(b)
        total = 0.0
        for lo, hi in zip(edges[::2], edges[1::2]):
            total += to_reference(hi - lo, self._rate(lo, hi))
        return total
