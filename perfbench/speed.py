"""Host speed, measured from inside a pass.

On a shared host the speed of a virtual CPU changes from one second to the
next: a neighbour's load slows it by up to about 2x for seconds or minutes,
and the guest sees no steal time.  Wall time then says as much about the
neighbours as about the program.  So every pass runs a ``Sampler``: a thread
of the pass process that, every ``EVERY_S`` seconds, times a fixed
pure-Python probe made of the three kinds of work the layers do: dict
updates with tuple keys, ``Fraction`` arithmetic and products of big
integers.  Contention slows the three by different amounts, so the probe
has a third of its time in each.  The probe takes ``REF_PROBE_S`` at the
reference speed; ``REF_PROBE_S / duration`` is the host's speed at that
moment.

A span of wall time at reference speed is the span's wall time, less the
time spent probing, times the time-weighted mean speed of the probes in it.
A pass that does more work reads more, whatever the host was doing; on a
pass the probes cost about 4% of the wall time, which is taken out.

The pass process is pinned to one CPU (``run.py``), so the probe thread
measures the CPU the program runs on.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from time import perf_counter

EVERY_S = 0.02
# The probe's time at reference speed: about its shortest time on a 2.1 GHz
# Xeon vCPU with Python 3.11.  It only sets the scale of the reported times.
REF_PROBE_S = 0.0008

_FRACTIONS = [Fraction(7 * i + 1, 3 * i + 2) for i in range(64)]
_BIG_A, _BIG_B = 3 ** 4000, 7 ** 3000


def probe() -> int:
    d: dict = {}
    for i in range(1000):
        k = (i % 61, i % 53)
        d[k] = d.get(k, 0) + i * i
    q = Fraction(0)
    for f in _FRACTIONS:
        q += f * f
    n = 0
    for _ in range(6):
        n += _BIG_A * _BIG_B
    return len(d) + q.denominator % 7 + n % 7


class Sampler(threading.Thread):
    """Times the probe every ``EVERY_S`` seconds until ``stop``."""

    def __init__(self):
        super().__init__(name="speed-sampler", daemon=True)
        self.started_at = perf_counter()
        self.samples: list[tuple[float, float]] = []  # (probe start, probe end)
        self._stop_event = threading.Event()

    def run(self):
        while not self._stop_event.wait(EVERY_S):
            t0 = perf_counter()
            probe()
            self.samples.append((t0, perf_counter()))

    def stop(self):
        self._stop_event.set()
        self.join()

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(mean speed, seconds spent probing) over the wall interval [t0, t1].

        Each probe's speed stands for the time since the previous probe.  A
        window with no probe in it takes the speed of the nearest probe.
        """
        weighted = covered = probing = 0.0
        prev = self.started_at
        for a, b in self.samples:
            lo, hi = max(prev, t0), min(b, t1)
            if hi > lo:
                weighted += (hi - lo) * REF_PROBE_S / (b - a)
                covered += hi - lo
            if t0 <= a and b <= t1:
                probing += b - a
            prev = b
        if covered == 0.0:
            if not self.samples:
                return 1.0, 0.0
            a, b = min(self.samples, key=lambda s: min(abs(s[0] - t1), abs(s[1] - t0)))
            return REF_PROBE_S / (b - a), probing
        return weighted / covered, probing

    def ref_seconds(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] at reference speed, without the probes."""
        speed, probing = self.window(t0, t1)
        return (t1 - t0 - probing) * speed
