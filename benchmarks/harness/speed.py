"""Host-speed normalisation of measured time.

On a shared host, other tenants' load slows this process by up to about
2x, for seconds to minutes at a time: far more than the differences the
benchmark exists to detect.  So while a pass measures, a fixed probe
runs every :data:`INTERVAL_S` seconds on the main thread (from
``SIGALRM``, hence on the CPU the measured code is using): random
lookups in a 100,000-entry dict, which slow down like the program's
memory-bound work, then an arithmetic loop, which slows down like its
interpreter-bound work.  A sample's *slowdown* is the geometric mean of
the two probe times over their uncontended times on the reference host.

A timed interval converts to *reference seconds*: its wall time, less
the probe time spent inside it, divided by the mean slowdown of the
samples inside it and the one on either side.  That is about the time
the interval would have taken on the uncontended reference host.  Probe
time is on-CPU time (``time.thread_time``), so a probe that waits for
the interpreter lock behind the program's own threads does not read as
a slow host.
"""

from __future__ import annotations

import math
import random
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass

#: Seconds between samples.
INTERVAL_S = 0.1
#: Uncontended probe times on the reference host (2-vCPU KVM guest on an
#: Intel Xeon Sapphire Rapids host, Python 3.11): the 5th percentile of
#: several thousand samples taken while the four workloads ran.
REFERENCE_LOOKUP_S = 2.6e-3
REFERENCE_LOOP_S = 0.5e-3
#: Span name of a probe in a traced pass, so no layer's self time holds it.
PROBE_SPAN = "harness.probe"
#: Indexes of the two values in a converted ``(wall, reference)`` interval.
WALL, REFERENCE = 0, 1

_TABLE_SIZE = 100_000
_LOOKUPS = 8_000
_LOOP = 8_000


@dataclass(frozen=True)
class Sample:
    start: float  # perf_counter() when the probe began
    cpu_seconds: float  # the probe's on-CPU time
    slowdown: float


class SpeedSampler:
    """Samples host speed every :data:`INTERVAL_S` seconds while running."""

    def __init__(self, tracer=None):
        rng = random.Random(0)
        keys = [rng.getrandbits(60) for _ in range(_TABLE_SIZE)]
        self._table = dict.fromkeys(keys, 1)
        rng.shuffle(keys)
        self._lookups = keys[:_LOOKUPS]
        self._tracer = tracer
        self._previous_handler = None
        self._running = False
        self.samples: list[Sample] = []

    def sample(self, *_signal_args) -> None:
        """Run the probe once and record its sample."""
        with self._tracer.span(PROBE_SPAN) if self._tracer else nullcontext():
            start = time.perf_counter()
            cpu_start = time.thread_time()
            table, total = self._table, 0
            for key in self._lookups:
                total += table[key]
            cpu_lookups = time.thread_time()
            for i in range(_LOOP):
                total += i * i % 7
            cpu_end = time.thread_time()
        slowdown = math.sqrt(
            (cpu_lookups - cpu_start) / REFERENCE_LOOKUP_S
            * (cpu_end - cpu_lookups) / REFERENCE_LOOP_S
        )
        self.samples.append(Sample(start, cpu_end - cpu_start, slowdown))

    def start(self) -> None:
        """Sample now and then every :data:`INTERVAL_S` (main thread only)."""
        if self._running:
            return
        self.sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._running = True

    def stop(self) -> None:
        """Stop the timer, restore the handler, and take a closing sample."""
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        self._running = False
        self.sample()

    def reference_seconds(self, start: float, end: float) -> tuple[float, float]:
        """``(wall, reference)`` seconds of ``[start, end]``, probe time excluded.

        Call after :meth:`stop`, so that a sample follows every interval.
        """
        starts = [sample.start for sample in self.samples]
        first, last = bisect_left(starts, start), bisect_right(starts, end)
        inside = self.samples[first:last]
        around = self.samples[max(first - 1, 0) : last + 1]
        wall = end - start - sum(sample.cpu_seconds for sample in inside)
        return wall, wall / statistics.fmean(sample.slowdown for sample in around)

    def summary(self) -> dict:
        slowdowns = [sample.slowdown for sample in self.samples]
        return {
            "interval_s": INTERVAL_S,
            "samples": len(slowdowns),
            "slowdown_median": statistics.median(slowdowns),
            "slowdown_min": min(slowdowns),
            "slowdown_max": max(slowdowns),
        }
