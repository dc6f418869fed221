"""Timing scaled by the host's speed, sampled while the work runs.

The benchmark's virtual machine changes speed by up to 2x, within a second
and from minute to minute (neighbours on the same host), and ``cpu_s``
moves with ``wall_s``.  So raw times of one workload spread far wider than
any change worth detecting.  A started ``Clock`` therefore interrupts the
process every ``SAMPLE_EVERY_S`` of CPU time (``SIGPROF``) and runs a short
fixed reference pass: exact ``Fraction`` and ``int`` arithmetic like the
package's, in code of the benchmark's own that no change to the package
touches.  Each stretch of time until the next sample is booked twice: raw,
and scaled by ``REF_SECONDS`` over the last pass's time.  A scaled time
reads as seconds on a host where one reference pass takes ``REF_SECONDS``,
its median on the baseline machine.  The passes themselves are left out of
both.  A change that makes the package slower raises its scaled times just
as its raw ones.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from collections import defaultdict
from fractions import Fraction
from typing import NamedTuple

# Median seconds of one ``reference_pass`` on the baseline machine (2 vCPU
# Xeon VM, Python 3.11.7); a unit conversion, not a tuning knob.
REF_SECONDS = 0.0018
# CPU seconds between samples: passes cost about 4% of the run.
SAMPLE_EVERY_S = 0.05


def reference_pass() -> Fraction:
    """A fixed amount of exact arithmetic: two naive series inverses, one
    with small rationals and one whose coefficients grow to ~150 bits."""
    n = 16
    a = [Fraction((-1) ** k * (k * k + 1), k + 2) for k in range(n)]
    small = [Fraction(1)]
    for k in range(1, n):
        small.append(-sum((a[j] * small[k - j] for j in range(1, k + 1)), Fraction(0)))
    n = 20
    b = [k**3 + 240 * k for k in range(n)]
    big = [Fraction(1)]
    for k in range(1, n):
        s = 0
        for j in range(1, k + 1):
            s += b[j] * big[k - j]
        big.append(-s / (k + 1))
    return small[-1] + big[-1]


class Reading(NamedTuple):
    """Seconds booked so far: wall and process time, raw and scaled."""

    wall: float
    wall_scaled: float
    cpu: float
    cpu_scaled: float


class Clock:
    """Books raw and scaled seconds by name.

    ``t = clock.now()`` ... ``clock.book(name, t)`` adds the time since ``t``
    to ``raw[name]`` and ``scaled[name]``, and its process time to
    ``raw[name + "_cpu"]`` and ``scaled[name + "_cpu"]``.
    """

    def __init__(self):
        self.raw: dict[str, float] = defaultdict(float)
        self.scaled: dict[str, float] = defaultdict(float)
        self.passes: list[float] = []
        # (booked Reading, wall mark, cpu mark, scale); replaced whole, so a
        # sample landing inside now() leaves it consistent.
        self._state = (Reading(0.0, 0.0, 0.0, 0.0), time.perf_counter(), time.process_time(), 1.0)
        self.sample()

    def sample(self, *_signal) -> None:
        """Book the stretch since the last sample, then measure the speed."""
        booked = self.now()
        enabled = gc.isenabled()
        gc.disable()  # a collection would time the package's heap, not the host
        try:
            start = time.perf_counter()
            reference_pass()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.passes.append(elapsed)
        self._state = (booked, time.perf_counter(), time.process_time(), REF_SECONDS / elapsed)

    def now(self) -> Reading:
        booked, wall_mark, cpu_mark, scale = self._state
        wall = time.perf_counter() - wall_mark
        cpu = time.process_time() - cpu_mark
        return Reading(
            booked.wall + wall,
            booked.wall_scaled + wall * scale,
            booked.cpu + cpu,
            booked.cpu_scaled + cpu * scale,
        )

    def book(self, name: str, since: Reading) -> None:
        now = self.now()
        self.raw[name] += now.wall - since.wall
        self.scaled[name] += now.wall_scaled - since.wall_scaled
        self.raw[name + "_cpu"] += now.cpu - since.cpu
        self.scaled[name + "_cpu"] += now.cpu_scaled - since.cpu_scaled

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def ref_pass_s(self) -> float:
        """Median raw seconds of this clock's reference passes."""
        return statistics.median(self.passes)
