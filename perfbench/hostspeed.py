"""Host-speed sampling, so that timings can be scaled to one reference speed.

The shared hosts this benchmark runs on slow a virtual CPU in two ways.
Other tenants load the physical core under it, so the same code takes
1.5-2x the CPU time within tens of milliseconds; and the hypervisor takes
the virtual CPU away for a while (steal time), which adds wall time but no
CPU time.  A timed region is corrected for both:

- Every ``INTERVAL_S`` a timer interrupts the region and a fixed probe
  kernel runs, once to warm its caches and once timed in the thread's CPU
  time.  The probes' wall and CPU time is taken back out of the region, and
  the region is scaled by ``PROBE_REF_S / mean probe CPU time``: seconds at
  the speed where the probe takes ``PROBE_REF_S``.
- Each interruption also reads the steal time of the CPU the thread is on
  (``/proc/stat``), and the steal that fell outside the probes is taken out
  of the region's wall time.  Where ``/proc/stat`` is missing nothing is
  taken out.

The probe is the benchmark's own code (a pure-Python loop and small numpy
operations, like the bulk of g2lab's work), so a change to g2lab does not
change its cost; the untimed first pass keeps the program's cache footprint
out of the timed one.  This module imports numpy only when the probe first
runs, so a fresh interpreter can start a steal clock before timing its
imports.
"""

from __future__ import annotations

import os
import signal
import time

# the probe's CPU time on an idle host of the kind the benchmark was defined
# on (2 vCPUs of an Intel Xeon); it only sets the unit of the scaled times
PROBE_REF_S = 7.0e-4

# time between probes; each interruption costs two probes, 5-15 % of it
INTERVAL_S = 0.03


def probe() -> float:
    """The fixed kernel whose time measures the host's speed."""
    import numpy as np
    s = 0.0
    for i in range(6000):
        s += (i % 7) * 0.5
    m = np.eye(7) * 0.5
    a = np.linspace(0.0, 1.0, 7)
    for _ in range(150):
        a = m @ a + np.sin(a)
    return s + float(a[0])


def timed_probe() -> float:
    """CPU seconds of the calling thread that one warm probe takes."""
    probe()
    c0 = time.thread_time()
    probe()
    return time.thread_time() - c0


def probe_mean(seconds: float) -> float:
    """Mean CPU seconds of warm probes run back to back for about
    `seconds` of wall time, ten at least."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 10 or time.perf_counter() < end:
        times.append(timed_probe())
    return sum(times) / len(times)


def _steal_jiffies() -> list[int] | None:
    """Steal time of each CPU, in clock ticks, or None without /proc."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fh.readline()  # the all-CPU total
            out = []
            for line in fh:
                if not line.startswith("cpu"):
                    break
                out.append(int(line.split()[8]))
            return out
    except (OSError, IndexError, ValueError):
        return None


def _current_cpu() -> int | None:
    """The CPU the calling thread runs on, or None without /proc."""
    try:
        with open("/proc/thread-self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


class StealClock:
    """Steal time of the CPUs the calling thread ran on.

    ``tick()`` adds the steal that the thread's current CPU saw since the
    last reading; ``skip()`` moves the reading on without adding.  Between
    readings a few tens of milliseconds apart the thread rarely changes CPU.
    """

    HZ = os.sysconf("SC_CLK_TCK")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._last = _steal_jiffies()

    def tick(self) -> None:
        now, cpu = _steal_jiffies(), _current_cpu()
        if (now is not None and self._last is not None and cpu is not None
                and cpu < min(len(now), len(self._last))):
            self.seconds += (now[cpu] - self._last[cpu]) / self.HZ
        self._last = now

    def skip(self) -> None:
        self._last = _steal_jiffies()


class Sampler:
    """Times a region while sampling the host's speed on SIGALRM.

    Use from the main thread only.  After the ``with`` block, ``wall_s``
    holds the region's wall seconds without the probes and the steal time,
    ``cpu_s`` its process CPU seconds without the probes, ``steal_s`` the
    steal time taken out, and ``factor`` the scale to the reference speed.
    ``probe`` returns the CPU seconds of one timed probe.
    """

    def __init__(self, interval: float = INTERVAL_S,
                 probe=timed_probe) -> None:
        self.interval = interval
        self._probe = probe
        self.samples: list[float] = []
        self.wall_s = self.cpu_s = self.steal_s = 0.0
        self._probe_wall = self._probe_cpu = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0, c0 = time.perf_counter(), time.process_time()
        self._steal.tick()
        self.samples.append(self._probe())
        self._steal.skip()
        self._probe_wall += time.perf_counter() - t0
        self._probe_cpu += time.process_time() - c0

    def __enter__(self) -> "Sampler":
        self.samples = []
        self._probe_wall = self._probe_cpu = 0.0
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._steal = StealClock()
        self._t0, self._c0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall = time.perf_counter() - self._t0
        cpu = time.process_time() - self._c0
        signal.signal(signal.SIGALRM, self._old)
        self._steal.tick()
        self.steal_s = self._steal.seconds
        self.wall_s = wall - self._probe_wall - self.steal_s
        self.cpu_s = cpu - self._probe_cpu
        if not self.samples:
            # a region shorter than one interval: sample right after it
            self.samples.append(self._probe())

    @property
    def factor(self) -> float:
        """PROBE_REF_S over the mean probe CPU time seen in the region."""
        return PROBE_REF_S * len(self.samples) / sum(self.samples)
