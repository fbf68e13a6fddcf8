"""Host-speed meter: converts measured seconds to reference seconds.

Other tenants of a shared host change how fast identical Python code runs,
by up to 2x for minutes at a time.  While the meter runs, a timer signal
interrupts the benchmark every ``PERIOD`` seconds to time ``probe()``, a
fixed stretch of dict and int work shaped like a sparse reduction loop and
independent of the program under test.  ``reference_seconds`` then rescales
an interval: each stretch between two probes is divided by the duration of
the probe that ends it and multiplied by ``PROBE_REF``, the probe's duration
at the reference speed.  The probes' own time is left out.
"""

import signal
import time

PERIOD = 0.25           # seconds between probes (about 1% of the run)
PROBE_REF = 0.002       # seconds one probe() takes at the reference speed


def probe():
    p = 32003
    f = {i * 7919 % 10007: i for i in range(1, 300)}
    tail = [(k * 31 % 10007, k) for k in range(1, 40)]
    acc = 0
    for step in range(80):
        for m, c in tail:
            key = m + step
            v = (f.get(key, 0) - c * step) % p
            if v:
                f[key] = v
            else:
                f.pop(key, None)
        acc += max(f)
    return acc


class HostSpeed:
    """Probe samples taken while the meter runs, as (start, end) pairs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append((t0, time.perf_counter()))

    def __enter__(self):
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def reference_seconds(self, start, end):
        """[start, end) in reference seconds, without the probes in it."""
        inside = [(a, b) for a, b in self.samples if start <= a and b <= end]
        if not inside:
            # a short interval: the nearest probe sets its speed
            a, b = min(self.samples, key=lambda ab: min(abs(ab[0] - end), abs(ab[1] - start)))
            return (end - start) * PROBE_REF / (b - a)
        work, t = 0.0, start
        for a, b in inside:
            work += (a - t) / (b - a)
            t = b
        work += (end - t) / (inside[-1][1] - inside[-1][0])
        return work * PROBE_REF

    def probe_seconds(self, start, end):
        """Time the probes took inside [start, end)."""
        return sum(b - a for a, b in self.samples if start <= a and b <= end)
