"""Machine speed, measured by a fixed probe interleaved with the timed work.

The benchmark runs on a small shared host whose speed changes by up to
2x over seconds to minutes, while other tenants' load comes and goes.
The same work then reads up to 2x slower for reasons that have nothing to do
with skyhn.  To keep that out of the end-to-end metrics, a run times a
fixed probe (pure-Python work of the same kind as skyhn's: row reduction
over a prime field, Fraction sums, dict and tuple churn) every
``EVERY`` seconds of timed work, and reports every time scaled to the
speed at which the probe takes ``REF_PROBE_S``:

    reported = measured * REF_PROBE_S / (time-weighted mean probe time)

The probe never calls skyhn, so a change to the program moves the reported
times exactly as much as the measured ones; a change in the machine's
speed moves both the probe and the work, and cancels.  The factor and the
raw times are printed in every report.
"""

import statistics
import time
from fractions import Fraction

perf = time.perf_counter

# seconds of timed work between two probes
EVERY = 0.05
# units per probe; the probe's time is the median unit, so that one
# preemption during a probe does not move it
UNITS = 8
# median unit time of the probe on the reference machine when it was not
# loaded by other tenants (2-core VM, Python 3.11.7)
REF_PROBE_S = 9.5e-5

_P = 7
_N = 10
_ROWS = [[(i * 31 + j * 17 + i * j) % _P for j in range(_N)]
         for i in range(_N)]
_FRACS = [Fraction(i + 1, 2 * i + 3) for i in range(24)]


def _unit():
    """About 0.1 ms of interpreter work that never changes."""
    m = [row[:] for row in _ROWS]
    r = 0
    for c in range(_N):
        piv = next((i for i in range(r, _N) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], _P - 2, _P)
        m[r] = [x * inv % _P for x in m[r]]
        for i in range(_N):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % _P for x, y in zip(m[i], m[r])]
        r += 1
    total = sum(_FRACS, Fraction(0))
    d = {}
    for i, x in enumerate(_FRACS):
        d[(x, i % 3)] = d.get((x, i % 3), 0) + i
    return r, total, len(d)


def probe():
    """Median time of one probe unit."""
    times = []
    for _ in range(UNITS):
        t0 = perf()
        _unit()
        times.append(perf() - t0)
    return statistics.median(times)


class Speed:
    """Probe readings weighted by the timed work between them.

    ``add(dt)`` counts dt seconds of timed work; once ``EVERY`` seconds
    have gathered (or when ``force``), a probe runs and the interval since
    the last probe is weighted by its work and valued at the mean of the
    probes at its two ends.  Probes run outside every timed interval.
    """

    def __init__(self):
        self.last = probe()
        self.pending = 0.0
        self.intervals = []     # (timed work in s, mean probe time in s)

    def add(self, dt, force=False):
        self.pending += dt
        if self.pending >= EVERY or (force and self.pending > 0):
            p = probe()
            self.intervals.append((self.pending, (self.last + p) / 2))
            self.last = p
            self.pending = 0.0

    def flush(self):
        self.add(0.0, force=True)

    def probe_s(self):
        """Mean probe time over the timed work so far."""
        work = sum(w for w, _ in self.intervals)
        if not work:
            return self.last
        return sum(w * p for w, p in self.intervals) / work

    def factor(self):
        """What measured times are multiplied by: above 1 when the machine
        ran faster than the reference speed, below 1 when slower."""
        return REF_PROBE_S / self.probe_s()
