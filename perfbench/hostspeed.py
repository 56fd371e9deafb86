"""Times read at a reference host speed.

On a shared host the speed of a core drifts by a fifth or more, both
from second to second and over tens of minutes, and it slows process
time as much as wall time.  No run length averages that out, so a raw
pass time mostly measures the neighbours.  The benchmark instead runs
a fixed probe of pure-Python work (small fractions, dict updates; no
coaldef code) while it measures, and scales every time by how fast the
probe ran:

    reference seconds = seconds * PROBE_S / mean probe duration

``PROBE_S`` is the probe's duration on the reference host, so on a host
of that speed reference seconds are wall seconds.

During a pass, :class:`Sampler` runs the probe from a ``SIGALRM``
handler every ``INTERVAL_S`` seconds (Python runs the handler between
bytecodes of the main thread), so the probes see the same speed drift
as the work around them.  :meth:`Sampler.clock` is ``perf_counter``
less the time spent in probes, so the probes never count as work.
Short intervals such as set-up are bracketed by :func:`probe_mean`.
"""

import signal
import time
from fractions import Fraction

PROBE_S = 0.005      # duration of one probe on the reference host
INTERVAL_S = 0.2     # one probe per interval during a pass


def probe():
    """A fixed piece of interpreter work of about ``PROBE_S`` seconds."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 1600):
        acc += Fraction(i % 97, i % 13 + 1)
        table[i % 61] = table.get(i % 61, 0) + i * i
    return acc, table


def probe_mean(count):
    """Mean duration of ``count`` back-to-back probes, in seconds.

    One more probe runs first, untimed, to warm the interpreter up.
    """
    probe()
    started = time.perf_counter()
    for _ in range(count):
        probe()
    return (time.perf_counter() - started) / count


class Sampler:
    """Runs the probe on a timer between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.spent = 0.0     # seconds spent in probes, handler included
        self.probed = 0.0    # seconds spent in probe() itself
        self.count = 0
        self._busy = False

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        entered = time.perf_counter()
        probe()
        done = time.perf_counter()
        self.probed += done - entered
        self.count += 1
        self.spent += time.perf_counter() - entered
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """``perf_counter`` less the seconds spent in probes so far."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if self.spent == spent:
                return now - spent

    def scale(self):
        """Factor from measured seconds to reference seconds."""
        if not self.count:
            return PROBE_S / probe_mean(10)
        return PROBE_S * self.count / self.probed
