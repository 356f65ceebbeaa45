"""Host-speed probe: rescales measured times to a reference host speed.

The vCPUs of a shared host run the same instructions at speeds that drift by
up to about 1.8x over tens of seconds (a sibling thread or a neighbour takes
the core), and the process CPU time drifts with the wall time, so neither
shows the program's own cost.  The probe times a fixed pure-Python loop on
the benchmark's own thread, every ``PERIOD_S`` seconds while an operation
runs, and :meth:`SpeedProbe.rescale` multiplies the operation's wall time
by the mean of ``REF_PROBE_S`` over each probe time: the wall time the
operation would have taken on a host where the loop takes ``REF_PROBE_S``.
The samples are evenly spaced in wall time, so the mean of their speeds
weights each stretch of the operation by its length.  A change
to the program moves the operation's time and not the probe's, so it shows
in full; a drift of the host moves both and cancels.

The probe runs from a ``SIGALRM`` handler, between the program's bytecodes
on the main thread, and costs about 0.3% of the thread's time.  It sees
only the main thread's speed: a change that adds threads which compete with
the main thread for the vCPUs slows the probe too, so its gain or loss is
under-reported (``run.cpu_s`` of a traced run shows what such a change
spends).
"""

import signal
import statistics
import time

PERIOD_S = 0.05
# About the fastest probe time on the reference host (README.md); it only
# sets the scale of the rescaled times.
REF_PROBE_S = 1.0e-4
LOOP = 2000


def probe_seconds():
    """Time one run of the fixed loop."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(LOOP):
        s += i * 0.5
    return time.perf_counter() - t0


def rescale(seconds, samples):
    """``seconds`` at the reference speed, given probe times taken alongside."""
    return seconds * statistics.fmean(REF_PROBE_S / p for p in samples)


class SpeedProbe:
    """Samples the probe every ``PERIOD_S`` while the ``with`` body runs.

    One sample is also taken on entry and one on exit, so a body shorter
    than the period still has two.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        self.samples.append(probe_seconds())

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def rescale(self, seconds):
        return rescale(seconds, self.samples)
