"""Machine-speed correction for the gated times.

The benchmark's host is a shared virtual machine whose CPU speed drifts: the
same fusion input takes 7 s in one minute and 13 s in the next, in user time,
with no steal time and no system time. A slowdown that lasts longer than a run
cannot be removed by taking medians inside the run, so the gated times are
corrected for the speed the machine had while they were measured.

While a ``Speedometer`` is active, a timer signal (SIGALRM, every
``PERIOD_S``) interrupts the measured process and runs ``probe``: a fixed
piece of work that mixes interpreter bytecode, small numpy arithmetic and a
scattered ``np.add.at`` into a vote-sized tensor, the three kinds of work the
benchmarked program spends its time in. The probe's duration is recorded with
its start time. ``corrected(seconds, t0, t1)`` then

1. removes the share of ``[t0, t1]`` that the probes themselves took, and
2. scales the rest by ``REFERENCE_PROBE_S`` times the mean of
   ``1 / probe duration`` over the probes in ``[t0, t1]`` (widened to the
   ``MIN_SAMPLES`` nearest probes when the interval holds fewer). The
   probes are evenly spaced, so this scales each slice between two probes
   by its own speed; a slow phase inside a long interval counts for as long
   as it lasted.

A corrected time is thus in seconds of a machine on which the probe takes
``REFERENCE_PROBE_S``. It changes with the program exactly as the wall time
does, since the probe does not depend on the program; it does not change
when the whole machine runs faster or slower. The raw wall times are
recorded and printed beside it.

The probe runs in the measured process, on the measured core, between two
bytecodes of the program; a long C call delays it until the call returns.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.2
REFERENCE_PROBE_S = 2.0e-3
MIN_SAMPLES = 5

_SMALL = np.linspace(0.0, 1.0, 4096)
_VOTES = np.zeros((200, 200, 16, 6), dtype=np.uint16)     # 7.7 MB
_rng = np.random.default_rng(2)
_VOTE_IDX = tuple(_rng.integers(0, n, 4000) for n in _VOTES.shape)


def probe() -> None:
    """The fixed work whose duration measures the machine's speed."""
    s = 0
    for i in range(3000):
        s += i * i
    b = _SMALL
    for _ in range(30):
        b = np.sqrt(b * 1.0001 + 1.0)
    np.add.at(_VOTES, _VOTE_IDX, 1)   # uint16 counts wrap; the work stays the same


class Speedometer:
    """Samples the probe's duration on a timer while active (a context
    manager); main thread only."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list = []      # perf_counter at each probe's start
        self.durations: list = []   # seconds the probe took
        self.busy: list = []        # seconds the whole handler took
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.busy.append(time.perf_counter() - t0)

    def __enter__(self):
        probe()   # first call pays for page faults and caches
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _window(self, t0: float, t1: float) -> list:
        """Indices of the probes inside [t0, t1], or of the MIN_SAMPLES probes
        nearest to its middle when it holds fewer."""
        inside = [i for i, s in enumerate(self.starts) if t0 <= s <= t1]
        if len(inside) >= MIN_SAMPLES or len(self.starts) <= len(inside):
            return inside
        mid = (t0 + t1) / 2.0
        return sorted(range(len(self.starts)),
                      key=lambda i: abs(self.starts[i] - mid))[:MIN_SAMPLES]

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_PROBE_S times the mean probe speed around [t0, t1]."""
        idx = self._window(t0, t1)
        if not idx:
            raise RuntimeError("no speed probe ran; the measured interval is too short")
        return REFERENCE_PROBE_S * statistics.fmean(1.0 / self.durations[i] for i in idx)

    def corrected(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` of work timed inside [t0, t1], without the probes'
        share and at the reference speed."""
        span = t1 - t0
        busy = sum(b for s, b in zip(self.starts, self.busy) if t0 <= s <= t1)
        own = seconds * (1.0 - busy / span) if span > 0 else seconds
        return own * self.factor(t0, t1)

    def median_probe_s(self) -> float:
        return statistics.median(self.durations) if self.durations else float("nan")


def uncorrected(seconds: float, t0: float, t1: float) -> float:
    """The identity correction, for runs without a speedometer."""
    return seconds
