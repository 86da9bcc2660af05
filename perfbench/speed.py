"""Host-speed normalisation of measured times.

The speed of a shared host drifts by up to about 1.6x and changes within a
second, and the host at times does not run the process at all (steal
time); both move every wall-clock figure alike.  While a timed piece runs
under :class:`Stopwatch`, a wall-clock timer interrupts it every
``INTERVAL`` seconds to time a short pure-Python loop (``micro``) in
thread CPU time.  The CPU time of each stretch between two such marks is
scaled by ``REF_SECONDS`` over the mean loop time at its two ends, so the
sum is the time the piece would take on a host that runs the loop in
``REF_SECONDS`` and never stops the process.  The loop's own time is left
out of both the wall and the normalised figure.

Pure Python with no imports beyond the standard library, so that a
fresh-process import probe can use it without loading numpy first.
"""

from __future__ import annotations

import signal
from time import perf_counter, thread_time

INTERVAL = 0.02  # seconds between marks
MICRO_LOOPS = 3000  # iterations of the marking loop
REF_SECONDS = 0.00025  # loop time the normalised seconds are scaled to

# SIGALRM and its handler are process-wide, so one stopwatch at a time marks.
_active: Stopwatch | None = None


def micro() -> float:
    """Thread CPU seconds for a fixed pure-Python loop."""
    start = thread_time()
    total = 0
    for i in range(MICRO_LOOPS):
        total += i * i % 7
    return thread_time() - start


def _on_alarm(signum, frame) -> None:
    if _active is not None:
        _active.mark()


class Stopwatch:
    """Times the body of a ``with`` block: ``wall`` and ``normalised`` seconds.

    With ``normalise=False`` no marks are made and both read the plain
    wall-clock time, for runs where the marks would disturb what is measured.
    """

    def __init__(self, normalise: bool = True) -> None:
        self.normalise = normalise
        # (wall start, CPU start, wall seconds, loop CPU seconds) of each mark
        self.marks: list[tuple[float, float, float, float]] = []
        self.wall = self.normalised = 0.0
        self._marking = False

    def mark(self) -> None:
        if self._marking:  # an alarm during a mark
            return
        self._marking = True
        wall, cpu = perf_counter(), thread_time()
        loop = micro()
        self.marks.append((wall, cpu, perf_counter() - wall, loop))
        self._marking = False

    def __enter__(self) -> Stopwatch:
        global _active
        if not self.normalise:
            self.marks.append((perf_counter(), 0.0, 0.0, 0.0))
            return self
        # The handler stays installed, so a late alarm never meets the default one.
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        self.mark()
        _active = self
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        if not self.normalise:
            self.wall = self.normalised = perf_counter() - self.marks[0][0]
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        _active = None
        self.mark()
        for (w0, c0, m0, l0), (w1, c1, _, l1) in zip(self.marks, self.marks[1:]):
            self.wall += w1 - w0 - m0
            self.normalised += (c1 - c0 - l0) * 2.0 * REF_SECONDS / (l0 + l1)
