"""Machine-speed control for the timed metrics.

The benchmark machine is shared: its speed drifts by up to 2x within
seconds, so raw wall times of one commit spread by 10-50% between runs.
While a timed stretch runs, an interval timer interrupts it every 50 ms
(between two bytecodes of the main thread; no thread or process is started)
and times a fixed snippet written here, which never changes with the program
under test.  Each piece of the stretch between two snippets is rescaled by
NOMINAL_S / (snippet time around it, median of 5 neighbours), and the pieces
are summed without the snippets' own time: seconds at the speed the machine
has when the snippet takes NOMINAL_S.  Raw times go to the result file too.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.05
# a typical snippet time on the reference machine, where it took 1.5-3.6 ms
NOMINAL_S = 2.5e-3
SMOOTH = 5


def snippet() -> float:
    """Explicit Euler on a 2-vector cubic field: interpreter work around
    small-array numpy calls, the same kind of work ieskit's solvers do."""
    z = np.array([0.3, -0.2])
    acc = 0.0
    for _ in range(400):
        k = z - z**3 / 3.0 + 0.5
        z = z + 1e-3 * k
        acc += float(k[0])
    return acc


class SpeedSampler:
    """Context manager: times ``snippet`` every INTERVAL_S while active and
    rescales the stretch it was active for."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.wall_s = 0.0
        self.scaled_s = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        snippet()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self.starts.clear()
        self.durations.clear()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.wall_s = t1 - self._t0
        self.scaled_s = self._rescale(t1)
        return False

    def _rescale(self, t1: float) -> float:
        if not self.durations:  # a stretch shorter than one interval
            self._tick(None, None)
            return self.wall_s * NOMINAL_S / self.durations[0]
        dur = np.array(self.durations)
        ends = np.array(self.starts) + dur
        pad = np.pad(dur, SMOOTH // 2, mode="edge")
        speed = np.array([np.median(pad[j:j + SMOOTH]) for j in range(len(dur))])
        # piece j runs from the previous snippet's end to snippet j's end
        pieces = np.diff(np.concatenate([[self._t0], ends])) - dur
        tail = t1 - ends[-1]
        return float(np.sum(pieces / speed) + tail / speed[-1]) * NOMINAL_S

    @property
    def median_snippet_s(self) -> float:
        return float(np.median(self.durations))
