"""Host-speed calibration.

A shared host can run this process up to ~1.5x slower for seconds to minutes
at a time. A short fixed pure-Python burst that touches no dnas code, run
every CALIBRATE_EVERY_S between operations, measures how fast the host runs
Python. Timings are reported as wall clock and scaled to a host on which one
burst takes REFERENCE_BURST_S: the scaling cancels the host's swings but not
the program's, whose code the burst does not run.

Memory-hard C code (``hashlib.scrypt``) swings apart from Python: over a
minute of alternating the two on a 2-core host their speeds correlated at
0.56, and scaling a run of twelve scrypt calls by the Python bursts left its
spread where it was. A stretch spent mostly in scrypt is scaled instead by
a fixed scrypt call, REFERENCE_KDF_S on the reference host, which halved
that spread (11 % to 5 %, interquartile range over median).
"""

import hashlib
import statistics
import time
from typing import List, Optional, Tuple

clock = time.perf_counter

BURST_ITERATIONS = 10_000
CALIBRATE_EVERY_S = 0.1
REFERENCE_BURST_S = 0.002
AROUND_BURSTS = 2   # a time is scaled by the median of the 2 + 2 bursts around its end
KDF_N, KDF_R = 2 ** 14, 8   # a 16 MiB scrypt
REFERENCE_KDF_S = 0.06


class HostSpeed:
    """Calibration bursts, and the stretches of wall time between them.

    Each stretch, like each latency, is scaled by the median of the bursts
    around its end, so one preempted burst does not count. ``calibrate``
    runs AROUND_BURSTS bursts in a row; a phase timed from one
    ``calibrate`` to the next has that many bursts on each side of every
    stretch, even when nothing polls inside it.
    """

    def __init__(self):
        self.bursts: List[float] = []
        self.in_bursts = 0.0        # wall seconds spent in bursts
        # (wall seconds, index of the burst that ends the stretch)
        self.stretches: List[Tuple[float, int]] = []
        self._last: Optional[float] = None    # end of the stretch being timed

    def burst(self) -> None:
        start = clock()
        x = 1
        for i in range(BURST_ITERATIONS):
            x = (x * 1103515245 + i) % 2147483647
        end = clock()
        if self._last is not None:
            self.stretches.append((start - self._last, len(self.bursts)))
        self.bursts.append(end - start)
        self.in_bursts += end - start
        self._last = end

    def calibrate(self) -> None:
        for _ in range(AROUND_BURSTS):
            self.burst()

    @staticmethod
    def kdf_bursts() -> List[float]:
        """Wall seconds of AROUND_BURSTS fixed scrypt calls. They are no
        stretch: time them between two stretches, or before the first."""
        times = []
        for _ in range(AROUND_BURSTS):
            start = clock()
            hashlib.scrypt(b"calibration", salt=bytes(16), n=KDF_N, r=KDF_R, p=1)
            times.append(clock() - start)
        return times

    def poll(self) -> None:
        if self._last is None or clock() - self._last >= CALIBRATE_EVERY_S:
            self.burst()

    def pause(self) -> None:
        """Close the stretch; nothing counts until ``resume``."""
        self.burst()
        self._last = None

    def resume(self) -> None:
        self._last = clock()

    def mark(self) -> int:
        """Where a phase starts, for ``wall`` and ``reference``."""
        return len(self.stretches)

    def wall(self, mark: int) -> float:
        """Wall seconds between bursts since ``mark``."""
        return sum(seconds for seconds, _ in self.stretches[mark:])

    def reference(self, mark: int) -> float:
        """The same seconds on the reference host."""
        return sum(seconds * self.scale_around(index)
                   for seconds, index in self.stretches[mark:])

    def scale_around(self, index: int) -> float:
        """The factor taking a time that ended just before burst ``index``
        to the reference host."""
        around = self.bursts[max(0, index - AROUND_BURSTS):index + AROUND_BURSTS]
        return REFERENCE_BURST_S / statistics.median(around)

    def summary_ms(self, first: int) -> List[float]:
        """Fastest, median and slowest of bursts[first:], in milliseconds."""
        bursts = self.bursts[first:]
        return [1000 * f(bursts) for f in (min, statistics.median, max)]
