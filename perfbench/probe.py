"""Host-speed probe: how fast the measurement CPU runs, over time.

The benchmark shares its host with other work.  Each virtual CPU runs
up to 1.6x slower for seconds to minutes at a time, and each by its
own amount, so a CPU-bound program's wall time and CPU time slow down
together and neither separates a slower program from a slower host.
The probe does.  The benchmark pins every program process to one
virtual CPU, the measurement CPU (``launch.py --cpu``), and the probe
to the same one.  For as long as a benchmark run lasts, the probe
repeatedly times a fixed pure-Python kernel (about 2 ms of dict and
integer work, the kind of work the program's interpreter does) in
thread CPU time, so that a program thread running in between does not
count as a slower host.  It sleeps between kernels so that it keeps a
tenth of the CPU busy, and streams each sample to its parent as a
line ``<end time> <seconds>``.

The parent (:class:`HostProbe`) turns the samples into a host factor
for any interval: the mean kernel time of the samples that ended in
it, divided by a fixed reference time.  A factor of 1.3 means the CPU
ran 1.3x slower than the reference during the interval, and
:meth:`HostProbe.ref_seconds` divides the interval's wall time by it.
The whole wall time, waits included: the store's mean WAL ``fsync``
moved with the factor too (79 us at 0.75, 100 to 120 us at 1.0 to
1.13), as a virtual disk's requests are served by host threads.  A
probe on the other CPU did not follow the program's slowdowns; one on
the same CPU did.

Usage (started by :class:`HostProbe`; it ends when its stdin closes)::

    python3 perfbench/probe.py CPU

Times on both sides come from ``time.perf_counter``, which on Linux is
the system-wide ``CLOCK_MONOTONIC``, so they compare across processes.
"""

from __future__ import annotations

import bisect
import math
import os
import select
import subprocess
import sys
import threading
import time
from typing import List

#: Share of the measurement CPU the probe keeps busy.
DUTY = 0.1

#: Reference time the factor divides by: a round figure for the
#: kernel's time on the 2-vCPU Xeon VM (Python 3.11) where the
#: benchmark was defined, whose kernel took 1.5 to 2.6 ms there.
REF_KERNEL_S = 0.0020

#: An interval with fewer samples is widened until it has this many.
MIN_SAMPLES = 5


def kernel() -> int:
    """The fixed unit of pure-Python work the probe times."""
    table = {}
    total = 0
    for i in range(6000):
        key = (i * 2654435761) % 4093
        table[key] = table.get(key, 0) + i
        total += key % 7
    return total + len(table)


def measurement_cpu() -> int:
    """The CPU that program processes and the probe are pinned to: the
    highest one this process may use."""
    return max(os.sched_getaffinity(0))


def main(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    out = sys.stdout
    try:
        while True:
            started = time.thread_time()
            kernel()
            busy = time.thread_time() - started
            out.write(f"{time.perf_counter()!r} {busy!r}\n")
            out.flush()
            # Sleep until the next kernel; stdin closing ends the probe.
            ready, _, _ = select.select(
                [sys.stdin], [], [], busy * (1 - DUTY) / DUTY
            )
            if ready:
                return
    except BrokenPipeError:
        return


class HostProbe:
    """Runs ``probe.py`` for the life of a benchmark run and answers,
    for any interval of it, how much slower than the reference the
    measurement CPU was."""

    def __init__(self, cpu: int) -> None:
        # Parallel, append-only lists: kernel end times and kernel times.
        self._ended: List[float] = []
        self._seconds: List[float] = []
        self._lock = threading.Lock()
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            ended, seconds = line.split()
            with self._lock:
                self._ended.append(float(ended))
                self._seconds.append(float(seconds))

    def close(self) -> None:
        """Stop the probe and wait until it has ended."""
        assert self._proc.stdin is not None
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._reader.join(timeout=10)

    def cpu_factor(self, start: float, end: float) -> float:
        """Host CPU slowness over ``[start, end]`` (1 = reference): the
        mean kernel time of the samples that ended in the interval,
        widened on both sides until it holds ``MIN_SAMPLES``."""
        with self._lock:
            count = len(self._ended)
        if not count:
            raise RuntimeError("the host probe recorded no samples")
        lo = bisect.bisect_left(self._ended, start, 0, count)
        hi = bisect.bisect_right(self._ended, end, 0, count)
        want = min(MIN_SAMPLES, count)
        while hi - lo < want:
            if lo > 0:
                lo -= 1
            if hi < count and hi - lo < want:
                hi += 1
        return math.fsum(self._seconds[lo:hi]) / (hi - lo) / REF_KERNEL_S

    def ref_seconds(self, start: float, end: float) -> float:
        """Wall time ``end - start`` in reference seconds: the time the
        interval would have taken at the reference CPU speed."""
        return (end - start) / self.cpu_factor(start, end)

    def samples(self) -> int:
        with self._lock:
            return len(self._ended)


if __name__ == "__main__":
    main(int(sys.argv[1]))
