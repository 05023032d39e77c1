"""The machine under the benchmark: its CPU time accounting and hypervisor steal.

On a shared virtual machine the hypervisor now and then runs another guest
on a vCPU this one wanted.  Every process a request crosses then waits,
so the request is slow for a reason outside the program.  /proc/stat counts
that time as ``steal``; :class:`StealMonitor` records when it grew.
"""

from __future__ import annotations

import threading
import time
from typing import List, Tuple

#: field of the ``cpu`` line of /proc/stat that counts stolen ticks
_STEAL = 7


def cpu_times() -> List[int]:
    """The machine's cumulative CPU ticks (user ... steal) from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


class StealMonitor:
    """Reads the steal counter every ``interval`` seconds on a thread.

    Used as a context manager around a timed phase; afterwards
    :attr:`stolen` holds the ``(start, end)`` intervals, in
    ``perf_counter_ns``, between two readings across which the counter grew.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.stolen: List[Tuple[int, int]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        last_ns, last = time.perf_counter_ns(), cpu_times()[_STEAL]
        while True:
            stopping = self._stop.wait(self.interval)
            now_ns, now = time.perf_counter_ns(), cpu_times()[_STEAL]
            if now > last:
                self.stolen.append((last_ns, now_ns))
            last_ns, last = now_ns, now
            if stopping:
                return

    def __enter__(self) -> "StealMonitor":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
