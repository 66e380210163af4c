"""CPU speed probe: how fast each CPU runs plain Python at each moment of a run.

On a shared host a CPU's speed changes from second to second, for instance
when another tenant's work lands on the same physical core.  One probe process
per CPU that the study uses, pinned to that CPU, replays ACCESSES fixed
addresses through a small set-associative cache model every 50 ms and appends
the replay's start and duration to a file:

    python3 perfbench/probe.py CPU FILE

The replay is the same kind of Python as sttsim's cache models (list and dict
operations, attribute updates), so host contention slows it about as much as
it slows a study; a plain counting loop is slowed more.  The study reads the
files and scales each timed window by the CPU's speed during it, relative to
REFERENCE_RATE.  The probe costs its CPU about 2.5 %.
A probe stops on SIGTERM, when the process that started it is gone, or after
MAX_LIFETIME_S, whichever comes first.
"""

from __future__ import annotations

import os
import signal
import statistics
import sys
import time

ACCESSES = 2_000
INTERVAL_S = 0.05
MAX_LIFETIME_S = 200.0
# replayed accesses per second that count as speed 1.0: about the replay's
# rate on an uncontended core of the 2-vCPU Xeon VM the benchmark was tuned
# on (Python 3.11)
REFERENCE_RATE = 2.5e6
# samples this close to a window also describe it, so a millisecond-scale
# window gets the few samples around it
MARGIN_S = 0.1


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class CpuSpeed:
    """Reads probe files and scales wall times to the reference speed."""

    def __init__(self, files: dict[int, str]) -> None:
        self.files = files
        self.samples: dict[int, list[tuple[float, float]]] = {}

    def _load(self) -> None:
        for cpu, path in self.files.items():
            rows = []
            with open(path) as fh:
                for line in fh:
                    parts = line.split()
                    if len(parts) == 2 and line.endswith("\n"):
                        rows.append((float(parts[0]), float(parts[1])))
            self.samples[cpu] = rows

    def speed(self, start: float, end: float, cpus) -> float:
        """Mean speed (1.0 = REFERENCE_RATE) of `cpus` over [start, end]."""
        if not all(self.samples.get(c) and self.samples[c][-1][0] >= end for c in cpus):
            self._load()
        for margin in (MARGIN_S, 1.0):
            rates = [ACCESSES / dur for c in cpus for t, dur in self.samples[c]
                     if start - margin <= t <= end + margin]
            if rates:
                return statistics.fmean(rates) / REFERENCE_RATE
        raise RuntimeError(f"no CPU speed probe sample near [{start:.3f}, {end:.3f}] on CPUs {list(cpus)}")

    def scaled(self, start: float, end: float, cpus) -> float:
        """Seconds that [start, end] would have taken at the reference speed."""
        return (end - start) * self.speed(start, end, cpus)


class Replay:
    """A 64-set, 8-way LRU cache with write-back bookkeeping, fed the same addresses each time."""

    def __init__(self) -> None:
        x = 12345
        self.addresses = []
        for _ in range(ACCESSES):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            self.addresses.append((x >> 8) % 1536 * 64)
        self.sets: list[list[int]] = [[] for _ in range(64)]
        self.dirty: dict[int, bool] = {}
        self.hits = self.misses = self.writebacks = 0

    def run(self) -> None:
        sets, dirty = self.sets, self.dirty
        for addr in self.addresses:
            ways = sets[(addr >> 6) & 63]
            if addr in ways:
                self.hits += 1
                ways.remove(addr)
                ways.append(addr)
            else:
                self.misses += 1
                ways.append(addr)
                if len(ways) > 8 and dirty.pop(ways.pop(0), False):
                    self.writebacks += 1
            if addr & 128:
                dirty[addr] = True


def main() -> None:
    cpu, path = int(sys.argv[1]), sys.argv[2]
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    deadline = clock() + MAX_LIFETIME_S
    replay = Replay()
    replay.run()  # fill the cache: every later replay does the same work
    with open(path, "w") as fh:
        while not stop and os.getppid() == parent and clock() < deadline:
            start = clock()
            replay.run()
            fh.write(f"{start!r} {clock() - start!r}\n")
            fh.flush()
            time.sleep(INTERVAL_S)


if __name__ == "__main__":
    main()
