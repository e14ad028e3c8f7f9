"""How fast the host ran while a worker measured.

The benchmark's host is shared.  The same pure-Python work takes up to
1.5x longer in one minute than in the next, and the two CPUs slow down
independently of each other.  No steal time is reported, and thread CPU
time drifts exactly as wall time does, so the slowdown is in the hardware
the host shares, not in scheduling.  It lasts longer than a run, so running
longer does not average it out.

Every worker therefore starts a probe process (this file run as a script)
on its own CPU, which does one chunk of fixed reference work every
:data:`INTERVAL_S` until the worker stops it, and times each chunk in its
own CPU time, so that waiting for the CPU is not counted.  The reference
work is written here, independent of the program, so no change to the
program moves it.  It runs in a separate process so that it touches
neither the worker's memory, its garbage collections nor its GIL.  A chunk
does what makes the simulator's interpreter slow down with the host: it
waits on memory.  It looks up a dict too big for the CPU's private caches
at random, runs a set-associative LRU cache model kept in lists, and reads
a 32 MB array at random.  Interpreter work that stays in the private
caches follows the program's slowdowns only half as strongly, so the
chunk leaves it out.

:meth:`Speed.slowdown` is the median chunk time of the chunks done while
an interval was being measured, over :data:`REFERENCE_S`, the chunk time on
the quiet host the benchmark was built on.  ``run.py`` divides each time a
worker measured by the slowdown over that time, so times read as seconds
on that quiet host.  Chunks are stamped with ``time.perf_counter()``,
which on Linux is ``CLOCK_MONOTONIC`` and so agrees between processes.
"""

from __future__ import annotations

import array
import bisect
import json
import select
import statistics
import subprocess
import sys
import time

#: Seconds between two reference chunks.
INTERVAL_S = 0.1
#: Median CPU seconds of one chunk on the quiet reference host (2-core
#: x86-64 container, Python 3.11) while a workload ran beside it.
REFERENCE_S = 0.0040
#: Chunks done this long before or after an interval still count for it,
#: so that even a millisecond request has about 20 chunks to take the
#: median of.
MARGIN_S = 1.0


class _Counts:
    __slots__ = ("hits", "misses")


class ReferenceWork:
    """The fixed work of one chunk; its tables are built once."""

    #: Entries of the dict looked up at random (about 5 MB with its keys).
    TABLE_ENTRIES = 1 << 16
    #: Sets and ways of the cache model.
    SETS, WAYS = 8192, 8
    #: Words of the array read at random (32 MB).
    WORDS = 1 << 22

    def __init__(self) -> None:
        self.table = {self.key(i): i for i in range(self.TABLE_ENTRIES)}
        self.counts = _Counts()
        self.counts.hits = self.counts.misses = 0
        self.sets = [[] for _ in range(self.SETS)]
        self.addr = 1
        self.words = array.array("q", bytes(8 * self.WORDS))

    @staticmethod
    def key(i: int) -> int:
        return (i * 2654435761) & 0xFFFFFFFF

    def chunk(self) -> None:
        self.lookups(3000)
        self.cache(1250)
        self.reads(4000)

    def lookups(self, n: int) -> None:
        table, key = self.table, self.key
        j = 1
        for _ in range(n):
            j = (j * 1103515245 + 12345) & (self.TABLE_ENTRIES - 1)
            table[key(j)]

    def cache(self, n: int) -> None:
        sets, counts, ways_max = self.sets, self.counts, self.WAYS
        mask = self.SETS - 1
        addr = self.addr
        for _ in range(n):
            addr = (addr * 1103515245 + 12345) & 0x7FFFFFFF
            line = (addr >> 7) & 0x3FFFF
            ways = sets[line & mask]
            if line in ways:
                ways.remove(line)
                ways.append(line)
                counts.hits += 1
                continue
            counts.misses += 1
            if len(ways) >= ways_max:
                del ways[0]
            ways.append(line)
        self.addr = addr

    def reads(self, n: int) -> None:
        words = self.words
        mask = self.WORDS - 1
        j = 1
        for _ in range(n):
            j = (j * 1103515245 + 12345) & 0x7FFFFFFF
            words[j & mask]


class SpeedProbe:
    """The probe process of one worker.  It inherits the worker's CPU
    affinity and process group, so it runs on the worker's CPU and ends
    with the worker's group."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def stop(self) -> list[list[float]]:
        """``[perf_counter stamp, CPU seconds]`` of every chunk done."""
        self.process.stdin.close()
        samples = json.loads(self.process.stdout.read())
        self.process.stdout.close()
        self.process.wait()
        return samples


class Speed:
    """The slowdown of the host over any interval, from one worker's
    chunk samples."""

    def __init__(self, samples: list[list[float]]) -> None:
        self.stamps = [stamp for stamp, _ in samples]
        self.chunks = [chunk for _, chunk in samples]

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the quiet reference host the host
        ran from ``start`` to ``end`` (``perf_counter`` stamps)."""
        first = bisect.bisect_left(self.stamps, start - MARGIN_S)
        last = bisect.bisect_right(self.stamps, end + MARGIN_S)
        chunks = self.chunks[first:last] or self.chunks
        if not chunks:
            return 1.0
        return statistics.median(chunks) / REFERENCE_S


def main() -> int:
    work = ReferenceWork()
    samples = []
    clock = time.process_time
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        stamp = time.perf_counter()
        start = clock()
        work.chunk()
        samples.append([stamp, clock() - start])
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
