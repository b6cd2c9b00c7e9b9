"""How fast the machine runs Python right now, from a fixed reference loop.

A shared VM changes speed with its host's load: on the 2-vCPU VM the
benchmark was written on, a fixed Python loop ran up to 1.8x faster in some
stretches of seconds to minutes than in others, and whole runs fell into
one state or the other (README, "Machine speed"). The benchmark times each
sample between two reference readings and scales it to the speed the
reference loop has at ``REFERENCE_MS``, so a slower or faster host moves
the reference and the program alike and the scaled time stays put, while
a change to the program moves only the program.
"""

from __future__ import annotations

import gc
import statistics
import time

#: The reference loop's time, in ms, that scaled times are expressed at:
#: about its reading in the VM's slower state. It only sets the unit.
REFERENCE_MS = 1.0
#: A reading is the median of ``TRIES`` tries, and a try is the fastest of
#: ``REPS`` repetitions of the loop: a repetition the host preempted does
#: not move a try, and a try that fell in a burst of load a few
#: milliseconds long does not move the reading.
TRIES = 3
REPS = 5

_TARGETS = frozenset(f"t{i}_c{i % 13}" for i in range(0, 97, 7))


def _loop() -> int:
    """String, dict and set work, the kind most of the program does."""
    counts, seen = {}, set()
    for i in range(1000):
        key = f"T{i % 97}.C{i % 13}".casefold().replace(".", "_")
        counts[key] = counts.get(key, 0) + 1
        seen.add(key)
    return len(counts) + len(seen & _TARGETS)


class Speed:
    """Reference readings taken around timed samples."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent = 0.0

    def read(self) -> float:
        """One reading of the reference loop's time, in ms.

        The garbage collector is off while it runs: the loop makes no
        cycles, and a collection started by its allocations would walk the
        program's heap, so the reading would follow the heap's size."""
        start = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            tries = []
            for _ in range(TRIES):
                times = []
                for _ in range(REPS):
                    t0 = time.perf_counter()
                    _loop()
                    times.append(time.perf_counter() - t0)
                tries.append(min(times))
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - start
        reading = statistics.median(tries) * 1e3
        self.readings.append(reading)
        return reading

    @staticmethod
    def factor(*readings: float) -> float:
        """What a time measured between ``readings`` (the one before it, the
        one after it, and any in between) is multiplied by to give it at the
        reference speed."""
        return REFERENCE_MS * len(readings) / sum(readings)
