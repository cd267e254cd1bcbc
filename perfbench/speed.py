"""Operation times in reference units, sampled against the machine's own speed.

The shared machine the benchmark runs on executes the same code up to about
1.5 times slower for stretches of seconds to minutes, and runs minutes apart
differ by as much.  No statistic inside one run removes that, so timed
passes also measure a fixed reference computation: an exact elimination over
Fractions of a fixed 8 x 10 0/1 matrix, the kind of work the library does,
written here so that no change to the library can change it.

While a `ReferenceClock` is entered, a timer signal runs the reference every
`INTERVAL` seconds in the benchmark's own thread and records how long it
took.  An operation's time in reference units is its time with those
reference runs taken out, divided piece by piece by the reference time
sampled at the two ends of each piece.  One reference unit is one run of the
reference at the speed the machine had at that moment.
"""

import random
import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.025
# Where a figure must be in seconds, one reference unit counts as this many:
# seconds on a machine where the reference takes 1 ms.
NOMINAL_SECONDS = 0.001

_rng = random.Random(0)
REFERENCE_MATRIX = tuple(tuple(Fraction(_rng.randrange(2)) for _ in range(10)) for _ in range(8))


def reference() -> int:
    """Rank of REFERENCE_MATRIX by Gauss-Jordan elimination over Fractions."""
    rows = [list(row) for row in REFERENCE_MATRIX]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col] / rows[rank][col]
                rows[i] = [x - factor * y for x, y in zip(row, rows[rank])]
        rank += 1
    return rank


class ReferenceClock:
    def __init__(self):
        self.starts: list[float] = []   # when each reference run began
        self.lengths: list[float] = []  # how long it took

    def sample(self, *_) -> None:
        start = perf_counter()
        reference()
        self.starts.append(start)
        self.lengths.append(perf_counter() - start)

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(seconds, reference units) of the interval [start, end] once the
        clock has been exited, without the reference runs inside it."""
        first = bisect_left(self.starts, start)
        inside = bisect_left(self.starts, end) - first
        seconds = units = 0.0
        before, begin = first - 1, start
        for k in range(first, first + inside + 1):
            finish = self.starts[k] if k < first + inside else end
            ends = [self.lengths[j] for j in (before, k) if 0 <= j < len(self.lengths)]
            seconds += finish - begin
            units += (finish - begin) * len(ends) / sum(ends)
            if k < first + inside:
                before, begin = k, self.starts[k] + self.lengths[k]
        return seconds, units

    def median_length(self) -> float:
        ordered = sorted(self.lengths)
        return ordered[len(ordered) // 2]
