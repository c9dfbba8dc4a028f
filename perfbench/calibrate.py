"""Speed calibration: a fixed reference loop run between the timed trials.

The shared machine the benchmark was defined on runs the same code up to
1.5x slower or faster for stretches of seconds to minutes, and a process's
CPU time follows its wall time through those stretches, so neither clock
measures the program alone. The benchmark therefore runs a fixed piece of
work, the *reference loop*, between trials every ``interval`` seconds, and
scales each trial's time by ``NOMINAL_S`` over the reference time measured
just before and just after it. A time so scaled is the time the trial would
have taken with the machine at the speed at which the reference loop takes
``NOMINAL_S``.

The reference loop mixes what alcc-lab's trials are made of: interpreted
Python (small loops, dict work, function calls), small complex numpy and
LAPACK calls (least squares, singular values, polynomial roots and
evaluation) and a pass over an array larger than the first-level cache. It
imports nothing from alcc-lab, so a change to the program leaves it as it is.
The time the reference loop takes is kept off the benchmark clock
(``Reference.clock``), so it is in no trial's time and no window's span.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# A fixed unit of time: about one reference loop on the machine described in
# NOTES.md when it is not busy.
NOMINAL_S = 0.0090

_RNG = np.random.default_rng(20240502)
_MATRICES = [(_RNG.standard_normal((12, 8)) + 1j * _RNG.standard_normal((12, 8)),
              _RNG.standard_normal(12) + 1j * _RNG.standard_normal(12))
             for _ in range(16)]
_VECTOR = _RNG.standard_normal(40_000)


def reference_loop() -> float:
    """Fixed work of about ``NOMINAL_S``; returns a value so nothing is skipped."""
    acc = 0.0
    for _ in range(4):
        for a, b in _MATRICES:
            x = np.linalg.lstsq(a, b, rcond=None)[0]
            acc += float(np.abs(np.polyval(x, 0.3 + 0.1j)))
            acc += float(np.linalg.svd(a, compute_uv=False)[0])
            acc += float(np.abs(np.roots(a[0, :6])).sum())
            counts: dict = {}
            for k in range(48):
                counts[k % 7] = counts.get(k % 7, 0) + k * 0.5
            acc += sum(counts.values())
        acc += float(np.sort(_VECTOR)[100]) + float((_VECTOR * 1.5 + 2.0).sum())
    return acc


def reference_median(repeats: int) -> float:
    """Median time of ``repeats`` reference loops, after one untimed warm-up."""
    reference_loop()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


class Reference:
    """Runs the reference loop between trials and keeps it off the clock.

    ``tick`` is called where a trial may begin; it runs the loop when
    ``interval`` seconds have passed since the last one. With ``interval``
    None it never runs, and ``clock`` is ``time.perf_counter``.
    """

    def __init__(self, interval: float | None = None):
        self.interval = interval
        self.spent = 0.0  # seconds spent in reference loops
        self.at = array("d")  # benchmark-clock time of each loop
        self.seconds = array("d")  # its duration
        self._next = 0.0 if interval is not None else float("inf")

    def clock(self) -> float:
        """Wall time less the time spent in reference loops."""
        return time.perf_counter() - self.spent

    def tick(self):
        start = time.perf_counter()
        if start < self._next:
            return
        reference_loop()
        end = time.perf_counter()
        self.at.append(start - self.spent)
        self.seconds.append(end - start)
        self.spent += end - start
        self._next = end + self.interval

    def scale(self, starts, ends) -> np.ndarray:
        """``NOMINAL_S`` over the machine's reference time around each trial.

        The reference time around a trial is the mean of the loop run last
        before it starts and the loop run first after it ends.
        """
        at, seconds = np.asarray(self.at), np.asarray(self.seconds)
        if at.size == 0:
            raise ValueError("no reference loop was run")
        last = at.size - 1
        before = np.clip(np.searchsorted(at, starts, side="right") - 1, 0, last)
        after = np.clip(np.searchsorted(at, ends), 0, last)
        return NOMINAL_S / ((seconds[before] + seconds[after]) / 2)
