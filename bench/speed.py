"""Speed probe: scales timings to a fixed machine speed.

The cores of a shared host change speed by up to about 1.7x, each on its
own, in episodes from half a second to tens of seconds, so the same run
can take 2.2 s or 3.4 s.  A run therefore measures that speed as it goes:
``probe`` times a fixed piece of work (about 2 ms, of the kinds the
verifier does), and a timing taken between probes is scaled by
``REF_PROBE_S / probe time`` there.  A reported time is thus the
time the interval would have taken had the probe taken exactly
``REF_PROBE_S``; the program's own work is measured in full, and only the
machine's speed is divided out.  The probe uses the standard library only,
so no change to the package can move it.

Every run probes between cases, at most every ``PROBE_GAP_S``, in the
process that runs the case: with ``PARAMODULAR_JOBS=2`` that is each pool
worker, so each case is scaled by the speed of the core it ran on.  Samples
carry the pid of the process that took them.
"""

from __future__ import annotations

import os
import statistics
import time
from fractions import Fraction

REF_PROBE_S = 0.0016
PROBE_GAP_S = 0.1
NEAREST = 3

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}


def _probe_work() -> int:
    """Fixed work in two parts of about equal time: a product of sparse
    rational polynomials (dicts keyed by exponent tuples, as in the
    package's rings), and building, sorting and indexing a few thousand
    small objects.  On the hosts measured, the first part slows more than
    the package does when a core is contended and the second about as much;
    together they track it within a few percent."""
    product: dict = {}
    for (i, j), x in _TERMS.items():
        for (k, m), y in _TERMS.items():
            key = (i + k, j + m)
            product[key] = product.get(key, 0) + x * y
    items = sorted((i * 2654435761 % 100003, str(i)) for i in range(2000))
    index = {name: value for value, name in items}
    return len(product) + len(index)


def probe() -> tuple[float, float]:
    """Run the probe once; returns its midpoint on the ``time.monotonic``
    clock and its duration in seconds."""
    start = time.monotonic()
    _probe_work()
    end = time.monotonic()
    return (start + end) / 2, end - start


class Probes:
    """Probe samples ``(pid, midpoint, duration)`` in time order.  A forked
    pool worker inherits a copy and adds its own samples to it."""

    def __init__(self):
        self.samples: list[tuple[int, float, float]] = []
        self._last_end = float("-inf")
        self._sent = 0

    def take(self) -> None:
        self.samples.append((os.getpid(), *probe()))
        self._last_end = time.monotonic()

    def take_several(self) -> None:
        """``NEAREST`` probes in a row, enough to scale an interval next to
        them on their own."""
        for _ in range(NEAREST):
            self.take()

    def maybe_take(self) -> None:
        """Probe unless the last probe ended less than ``PROBE_GAP_S`` ago."""
        if time.monotonic() - self._last_end >= PROBE_GAP_S:
            self.take()

    def drain(self) -> list:
        """The samples not returned by an earlier call."""
        new = self.samples[self._sent :]
        self._sent = len(self.samples)
        return new


def by_pid(samples: list) -> dict[int, list[tuple[float, float]]]:
    """``(midpoint, duration)`` samples of each process, in time order."""
    out: dict[int, list] = {}
    for pid, mid, duration in sorted(samples, key=lambda s: s[1]):
        out.setdefault(pid, []).append((mid, duration))
    return out


def probe_at(samples: list, t: float) -> float:
    """Probe duration at time ``t``: the median of the ``NEAREST`` samples
    closest to it, so that one probe slowed by an interrupt does not
    decide it."""
    nearest = sorted(samples, key=lambda sample: abs(sample[0] - t))[:NEAREST]
    return statistics.median(d for _, d in nearest)


def scaled(samples: list, seconds: float, start: float) -> float:
    """``seconds`` of an interval beginning at ``start``, at reference
    speed."""
    return seconds * REF_PROBE_S / probe_at(samples, start + seconds / 2)


def scaled_by_median(samples: list, seconds: float) -> float:
    """``seconds`` at reference speed, taking the run's median probe as its
    speed throughout."""
    return seconds * REF_PROBE_S / statistics.median(d for _, d in samples)


def probed_between(samples: list, start: float, end: float) -> float:
    """Total duration of the ``(midpoint, duration)`` samples whose
    midpoint lies in [start, end)."""
    return sum(d for mid, d in samples if start <= mid < end)
