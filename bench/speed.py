"""Host-speed reference: scales measured times to a fixed host speed.

On a shared host the speed of one core swings by up to 2x over tens of
seconds as other tenants come and go, and a run of half a minute cannot
average that out: the same code measured minutes apart differs by more
than any useful regression bound.  So after every timed op, outside its
timing, the benchmark also times a fixed reference that does not use
diagdom, and multiplies each time by the reference's nominal time over the
median of the references taken nearest to it.  Scaled times read as times
on a host where the reference takes its nominal time.  A change to diagdom
cannot move the reference, so scaled times still move with the program;
the unscaled figures are reported beside them.

The swings do not slow every kind of work alike, so each workload names
the parts that resemble its own work:

- ``small``: Python-loop LU eliminations of an 8x8 array, like the
  per-call overhead of many tiny matrices;
- ``dense``: a 128x128 product and elementwise passes over a 256x256
  array, like vectorised work on large matrices.

Timed after each op of a workload over two minutes, the part that matched
left a cycle-to-cycle spread of 5% (``small`` on ensemble-audit) and 7%
(``dense`` on large-dense), against 30% and 21% unscaled; the other part
left 12% and 27%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

WINDOW = 4  # references on each side of a sample that set its scale

_RNG = np.random.default_rng(0)
_SMALL = np.arange(64.0).reshape(8, 8) + 100.0 * np.eye(8)
_PRODUCT = _RNG.random((128, 128))
_WIDE = _RNG.random((256, 256))


def _small():
    for _ in range(20):
        lu = _SMALL.copy()
        for k in range(7):
            lu[k + 1:, k] /= lu[k, k]
            lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])


def _dense():
    _PRODUCT @ _PRODUCT
    for _ in range(4):
        (np.abs(_WIDE) * 1.5 - _WIDE).sum(axis=1)


# Part name -> (work, nominal seconds the scaled figures are expressed at).
PARTS = {"small": (_small, 0.0012), "dense": (_dense, 0.0008)}


class Reference:
    """The reference made of ``parts``; calling it returns its wall time in seconds."""

    def __init__(self, parts):
        self._work = [PARTS[p][0] for p in parts]
        self.nominal = sum(PARTS[p][1] for p in parts)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for work in self._work:
            work()
        return time.perf_counter() - t0

    def scaled(self, times, references):
        """Scale ``times[i]`` by the references taken nearest to it (same order, same length)."""
        out = []
        for i, t in enumerate(times):
            local = statistics.median(references[max(0, i - WINDOW): i + WINDOW + 1])
            out.append(t * self.nominal / local)
        return out
