"""How fast the host runs fixed reference work, so timings can be scaled to it.

On a shared host the speed a vCPU delivers drifts by tens of percent within
minutes, even with the hypervisor's steal left out, and a run's timings
drift with it.  Every benchmark process therefore times ``reference_work``
(CPU seconds) between its units; a run's timings are multiplied by
``factor`` of those samples, which reports them in seconds at a fixed
reference speed.  The reference work is an LRU cache simulation in pure
Python over a few megabytes of lists, plus numpy array work: the same mix,
on a like footprint, as the program's replay kernels and frame generator.
It uses none of the program's code, so no change to the program can move
it.
"""

from __future__ import annotations

import statistics
import time
from typing import Sequence

import numpy as np

#: CPU seconds one ``reference_work`` call takes at the reference speed, a
#: nominal figure near what it takes on the 2-vCPU Intel Xeon host the
#: benchmark was tuned on.  Only the scale of the reported times rests on it.
REFERENCE_SECONDS = 0.025


def reference_work() -> int:
    """Replay a skewed address stream through a 2048-set, 16-way LRU cache,
    then sort and count a random array."""
    rng = np.random.default_rng(1)
    addresses = (rng.zipf(1.1, 24_000) * 977 % (1 << 18)).tolist()
    sets = [[] for _ in range(2048)]
    counts = [0] * (1 << 18)
    hits = 0
    for block in addresses:
        tags = sets[block & 2047]
        counts[block] += 1
        if block in tags:
            tags.remove(block)
            hits += 1
        elif len(tags) == 16:
            tags.pop(0)
        tags.append(block)
    values = rng.integers(0, 1 << 22, 60_000)
    np.bincount(values[np.argsort(values, kind="stable")] >> 6)
    return hits


def sample() -> float:
    """CPU seconds of one ``reference_work`` call."""
    started = time.process_time()
    reference_work()
    return time.process_time() - started


def factor(samples: Sequence[float]) -> float:
    """Scale from this host's seconds to seconds at the reference speed."""
    return REFERENCE_SECONDS / statistics.median(samples)
