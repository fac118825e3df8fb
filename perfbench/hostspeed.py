"""The host's current speed, read from a fixed reference kernel.

The benchmark runs on a host shared with other tenants. Its speed drifts
by tens of percent over minutes, and identical work slows with it (in
user time, not only in wall time). Every timed interval of the
benchmark is therefore bracketed by two runs of :func:`reference_s` and
scaled to the speed at which the kernel takes :data:`REF_NOMINAL_S`. A
change to the program moves the scaled time; a change in the host's
speed moves the kernel too and cancels out.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

#: Time the reference kernel takes on the host's fast phases (2 vCPUs,
#: x86-64, NumPy 1 thread).
REF_NOMINAL_S = 0.25


def reference_s() -> float:
    """Wall time of one run of the reference kernel.

    The kernel uses only NumPy and the interpreter (sorting, unique,
    fancy indexing, a dict loop), so no change to the program can move
    it.
    """
    import time

    import numpy as np

    start = time.perf_counter()
    values = np.random.default_rng(0).random(500_000)
    for _ in range(3):
        np.sort(values)
        np.unique((values * 1e5).astype(np.int64))
        values[np.argsort(values)]
    sums = {}
    for i in range(150_000):
        sums[i % 1000] = sums.get(i % 1000, 0) + i
    return time.perf_counter() - start


def scale_to_nominal(
    times: Sequence[float], brackets: Sequence[Tuple[float, float]]
) -> List[float]:
    """Each time scaled to the nominal host speed.

    ``brackets[i]`` holds the reference times taken just before and just
    after ``times[i]``; their mean is the host's speed during it.
    """
    return [
        t * REF_NOMINAL_S / ((before + after) / 2.0)
        for t, (before, after) in zip(times, brackets)
    ]
