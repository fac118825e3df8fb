"""Incremental sweep for the iterated greedy window cover.

The reference greedy (:func:`repro.setcover.greedy.greedy_window_cover`
with ``method="reference"``) re-derives
:func:`~repro.setcover.windows.coverage_intervals` and re-sorts the
sweep events for the shrunken fleet on every round. But the covering
intervals of a device do not depend on which other devices remain, so
the event list can be built and sorted **once**: after each selection
only the covered devices' intervals are subtracted from the sweep (a
boolean compaction), and the next round's maximum is a single running
sum over the surviving events.

Devices sharing a ``(phase, period)`` pair have identical PO trains and
hence identical covering intervals, so the sweep is built over
*buckets* of such devices: one representative's intervals per bucket,
each event weighted by the bucket's member count. A window covers
either every member of a bucket or none, so buckets are stabbed and
retired whole and only the stabbed buckets are expanded into device
indices. Interval count and sweep memory scale with the number of
distinct trains, not the fleet size.

Per-round cost drops from ``O(n + E log E)`` to ``O(E_t)`` where ``E_t``
counts only the surviving events — and because the weighted running sum
equals the reference's unit-step count at every event position, the
segment positions, maxima, tie candidates and therefore every selection
(with or without an ``rng``) are *identical*, not merely equivalent.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SetCoverError
from repro.setcover.windows import coverage_intervals
from repro.timebase import FrameWindow

#: Largest value the narrowed (int32) sweep tables can hold.
_INT32_MAX = int(np.iinfo(np.int32).max)


class IncrementalSweep:
    """One fleet's sweep state, consumed selection by selection.

    Build once, then call :meth:`select` repeatedly; each call returns
    the best window over the devices not yet covered and subtracts the
    newly covered devices' intervals from the sweep.
    """

    def __init__(
        self,
        phases: np.ndarray,
        periods: np.ndarray,
        window_len: int,
        horizon_start: int,
        horizon_end: int,
    ) -> None:
        phases = np.asarray(phases, dtype=np.int64)
        periods = np.asarray(periods, dtype=np.int64)
        if horizon_start < -_INT32_MAX or horizon_end > _INT32_MAX:
            raise SetCoverError(
                f"horizon [{horizon_start}, {horizon_end}) does not fit the "
                f"int32 sweep tables"
            )
        n = phases.size
        # Group devices by (period, phase). The stable lexsort keeps
        # each bucket's members in ascending fleet order.
        members = np.lexsort((phases, periods))
        sorted_phases = phases[members]
        sorted_periods = periods[members]
        is_head = np.ones(n, dtype=bool)
        is_head[1:] = (sorted_phases[1:] != sorted_phases[:-1]) | (
            sorted_periods[1:] != sorted_periods[:-1]
        )
        heads = np.nonzero(is_head)[0]
        sizes = np.diff(heads, append=n)
        if max(heads.size, int(sizes.max(initial=0))) > _INT32_MAX:
            raise SetCoverError(
                f"{heads.size} (phase, period) buckets do not fit the int32 "
                f"sweep tables"
            )
        starts, ends, owners = coverage_intervals(
            sorted_phases[heads], sorted_periods[heads], window_len,
            horizon_start, horizon_end,
        )
        self._window_len = window_len
        self._remaining = n
        # Bucket tables: members[heads[b] : heads[b] + sizes[b]] are the
        # fleet indices of bucket b.
        self._members = members
        self._heads = heads
        self._sizes = sizes.astype(np.int32)
        self._alive = np.ones(heads.size, dtype=bool)
        # Interval table, for the "which buckets does window s cover?"
        # stab query.
        self._int_starts = starts.astype(np.int32)
        self._int_ends = ends.astype(np.int32)
        self._int_owners = owners.astype(np.int32)
        # Event list: +size at each interval start, -size at each end,
        # sorted once by position. Segment counts are read at the last
        # event of each position group, where the running sum covers
        # the whole group whatever its internal order, so an unstable
        # single-key argsort yields the reference's counts.
        positions = np.concatenate([self._int_starts, self._int_ends])
        weights = self._sizes[self._int_owners]
        deltas = np.concatenate([weights, -weights])
        owners2 = np.concatenate([self._int_owners, self._int_owners])
        order = np.argsort(positions)
        self._positions = positions[order]
        self._deltas = deltas[order]
        self._owners = owners2[order]

    @property
    def remaining(self) -> int:
        """Devices not yet covered by any selection."""
        return self._remaining

    def select(
        self, rng: Optional[np.random.Generator] = None
    ) -> Tuple[int, np.ndarray]:
        """Pick the best window over the uncovered devices, subtract it.

        Returns ``(start, covered)`` where ``covered`` holds the covered
        devices' *original* fleet indices in ascending order. Tie-breaks
        match :func:`repro.setcover.windows.best_window` exactly:
        uniformly at random over the maximal segments when ``rng`` is
        given, earliest segment otherwise.
        """
        if self._positions.size == 0:
            raise SetCoverError("no device has a PO inside the search horizon")
        running = np.cumsum(self._deltas, dtype=np.int64)
        is_last = np.empty(self._positions.size, dtype=bool)
        is_last[:-1] = self._positions[:-1] != self._positions[1:]
        is_last[-1] = True
        seg_pos = self._positions[is_last]
        seg_count = running[is_last]

        best = int(seg_count.max())
        candidates = np.nonzero(seg_count == best)[0]
        if rng is None:
            pick = candidates[0]
        else:
            pick = candidates[int(rng.integers(len(candidates)))]
        s = int(seg_pos[pick])

        stabbed = (self._int_starts <= s) & (s < self._int_ends)
        buckets = self._int_owners[stabbed]
        sizes = self._sizes[buckets].astype(np.int64)
        total = int(sizes.sum())
        if total != best:
            raise SetCoverError(
                f"sweep inconsistency: counted {best} devices but window at "
                f"{s} covers {total}"
            )
        # Ragged gather of the stabbed buckets' member runs.
        run_offsets = np.cumsum(sizes) - sizes
        slots = np.repeat(self._heads[buckets] - run_offsets, sizes)
        slots += np.arange(total)
        covered = np.sort(self._members[slots])

        # Retire the stabbed buckets from both tables.
        self._remaining -= total
        self._alive[buckets] = False
        keep_events = self._alive[self._owners]
        self._positions = self._positions[keep_events]
        self._deltas = self._deltas[keep_events]
        self._owners = self._owners[keep_events]
        keep_intervals = self._alive[self._int_owners]
        self._int_starts = self._int_starts[keep_intervals]
        self._int_ends = self._int_ends[keep_intervals]
        self._int_owners = self._int_owners[keep_intervals]
        return s, covered


def incremental_greedy_window_cover(
    phases: np.ndarray,
    periods: np.ndarray,
    window_len: int,
    horizon_start: int,
    horizon_end: int,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Tuple[FrameWindow, ...], Tuple[np.ndarray, ...]]:
    """The greedy window cover driven by one :class:`IncrementalSweep`.

    Returns ``(windows, assignments)`` — the raw material of
    :class:`repro.setcover.greedy.GreedyWindowCover`; validation of the
    inputs is done by the caller, which also owns the result type (kept
    there to avoid an import cycle).
    """
    sweep = IncrementalSweep(
        phases, periods, window_len, horizon_start, horizon_end
    )
    windows: List[FrameWindow] = []
    assignments: List[np.ndarray] = []
    while sweep.remaining:
        start, covered = sweep.select(rng)
        windows.append(FrameWindow(start, start + window_len))
        assignments.append(covered)
    return tuple(windows), tuple(assignments)
