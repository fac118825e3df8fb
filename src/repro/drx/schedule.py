"""Exact integer paging-occasion schedules and vectorised window queries.

A device's POs form the arithmetic progression ``phase + k * period`` for
``k = 0, 1, 2, ...`` (frames). Every grouping decision in the paper is a
query against such progressions:

* *"does the device have a PO within [t - TI, t)?"* (DA-SC / DR-SI),
* *"which window of length TI contains the most POs of distinct
  devices?"* (DR-SC's greedy set cover),
* *"what is the device's last PO before t - TI?"* (DA-SC's adaptation
  point).

Scalar queries live on :class:`PoSchedule`; the ``v_*`` functions are the
NumPy-vectorised fleet-wide equivalents used by the planners, operating
on parallel ``phases``/``periods`` arrays.

All interval arguments are half-open ``[start, end)`` like
:class:`repro.timebase.FrameWindow`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import PagingError
from repro.timebase import FrameWindow


def _ceil_div(a: int, b: int) -> int:
    """Ceiling division for possibly-negative numerators."""
    return -((-a) // b)


@dataclass(frozen=True)
class PoSchedule:
    """The arithmetic progression of a single device's paging occasions."""

    phase: int
    period: int

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise PagingError(f"period must be positive, got {self.period}")
        if not 0 <= self.phase < self.period:
            raise PagingError(
                f"phase {self.phase} outside [0, {self.period})"
            )

    # ------------------------------------------------------------------
    # Scalar queries
    # ------------------------------------------------------------------
    def po_index_at_or_after(self, frame: int) -> int:
        """Index ``k`` of the first PO at or after ``frame`` (k >= 0)."""
        return max(0, _ceil_div(frame - self.phase, self.period))

    def first_at_or_after(self, frame: int) -> int:
        """Frame of the first PO at or after ``frame``."""
        return self.phase + self.po_index_at_or_after(frame) * self.period

    def last_before(self, frame: int) -> Optional[int]:
        """Frame of the last PO strictly before ``frame`` (None if none)."""
        k = (frame - 1 - self.phase) // self.period
        if k < 0:
            return None
        return self.phase + k * self.period

    def last_at_or_before(self, frame: int) -> Optional[int]:
        """Frame of the last PO at or before ``frame`` (None if none)."""
        return self.last_before(frame + 1)

    def is_po(self, frame: int) -> bool:
        """True if ``frame`` is one of this schedule's paging occasions."""
        return frame >= self.phase and (frame - self.phase) % self.period == 0

    def count_in(self, start: int, end: int) -> int:
        """Number of POs in the half-open interval ``[start, end)``."""
        if end <= start:
            return 0
        k_lo = self.po_index_at_or_after(start)
        k_hi = (end - 1 - self.phase) // self.period
        return max(0, k_hi - k_lo + 1)

    def has_in(self, start: int, end: int) -> bool:
        """True if at least one PO lies in ``[start, end)``."""
        return self.count_in(start, end) > 0

    def covers(self, window: FrameWindow) -> bool:
        """True if at least one PO lies inside ``window``."""
        return self.has_in(window.start, window.end)

    def pos_in(self, start: int, end: int) -> np.ndarray:
        """All PO frames in ``[start, end)`` as an int64 array."""
        if end <= start:
            return np.empty(0, dtype=np.int64)
        first = self.first_at_or_after(start)
        if first >= end:
            return np.empty(0, dtype=np.int64)
        return np.arange(first, end, self.period, dtype=np.int64)

    def nth_after(self, frame: int, n: int) -> int:
        """Frame of the ``n``-th PO at or after ``frame`` (n=0 is the first)."""
        if n < 0:
            raise PagingError(f"n must be non-negative, got {n}")
        return self.first_at_or_after(frame) + n * self.period


# ----------------------------------------------------------------------
# Vectorised fleet-wide queries. ``phases`` and ``periods`` are parallel
# integer arrays (one entry per device); frame bounds broadcast.
# ----------------------------------------------------------------------
def _as_int_arrays(phases: np.ndarray, periods: np.ndarray) -> tuple:
    phases = np.asarray(phases, dtype=np.int64)
    periods = np.asarray(periods, dtype=np.int64)
    if phases.shape != periods.shape:
        raise PagingError(
            f"phases {phases.shape} and periods {periods.shape} differ in shape"
        )
    if np.any(periods <= 0):
        raise PagingError("all periods must be positive")
    if np.any((phases < 0) | (phases >= periods)):
        raise PagingError("all phases must satisfy 0 <= phase < period")
    return phases, periods


def v_first_at_or_after(phases: np.ndarray, periods: np.ndarray, frame: int) -> np.ndarray:
    """Per-device frame of the first PO at or after ``frame``."""
    phases, periods = _as_int_arrays(phases, periods)
    k = np.maximum(0, -((phases - frame) // periods))
    return phases + k * periods


def v_last_before(phases: np.ndarray, periods: np.ndarray, frame: int) -> np.ndarray:
    """Per-device frame of the last PO strictly before ``frame``.

    Devices with no PO before ``frame`` get ``-1``.
    """
    phases, periods = _as_int_arrays(phases, periods)
    k = (frame - 1 - phases) // periods
    result = phases + k * periods
    result[k < 0] = -1
    return result


def v_has_in(phases: np.ndarray, periods: np.ndarray, start: int, end: int) -> np.ndarray:
    """Per-device boolean: does any PO lie in ``[start, end)``?"""
    return v_count_in(phases, periods, start, end) > 0


def v_count_in(phases: np.ndarray, periods: np.ndarray, start: int, end: int) -> np.ndarray:
    """Per-device number of POs in ``[start, end)``."""
    phases, periods = _as_int_arrays(phases, periods)
    k_lo = np.maximum(0, -((phases - start) // periods))
    k_hi = (end - 1 - phases) // periods
    # end <= start gives k_hi < k_lo, so empty intervals count 0.
    return np.maximum(0, k_hi - k_lo + 1)


def v_pos_in_window(
    phases: np.ndarray, periods: np.ndarray, start: int, end: int
) -> tuple:
    """All (device index, PO frame) pairs with a PO in ``[start, end)``.

    Returns ``(device_indices, po_frames)``, both int64 arrays sorted by
    PO frame then device index. This is the raw material of the DR-SC
    sweep-line.
    """
    phases, periods = _as_int_arrays(phases, periods)
    if end <= start:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    firsts = v_first_at_or_after(phases, periods, start)
    counts = np.maximum(0, _ceil_div_array(end - firsts, periods))
    device_indices = np.repeat(np.arange(len(phases), dtype=np.int64), counts)
    if len(device_indices) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    # Offsets 0..count-1 within each device's run, then PO frames.
    run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    offsets = np.arange(len(device_indices), dtype=np.int64) - np.repeat(
        run_starts, counts
    )
    po_frames = firsts[device_indices] + offsets * periods[device_indices]
    order = np.lexsort((device_indices, po_frames))
    return device_indices[order], po_frames[order]


def _ceil_div_array(numerators: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    """Elementwise ceiling division that is exact for negative numerators."""
    return -((-numerators) // denominators)
