"""TS 36.304-style paging frame / paging occasion computation.

In idle mode a device only listens at its paging occasions. For regular
DRX cycles (up to one SFN period = 1024 frames) 3GPP TS 36.304 derives
the *paging frame* (PF) and *paging occasion* (PO, a subframe within the
PF) from the UE identity and the paging cycle ``T``::

    PF:  SFN mod T = (T div N) * (UE_ID mod N)
    i_s = floor(UE_ID / N) mod Ns

with ``N = min(T, nB)`` and ``Ns = max(1, nB / T)``, where ``nB`` is a
cell-wide parameter expressed as a multiple of ``T`` (4T ... T/32) and
``UE_ID = IMSI mod 4096`` for NB-IoT.

For **eDRX** cycles (2 .. 1024 hyperframes, i.e. 20.48 s .. 175 min) the
cycle exceeds the SFN period, so Rel-13 adds a second level: the device
first computes its *paging hyperframe* (PH) from a hashed identity::

    PH:  H-SFN mod T_eDRX,H = (Hashed_ID mod T_eDRX,H)

and then applies the regular PF/PO rule (with ``T = 1024``) inside that
hyperframe. This two-level structure is what spreads eDRX devices over
the whole cycle — modelling it matters: using the one-level formula
would artificially synchronise every eDRX device into the first
``UE_ID_SPACE`` frames of each cycle and wildly overstate how well
DR-SC can group devices.

We keep both levels but collapse the paging *time window* (PTW) to its
first PO, matching the paper's model of "the device checks one PO per
cycle".

A key algebraic property used by DA-SC holds in this model (and is
enforced by property tests): for a fixed ``nB``, the PO grid for cycle
``T`` is a **subset** of the grid for any shorter ladder cycle ``T'``.
Shortening a device's cycle only *adds* wake-ups and never moves
existing ones, so the eNB can restore the original cycle after the
multicast with no phase bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple, Union

from repro.drx.cycles import DrxCycle
from repro.drx.schedule import PoSchedule
from repro.errors import PagingError
from repro.timebase import FRAMES_PER_HYPERFRAME

#: NB-IoT UE identities are derived from the IMSI modulo 4096 (TS 36.304).
UE_ID_SPACE = 4096

#: The eDRX hashed identity is 10 bits wide (covers T_eDRX,H up to 1024).
HASHED_ID_SPACE = 1024


class NB(Enum):
    """The cell-wide ``nB`` parameter as a fraction of the paging cycle T."""

    FOUR_T = Fraction(4)
    TWO_T = Fraction(2)
    ONE_T = Fraction(1)
    HALF_T = Fraction(1, 2)
    QUARTER_T = Fraction(1, 4)
    ONE_EIGHTH_T = Fraction(1, 8)
    ONE_SIXTEENTH_T = Fraction(1, 16)
    ONE_THIRTY_SECOND_T = Fraction(1, 32)

    @property
    def fraction(self) -> Fraction:
        """nB / T as an exact fraction."""
        return self.value


#: PO subframe patterns (FDD) indexed by Ns, per TS 36.304 Table 7.2-1.
_SUBFRAME_PATTERNS = {
    1: (9,),
    2: (4, 9),
    4: (0, 4, 5, 9),
}


def default_hashed_id(ue_id: int) -> int:
    """Deterministic 10-bit hash standing in for the S-TMSI Hashed_ID.

    TS 36.304 hashes the S-TMSI with a CRC; we use a Knuth
    multiplicative mix of the UE identity, which spreads the 4096 UE_ID
    values uniformly over the 1024 hashed values.
    """
    _validate_ue_id(ue_id)
    mixed = (ue_id * 2654435761) & 0xFFFFFFFF
    return (mixed >> 22) & (HASHED_ID_SPACE - 1)


def _n_and_ns(cycle_frames: int, nb: NB) -> Tuple[int, int]:
    """The (N, Ns) pair of TS 36.304 for cycle ``T`` and parameter ``nB``."""
    nb_value = nb.fraction * cycle_frames
    if nb_value.denominator != 1:
        raise PagingError(
            f"nB={nb.name} of cycle {cycle_frames} frames is not an integer"
        )
    nb_int = int(nb_value)
    n = min(cycle_frames, nb_int)
    ns = max(1, nb_int // cycle_frames)
    if n < 1:
        raise PagingError(f"nB={nb.name} yields N={n} < 1 for T={cycle_frames}")
    return n, ns


def _intra_hyperframe_cycle(cycle: DrxCycle) -> int:
    """The cycle applied at the PF level: min(T, one hyperframe)."""
    return min(int(cycle), FRAMES_PER_HYPERFRAME)


def paging_frame_offset(
    ue_id: int,
    cycle: DrxCycle,
    nb: NB = NB.ONE_T,
    hashed_id: Optional[int] = None,
) -> int:
    """Frame offset of the device's paging frames within each cycle.

    The device's paging frames are exactly the absolute frames ``f`` with
    ``f mod T == offset``. For eDRX cycles the offset combines the
    paging-hyperframe position (from the hashed identity) with the
    intra-hyperframe PF offset (from the UE identity).
    """
    _validate_ue_id(ue_id)
    pf_cycle = _intra_hyperframe_cycle(cycle)
    n, _ = _n_and_ns(pf_cycle, nb)
    pf_offset = (pf_cycle // n) * (ue_id % n)
    if int(cycle) <= FRAMES_PER_HYPERFRAME:
        return pf_offset
    if hashed_id is None:
        hashed_id = default_hashed_id(ue_id)
    _validate_hashed_id(hashed_id)
    cycle_hyperframes = int(cycle) // FRAMES_PER_HYPERFRAME
    ph_index = hashed_id % cycle_hyperframes
    return ph_index * FRAMES_PER_HYPERFRAME + pf_offset


def paging_subframe(ue_id: int, cycle: DrxCycle, nb: NB = NB.ONE_T) -> int:
    """Subframe (0-9) of the device's paging occasion within its PF."""
    _validate_ue_id(ue_id)
    pf_cycle = _intra_hyperframe_cycle(cycle)
    n, ns = _n_and_ns(pf_cycle, nb)
    if ns not in _SUBFRAME_PATTERNS:
        raise PagingError(f"unsupported Ns={ns} (nB={nb.name})")
    i_s = (ue_id // n) % ns
    return _SUBFRAME_PATTERNS[ns][i_s]


def _validate_ue_id(ue_id: int) -> None:
    if not 0 <= int(ue_id) < UE_ID_SPACE:
        raise PagingError(f"UE_ID must be in [0, {UE_ID_SPACE}), got {ue_id}")


def _validate_hashed_id(hashed_id: int) -> None:
    if not 0 <= int(hashed_id) < HASHED_ID_SPACE:
        raise PagingError(
            f"Hashed_ID must be in [0, {HASHED_ID_SPACE}), got {hashed_id}"
        )


@dataclass(frozen=True)
class PagingOccasionPattern:
    """A device's periodic paging-occasion pattern.

    Attributes:
        phase: frame offset of the first PO (``0 <= phase < cycle``).
        cycle: the DRX/eDRX cycle.
        subframe: PO subframe within the paging frame (0-9).
    """

    phase: int
    cycle: DrxCycle
    subframe: int

    def __post_init__(self) -> None:
        if not 0 <= self.phase < int(self.cycle):
            raise PagingError(
                f"phase {self.phase} outside [0, {int(self.cycle)}) for {self.cycle!r}"
            )
        if not 0 <= self.subframe <= 9:
            raise PagingError(f"subframe must be 0-9, got {self.subframe}")

    @property
    def schedule(self) -> PoSchedule:
        """The integer PO schedule (frame-granularity view of the pattern)."""
        return PoSchedule(phase=self.phase, period=int(self.cycle))


def pattern_for(
    ue_id: int,
    cycle: DrxCycle,
    nb: NB = NB.ONE_T,
    hashed_id: Optional[int] = None,
) -> PagingOccasionPattern:
    """Build the full paging pattern of a device from its identity."""
    return PagingOccasionPattern(
        phase=paging_frame_offset(ue_id, cycle, nb, hashed_id),
        cycle=cycle,
        subframe=paging_subframe(ue_id, cycle, nb),
    )


# ----------------------------------------------------------------------
# Vectorised fleet-wide derivations (columnar fleet construction)
# ----------------------------------------------------------------------
def v_default_hashed_id(ue_ids: "np.ndarray") -> "np.ndarray":
    """Vectorised :func:`default_hashed_id` (bit-identical per element)."""
    import numpy as np

    ue = np.asarray(ue_ids, dtype=np.int64)
    if ue.size and (ue.min() < 0 or ue.max() >= UE_ID_SPACE):
        raise PagingError(f"UE_ID must be in [0, {UE_ID_SPACE})")
    mixed = (ue * 2654435761) & 0xFFFFFFFF
    return (mixed >> 22) & (HASHED_ID_SPACE - 1)


def v_paging_frame_offset(
    ue_ids: "np.ndarray",
    cycles: "np.ndarray",
    nb: "Union[NB, Tuple[np.ndarray, np.ndarray]]" = NB.ONE_T,
) -> "np.ndarray":
    """Vectorised :func:`paging_frame_offset` over parallel columns.

    ``cycles`` holds per-device cycle lengths in frames (ladder values).
    ``nb`` is one cell-wide :class:`NB` or a fleet's per-device
    ``(nb_numerators, nb_denominators)`` columns. Integer-exact mirror
    of the scalar derivation — including the two-level eDRX rule — so
    phases are derived without instantiating a single device object.
    """
    import numpy as np

    ue = np.asarray(ue_ids, dtype=np.int64)
    t = np.asarray(cycles, dtype=np.int64)
    if ue.shape != t.shape:
        raise PagingError(
            f"ue_ids and cycles disagree: {ue.shape} vs {t.shape}"
        )
    if ue.size and (ue.min() < 0 or ue.max() >= UE_ID_SPACE):
        raise PagingError(f"UE_ID must be in [0, {UE_ID_SPACE})")
    if isinstance(nb, NB):
        nb = (nb.fraction.numerator, nb.fraction.denominator)
    nb_num, nb_den = nb
    pf_cycle = np.minimum(t, FRAMES_PER_HYPERFRAME)
    nb_scaled = pf_cycle * nb_num
    if nb_scaled.size and np.any(nb_scaled % nb_den):
        raise PagingError("nB of some cycle in the fleet is not an integer")
    nb_int = nb_scaled // nb_den
    n = np.minimum(pf_cycle, nb_int)
    if n.size and n.min() < 1:
        raise PagingError("nB yields N < 1 for some cycle")
    pf_offset = (pf_cycle // n) * (ue % n)
    is_edrx = t > FRAMES_PER_HYPERFRAME
    cycle_hyperframes = np.maximum(1, t // FRAMES_PER_HYPERFRAME)
    ph_index = v_default_hashed_id(ue) % cycle_hyperframes
    return np.where(
        is_edrx, ph_index * FRAMES_PER_HYPERFRAME + pf_offset, pf_offset
    )
