"""DA-SC: DRX-Adjusting, Standards-Compliant grouping (paper Sec. III-B).

The eNB picks one transmission time ``t`` at least twice the longest
device cycle after the announce ("at least 2 * maxDRX ... so that there
will be at least one PO of every device before t") and forces every
device to have a PO inside ``[t - TI, t)``:

* devices that already have a PO there are simply paged at it;
* every other device is paged at its **last PO before t - TI**,
  connects through random access, receives the temporary (shorter) DRX
  cycle in an RRC Connection Reconfiguration, and is released straight
  back to sleep; after the multicast the original cycle is restored
  with one more reconfiguration while the device is still connected.

The temporary cycle is "the maximum that creates a PO within that time
period". Because every ladder value divides every longer one, PO grids
*nest*: shortening a cycle only adds wake-ups, and the grid of a longer
cycle is a subset of any shorter one's. Two consequences the module
relies on (both property-tested):

1. the adaptation PO itself stays a PO under the new cycle, and the
   restore needs no phase bookkeeping;
2. the *maximum* feasible cycle is also the *minimum-wake-up* choice —
   the paper's two stated goals (max cycle, minimal introduced energy)
   coincide, so the ``PAPER`` strategy is optimal among grid-anchored
   adaptations. The ``LARGEST_WITHIN_TI`` strategy is the naive
   fallback (always pick the largest ladder cycle no longer than TI,
   which hits any TI-window) used as an ablation.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Tuple

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import (
    ADAPTED_CODE,
    PAGED_CODE,
    DirectiveArrays,
    MulticastPlan,
    raise_on_first,
)
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.drx.paging import v_paging_frame_offset
from repro.drx.schedule import v_first_at_or_after, v_last_before
from repro.grouping.policies import SingleGroupPolicy
from repro.grouping.policy import GroupingPolicy


class AdaptationStrategy(Enum):
    """How DA-SC chooses the temporary cycle."""

    PAPER = "paper"
    """Sec. III-B verbatim: the maximum ladder cycle whose grid has a PO
    inside [t - TI, t) after the adaptation PO. Also minimises the
    number of introduced wake-ups (grids nest)."""

    LARGEST_WITHIN_TI = "largest_within_ti"
    """Always the largest ladder cycle <= TI (guaranteed window hit,
    no per-device search). More wake-ups; the signalling is simpler."""


class DaScMechanism(GroupingMechanism):
    """Single-transmission grouping via temporary DRX shortening."""

    name = "da-sc"
    standards_compliant = True
    respects_preferred_drx = False

    def __init__(
        self,
        strategy: AdaptationStrategy = AdaptationStrategy.PAPER,
        policy: Optional[GroupingPolicy] = None,
    ) -> None:
        super().__init__(policy)
        self._strategy = strategy

    def _default_policy(self) -> GroupingPolicy:
        return SingleGroupPolicy()

    @property
    def strategy(self) -> AdaptationStrategy:
        """The configured adaptation strategy."""
        return self._strategy

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Plan one synchronised transmission per policy group.

        Under the default single-group policy this is Sec. III-B
        verbatim: one transmission at ``t = announce + 2 * maxDRX``.
        Other policies yield one transmission per group; members with a
        PO inside their group's window are paged normally, the rest go
        through the DRX-adaptation episode relative to that window.
        """
        # The paper's window is the half-open [t - TI, t); with the
        # transmission at frame t itself, a device paged at frame p in
        # the window waits t - p < TI so its inactivity timer never
        # expires before the data starts. We therefore accept POs in
        # [t - TI, t - 1] and page as late as slack allows.
        groups, members, tx, start, last, page = self._paged_rows(
            fleet, context, self._policy.group(fleet, context, rng).groups
        )
        adapting = page < 0
        methods = np.where(adapting, ADAPTED_CODE, PAGED_CODE)
        adaptation = np.zeros_like(page)
        cycles = np.zeros_like(page)
        if adapting.any():
            adaptation[adapting], cycles[adapting], page[adapting] = self._adapt(
                fleet, context, members[adapting], start[adapting], last[adapting]
            )
        return self._make_plan(
            fleet,
            context,
            members,
            [group.size for group in groups],
            [group.window.end for group in groups],
            DirectiveArrays(members, tx, methods, page, page, adaptation, cycles),
        )

    # ------------------------------------------------------------------
    # Adaptation machinery
    # ------------------------------------------------------------------
    def _adapt(
        self,
        fleet: Fleet,
        context: PlanningContext,
        devices: np.ndarray,
        start: np.ndarray,
        last: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(adaptation_frame, adapted_cycle, window_po)`` per device.

        Each device is paged at its last PO before the window, then gets
        the largest ladder cycle below its own whose identity-derived
        grid has a PO in ``[earliest, last]``, ``earliest`` being the
        later of the window start and the end of the reconfiguration
        episode. One exists: any cycle no longer than that span (the TI
        minus the much shorter episode) hits it. Walking the ladder one
        level at a time over the unresolved devices picks, per device,
        the cycle a downward scan of its own ladder would.
        """
        arrays = fleet.arrays
        periods = arrays.periods[devices]
        adaptation = v_last_before(arrays.phases[devices], periods, start)
        busy = context.slack_by_coverage(adaptation=True)
        earliest = np.maximum(
            start, adaptation + busy[arrays.coverage_codes[devices]] + 1
        )
        nb = (arrays.nb_numerators[devices], arrays.nb_denominators[devices])
        cycles = np.zeros_like(devices)
        window_po = np.zeros_like(devices)
        level = int(periods.max()) // 2
        while level >= DrxCycle.MIN_FRAMES:
            rows = periods > level
            if self._strategy is AdaptationStrategy.LARGEST_WITHIN_TI:
                rows &= level <= last - earliest + 1
            rows = np.flatnonzero(rows & (cycles == 0))
            level_cycles = np.full(rows.size, level)
            phases = v_paging_frame_offset(
                arrays.ue_ids[devices[rows]], level_cycles, (nb[0][rows], nb[1][rows])
            )
            po = v_first_at_or_after(phases, level_cycles, earliest[rows])
            hit = po <= last[rows]
            cycles[rows[hit]] = level
            window_po[rows[hit]] = po[hit]
            level //= 2
        raise_on_first(
            [
                (
                    adaptation < 0,
                    "device {dev} has no PO before the window; t must be at "
                    "least 2 * maxDRX after the announce",
                ),
                (
                    cycles == 0,
                    "no ladder cycle creates a PO in [{earliest}, {last}] for "
                    "device {dev} with a cycle of {period} frames",
                ),
            ],
            dev=devices,
            earliest=earliest,
            last=last,
            period=periods,
        )
        return adaptation, cycles, window_po
