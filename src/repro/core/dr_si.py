"""DR-SI: DRX-Respecting, Standards-Incompliant grouping (paper Sec. III-C).

Devices keep their preferred cycles (as in DR-SC) yet a single
transmission suffices (as in DA-SC) — at the cost of protocol changes:

* the eNB adds a non-critical extension (``mltc-transmission``) to the
  paging message, carrying the device identity and the time remaining
  until the multicast. The identity appears *only* in the extension,
  not in the ``PagingRecordList``, so the device knows it is not being
  paged for downlink data and **does not connect** — it just arms a new
  timer (``T322``) for "a random time value between [t - TI, t)";
* when T322 expires the device wakes, connects, and marks the
  connection with the new establishment cause ``multicastReception``.

Devices that naturally have a PO inside the window are paged normally
at it — no extension needed for them.

The random (rather than coordinated) wake time inside the window is the
paper's design: it spreads the random-access load of the whole group
over the TI window instead of synchronising a RACH stampede at t - TI.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import (
    EXTENDED_CODE,
    PAGED_CODE,
    DirectiveArrays,
    MulticastPlan,
    raise_on_first,
)
from repro.devices.fleet import Fleet
from repro.drx.schedule import v_first_at_or_after
from repro.errors import ConfigurationError
from repro.grouping.policies import SingleGroupPolicy
from repro.grouping.policy import GroupingPolicy


class DrSiMechanism(GroupingMechanism):
    """Single-transmission grouping via extended paging + T322."""

    name = "dr-si"
    standards_compliant = False
    respects_preferred_drx = True

    def _default_policy(self) -> GroupingPolicy:
        return SingleGroupPolicy()

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Plan one transmission per policy group.

        Under the default single-group policy this is Sec. III-C
        verbatim: one transmission at ``t = announce + 2 * maxDRX``.
        Members with a PO inside their group's window are paged at it;
        the rest receive the ``mltc-transmission`` extension at an
        earlier PO and self-wake when T322 expires.

        ``rng`` draws each notified device's uniform T322 expiry inside
        the window; it is required because the random wake time is part
        of the mechanism itself (not just tie-breaking).
        """
        if rng is None:
            raise ConfigurationError(
                "DR-SI needs an RNG: devices select a random wake time "
                "within [t - TI, t)"
            )
        groups, members, tx, start, last, page = self._paged_rows(
            fleet, context, self._policy.group(fleet, context, rng).groups
        )
        notified = page < 0
        methods = np.where(notified, EXTENDED_CODE, PAGED_CODE)
        connect = page.copy()
        if notified.any():
            # Extended page at the device's first PO after the announce:
            # "notify the devices well in advance of the time of the
            # multicast transmission".
            arrays = fleet.arrays
            page[notified] = v_first_at_or_after(
                arrays.phases[members[notified]],
                arrays.periods[members[notified]],
                context.announce_frame,
            )
            late = notified & (page >= start)
            raise_on_first(
                [(late, "device {dev}: first PO {page} is not before its window")],
                dev=members,
                page=page,
            )
            # One draw per notified device, in directive order.
            connect[notified] = rng.integers(start[notified], last[notified] + 1)
        return self._make_plan(
            fleet,
            context,
            members,
            [group.size for group in groups],
            [group.window.end for group in groups],
            DirectiveArrays(members, tx, methods, page, connect),
        )
