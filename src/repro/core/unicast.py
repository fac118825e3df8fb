"""The unicast baseline the paper normalises against (Sec. IV-A).

"Each device receiving the multicast data based on its own DRX and
without waiting for other devices. Since unicast transmission would not
introduce any additional processes, it is the most efficient way to
receive the data in terms of energy consumption from the device
perspective" — every device is paged at its first PO after the
announce, connects, and is served immediately at its own link rate.

It is of course the *worst* case for bandwidth: N devices need N
transmissions, which is the reference Fig. 7 compares DR-SC against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import IMMEDIATE_CODE, DirectiveArrays, MulticastPlan
from repro.devices.fleet import Fleet
from repro.drx.schedule import v_first_at_or_after


class UnicastBaseline(GroupingMechanism):
    """One transmission per device at its first paging opportunity.

    Grouping is degenerate here — every device is its own group by
    definition — so the baseline accepts (and ignores) a grouping
    policy purely for constructor symmetry with the real mechanisms.
    """

    name = "unicast"
    standards_compliant = True
    respects_preferred_drx = True

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Page every device at its first PO and serve it immediately."""
        arrays = fleet.arrays
        page = v_first_at_or_after(arrays.phases, arrays.periods, context.announce_frame)
        # The unicast data flows as soon as the device is connected; the
        # nominal transmission frame includes the connect slack. Order by
        # that start, page frame as tie-break (both stable), so
        # transmission indices follow the campaign timeline even in
        # mixed-coverage fleets where a later page with less slack can
        # start earlier.
        start = page + context.slack_by_coverage()[arrays.coverage_codes]
        order = np.lexsort((page, start))
        n, page = order.size, page[order]
        return self._make_plan(
            fleet,
            context,
            order,
            np.ones(n, dtype=np.int64),
            start[order],
            DirectiveArrays(order, np.arange(n), np.full(n, IMMEDIATE_CODE), page, page),
        )
