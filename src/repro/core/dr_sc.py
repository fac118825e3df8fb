"""DR-SC: DRX-Respecting, Standards-Compliant grouping (paper Sec. III-A).

The mechanism never touches device cycles: devices "share a multicast
transmission only if their POs happen to be closer in time than TI".
Which devices share a window is a *policy* decision
(:mod:`repro.grouping`): the default
:class:`~repro.grouping.policies.GreedyCoverPolicy` is the paper's
greedy set cover (Chvátal) over TI-windows — repeatedly pick the window
containing POs of the most not-yet-updated devices, schedule a
transmission at the window's last frame, remove the covered devices,
repeat (Fig. 4). Alternative policies (exact cover, collision-aware
splitting, coverage stratification, random windows) swap in without
touching the mechanism, but every policy must guarantee that each group
member has a PO inside its group's window under its *preferred* cycle —
DR-SC cannot adapt cycles, so it rejects policies (like single-group)
that cannot promise that.

Trade-off: zero extra light-sleep energy, but many transmissions —
Fig. 7 shows the count stays a large fraction of plain unicast, which
is what disqualifies DR-SC for bandwidth-starved NB-IoT cells.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.base import GroupingMechanism, PlanningContext
from repro.core.plan import PAGED_CODE, DirectiveArrays, MulticastPlan, raise_on_first
from repro.devices.fleet import Fleet
from repro.errors import ConfigurationError
from repro.grouping.policies import GreedyCoverPolicy
from repro.grouping.policy import GroupingPolicy


class DrScMechanism(GroupingMechanism):
    """Window-paged grouping over untouched DRX schedules."""

    name = "dr-sc"
    standards_compliant = True
    respects_preferred_drx = True

    def __init__(self, policy: Optional[GroupingPolicy] = None) -> None:
        super().__init__(policy)
        if not self._policy.guarantees_window_po:
            raise ConfigurationError(
                f"dr-sc cannot use grouping policy {self._policy.name!r}: "
                "it does not guarantee every member a PO inside its group "
                "window, and dr-sc cannot adapt cycles to create one"
            )

    def _default_policy(self) -> GroupingPolicy:
        return GreedyCoverPolicy()

    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Turn the policy's grouping into a window-paged plan.

        ``rng`` drives the policy's randomness (for the default greedy
        cover, the paper's random tie-breaking between equally good
        windows); passing None makes the default planning deterministic
        (earliest window wins ties).
        """
        groups, members, tx, start, last, page = self._paged_rows(
            fleet, context, self._policy.group(fleet, context, rng).groups
        )
        raise_on_first(
            [(page < 0, "no PO in window [{start}, {last}]")], start=start, last=last
        )
        return self._make_plan(
            fleet,
            context,
            members,
            [group.size for group in groups],
            [group.window.last_frame for group in groups],
            DirectiveArrays(members, tx, np.full(page.size, PAGED_CODE), page, page),
        )
