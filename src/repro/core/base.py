"""Mechanism interface and shared planning helpers.

All mechanisms implement ``plan(fleet, context, rng) -> MulticastPlan``.
The :class:`PlanningContext` bundles everything a mechanism may consult:
the cell configuration (inactivity timer, paging parameters), the
control-procedure timing model and the payload.

Mechanisms are parameterised by a
:class:`~repro.grouping.policy.GroupingPolicy`: the policy decides *who
shares a transmission* (groups plus serving windows), the mechanism
decides *how each member is woken* for it. Every mechanism defaults to
the policy that reproduces its paper semantics (greedy window cover for
DR-SC, one fleet-wide group for DA-SC/DR-SI), so constructing a
mechanism without a policy is bit-identical to the pre-policy code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.grouping.policy import GroupingPolicy, PlannedGroup

from repro.devices.arrays import COVERAGE_ORDER
from repro.devices.fleet import Fleet
from repro.enb.cell import CellConfig
from repro.errors import ConfigurationError
from repro.core.plan import DirectiveArrays, MulticastPlan, Transmission, latest_page
from repro.phy.airtime import payload_airtime_frames
from repro.rrc.procedures import ProcedureTimings
from repro.timebase import ms_to_frames


@dataclass(frozen=True)
class PlanningContext:
    """Everything a mechanism needs besides the fleet itself.

    Attributes:
        payload_bytes: size of the multicast content (firmware image).
        cell: cell configuration (TI, nB, paging capacity).
        timings: control-plane procedure durations.
        announce_frame: frame at which the content became available at
            the eNB; all paging and transmissions happen at or after it.
    """

    payload_bytes: int
    cell: CellConfig = CellConfig()
    timings: ProcedureTimings = ProcedureTimings()
    announce_frame: int = 0

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"payload must be positive, got {self.payload_bytes}"
            )
        if self.announce_frame < 0:
            raise ConfigurationError(
                f"announce frame must be >= 0, got {self.announce_frame}"
            )

    @property
    def inactivity_timer_frames(self) -> int:
        """The TI in frames (window length for all mechanisms)."""
        return self.cell.inactivity_timer_frames

    def slack_by_coverage(self, *, adaptation: bool = False) -> np.ndarray:
        """Frames from a page until the device is connected and ready,
        per coverage code (:data:`COVERAGE_ORDER`): paging reception +
        random access (collision-free base duration) + RRC setup, so
        planners page early enough for the transmission start. With
        ``adaptation``, plus the DA-SC reconfiguration and release: the
        busy span its adapted window PO must follow.
        """
        airtime = self.timings.airtime
        frames = []
        for coverage in COVERAGE_ORDER:
            seconds = (
                airtime.paging_message_s
                + self.timings.random_access.base_duration_s(coverage)
                + airtime.rrc_setup_s
            )
            if adaptation:
                seconds += airtime.rrc_reconfiguration_s
                seconds += airtime.rrc_release_s
            frames.append(ms_to_frames(seconds * 1000.0))
        return np.array(frames, dtype=np.int64)


class GroupingMechanism(abc.ABC):
    """Base class for the paper's grouping mechanisms and baselines."""

    #: Short machine-readable identifier (used by the registry and reports).
    name: str = "abstract"

    #: True unless the mechanism needs protocol changes (paper Sec. III).
    standards_compliant: bool = True

    #: True unless the mechanism temporarily modifies device DRX cycles.
    respects_preferred_drx: bool = True

    def __init__(self, policy: Optional["GroupingPolicy"] = None) -> None:
        self._policy = policy if policy is not None else self._default_policy()

    @property
    def policy(self) -> Optional["GroupingPolicy"]:
        """The grouping policy in force (None for policy-free baselines)."""
        return self._policy

    def _default_policy(self) -> Optional["GroupingPolicy"]:
        """The policy reproducing this mechanism's paper semantics.

        Subclasses override; the unicast baseline keeps ``None`` (each
        device is its own group by definition, no policy consulted).
        """
        return None

    @property
    def grouping_name(self) -> Optional[str]:
        """Registry name of the policy in force (recorded on plans)."""
        return self._policy.name if self._policy is not None else None

    @abc.abstractmethod
    def plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        rng: Optional[np.random.Generator] = None,
    ) -> MulticastPlan:
        """Produce a validated multicast plan for ``fleet``."""

    # ------------------------------------------------------------------
    # Shared helpers for subclasses
    # ------------------------------------------------------------------
    @staticmethod
    def _paged_rows(
        fleet: Fleet, context: PlanningContext, groups: Sequence["PlannedGroup"]
    ) -> Tuple[list, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Order ``groups`` along the timeline and page all members at once.

        The stable sort by window end keeps a policy's selection order
        among groups sharing a window (collision-aware splits). Returns
        the ordered groups, then per member, group by group: fleet index,
        transmission index, window ``[start, last]`` and the
        :func:`~repro.core.plan.latest_page` leaving its connect slack
        (-1: no PO in the window).
        """
        order = np.argsort([group.window.end for group in groups], kind="stable")
        groups = [groups[i] for i in order]
        arrays = fleet.arrays
        members = np.concatenate([group.members for group in groups])
        tx = np.repeat(np.arange(len(groups)), [group.size for group in groups])
        start = np.array([group.window.start for group in groups])[tx]
        last = np.array([group.window.last_frame for group in groups])[tx]
        page = latest_page(
            arrays.phases[members],
            arrays.periods[members],
            start,
            last,
            context.slack_by_coverage()[arrays.coverage_codes[members]],
        )
        return groups, members, tx, start, last, page

    def _make_plan(
        self,
        fleet: Fleet,
        context: PlanningContext,
        members: np.ndarray,
        sizes: Sequence[int],
        frames: Sequence[int],
        directives: DirectiveArrays,
    ) -> MulticastPlan:
        """The plan of ``directives``; transmission ``i`` starts at
        ``frames[i]`` and serves the next ``sizes[i]`` ``members``, at the
        bearer rate of its slowest member (paper Sec. II-A)."""
        bounds = np.cumsum(sizes)
        starts = bounds - sizes
        rates = np.minimum.reduceat(fleet.arrays.downlink_bps[members], starts)
        flat = members.tolist()
        airtime: Dict[float, int] = {}
        transmissions = []
        for index, (lo, hi, frame, rate) in enumerate(
            zip(starts.tolist(), bounds.tolist(), frames, rates.tolist())
        ):
            if rate not in airtime:
                airtime[rate] = payload_airtime_frames(context.payload_bytes, rate)
            transmissions.append(
                Transmission(
                    index=index,
                    frame=int(frame),
                    device_indices=tuple(flat[lo:hi]),
                    rate_bps=rate,
                    duration_frames=airtime[rate],
                )
            )
        return MulticastPlan(
            mechanism=self.name,
            standards_compliant=self.standards_compliant,
            respects_preferred_drx=self.respects_preferred_drx,
            announce_frame=context.announce_frame,
            inactivity_timer_frames=context.inactivity_timer_frames,
            payload_bytes=context.payload_bytes,
            transmissions=tuple(transmissions),
            directives=directives,
            grouping=self.grouping_name,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
