"""Multicast plans: the contract between mechanisms and the executor.

A :class:`MulticastPlan` is a complete, *checkable* description of a
multicast campaign: when each transmission happens, which devices it
serves at what bearer rate, and — per device — how the device is woken
(normal page in the window, DA-SC adaptation, DR-SI extended page, or
the unicast baseline's immediate page).

``MulticastPlan.validate`` re-derives every claim against the fleet's
actual paging schedules and raises :class:`~repro.errors.PlanError`
on any inconsistency; every mechanism's output is validated in tests
and property tests, so executor results can trust plan invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.devices.fleet import Fleet
from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import v_paging_frame_offset
from repro.drx.schedule import v_last_before
from repro.errors import CoverageError, PlanError
from repro.rrc.timers import T322Timer
from repro.timebase import frames_to_seconds


class WakeMethod(Enum):
    """How a device learns about / wakes up for its transmission."""

    PAGED_IN_WINDOW = "paged_in_window"
    """Paged at one of its own POs inside the transmission's TI-window
    (DR-SC; DA-SC/DR-SI devices that happen to have a window PO)."""

    DRX_ADAPTATION = "drx_adaptation"
    """DA-SC: paged at the last PO before the window, reconfigured to a
    shorter cycle, then paged again at the adapted PO inside the window."""

    EXTENDED_PAGE_TIMER = "extended_page_timer"
    """DR-SI: receives the ``mltc-transmission`` extension at a normal
    PO, arms T322, and self-wakes inside the window."""

    IMMEDIATE_PAGE = "immediate_page"
    """Unicast baseline: paged at its first PO and served immediately."""


@dataclass(frozen=True)
class Transmission:
    """One scheduled multicast (or unicast) data transmission.

    Attributes:
        index: position in the plan's transmission tuple.
        frame: nominal start frame (the last frame of the TI-window for
            windowed mechanisms). The executor may push the actual start
            slightly later so every group member is connected.
        device_indices: fleet indices served by this transmission.
        rate_bps: bearer rate (minimum over the group's capabilities).
        duration_frames: payload airtime at the bearer rate.
    """

    index: int
    frame: int
    device_indices: Tuple[int, ...]
    rate_bps: float
    duration_frames: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise PlanError(f"transmission index must be >= 0, got {self.index}")
        if self.frame < 0:
            raise PlanError(f"transmission frame must be >= 0, got {self.frame}")
        if not self.device_indices:
            raise PlanError(f"transmission {self.index} serves no devices")
        if len(set(self.device_indices)) != len(self.device_indices):
            raise PlanError(f"transmission {self.index} lists a device twice")
        if self.rate_bps <= 0:
            raise PlanError(f"bearer rate must be positive, got {self.rate_bps}")
        if self.duration_frames < 1:
            raise PlanError(
                f"duration must be >= 1 frame, got {self.duration_frames}"
            )

    @property
    def group_size(self) -> int:
        """Number of devices served."""
        return len(self.device_indices)

    @property
    def end_frame(self) -> int:
        """Nominal end frame (start + airtime)."""
        return self.frame + self.duration_frames


@dataclass(frozen=True)
class DeviceDirective:
    """Per-device wake-up instructions: one :class:`DirectiveArrays` row.

    Plans yield these as views of their columns; hand-built ones are
    checked like the columns and converted once when a plan is built.

    Attributes:
        device_index: fleet index of the device.
        transmission_index: which plan transmission serves it.
        method: the wake method (see :class:`WakeMethod`).
        page_frame: the PO at which the device hears its (final) page —
            or, for DR-SI extended pages, the PO carrying the extension.
        connect_frame: frame at which the device starts random access.
        adaptation_page_frame: DA-SC only — the PO (under the preferred
            cycle) where the device is paged for the reconfiguration;
            "the adaptation happens in the last PO before t - TI".
        adapted_cycle: DA-SC only — the temporary (shorter) cycle.
        t322: DR-SI only — the wake-up timer, armed at the page frame and
            expiring at the connect frame.
    """

    device_index: int
    transmission_index: int
    method: WakeMethod
    page_frame: int
    connect_frame: int
    adaptation_page_frame: Optional[int] = None
    adapted_cycle: Optional[DrxCycle] = None
    t322: Optional[T322Timer] = None

    def __post_init__(self) -> None:
        DirectiveArrays.from_directives((self,))


#: Code of each wake method in :attr:`DirectiveArrays.methods` columns.
METHOD_CODE: Dict[WakeMethod, int] = {m: i for i, m in enumerate(WakeMethod)}
PAGED_CODE, ADAPTED_CODE, EXTENDED_CODE, IMMEDIATE_CODE = METHOD_CODE.values()
_METHODS = tuple(WakeMethod)

_LADDER_FRAMES = np.array([int(c) for c in FULL_LADDER], dtype=np.int64)


def raise_on_first(
    checks: Sequence[Tuple[np.ndarray, str]],
    error: type = PlanError,
    **columns: np.ndarray,
) -> None:
    """Raise ``error`` at the first row flagged by the first failing check.

    A check is a per-row boolean mask and a message template, formatted
    with the flagged row's value of every column.
    """
    for bad, template in checks:
        if bad.any():
            i = int(np.argmax(bad))
            raise error(template.format(**{k: v[i] for k, v in columns.items()}))


@dataclass(frozen=True, eq=False)
class DirectiveArrays:
    """A plan's per-device directives as a frozen struct-of-arrays.

    One row per directed device, in the order the mechanism emitted
    them; ``methods`` holds :data:`METHOD_CODE` codes (int8), every
    other column is int64. The adaptation columns are 0 on rows that
    are not DRX adaptations (omitted: all zeros). An extended-page row's
    T322 is implied: armed at its page frame, expiring at its connect
    frame. ``len``, indexing and iteration yield :class:`DeviceDirective`
    views; equality compares the columns.
    """

    device_indices: np.ndarray
    transmission_indices: np.ndarray
    methods: np.ndarray
    page_frames: np.ndarray
    connect_frames: np.ndarray
    adaptation_page_frames: Optional[np.ndarray] = None
    adapted_cycles: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n = np.size(self.device_indices)
        for name in _COLUMNS:
            value = getattr(self, name)
            column = np.array(
                np.zeros(n) if value is None else value,
                dtype=np.int8 if name == "methods" else np.int64,
                ndmin=1,
            )
            if column.shape != (n,):
                raise PlanError(f"directive column {name!r} is not {n} rows")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        method, page, connect = self.methods, self.page_frames, self.connect_frames
        adapted = method == ADAPTED_CODE
        adaptation_set = (self.adaptation_page_frames != 0) | (self.adapted_cycles != 0)
        raise_on_first(
            [
                (self.device_indices < 0, "device index must be >= 0, got {dev}"),
                (page < 0, "page frame must be >= 0, got {page}"),
                ((method < 0) | (method > IMMEDIATE_CODE), "unknown method code {method}"),
                (
                    (connect < page) & ~adapted,
                    "device {dev} connects at {connect} before its page at {page}",
                ),
                (
                    adapted & ~np.isin(self.adapted_cycles, _LADDER_FRAMES),
                    "device {dev}: DRX adaptation requires adaptation_page_frame "
                    "and adapted_cycle (a ladder cycle)",
                ),
                (
                    ~adapted & adaptation_set,
                    "device {dev}: adaptation fields set for non-adaptation "
                    "method code {method}",
                ),
                (
                    (method == EXTENDED_CODE) & (connect <= page),
                    "device {dev}: T322 expires at {connect}, not after its "
                    "arming at {page}",
                ),
            ],
            dev=self.device_indices,
            method=method,
            page=page,
            connect=connect,
        )

    @classmethod
    def from_directives(
        cls, directives: Sequence[DeviceDirective]
    ) -> "DirectiveArrays":
        """Columns of directive objects, checking which fields they set."""
        rows = []
        for d in directives:
            adapted = d.method is WakeMethod.DRX_ADAPTATION
            extended = d.method is WakeMethod.EXTENDED_PAGE_TIMER
            adaptation = (d.adaptation_page_frame, d.adapted_cycle)
            timer = d.t322 and (d.t322.armed_at_frame, d.t322.expires_at_frame)
            for bad, message in (
                (
                    adapted and None in adaptation,
                    "DRX adaptation requires adaptation_page_frame and adapted_cycle",
                ),
                (
                    not adapted and adaptation != (None, None),
                    f"adaptation fields set for non-adaptation method {d.method}",
                ),
                (extended and d.t322 is None, "extended-page method requires T322"),
                (not extended and d.t322 is not None, f"T322 set for method {d.method}"),
                (
                    extended and timer != (d.page_frame, d.connect_frame),
                    "T322 must be armed at the page frame and expire at the "
                    "connect frame",
                ),
            ):
                if bad:
                    raise PlanError(f"device {d.device_index}: {message}")
            rows.append((
                d.device_index,
                d.transmission_index,
                METHOD_CODE[d.method],
                d.page_frame,
                d.connect_frame,
                d.adaptation_page_frame or 0,
                d.adapted_cycle or 0,
            ))
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, len(_COLUMNS)).T)

    @classmethod
    def concatenate(cls, parts: Sequence["DirectiveArrays"]) -> "DirectiveArrays":
        """Row-wise concatenation of several directive tables."""
        return cls(*map(np.concatenate, zip(*(p._columns() for p in parts))))

    def take(self, rows: np.ndarray) -> "DirectiveArrays":
        """The rows at ``rows`` (indices or a boolean mask)."""
        return DirectiveArrays(*(column[rows] for column in self._columns()))

    def _columns(self) -> List[np.ndarray]:
        return [getattr(self, name) for name in _COLUMNS]

    @cached_property
    def _by_device(self) -> Tuple[np.ndarray, np.ndarray]:
        order = np.argsort(self.device_indices, kind="stable")
        return order, self.device_indices[order]

    def row_of(self, device_index: int) -> Optional[int]:
        """The row directing ``device_index``, or None (binary search)."""
        order, devices = self._by_device
        pos = int(np.searchsorted(devices, device_index))
        found = pos < devices.size and devices[pos] == device_index
        return int(order[pos]) if found else None

    def __len__(self) -> int:
        return self.device_indices.size

    def __getitem__(self, index: int) -> DeviceDirective:
        row = range(len(self))[index]
        return _view(*(column[row].item() for column in self._columns()))

    def __iter__(self) -> Iterator[DeviceDirective]:
        return map(_view, *(column.tolist() for column in self._columns()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectiveArrays):
            return NotImplemented
        return all(map(np.array_equal, self._columns(), other._columns()))

    __hash__ = None  # type: ignore[assignment]


_COLUMNS = tuple(f.name for f in fields(DirectiveArrays))


def _view(device, tx, code, page, connect, adaptation, cycle) -> DeviceDirective:
    """One checked row as a :class:`DeviceDirective` (not re-checked)."""
    view = object.__new__(DeviceDirective)
    adapted, extended = code == ADAPTED_CODE, code == EXTENDED_CODE
    view.__dict__.update(
        device_index=device,
        transmission_index=tx,
        method=_METHODS[code],
        page_frame=page,
        connect_frame=connect,
        adaptation_page_frame=adaptation if adapted else None,
        adapted_cycle=DrxCycle(cycle) if adapted else None,
        t322=T322Timer(page, connect) if extended else None,
    )
    return view


def _v_is_po(phases: np.ndarray, periods: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Per-row :meth:`PoSchedule.is_po` over parallel columns."""
    return (frames >= phases) & ((frames - phases) % periods == 0)


def latest_page(
    phases: np.ndarray,
    periods: np.ndarray,
    lowest: np.ndarray,
    last: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """The PO to page a device at inside ``[lowest, last]``, per row.

    The latest PO that still leaves ``slack`` frames before ``last``
    (minimising the connected wait) if it is inside the window, else
    the latest window PO, else -1: the device has no PO in the window.
    """
    lowest = np.maximum(lowest, 0)  # v_last_before flags "none" with -1
    latest = v_last_before(phases, periods, last + 1)
    preferred = v_last_before(phases, periods, last - slack + 1)
    fallback = np.where(latest >= lowest, latest, -1)
    return np.where(preferred >= lowest, preferred, fallback)


@dataclass(frozen=True)
class MulticastPlan:
    """A complete multicast campaign plan.

    Attributes:
        mechanism: name of the producing mechanism.
        standards_compliant: True unless the plan needs protocol changes
            (DR-SI's extended page / new establishment cause).
        respects_preferred_drx: False only when cycles are temporarily
            modified (DA-SC).
        announce_frame: frame the multicast content became available.
        inactivity_timer_frames: the TI used for the windows.
        payload_bytes: multicast payload size.
        transmissions: scheduled transmissions, ordered by frame.
        directives: one directive row per fleet device (any order); a
            sequence of :class:`DeviceDirective` is converted on
            construction.
        grouping: registry name of the grouping policy that formed the
            groups (None for policy-free baselines such as unicast).
    """

    mechanism: str
    standards_compliant: bool
    respects_preferred_drx: bool
    announce_frame: int
    inactivity_timer_frames: int
    payload_bytes: int
    transmissions: Tuple[Transmission, ...]
    directives: DirectiveArrays
    grouping: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.directives, DirectiveArrays):
            directives = DirectiveArrays.from_directives(self.directives)
            object.__setattr__(self, "directives", directives)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    @property
    def n_transmissions(self) -> int:
        """Number of data transmissions (the paper's bandwidth proxy)."""
        return len(self.transmissions)

    @property
    def campaign_end_frame(self) -> int:
        """Nominal end of the campaign (last transmission's end)."""
        return max(t.end_frame for t in self.transmissions)

    @property
    def campaign_duration_s(self) -> float:
        """Nominal campaign duration in seconds, from the announce frame."""
        return frames_to_seconds(self.campaign_end_frame - self.announce_frame)

    def directive_for(self, device_index: int) -> DeviceDirective:
        """The directive addressing ``device_index``."""
        row = self.directives.row_of(device_index)
        if row is None:
            raise PlanError(f"no directive for device {device_index}")
        return self.directives[row]

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, fleet: Fleet, *, partial: bool = False) -> None:
        """Check the plan against the fleet's actual paging schedules.

        Raises :class:`~repro.errors.PlanError` (or its subclass
        :class:`~repro.errors.CoverageError`) on the first violation.
        Every check is a whole-plan array expression, and every PO grid
        is re-derived from the fleet's identity columns (UE_ID, cycle,
        nB), never read from its cached phases.

        ``partial=True`` relaxes only the completeness requirement —
        fleet devices without a directive are allowed. Revised in-flight
        plans are validated this way: the working fleet of a live
        campaign keeps the devices that left (indices are append-only),
        so full coverage is impossible by construction. Every other
        invariant (no duplicate directives, transmission/directive
        agreement, per-directive paging feasibility) still holds.
        """
        n, d, arrays = len(fleet), self.directives, fleet.arrays
        dev = d.device_indices
        if (dev >= n).any():
            raise PlanError(f"directive for device {dev.max()} outside fleet of {n}")
        counts = np.bincount(dev, minlength=n)
        uncovered = np.flatnonzero(counts == 0)
        raise_on_first(
            [
                (counts > 1, "device {dev} has multiple directives"),
                (
                    (counts == 0) & (not partial),
                    f"{uncovered.size} devices uncovered, e.g. "
                    f"{uncovered[:5].tolist()}",
                ),
            ],
            CoverageError,
            dev=np.arange(n),
        )
        # The transmissions' member lists must pair every directed device
        # with its directive's transmission, and nothing else. (A device
        # listed twice is listed by two transmissions: one mismatches.)
        listed = np.fromiter(
            chain.from_iterable(t.device_indices for t in self.transmissions),
            np.int64,
        )
        listed_tx = np.repeat(
            [t.index for t in self.transmissions],
            [t.group_size for t in self.transmissions],
        )
        directed = np.full(n, -1, dtype=np.int64)
        directed[dev] = d.transmission_indices
        if (
            listed.size != dev.size
            or ((listed < 0) | (listed >= n)).any()
            or (directed[listed] != listed_tx).any()
        ):
            raise CoverageError("transmission device lists disagree with directives")
        by_index = sorted(self.transmissions, key=lambda t: t.index)
        if [t.index for t in by_index] != list(range(len(by_index))):
            raise PlanError("transmission indices are not 0..k-1")

        # A device paged (or self-waking) at frame p can still be awake at
        # the transmission frame F iff F - p <= TI. Both window
        # conventions in the paper (DR-SC's [s, s+TI) with the
        # transmission at s+TI-1, and DA-SC/DR-SI's [t - TI, t) with the
        # transmission at t) satisfy this single invariant.
        page, connect = d.page_frames, d.connect_frames
        end = np.array([t.frame for t in by_index], np.int64)[d.transmission_indices]
        start = end - self.inactivity_timer_frames
        paged, adapting, extended, immediate = (
            d.methods == code for code in METHOD_CODE.values()
        )
        ue_ids, periods = arrays.ue_ids[dev], arrays.periods[dev]
        nb = (arrays.nb_numerators[dev], arrays.nb_denominators[dev])
        phases = v_paging_frame_offset(ue_ids, periods, nb)
        adaptation = d.adaptation_page_frames
        adapted = np.where(adapting, d.adapted_cycles, periods)
        # The adapted PO grid derives from the identity, like any grid.
        adapted_phases = v_paging_frame_offset(ue_ids, adapted, nb)
        off_grid = ~_v_is_po(phases, periods, page)
        outside = (page < start) | (page > end)
        window = "window [{start}, {end}]"
        checks = [
            (immediate & off_grid, "immediate page at {page} is not a PO"),
            (paged & off_grid, "window page at {page} is not a PO"),
            (extended & off_grid, "extended page at {page} is not a PO"),
            (paged & outside, "page at {page} outside " + window),
            (
                extended & ((connect < start) | (connect > end)),
                "T322 expiry {connect} outside " + window,
            ),
            (
                adapting & (adapted > periods),
                "adapted cycle {adapted} longer than preferred {period}",
            ),
            (
                adapting & ~_v_is_po(phases, periods, adaptation),
                "adaptation page at {adaptation} is not a preferred-cycle PO",
            ),
            (
                adapting & (adaptation >= start),
                "adaptation at {adaptation} not before the window start {start}",
            ),
            (
                adapting & ~_v_is_po(adapted_phases, adapted, page),
                "window page at {page} is not on the adapted grid",
            ),
            (adapting & outside, "adapted page at {page} outside " + window),
            (
                adapting & (page <= adaptation),
                "adapted page not after the adaptation episode",
            ),
        ]
        raise_on_first(
            [(bad, "device {dev}: " + message) for bad, message in checks],
            dev=dev,
            page=page,
            connect=connect,
            start=start,
            end=end,
            adaptation=adaptation,
            adapted=adapted,
            period=periods,
        )


# ----------------------------------------------------------------------
# Plan revision: diffing an in-flight plan against fleet churn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanRevision:
    """The delta between an in-flight plan and its revised successor.

    A revision is computed by :func:`revise_plan` when devices join or
    leave a live campaign. It carries the full revised plan *and* the
    delta the service actually has to act on: only the joined devices
    need new pages issued, only the retired windows need their scheduled
    events cancelled — everything else continues untouched.

    Attributes:
        base: the in-flight plan the revision was computed against.
        revised: the complete successor plan (working-fleet indices).
        now_frame: the frame at which the revision took effect; windows
            at or before it are frozen (already transmitted) and are
            never moved or resized.
        joined_directives: delta directives — one per joined device,
            paging it into the nearest feasible window (or a new one).
        retired_transmissions: base transmission indices dropped because
            every member left.
        transmission_map: (base index, revised index) pairs for every
            surviving transmission.
        resized_transmissions: revised indices whose bearer rate or
            duration changed because membership changed.
        new_transmissions: revised indices with no base ancestor (built
            for joiners no existing window could serve).
    """

    base: MulticastPlan
    revised: MulticastPlan
    now_frame: int
    joined_directives: Tuple[DeviceDirective, ...]
    retired_transmissions: Tuple[int, ...]
    transmission_map: Tuple[Tuple[int, int], ...]
    resized_transmissions: Tuple[int, ...] = ()
    new_transmissions: Tuple[int, ...] = ()

    @property
    def is_noop(self) -> bool:
        """True when the revision changes nothing."""
        return (
            not self.joined_directives
            and not self.retired_transmissions
            and not self.resized_transmissions
            and not self.new_transmissions
        )

    def base_index_of(self, revised_index: int) -> Optional[int]:
        """The base transmission behind ``revised_index`` (None if new)."""
        for base_index, new_index in self.transmission_map:
            if new_index == revised_index:
                return base_index
        return None


@dataclass(eq=False)
class _WindowDraft:
    """Mutable scratch for one transmission while a revision is built."""

    base_index: Optional[int]
    frame: int
    members: List[int]
    rate_bps: float
    duration: int
    order: int


def revise_plan(
    base: MulticastPlan,
    fleet: Fleet,
    *,
    joined: Tuple[int, ...] = (),
    left: Tuple[int, ...] = (),
    now_frame: int,
    context,
) -> PlanRevision:
    """Diff ``base`` against fleet churn and build its successor plan.

    ``fleet`` is the campaign's *working* fleet: the submit-time fleet
    with every joiner appended (indices are append-only, so directives
    in ``base`` remain valid references). ``joined``/``left`` are
    working-fleet indices taking effect at ``now_frame``.

    Semantics:

    * windows whose transmission frame is at or before ``now_frame`` are
      frozen — leaves drop the member from the accounting, but the
      window keeps its realised rate and duration;
    * pending windows losing members are resized (bearer rate re-derived
      from the surviving membership, paper Sec. II-A) and retired when
      every member left;
    * each joined device is re-paged into the *nearest feasible* pending
      window — the earliest one containing a PO of the device that is
      still in the future and leaves its connect slack — or, when no
      window can serve it, a fresh single-member window anchored at its
      next PO;
    * surviving transmissions are renumbered in time order.

    The revised plan is validated (``partial=True``: devices that left
    stay in the working fleet without directives) before returning.

    Raises :class:`PlanError` on contradictory churn — joining a device
    that already has a directive, or removing one that has none.
    """
    from repro.phy.airtime import payload_airtime_frames

    ti = base.inactivity_timer_frames
    left_set = {int(i) for i in left}
    joined_list = [int(i) for i in joined]
    directed = set(base.directives.device_indices.tolist())
    for device_index in joined_list:
        if device_index in directed:
            raise PlanError(
                f"device {device_index} already has a directive; it cannot "
                "join the campaign again"
            )
        if device_index >= len(fleet):
            raise PlanError(
                f"joining device {device_index} outside working fleet of "
                f"{len(fleet)}"
            )
    for device_index in left_set:
        if device_index not in directed:
            raise PlanError(
                f"device {device_index} has no directive; it cannot leave"
            )

    # Surviving windows: frozen windows keep their realised shape,
    # pending ones are resized once the final membership is known.
    drafts: List[_WindowDraft] = []
    retired: List[int] = []
    for transmission in base.transmissions:
        members = [i for i in transmission.device_indices if i not in left_set]
        if not members:
            retired.append(transmission.index)
            continue
        drafts.append(
            _WindowDraft(
                base_index=transmission.index,
                frame=transmission.frame,
                members=members,
                rate_bps=transmission.rate_bps,
                duration=transmission.duration_frames,
                order=transmission.index,
            )
        )

    # Re-page each joiner into the nearest feasible pending window.
    joined_pages: Dict[int, Tuple[_WindowDraft, int]] = {}
    next_order = len(base.transmissions)
    slack_by_code = context.slack_by_coverage()
    for device_index in joined_list:
        slack = int(slack_by_code[fleet.arrays.coverage_codes[device_index]])
        # Frozen windows already transmitted, and a revision cannot page
        # in the past: only pages after now_frame in pending windows.
        pending = sorted(
            (d for d in drafts if d.frame > now_frame),
            key=lambda d: (d.frame, d.order),
        )
        frames = np.array([d.frame for d in pending], dtype=np.int64)
        pages = latest_page(
            fleet.arrays.phases[[device_index]],
            fleet.arrays.periods[[device_index]],
            np.maximum(frames - ti, now_frame + 1),
            frames,
            slack,
        )
        feasible = np.flatnonzero(pages >= 0)
        if feasible.size:
            draft, page = pending[feasible[0]], int(pages[feasible[0]])
            draft.members.append(device_index)
        else:
            # No pending window can serve the joiner: open a fresh one
            # at its next PO, leaving the connect slack (capped by the
            # TI so the page stays inside the window).
            page = fleet[device_index].schedule.first_at_or_after(now_frame + 1)
            draft = _WindowDraft(
                base_index=None,
                frame=page + min(max(slack, 1), ti),
                members=[device_index],
                rate_bps=0.0,  # sized below with every other pending window
                duration=1,
                order=next_order,
            )
            next_order += 1
            drafts.append(draft)
        joined_pages[device_index] = (draft, page)

    # Size pending windows whose membership changed (frozen windows and
    # untouched pending windows keep their exact rate and duration).
    resized_drafts: List[_WindowDraft] = []
    for draft in drafts:
        if draft.base_index is not None:
            original = base.transmissions[draft.base_index]
            if list(original.device_indices) == draft.members:
                continue
            if draft.frame <= now_frame:
                continue
        rate = fleet.group_rate_bps(draft.members)
        duration = payload_airtime_frames(base.payload_bytes, rate)
        if (
            draft.base_index is None
            or rate != draft.rate_bps
            or duration != draft.duration
        ):
            resized_drafts.append(draft)
        draft.rate_bps = rate
        draft.duration = duration

    # Renumber in time order (stable on the pre-revision order).
    drafts.sort(key=lambda d: (d.frame, d.order))
    index_of = {id(draft): i for i, draft in enumerate(drafts)}
    transmissions = tuple(
        Transmission(
            index=i,
            frame=draft.frame,
            device_indices=tuple(draft.members),
            rate_bps=draft.rate_bps,
            duration_frames=draft.duration,
        )
        for i, draft in enumerate(drafts)
    )
    transmission_map = tuple(
        (draft.base_index, i)
        for i, draft in enumerate(drafts)
        if draft.base_index is not None
    )
    pages = [joined_pages[i][1] for i in joined_list]
    joined_rows = DirectiveArrays(
        joined_list,
        [index_of[id(joined_pages[i][0])] for i in joined_list],
        np.full(len(joined_list), PAGED_CODE),
        pages,
        pages,
    )

    # Surviving rows keep their wake instructions under renumbered
    # transmissions; every member of a retired window left.
    remap = np.arange(len(base.transmissions))
    for base_index, new_index in transmission_map:
        remap[base_index] = new_index
    kept = base.directives.take(
        ~np.isin(base.directives.device_indices, list(left_set))
    )
    kept = replace(kept, transmission_indices=remap[kept.transmission_indices])
    revised = replace(
        base,
        transmissions=transmissions,
        directives=DirectiveArrays.concatenate([kept, joined_rows]),
    )
    revised.validate(fleet, partial=True)
    return PlanRevision(
        base=base,
        revised=revised,
        now_frame=now_frame,
        joined_directives=tuple(joined_rows),
        retired_transmissions=tuple(retired),
        transmission_map=transmission_map,
        resized_transmissions=tuple(sorted(index_of[id(d)] for d in resized_drafts)),
        new_transmissions=tuple(
            i for i, draft in enumerate(drafts) if draft.base_index is None
        ),
    )
