"""Property-based tests: every mechanism's plan is valid on random fleets,
and equals the plan of a per-device scalar reference planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdaptationStrategy,
    DaScMechanism,
    DrScMechanism,
    DrSiMechanism,
    UnicastBaseline,
)
from repro.core.base import PlanningContext
from repro.core.plan import DeviceDirective, Transmission, WakeMethod
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.drx.paging import NB, pattern_for
from repro.enb.cell import CellConfig
from repro.errors import PlanError
from repro.grouping import grouping_policy_by_name
from repro.phy.airtime import payload_airtime_frames
from repro.phy.coverage import CoverageClass
from repro.rrc.timers import T322Timer
from repro.timebase import ms_to_frames


@st.composite
def fleets(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    cycle_choices = [2048, 4096, 16384, 131072, 1048576]
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    devices = [
        NbIotDevice.build(
            imsi=imsi, cycle=DrxCycle(draw(st.sampled_from(cycle_choices)))
        )
        for imsi in imsis
    ]
    return Fleet(devices)


contexts = st.builds(
    PlanningContext,
    payload_bytes=st.sampled_from([100_000, 1_000_000]),
    cell=st.sampled_from(
        [
            CellConfig(inactivity_timer_frames=1024),
            CellConfig(inactivity_timer_frames=2048),
            CellConfig(inactivity_timer_frames=3072),
        ]
    ),
)


class TestPlansAlwaysValid:
    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dr_sc(self, fleet, context, seed):
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_da_sc_single_transmission(self, fleet, context, seed):
        plan = DaScMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)
        assert plan.n_transmissions == 1
        # Adapted cycles always divide the preferred ones (ladder nesting).
        for directive in plan.directives:
            if directive.method is WakeMethod.DRX_ADAPTATION:
                preferred = int(fleet[directive.device_index].cycle)
                assert preferred % int(directive.adapted_cycle) == 0

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dr_si_single_transmission(self, fleet, context, seed):
        plan = DrSiMechanism().plan(fleet, context, np.random.default_rng(seed))
        plan.validate(fleet)
        assert plan.n_transmissions == 1

    @given(fleets(), contexts)
    @settings(max_examples=40, deadline=None)
    def test_unicast_n_transmissions(self, fleet, context):
        plan = UnicastBaseline().plan(fleet, context)
        plan.validate(fleet)
        assert plan.n_transmissions == len(fleet)

    @given(fleets(), contexts, st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_dr_sc_never_beats_optimal_singleton_bound(
        self, fleet, context, seed
    ):
        """1 <= transmissions <= n, always."""
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(seed))
        assert 1 <= plan.n_transmissions <= len(fleet)


# ----------------------------------------------------------------------
# Reference oracle: the per-device scalar planners the vectorised
# mechanisms replaced. Each walks the policy's groups device by device
# with ``PoSchedule`` / ``pattern_for`` queries and builds the plan one
# ``DeviceDirective`` and one ``Transmission`` at a time.
# ----------------------------------------------------------------------
def _slack_frames(context, device, adaptation=False):
    """Connect slack (or DA-SC busy span) of one device, in frames."""
    airtime = context.timings.airtime
    seconds = (
        airtime.paging_message_s
        + context.timings.random_access.base_duration_s(device.coverage)
        + airtime.rrc_setup_s
    )
    if adaptation:
        seconds = seconds + airtime.rrc_reconfiguration_s + airtime.rrc_release_s
    return ms_to_frames(seconds * 1000.0)


def _page_in_window(schedule, window_start, last, slack):
    preferred = schedule.last_at_or_before(last - slack)
    if preferred is not None and preferred >= window_start:
        return preferred
    fallback = schedule.last_at_or_before(last)
    if fallback is None or fallback < window_start:
        raise PlanError(f"no PO in window [{window_start}, {last}]")
    return fallback


def _has_window_po(schedule, window_start, last):
    po = schedule.last_at_or_before(last)
    return po is not None and po >= window_start


def _transmission(index, frame, members, fleet, context):
    rate = fleet.group_rate_bps(list(members))
    return Transmission(
        index=index,
        frame=frame,
        device_indices=tuple(int(i) for i in members),
        rate_bps=rate,
        duration_frames=payload_airtime_frames(context.payload_bytes, rate),
    )


def _groups_in_time_order(mechanism, fleet, context, rng):
    decision = mechanism.policy.group(fleet, context, rng)
    order = np.argsort([g.window.end for g in decision.groups], kind="stable")
    return [decision.groups[i] for i in order]


def reference_dr_sc(mechanism, fleet, context, rng):
    transmissions, directives = [], []
    groups = _groups_in_time_order(mechanism, fleet, context, rng)
    for index, group in enumerate(groups):
        window = group.window
        transmissions.append(
            _transmission(index, window.last_frame, group.members, fleet, context)
        )
        for i in (int(i) for i in group.members):
            device = fleet[i]
            page = _page_in_window(
                device.schedule,
                window.start,
                window.last_frame,
                _slack_frames(context, device),
            )
            directives.append(
                DeviceDirective(i, index, WakeMethod.PAGED_IN_WINDOW, page, page)
            )
    return transmissions, directives


def _reference_adaptation(strategy, device, i, index, lo, hi, context):
    schedule = device.schedule
    adaptation = schedule.last_before(lo)
    if adaptation is None:
        raise PlanError(f"device {i} has no PO before the window")
    earliest = max(lo, adaptation + _slack_frames(context, device, True) + 1)
    candidates = []
    cycle = device.cycle
    while True:
        if int(cycle) < int(device.cycle):
            candidates.append(cycle)
        if int(cycle) == DrxCycle.MIN_FRAMES:
            break
        cycle = cycle.shorter()
    if strategy is AdaptationStrategy.LARGEST_WITHIN_TI:
        candidates = [c for c in candidates if int(c) <= hi - earliest + 1]
    for candidate in candidates:
        grid = pattern_for(device.drx.ue_id, candidate, device.drx.nb).schedule
        po = grid.first_at_or_after(earliest)
        if po <= hi:
            return DeviceDirective(
                i,
                index,
                WakeMethod.DRX_ADAPTATION,
                po,
                po,
                adaptation_page_frame=adaptation,
                adapted_cycle=candidate,
            )
    raise PlanError(f"no ladder cycle creates a PO for device {i}")


def reference_single_shot(mechanism, fleet, context, rng):
    """DA-SC or DR-SI: window pages, else adaptation / extended page."""
    transmissions, directives = [], []
    groups = _groups_in_time_order(mechanism, fleet, context, rng)
    for index, group in enumerate(groups):
        lo, hi = group.window.start, group.window.end - 1
        for i in (int(i) for i in group.members):
            device = fleet[i]
            schedule = device.schedule
            if _has_window_po(schedule, lo, hi):
                page = _page_in_window(
                    schedule, lo, hi, _slack_frames(context, device)
                )
                directives.append(
                    DeviceDirective(i, index, WakeMethod.PAGED_IN_WINDOW, page, page)
                )
            elif isinstance(mechanism, DaScMechanism):
                directives.append(
                    _reference_adaptation(
                        mechanism.strategy, device, i, index, lo, hi, context
                    )
                )
            else:
                page = schedule.first_at_or_after(context.announce_frame)
                assert page < lo
                wake = int(rng.integers(lo, hi + 1))
                directives.append(
                    DeviceDirective(
                        i,
                        index,
                        WakeMethod.EXTENDED_PAGE_TIMER,
                        page,
                        wake,
                        t322=T322Timer(armed_at_frame=page, expires_at_frame=wake),
                    )
                )
        transmissions.append(
            _transmission(index, group.window.end, group.members, fleet, context)
        )
    return transmissions, directives


def reference_unicast(mechanism, fleet, context, rng):
    def start_key(i):
        page = fleet[i].schedule.first_at_or_after(context.announce_frame)
        return (page + _slack_frames(context, fleet[i]), page)

    transmissions, directives = [], []
    for index, i in enumerate(sorted(range(len(fleet)), key=start_key)):
        page = fleet[i].schedule.first_at_or_after(context.announce_frame)
        start = page + _slack_frames(context, fleet[i])
        transmissions.append(_transmission(index, start, [i], fleet, context))
        directives.append(
            DeviceDirective(i, index, WakeMethod.IMMEDIATE_PAGE, page, page)
        )
    return transmissions, directives


#: Short DRX, NB-IoT idle DRX and eDRX up to the 175-minute maximum.
_MIXED_CYCLES = (32, 256, 1024, 2048, 16384, 131072, 1048576)
_NBS = (NB.ONE_T, NB.HALF_T, NB.TWO_T, NB.ONE_THIRTY_SECOND_T, NB.FOUR_T)


@st.composite
def mixed_fleets(draw, max_devices=16, cycle_choices=_MIXED_CYCLES):
    """Fleets mixing coverage classes, cycles and cells' nB.

    The first device has an eDRX cycle, so the planning horizon
    (2 * maxDRX) always holds a TI-window.
    """
    n = draw(st.integers(min_value=1, max_value=max_devices))
    edrx = [c for c in cycle_choices if c >= 2048]
    imsis = draw(
        st.lists(
            st.integers(min_value=1, max_value=10**9),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return Fleet(
        [
            NbIotDevice.build(
                imsi=imsi,
                cycle=DrxCycle(draw(st.sampled_from(edrx if k == 0 else cycle_choices))),
                coverage=draw(st.sampled_from(tuple(CoverageClass))),
                nb=draw(st.sampled_from(_NBS)),
            )
            for k, imsi in enumerate(imsis)
        ]
    )


mixed_contexts = st.builds(
    PlanningContext,
    payload_bytes=st.sampled_from([100_000, 1_000_000]),
    cell=st.sampled_from(
        [
            CellConfig(inactivity_timer_frames=1024),
            CellConfig(inactivity_timer_frames=2048),
            CellConfig(inactivity_timer_frames=3072),
        ]
    ),
    announce_frame=st.sampled_from([0, 7, 1500]),
)

#: (mechanism factory, reference planner, policy names it accepts).
_NON_DEFAULT = ("collision-aware", "coverage-stratified", "random")
ORACLE_CASES = [
    (DrScMechanism, reference_dr_sc, ("greedy-cover",) + _NON_DEFAULT),
    (DaScMechanism, reference_single_shot, ("single-group", "greedy-cover") + _NON_DEFAULT),
    (
        lambda policy: DaScMechanism(AdaptationStrategy.LARGEST_WITHIN_TI, policy=policy),
        reference_single_shot,
        ("single-group", "greedy-cover") + _NON_DEFAULT,
    ),
    (DrSiMechanism, reference_single_shot, ("single-group", "greedy-cover") + _NON_DEFAULT),
    (UnicastBaseline, reference_unicast, (None,)),
]


def _assert_matches_reference(mechanism, reference, fleet, context, seed):
    rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
    plan = mechanism.plan(fleet, context, rng)
    transmissions, directives = reference(mechanism, fleet, context, reference_rng)
    assert list(plan.directives) == directives
    assert list(plan.transmissions) == transmissions
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    plan.validate(fleet)


@pytest.mark.parametrize(
    "factory,reference,policy_name",
    [
        (factory, reference, policy_name)
        for factory, reference, policies in ORACLE_CASES
        for policy_name in policies
    ],
)
@given(fleet=mixed_fleets(), context=mixed_contexts, seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_mechanism_matches_scalar_reference(
    factory, reference, policy_name, fleet, context, seed
):
    """Every directive view and transmission equals the scalar oracle's,
    and the generator ends in the same state."""
    policy = None if policy_name is None else grouping_policy_by_name(policy_name)
    mechanism = factory(policy=policy)
    assert policy is None or mechanism.policy is policy
    _assert_matches_reference(mechanism, reference, fleet, context, seed)


@pytest.mark.parametrize(
    "factory,reference",
    [
        (DrScMechanism, reference_dr_sc),
        (DaScMechanism, reference_single_shot),
        (DrSiMechanism, reference_single_shot),
    ],
)
@given(
    fleet=mixed_fleets(max_devices=6, cycle_choices=(256, 2048, 4096, 16384)),
    context=mixed_contexts,
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=8, deadline=None)
def test_exact_cover_matches_scalar_reference(factory, reference, fleet, context, seed):
    mechanism = factory(policy=grouping_policy_by_name("exact-cover"))
    _assert_matches_reference(mechanism, reference, fleet, context, seed)


@pytest.mark.parametrize("width", [0, 1, 2047, 3 * 2**31])
def test_array_bounded_integers_match_scalar_draws(width):
    """DR-SI draws all T322 expiries with one array-bounded
    ``rng.integers`` call; the stream must equal per-device scalar
    draws in order (a numpy release changing this would break the
    reference stream)."""
    lo = np.arange(1001, dtype=np.int64) * 7 + 100
    hi = lo + np.where(np.arange(1001) % 3 == 0, 0, width)
    vector_rng, scalar_rng = np.random.default_rng(42), np.random.default_rng(42)
    vector = vector_rng.integers(lo, hi + 1)
    scalar = [int(scalar_rng.integers(a, b + 1)) for a, b in zip(lo, hi)]
    assert vector.tolist() == scalar
    assert vector_rng.bit_generator.state == scalar_rng.bit_generator.state


@pytest.mark.parametrize("strategy", list(AdaptationStrategy))
@pytest.mark.parametrize("ti", [1024, 3072])
def test_adaptation_episode_edges_match_scalar_reference(strategy, ti):
    """Every UE_ID on cycles just above the TI: some devices' last PO
    before the window falls within the adaptation episode of the window
    start, which is where the busy span decides the adapted PO."""
    cycles, classes = (2048, 4096, 8192), tuple(CoverageClass)
    fleet = Fleet(
        [
            NbIotDevice.build(
                imsi=4096 * 1000 + ue_id,
                cycle=DrxCycle(cycles[k % 3]),
                coverage=classes[(k // 3) % 3],
            )
            for k, ue_id in enumerate(range(0, 4096, 3))
        ]
    )
    context = PlanningContext(
        payload_bytes=100_000,
        cell=CellConfig(inactivity_timer_frames=ti),
        announce_frame=7,
    )
    mechanism = DaScMechanism(strategy)
    _assert_matches_reference(mechanism, reference_single_shot, fleet, context, 0)
