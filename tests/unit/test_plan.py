"""Unit tests for plan structures and validation."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DaScMechanism, DrScMechanism, DrSiMechanism
from repro.core.plan import (
    METHOD_CODE,
    DeviceDirective,
    DirectiveArrays,
    MulticastPlan,
    Transmission,
    WakeMethod,
)
from repro.devices.arrays import FleetArrays
from repro.devices.device import NbIotDevice
from repro.devices.fleet import Fleet
from repro.drx.cycles import DrxCycle
from repro.errors import CoverageError, PlanError
from repro.rrc.timers import T322Timer


@pytest.fixture
def pair_fleet() -> Fleet:
    return Fleet(
        [
            NbIotDevice.build(imsi=101, cycle=DrxCycle.from_seconds(20.48)),
            NbIotDevice.build(imsi=202, cycle=DrxCycle.from_seconds(40.96)),
        ]
    )


def _plan_for(fleet: Fleet, directives, transmissions) -> MulticastPlan:
    return MulticastPlan(
        mechanism="test",
        standards_compliant=True,
        respects_preferred_drx=True,
        announce_frame=0,
        inactivity_timer_frames=2048,
        payload_bytes=100_000,
        transmissions=transmissions,
        directives=directives,
    )


def _window_page(fleet: Fleet, device_index: int, tx_frame: int) -> int:
    schedule = fleet[device_index].schedule
    page = schedule.last_at_or_before(tx_frame)
    assert page is not None and page >= tx_frame - 2048
    return page


class TestTransmission:
    def test_valid(self):
        t = Transmission(
            index=0, frame=100, device_indices=(0, 1), rate_bps=25000,
            duration_frames=3200,
        )
        assert t.group_size == 2
        assert t.end_frame == 3300

    def test_rejects_empty_group(self):
        with pytest.raises(PlanError):
            Transmission(index=0, frame=0, device_indices=(), rate_bps=1,
                         duration_frames=1)

    def test_rejects_duplicate_devices(self):
        with pytest.raises(PlanError):
            Transmission(index=0, frame=0, device_indices=(1, 1), rate_bps=1,
                         duration_frames=1)


class TestDirective:
    def test_adaptation_requires_fields(self):
        with pytest.raises(PlanError):
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.DRX_ADAPTATION, page_frame=10, connect_frame=10,
            )

    def test_non_adaptation_rejects_adaptation_fields(self):
        with pytest.raises(PlanError):
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=10,
                adapted_cycle=DrxCycle(2048),
            )

    def test_extended_requires_t322(self):
        with pytest.raises(PlanError):
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.EXTENDED_PAGE_TIMER, page_frame=10,
                connect_frame=100,
            )

    def test_t322_only_for_extended(self):
        with pytest.raises(PlanError):
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=10,
                t322=T322Timer(armed_at_frame=10, expires_at_frame=100),
            )

    def test_connect_before_page_rejected(self):
        with pytest.raises(PlanError):
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW, page_frame=10, connect_frame=5,
            )


class TestPlanValidation:
    def test_valid_plan_passes(self, pair_fleet):
        tx_frame = 5000
        directives = tuple(
            DeviceDirective(
                device_index=i, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, i, tx_frame),
                connect_frame=_window_page(pair_fleet, i, tx_frame),
            )
            for i in range(2)
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            (
                Transmission(index=0, frame=tx_frame, device_indices=(0, 1),
                             rate_bps=25000, duration_frames=3200),
            ),
        )
        plan.validate(pair_fleet)  # must not raise
        assert plan.n_transmissions == 1

    def test_uncovered_device_detected(self, pair_fleet):
        tx_frame = 5000
        page = _window_page(pair_fleet, 0, tx_frame)
        plan = _plan_for(
            pair_fleet,
            (
                DeviceDirective(
                    device_index=0, transmission_index=0,
                    method=WakeMethod.PAGED_IN_WINDOW,
                    page_frame=page, connect_frame=page,
                ),
            ),
            (
                Transmission(index=0, frame=tx_frame, device_indices=(0,),
                             rate_bps=25000, duration_frames=3200),
            ),
        )
        with pytest.raises(CoverageError):
            plan.validate(pair_fleet)

    def test_page_not_on_po_grid_detected(self, pair_fleet):
        tx_frame = 5000
        page = _window_page(pair_fleet, 0, tx_frame)
        bad = page + 1  # definitely not a PO
        directives = (
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW, page_frame=bad,
                connect_frame=bad,
            ),
            DeviceDirective(
                device_index=1, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, 1, tx_frame),
                connect_frame=_window_page(pair_fleet, 1, tx_frame),
            ),
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            (
                Transmission(index=0, frame=tx_frame, device_indices=(0, 1),
                             rate_bps=25000, duration_frames=3200),
            ),
        )
        with pytest.raises(PlanError, match="not a PO"):
            plan.validate(pair_fleet)

    def test_page_outside_window_detected(self, pair_fleet):
        tx_frame = 50000
        early_page = pair_fleet[0].schedule.first_at_or_after(0)
        directives = (
            DeviceDirective(
                device_index=0, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=early_page, connect_frame=early_page,
            ),
            DeviceDirective(
                device_index=1, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, 1, tx_frame),
                connect_frame=_window_page(pair_fleet, 1, tx_frame),
            ),
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            (
                Transmission(index=0, frame=tx_frame, device_indices=(0, 1),
                             rate_bps=25000, duration_frames=3200),
            ),
        )
        with pytest.raises(PlanError, match="outside window"):
            plan.validate(pair_fleet)

    def test_directive_for(self, pair_fleet):
        tx_frame = 5000
        directives = tuple(
            DeviceDirective(
                device_index=i, transmission_index=0,
                method=WakeMethod.PAGED_IN_WINDOW,
                page_frame=_window_page(pair_fleet, i, tx_frame),
                connect_frame=_window_page(pair_fleet, i, tx_frame),
            )
            for i in range(2)
        )
        plan = _plan_for(
            pair_fleet,
            directives,
            (
                Transmission(index=0, frame=tx_frame, device_indices=(0, 1),
                             rate_bps=25000, duration_frames=3200),
            ),
        )
        assert plan.directive_for(1).device_index == 1
        with pytest.raises(PlanError):
            plan.directive_for(7)


# ----------------------------------------------------------------------
# Forged plans: every invariant the array validator checks, violated
# once on an otherwise valid mechanism plan.
# ----------------------------------------------------------------------
def _forge(plan: MulticastPlan, **changes) -> MulticastPlan:
    """``plan`` with some directive columns edited through ``changes``
    (column name -> function of a writable copy of that column)."""
    columns = {}
    for name, edit in changes.items():
        column = getattr(plan.directives, name).copy()
        edit(column)
        columns[name] = column
    return replace(plan, directives=replace(plan.directives, **columns))


def _row(plan: MulticastPlan, method: WakeMethod) -> int:
    rows = np.flatnonzero(plan.directives.methods == METHOD_CODE[method])
    assert rows.size, f"fixture plan has no {method} row"
    return int(rows[0])


@pytest.fixture
def da_plan(tiny_fleet, context):
    plan = DaScMechanism().plan(tiny_fleet, context)
    plan.validate(tiny_fleet)
    return plan


@pytest.fixture
def dr_si_plan(tiny_fleet, context):
    plan = DrSiMechanism().plan(tiny_fleet, context, np.random.default_rng(1))
    plan.validate(tiny_fleet)
    return plan


class TestForgedPlans:
    def test_page_not_a_po(self, da_plan, tiny_fleet):
        row = _row(da_plan, WakeMethod.PAGED_IN_WINDOW)

        def shift(page):
            page[row] += 1

        forged = _forge(da_plan, page_frames=shift, connect_frames=shift)
        with pytest.raises(PlanError, match="window page at .* is not a PO"):
            forged.validate(tiny_fleet)

    def test_page_outside_window(self, da_plan, tiny_fleet):
        row = _row(da_plan, WakeMethod.PAGED_IN_WINDOW)
        period = int(tiny_fleet.arrays.periods[da_plan.directives.device_indices[row]])

        def earlier(page):
            page[row] -= 64 * period

        forged = _forge(da_plan, page_frames=earlier, connect_frames=earlier)
        with pytest.raises(PlanError, match="outside window"):
            forged.validate(tiny_fleet)

    def test_duplicated_device(self, da_plan, tiny_fleet):
        def duplicate(devices):
            devices[1] = devices[0]

        with pytest.raises(CoverageError, match="multiple directives"):
            _forge(da_plan, device_indices=duplicate).validate(tiny_fleet)

    @pytest.mark.parametrize("partial", [False, True])
    def test_uncovered_device(self, da_plan, tiny_fleet, partial):
        # The dropped device is still listed by its transmission: a
        # partial plan tolerates the gap, but not the disagreement.
        keep = np.arange(1, len(da_plan.directives))
        forged = replace(da_plan, directives=da_plan.directives.take(keep))
        with pytest.raises(CoverageError):
            forged.validate(tiny_fleet, partial=partial)

    def test_partial_plan_without_the_device_passes(self, da_plan, tiny_fleet):
        keep = np.arange(1, len(da_plan.directives))
        dropped = int(da_plan.directives.device_indices[0])
        tx = da_plan.transmissions[0]
        forged = replace(
            da_plan,
            directives=da_plan.directives.take(keep),
            transmissions=(
                replace(
                    tx,
                    device_indices=tuple(
                        i for i in tx.device_indices if i != dropped
                    ),
                ),
            ),
        )
        with pytest.raises(CoverageError, match="uncovered"):
            forged.validate(tiny_fleet)
        forged.validate(tiny_fleet, partial=True)

    def test_member_list_disagrees(self, tiny_fleet, context):
        plan = DrScMechanism().plan(tiny_fleet, context, np.random.default_rng(0))
        assert plan.n_transmissions >= 2

        def move(tx):
            tx[0] = (tx[0] + 1) % plan.n_transmissions

        with pytest.raises(CoverageError, match="disagree"):
            _forge(plan, transmission_indices=move).validate(tiny_fleet)

    def test_adapted_page_off_the_adapted_grid(self, da_plan, tiny_fleet):
        row = _row(da_plan, WakeMethod.DRX_ADAPTATION)

        def shift(page):
            page[row] += 1

        forged = _forge(da_plan, page_frames=shift, connect_frames=shift)
        with pytest.raises(PlanError, match="not on the adapted grid"):
            forged.validate(tiny_fleet)

    def test_adaptation_not_before_the_window(self, da_plan, tiny_fleet):
        row = _row(da_plan, WakeMethod.DRX_ADAPTATION)
        device = int(da_plan.directives.device_indices[row])
        schedule = tiny_fleet[device].schedule
        start = da_plan.transmissions[0].frame - da_plan.inactivity_timer_frames

        def into_window(adaptation):
            adaptation[row] = schedule.first_at_or_after(start)

        forged = _forge(da_plan, adaptation_page_frames=into_window)
        with pytest.raises(PlanError, match="not before the window start"):
            forged.validate(tiny_fleet)

    def test_t322_expiry_outside_the_window(self, dr_si_plan, tiny_fleet):
        row = _row(dr_si_plan, WakeMethod.EXTENDED_PAGE_TIMER)
        start = dr_si_plan.transmissions[0].frame - dr_si_plan.inactivity_timer_frames

        def too_early(connect):
            connect[row] = start - 1

        with pytest.raises(PlanError, match="T322 expiry .* outside window"):
            _forge(dr_si_plan, connect_frames=too_early).validate(tiny_fleet)

    def test_tampered_phase_column_is_rejected(self, tiny_fleet, context):
        """Validation re-derives PO grids from the identity columns, so a
        plan built against a corrupted phases column cannot pass."""
        arrays = tiny_fleet.arrays
        tampered = FleetArrays(
            **{
                name: (column + 1) % arrays.periods if name == "phases" else column
                for name, column in arrays.columns()
            }
        )
        fleet = Fleet.from_arrays(tampered)
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(0))
        with pytest.raises(PlanError, match="is not a PO"):
            plan.validate(fleet)
        DrScMechanism().plan(tiny_fleet, context).validate(tiny_fleet)


class TestDirectiveArrays:
    def test_views_round_trip(self, da_plan):
        views = list(da_plan.directives)
        assert DirectiveArrays.from_directives(views) == da_plan.directives
        assert da_plan.directives[-1] == views[-1]
        assert len(da_plan.directives) == len(views)

    def test_sequence_plans_equal_array_plans(self, da_plan):
        rebuilt = replace(da_plan, directives=tuple(da_plan.directives))
        assert isinstance(rebuilt.directives, DirectiveArrays)
        assert rebuilt == da_plan

    def test_columns_are_read_only(self, da_plan):
        with pytest.raises(ValueError):
            da_plan.directives.page_frames[0] = 0

    def test_directive_for_is_a_lookup(self, da_plan):
        for directive in da_plan.directives:
            assert da_plan.directive_for(directive.device_index) == directive
        with pytest.raises(PlanError):
            da_plan.directive_for(len(da_plan.directives))

    def test_column_checks_match_directive_checks(self):
        with pytest.raises(PlanError, match="before its page"):
            DirectiveArrays([0], [0], [METHOD_CODE[WakeMethod.PAGED_IN_WINDOW]], [10], [5])
        with pytest.raises(PlanError, match="adaptation"):
            DirectiveArrays([0], [0], [METHOD_CODE[WakeMethod.DRX_ADAPTATION]], [10], [10])
        with pytest.raises(PlanError, match="T322"):
            DirectiveArrays([0], [0], [METHOD_CODE[WakeMethod.EXTENDED_PAGE_TIMER]], [10], [10])
        with pytest.raises(PlanError, match="rows"):
            DirectiveArrays([0, 1], [0], [0, 0], [10, 10], [10, 10])
