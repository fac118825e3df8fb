"""Admission helpers of the live service: per-window directive columns.

The service groups a plan's directive rows by transmission once per
admission pass; the per-window page list and deferral cap must equal a
direct scan of every directive for that window.
"""

import numpy as np
import pytest

from repro.core import DaScMechanism, DrScMechanism
from repro.core.plan import WakeMethod
from repro.grouping import grouping_policy_by_name
from repro.service.service import _max_shift, _rows_by_window, _window_pages


def _scan_max_shift(plan, tx):
    window_start = tx.frame - plan.inactivity_timer_frames
    caps = [
        d.connect_frame - window_start
        for d in plan.directives
        if d.transmission_index == tx.index
    ]
    return max(0, min(caps)) if caps else 0


def _scan_window_pages(fleet, plan, tx):
    pages = []
    for d in plan.directives:
        if d.transmission_index != tx.index:
            continue
        subframe = fleet[d.device_index].pattern.subframe
        pages.append((d.page_frame, subframe))
        if d.method is WakeMethod.DRX_ADAPTATION:
            pages.append((d.adaptation_page_frame, subframe))
    return pages


@pytest.mark.parametrize(
    "mechanism",
    [DrScMechanism(), DaScMechanism(policy=grouping_policy_by_name("greedy-cover"))],
    ids=["dr-sc", "da-sc-greedy"],
)
def test_window_columns_match_a_full_scan(mechanism, small_fleet, context):
    plan = mechanism.plan(small_fleet, context, np.random.default_rng(3))
    assert plan.n_transmissions > 1
    rows = _rows_by_window(plan)
    assert sorted(np.concatenate(rows).tolist()) == list(range(len(small_fleet)))
    for tx in plan.transmissions:
        assert _max_shift(plan, tx, rows[tx.index]) == _scan_max_shift(plan, tx)
        assert _window_pages(
            small_fleet, plan.directives, rows[tx.index]
        ) == _scan_window_pages(small_fleet, plan, tx)


def test_max_shift_caps_each_window_at_its_earliest_connect(small_fleet, context):
    plan = DrScMechanism().plan(small_fleet, context, np.random.default_rng(3))
    rows = _rows_by_window(plan)
    shifts = [_max_shift(plan, tx, rows[tx.index]) for tx in plan.transmissions]
    assert len(set(shifts)) > 1  # windows differ
    for tx, shift in zip(plan.transmissions, shifts):
        connects = plan.directives.connect_frames[rows[tx.index]]
        window_start = tx.frame - plan.inactivity_timer_frames
        assert shift == max(0, int(connects.min()) - window_start)
        assert 0 <= shift <= plan.inactivity_timer_frames
    assert _max_shift(plan, plan.transmissions[0], np.empty(0, np.int64)) == 0
