"""Guard: the warm path never builds per-device objects.

Planning, validation and the columnar executor work on the fleet's and
the plan's columns. Any reintroduced per-device path — a
``FleetArrays.device_at`` view, a ``DeviceDirective`` built or viewed —
makes these runs fail deterministically, with no wall-time gate.
"""

import pytest

import repro.core.plan as plan_module
from repro.core.plan import DeviceDirective
from repro.devices.arrays import FleetArrays
from repro.scenarios import scenario, scenario_names
from repro.scenarios.runner import run_scenario


def _forbidden(*args, **kwargs):
    raise AssertionError("per-device object built on the warm path")


@pytest.fixture
def no_device_objects(monkeypatch):
    monkeypatch.setattr(FleetArrays, "device_at", _forbidden)
    monkeypatch.setattr(DeviceDirective, "__post_init__", _forbidden)
    monkeypatch.setattr(plan_module, "_view", _forbidden)


@pytest.mark.parametrize("name", scenario_names())
def test_run_scenario_is_columnar(name, no_device_objects):
    spec = scenario(name).with_overrides(n_devices=400)
    stats = run_scenario(spec, n_runs=1, seed=3)
    assert stats["transmissions"].mean >= 1
