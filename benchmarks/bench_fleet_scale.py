"""A9 benchmark: columnar fleet fast path vs the per-device reference.

Times plan+execute (greedy TI-window cover + campaign execution) for
growing fleets through both implementations:

* **reference** — per-round full re-sweep cover plus the per-device
  executor loop (the equivalence oracles);
* **fast path** — incremental build-once sweep plus the columnar
  (vectorised, array-of-ledgers) executor.

Before timing means anything the two paths must agree: the bench
asserts identical cover selections (same windows, same assignments) and
per-device uptime totals within 1e-9. At 10^5 devices the fast path
must complete plan+execute at least 10x faster.

A second test runs the registered ``paper-baseline`` scenario at 10^5
devices through ``run_scenario`` in a fresh interpreter and gates its
memory: peak RSS below 600 MB and at most 4.0·10^6 sweep intervals (a
deterministic counter, not a wall time).

Results are persisted as ``BENCH_fleet_scale.json`` (see
``conftest.write_bench_artifact``). Tune with
``REPRO_BENCH_FLEET_SIZES=1000,10000,...`` — the >=10x assertion only
applies to sizes >= 100000, so CI can run a scaled-down sweep.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
from conftest import emit, write_bench_artifact

from repro.core import DrScMechanism
from repro.core.base import PlanningContext
from repro.devices.profiles import DeviceCategory
from repro.drx.cycles import DrxCycle
from repro.experiments.reporting import Table, render_table
from repro.sim.executor import CampaignExecutor
from repro.setcover.greedy import greedy_window_cover
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import CategoryProfile, TrafficMixture

#: Responsive fleet used for the scale sweep: minute-scale eDRX keeps
#: the sweep event list large enough to be a real workload while the
#: search horizon (2 x max cycle) stays bounded.
FLEET_SCALE_MIXTURE = TrafficMixture(
    "fleet-scale-bench",
    {
        DeviceCategory.GENERIC: CategoryProfile(
            weight=1.0,
            cycle_distribution={
                DrxCycle.from_seconds(81.92): 0.5,
                DrxCycle.from_seconds(163.84): 0.5,
            },
        ),
    },
)

#: Fleet sizes swept (override with REPRO_BENCH_FLEET_SIZES).
DEFAULT_SIZES = (1_000, 10_000, 100_000)

#: The acceptance bar: fast-path plan+execute speedup at this size+.
ASSERT_SPEEDUP_FROM = 100_000
MIN_SPEEDUP = 10.0


def _sizes() -> tuple:
    spec = os.environ.get("REPRO_BENCH_FLEET_SIZES")
    if not spec:
        return DEFAULT_SIZES
    return tuple(int(part) for part in spec.split(",") if part.strip())


def _uptime_totals(result) -> np.ndarray:
    """Per-device (light, connected, sleep) totals, sorted by device."""
    columnar = result.columnar
    if columnar is not None:
        from repro.energy.states import StateGroup

        ledgers = columnar.ledgers
        return np.stack(
            [
                ledgers.group_seconds(StateGroup.LIGHT_SLEEP),
                ledgers.group_seconds(StateGroup.CONNECTED),
                ledgers.group_seconds(StateGroup.SLEEP),
            ]
        )
    totals = [o.totals for o in result.outcomes]
    return np.array(
        [
            [t.light_sleep_s for t in totals],
            [t.connected_s for t in totals],
            [t.sleep_s for t in totals],
        ]
    )


def test_a9_fleet_scale_fast_path(capsys):
    context = PlanningContext(payload_bytes=1_000_000)
    ti = context.inactivity_timer_frames
    rows = []
    records = []
    for n_devices in _sizes():
        fleet = generate_fleet(
            n_devices, FLEET_SCALE_MIXTURE, np.random.default_rng(7)
        )
        horizon_end = 2 * int(fleet.max_cycle)
        plan = DrScMechanism().plan(fleet, context, np.random.default_rng(11))

        t0 = time.perf_counter()
        cover_ref = greedy_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13), method="reference",
        )
        result_ref = CampaignExecutor(columnar=False).execute(fleet, plan)
        ref_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        cover_fast = greedy_window_cover(
            fleet.phases, fleet.periods, ti, 0, horizon_end,
            np.random.default_rng(13), method="incremental",
        )
        result_fast = CampaignExecutor(columnar=True).execute(fleet, plan)
        fast_s = time.perf_counter() - t0

        # Equivalence gates the timing: identical cover selections...
        assert cover_ref.windows == cover_fast.windows
        for ref_members, fast_members in zip(
            cover_ref.assignments, cover_fast.assignments
        ):
            np.testing.assert_array_equal(ref_members, fast_members)
        # ...and per-device uptime totals within 1e-9.
        assert result_ref.horizon_frames == result_fast.horizon_frames
        np.testing.assert_allclose(
            _uptime_totals(result_fast), _uptime_totals(result_ref), atol=1e-9
        )

        speedup = ref_s / fast_s if fast_s > 0 else float("inf")
        rows.append(
            (
                str(n_devices),
                str(cover_fast.n_transmissions),
                f"{ref_s:.2f}s",
                f"{fast_s:.2f}s",
                f"{speedup:.1f}x",
            )
        )
        records.append(
            {
                "n_devices": n_devices,
                "n_transmissions": cover_fast.n_transmissions,
                "reference_s": ref_s,
                "fast_s": fast_s,
                "speedup": speedup,
            }
        )
        if n_devices >= ASSERT_SPEEDUP_FROM:
            assert speedup >= MIN_SPEEDUP, (
                f"fast path only {speedup:.1f}x at {n_devices} devices "
                f"(reference {ref_s:.2f}s, fast {fast_s:.2f}s)"
            )

    path = write_bench_artifact(
        "fleet_scale",
        {
            "benchmark": "a9_fleet_scale",
            "mixture": FLEET_SCALE_MIXTURE.name,
            "payload_bytes": 1_000_000,
            "results": records,
        },
    )
    emit(
        capsys,
        render_table(
            Table(
                title="A9 — plan+execute wall-clock: per-device reference vs columnar fast path",
                headers=("devices", "tx", "reference", "fast path", "speedup"),
                rows=tuple(rows),
                notes=(
                    "Cover selections and per-device uptime totals are "
                    "asserted identical before timing is reported; "
                    f"artifact written to {path}.",
                ),
            )
        ),
    )


#: Fleet size and gates of the registered paper-baseline memory run.
PAPER_BASELINE_DEVICES = 100_000
MAX_PEAK_RSS_MB = 600.0
MAX_SWEEP_INTERVALS = 4_000_000

#: Child program: one serial paper-baseline run, counting the intervals
#: the incremental sweep builds, then reporting its own peak RSS.
_PAPER_BASELINE_PROGRAM = textwrap.dedent(
    """
    import json, resource, sys, time
    import repro.setcover.incremental as incremental
    from repro.scenarios.registry import scenario
    from repro.scenarios.runner import run_scenario

    intervals = 0
    build = incremental.coverage_intervals

    def counting(*args, **kwargs):
        global intervals
        result = build(*args, **kwargs)
        intervals += int(result[0].size)
        return result

    incremental.coverage_intervals = counting
    spec = scenario("paper-baseline").with_overrides(
        n_devices=int(sys.argv[1]), n_runs=1
    )
    t0 = time.perf_counter()
    run_scenario(spec, seed=1)
    wall_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(
        {"wall_s": wall_s, "peak_rss_mb": peak_kb / 1024,
         "sweep_intervals": intervals}
    ))
    """
)


def test_paper_baseline_1e5_bounded_memory(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _PAPER_BASELINE_PROGRAM,
         str(PAPER_BASELINE_DEVICES)],
        capture_output=True, text=True, env=env, check=True,
    )
    record = json.loads(completed.stdout.strip().splitlines()[-1])
    record["n_devices"] = PAPER_BASELINE_DEVICES
    path = write_bench_artifact(
        "fleet_scale", {"paper_baseline_run_scenario": record}, merge=True
    )
    emit(
        capsys,
        f"paper-baseline run_scenario at {PAPER_BASELINE_DEVICES} devices: "
        f"{record['wall_s']:.1f}s, peak RSS {record['peak_rss_mb']:.0f} MB, "
        f"{record['sweep_intervals']} sweep intervals ({path})",
    )
    assert record["sweep_intervals"] <= MAX_SWEEP_INTERVALS
    assert record["peak_rss_mb"] < MAX_PEAK_RSS_MB
