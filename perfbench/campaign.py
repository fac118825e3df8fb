"""One workload process: set up, run campaigns in a closed loop, check.

``run.py`` starts this file in a fresh process per workload, so the
process's RSS high-water mark (and its workers') belongs to that
workload alone. The process prints JSON lines; the last one holds the
timestamp at which set-up finished, the check tallies and the metrics.

Usage (normally through ``run.py``)::

    PYTHONPATH=src python3 perfbench/campaign.py --workload NAME \\
        --seed N --seconds S --trace 0|1 [--expected FILE]
    PYTHONPATH=src python3 perfbench/campaign.py --workload NAME --probe
    PYTHONPATH=src python3 perfbench/campaign.py --workload NAME \\
        --record K   # re-pin campaigns 0..K-1 of the default seed

Every campaign is one ``run_scenario`` call of ``MC_RUNS`` Monte-Carlo
runs; the next starts only after the previous returned (a closed loop
with one caller). Campaign ``k`` uses the seed ``campaign_seed(seed, k)``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import reference_s, scale_to_nominal
from workloads import (
    DEFAULT_SEED,
    MC_RUNS,
    N_DEVICES,
    WORKLOADS,
    Workload,
    campaign_seed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
TRACE_DIR = ROOT / ".bench_traces"

#: Headline values pinned bit for bit at the default seed.
PINNED_EXTRA = ("largest_group", "delivered_fraction")

#: Cap on campaigns per run (the time budget normally ends it first);
#: below the stride of ``campaign_seed``, so runs never share a seed.
MAX_CAMPAIGNS = 200

MB = 1024.0 * 1024.0


class CheckFailed(Exception):
    """A campaign's outputs broke an invariant or a pinned value."""


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
class Setup:
    """Everything ``run_scenario`` needs, resolved once per process."""

    def __init__(self, workload: Workload) -> None:
        from repro.scenarios.registry import scenario
        from repro.scenarios.runner import HEADLINE_METRICS, run_scenario

        self.workload = workload
        self.spec = scenario(workload.scenario).with_overrides(
            n_devices=N_DEVICES, n_runs=MC_RUNS
        )
        self.run_scenario = run_scenario
        self.pinned = tuple(HEADLINE_METRICS) + PINNED_EXTRA
        self.lossless = self.spec.segment_loss_probability == 0.0

    def campaign(
        self, seed: int, backend: str, on_partial=None
    ) -> Tuple[Dict[str, float], float]:
        """Run one campaign; returns its per-metric means and wall time."""
        kwargs: Dict[str, Any] = {}
        if backend == "fused":
            kwargs = {"workers": self.workload.workers, "on_partial": on_partial}
        start = time.perf_counter()
        stats = self.run_scenario(self.spec, backend=backend, seed=seed, **kwargs)
        wall = time.perf_counter() - start
        return {name: stats[name].mean for name in sorted(stats)}, wall


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_expected(path: Path, workload: str) -> List[Dict[str, float]]:
    if not path.exists():
        return []
    return json.loads(path.read_text()).get(workload, [])


def check_plans(captured: List[tuple], full: bool) -> None:
    """Every device is in exactly one group; ``full`` runs ``validate``."""
    import numpy as np

    for fleet, plan in captured:
        members = [i for t in plan.transmissions for i in t.device_indices]
        counts = np.bincount(np.asarray(members, dtype=np.int64),
                             minlength=len(fleet))
        if counts.size != len(fleet) or not np.all(counts == 1):
            raise CheckFailed("a device is in no group or in several")
        if full:
            plan.validate(fleet)


def check_campaign(
    setup: Setup,
    metrics: Dict[str, float],
    captured: List[tuple],
    expected: Optional[Dict[str, float]],
    full: bool,
) -> None:
    """Raise :class:`CheckFailed` if the campaign's outputs are wrong."""
    for name in setup.pinned:
        if not math.isfinite(metrics[name]):
            raise CheckFailed(f"{name} is not finite: {metrics[name]!r}")
    if setup.lossless and metrics["delivered_fraction"] != 1.0:
        raise CheckFailed(
            f"lossless campaign delivered {metrics['delivered_fraction']!r}"
        )
    if captured:
        check_plans(captured, full)
        if metrics["transmissions"] != sum(p.n_transmissions for _, p in captured):
            raise CheckFailed("transmissions differ from the plans'")
        largest = max(len(t.device_indices) for _, p in captured
                      for t in p.transmissions)
        if metrics["largest_group"] != largest:
            raise CheckFailed("largest_group differs from the plans'")
    if expected is not None:
        for name in setup.pinned:
            if float.hex(metrics[name]) != float.hex(expected[name]):
                raise CheckFailed(
                    f"{name} = {metrics[name]!r}, pinned {expected[name]!r}"
                )


def check_equal(a: Dict[str, float], b: Dict[str, float], what: str) -> None:
    if a.keys() != b.keys() or any(
        float.hex(a[k]) != float.hex(b[k]) for k in a
    ):
        diff = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        raise CheckFailed(f"{what} differ in {diff}")


class Tally:
    """Attempted and failed campaigns; a failure is logged, not raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def attempt(self, label: str, fn: Callable[[], Any]) -> Any:
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed campaign is counted, the run goes on
            self.failed += 1
            print(f"campaign {label} failed:", file=sys.stderr)
            traceback.print_exc()
            return None


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------
def closed_loop(seconds: float, body: Callable[[int], Any]) -> int:
    """Call ``body(k)`` for k = 0, 1, ... while the next fits in time.

    At least one iteration runs; another starts only if the mean
    iteration so far predicts it ends within ``seconds``.
    """
    start = time.perf_counter()
    k = 0
    while k < MAX_CAMPAIGNS:
        body(k)
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > seconds:
            break
    return k


def untraced_campaign(
    setup: Setup,
    seed: int,
    k: int,
    expected: List[Dict[str, float]],
    backend: Optional[str] = None,
) -> Tuple[Dict[str, float], float]:
    """One checked campaign; plans are captured, then checked untimed.

    ``expected[k]``, if present, pins the campaign's headline values.
    Plans are captured only in-process: a fused worker would keep its
    own copy of every captured plan alive and inflate its peak RSS.
    """
    from spans import captured_plans

    captured: List[tuple] = []
    backend = backend or setup.workload.backend
    capture = (captured_plans(captured) if backend == "serial"
               else contextlib.nullcontext())
    with capture:
        metrics, wall = setup.campaign(campaign_seed(seed, k), backend)
    pinned = expected[k] if k < len(expected) else None
    check_campaign(setup, metrics, captured, pinned, full=(k == 0))
    return metrics, wall


def run_untraced(
    setup: Setup, seed: int, seconds: float, expected: List[Dict[str, float]]
) -> Tuple[Dict[str, Any], Tally, Dict[str, Any]]:
    tally = Tally()
    walls: List[float] = []
    brackets: List[Tuple[float, float]] = []
    first: List[Dict[str, float]] = []
    reference_s()  # warm-up
    refs = [reference_s()]

    def body(k: int) -> None:
        result = tally.attempt(
            f"#{k}",
            lambda: untraced_campaign(setup, seed, k, expected),
        )
        refs.append(reference_s())
        if result is not None:
            walls.append(result[1])
            brackets.append((refs[-2], refs[-1]))
            if k == 0:
                first.append(result[0])

    campaigns = closed_loop(seconds, body)
    usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if setup.workload.backend != "serial":
        # The fused result must equal a serial run of the same seed.
        def serial_equal() -> None:
            serial, _ = untraced_campaign(setup, seed, 0, [], "serial")
            if not first:
                raise CheckFailed("no fused campaign 0 to compare with")
            check_equal(first[0], serial, "fused and serial metrics")

        tally.attempt("serial-check", serial_equal)
    metrics: Dict[str, Any] = {
        "success_rate": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": max(usage) / 1024.0,
    }
    if walls:
        # Median over campaigns of the wall scaled to the nominal host
        # speed; the unscaled figures are kept in the info line.
        metrics["device_runs_per_s"] = N_DEVICES * MC_RUNS / statistics.median(
            scale_to_nominal(walls, brackets)
        )
    return metrics, tally, {
        "campaigns": campaigns,
        "campaign_walls_s": walls,
        "reference_s": refs,
        "unscaled_median_device_runs_per_s": (
            N_DEVICES * MC_RUNS / statistics.median(walls) if walls else None
        ),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
#: Per-layer metrics read from spans: (metric, span, statistic). A
#: statistic is "total" (summed duration), "self" (summed self time), a
#: counter key summed over the span's calls, or "peak" (largest
#: tracemalloc peak, MB).
SPAN_METRICS = (
    ("traffic.generate_s", "traffic.generate", "total"),
    ("setcover.intervals_s", "setcover.intervals", "total"),
    ("setcover.intervals", "setcover.intervals", "intervals"),
    ("setcover.sweep_build_s", "setcover.sweep_build", "self"),
    ("setcover.select_s", "setcover.select", "total"),
    ("setcover.selections", "setcover.select", "selections"),
    ("setcover.sweep_peak_mb", "setcover.sweep_build", "peak"),
    ("grouping.group_self_s", "grouping.group", "self"),
    ("core.plan_self_s", "core.plan", "self"),
    ("core.directives", "core.plan", "directives"),
    ("core.transmissions", "core.plan", "transmissions"),
    ("core.validate_s", "core.validate", "total"),
    ("sim.execute_s", "sim.execute", "total"),
    ("multicast.repair_s", "multicast.repair", "total"),
    ("multicast.repair_rounds", "multicast.repair", "rounds"),
    ("multicast.repair_draws", "multicast.repair", "draws"),
    ("multicast.repair_peak_mb", "multicast.repair", "peak"),
    ("multicast.partition_s", "multicast.partition", "total"),
)

#: Counts and tracemalloc peaks repeat exactly for one seed, so they are
#: reported from campaign 0; times are medians over campaigns.
EXACT_METRICS = frozenset(
    metric for metric, _, stat in SPAN_METRICS if stat not in ("total", "self")
)

DISPATCH_METRICS = (
    "dispatch.attach_s",
    "dispatch.cell_plan_s",
    "dispatch.cell_execute_s",
    "dispatch.tasks",
    "dispatch.first_partial_s",
    "dispatch.worker_busy_share",
    "dispatch.worker_peak_rss_mb",
)


def span_metrics(spans) -> Dict[str, float]:
    """The layer split of one traced campaign (root span ``campaign``)."""
    from spans import self_times

    own = self_times(spans)
    out: Dict[str, float] = {}
    for metric, name, stat in SPAN_METRICS:
        calls = [s for s in spans if s.name == name]
        if stat == "total":
            out[metric] = sum(s.duration for s in calls)
        elif stat == "self":
            out[metric] = sum(own[s.span_id] for s in calls)
        elif stat == "peak":
            out[metric] = max((s.peak_bytes for s in calls), default=0) / MB
        else:
            out[metric] = sum(s.counts.get(stat, 0) for s in calls)
    root = spans[0]
    out["trace.covered_share"] = 1.0 - own[root.span_id] / root.duration
    return out


class PartialClock:
    """Collects a fused campaign's streamed partials with arrival times."""

    def __init__(self) -> None:
        self.start = time.perf_counter()
        self.arrivals: List[Tuple[float, Any]] = []

    def __call__(self, partial) -> None:
        self.arrivals.append((time.perf_counter() - self.start, partial))

    def metrics(self, wall: float, workers: int) -> Dict[str, float]:
        subs = [p.value for _, p in self.arrivals if p.kind == "sub"]
        phase = {
            key: sum(s.phase_timings.get(key, 0.0) for s in subs)
            for key in ("attach_s", "plan_s", "execute_s")
        }
        return {
            "dispatch.attach_s": phase["attach_s"],
            "dispatch.cell_plan_s": phase["plan_s"],
            "dispatch.cell_execute_s": phase["execute_s"],
            "dispatch.tasks": float(len(self.arrivals)),
            "dispatch.first_partial_s": self.arrivals[0][0],
            "dispatch.worker_busy_share": sum(phase.values()) / (workers * wall),
            "dispatch.worker_peak_rss_mb": max(
                s.worker_rss_kb for s in subs
            ) / 1024.0,
        }


def run_traced(
    setup: Setup, seed: int, seconds: float, expected: List[Dict[str, float]]
) -> Tuple[Dict[str, Any], Tally, Dict[str, Any]]:
    """Pairs of untraced and traced serial campaigns of the same seed.

    The fused workload adds a fused campaign per pair for the dispatch
    split (its layers run in workers, out of the tracer's reach); its
    layer split comes from the traced serial run of the same seed.
    """
    from spans import Tracer, traced

    tally = Tally()
    fused = setup.workload.backend != "serial"
    splits: List[Dict[str, float]] = []
    dispatch: List[Dict[str, float]] = []
    overheads: List[float] = []
    trace_log: List[Dict[str, Any]] = []

    def pair(k: int) -> None:
        serial, wall_u = untraced_campaign(setup, seed, k, expected, "serial")
        tracer = Tracer()
        with traced(tracer), tracer.span("campaign"):
            metrics_t, wall_t = setup.campaign(campaign_seed(seed, k),
                                               "serial")
        check_equal(serial, metrics_t, "traced and untraced metrics")
        split = span_metrics(tracer.spans)
        splits.append(split)
        overheads.append(wall_t / wall_u - 1.0)
        entry: Dict[str, Any] = {
            "campaign": k,
            "seed": campaign_seed(seed, k),
            "untraced_wall_s": wall_u,
            "spans": [dataclasses.asdict(s) for s in tracer.spans],
        }
        if fused:
            clock = PartialClock()
            metrics_f, wall_f = setup.campaign(campaign_seed(seed, k),
                                               "fused", clock)
            check_equal(serial, metrics_f, "fused and serial metrics")
            dispatch.append(clock.metrics(wall_f, setup.workload.workers))
            entry["partials"] = [
                {"at_s": at, "kind": p.kind, "address": str(p.address),
                 "phase_timings": getattr(p.value, "phase_timings", None)}
                for at, p in clock.arrivals
            ]
        trace_log.append(entry)

    campaigns = closed_loop(
        seconds, lambda k: tally.attempt(f"pair #{k}", lambda: pair(k))
    )
    metrics: Dict[str, Any] = {}
    if splits:
        for key in splits[0]:
            metrics[key] = (splits[0][key] if key in EXACT_METRICS else
                            statistics.median(s[key] for s in splits))
        metrics["trace.overhead_share"] = statistics.median(overheads)
    if dispatch:
        for key in DISPATCH_METRICS:
            metrics[key] = statistics.median(d[key] for d in dispatch)
        metrics["dispatch.tasks"] = dispatch[0]["dispatch.tasks"]
        metrics["dispatch.worker_peak_rss_mb"] = max(
            d["dispatch.worker_peak_rss_mb"] for d in dispatch
        )
    else:
        metrics.update(dict.fromkeys(DISPATCH_METRICS, 0.0))
    return metrics, tally, {"campaigns": campaigns, "trace_log": trace_log}


# ----------------------------------------------------------------------
# Recording the pinned values
# ----------------------------------------------------------------------
def record(setup: Setup, name: str, count: int) -> None:
    """Pin the headline values of campaigns 0..count-1 of the default seed."""
    entries = []
    for k in range(count):
        metrics, _ = untraced_campaign(setup, DEFAULT_SEED, k, [])
        entries.append({m: metrics[m] for m in setup.pinned})
        print(f"recorded {name} campaign {k}", file=sys.stderr)
    pinned = (json.loads(EXPECTED_PATH.read_text())
              if EXPECTED_PATH.exists() else {})
    pinned[name] = entries
    EXPECTED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True)
                             + "\n")


# ----------------------------------------------------------------------
# Entry
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path, default=EXPECTED_PATH)
    parser.add_argument("--probe", action="store_true",
                        help="set up, report the ready time and exit")
    parser.add_argument("--record", type=int, metavar="K",
                        help="pin campaigns 0..K-1 of the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    setup = Setup(WORKLOADS[args.workload])
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0
    if args.record:
        record(setup, args.workload, args.record)
        return 0

    # Campaign values are pinned for the default seed only.
    expected = (load_expected(args.expected, args.workload)
                if args.seed == DEFAULT_SEED else [])
    run = run_traced if args.trace else run_untraced
    metrics, tally, details = run(setup, args.seed, args.seconds, expected)
    trace_log = details.pop("trace_log", None)
    campaigns = details.pop("campaigns")
    info = {
        "workload": args.workload,
        "scenario": setup.workload.scenario,
        "backend": setup.workload.backend,
        "workers": setup.workload.workers,
        "n_devices": N_DEVICES,
        "mc_runs": MC_RUNS,
        "seed": args.seed,
        "campaign_seeds": [campaign_seed(args.seed, k)
                           for k in range(campaigns)],
        "trace": args.trace,
        **details,
    }
    if trace_log is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        out = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"info": info, "campaigns": trace_log}))
        info["trace_file"] = str(out.relative_to(ROOT))
    print(json.dumps({
        "ready": ready,
        "info": info,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
