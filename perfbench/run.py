"""The repository benchmark: one workload, one seed, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload paper-baseline-30k --seed 1 \\
        --seconds 45 --trace 0

Workloads are listed in ``perfbench/workloads.py`` and explained in
``perfbench/README.md``. The run starts fresh processes only:

1. ``N_PROBES`` set-up probes, each a new interpreter that imports the
   program and resolves the workload's scenario, then exits. Set-up
   time is measured from process launch to that point and scaled to the
   nominal host speed (``hostspeed.py``); ``setup_s`` is the median.
2. One measured process (``campaign.py``) that runs campaigns in a
   closed loop for ``--seconds`` and checks their outputs.

The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the workload,
seed, fleet size, Monte-Carlo runs and worker count. Numeric libraries
are pinned to one thread in every process, so the cores go only to the
scheduler and its workers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import reference_s, scale_to_nominal  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: Set-up probes per run.
N_PROBES = 7

#: Whole-run time limit; the measured process gets what is left.
RUN_LIMIT_S = 170.0

PINNED_THREADS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

UNITS = {
    "device_runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


def launch(args: List[str], timeout: float) -> Dict[str, Any]:
    """Run ``campaign.py`` with ``args``; returns its last JSON line.

    The child leads its own process group, so on timeout its workers
    are killed with it.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "campaign.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args[:2]}: timed out after {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"campaign.py {' '.join(args)}: exit {proc.returncode}")
    lines = out.decode().strip().splitlines()
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expected", type=Path,
                        help="pinned values to check against "
                        "(default: perfbench/expected.json)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    reference_s()  # warm-up
    refs = [reference_s()]
    setups = []
    for _ in range(N_PROBES):
        setups.append(
            launch(["--workload", args.workload, "--probe"], 60.0)["setup_s"]
        )
        refs.append(reference_s())
    measured = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.expected is not None:
        measured += ["--expected", str(args.expected.resolve())]
    result = launch(measured, deadline - time.monotonic())

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(
            scale_to_nominal(setups, list(zip(refs, refs[1:])))
        )
    info = dict(result["info"], setup_samples_s=setups,
                setup_reference_s=refs,
                measured_process_setup_s=result["setup_s"])
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
