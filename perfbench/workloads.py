"""The benchmark's workloads: registered scenarios at 3·10^4 devices.

Each workload runs a registered scenario with its own traffic mixture,
coverage mix and mechanism; only the fleet size (and the seed, passed to
``run_scenario``) is overridden. See ``README.md`` for why each one was
chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fleet size of every workload.
N_DEVICES = 30_000

#: Monte-Carlo runs per campaign (one ``run_scenario`` call).
MC_RUNS = 1

#: The seed whose campaigns are pinned bit for bit in ``expected.json``.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    scenario: str
    backend: str = "serial"
    workers: int = 1


WORKLOADS = {
    "paper-baseline-30k": Workload("paper-baseline"),
    "lossy-repair-30k": Workload("lossy-link-repair"),
    "tracker-swarm-30k": Workload("tracker-swarm"),
    "city-rollout-fused-30k": Workload("city-rollout", "fused", workers=2),
}


def campaign_seed(seed: int, index: int) -> int:
    """The ``run_scenario`` seed of campaign ``index`` of a benchmark run.

    Distinct benchmark seeds never share a campaign seed, so every run
    draws its own inputs.
    """
    return seed * 1000 + index
