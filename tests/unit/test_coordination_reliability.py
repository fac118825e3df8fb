"""Unit tests for multi-cell coordination and the reliability model."""

import numpy as np
import pytest

from repro.core import DaScMechanism, DrScMechanism
from repro.core.base import PlanningContext
from repro.errors import ConfigurationError, FleetError
from repro.multicast.coordination import (
    CoordinationEntity,
    MultiCellSpec,
    attach_devices,
    partition_fleet,
    partition_indices,
)
from repro.multicast.payload import FirmwareImage
import repro.multicast.reliability as reliability
from repro.multicast.reliability import (
    RepairOutcome,
    ReliabilityConfig,
    expected_rounds,
    simulate_repair_rounds,
)
from repro.traffic.generator import generate_fleet
from repro.traffic.mixtures import MODERATE_EDRX_MIXTURE


class TestPartition:
    def test_partition_preserves_devices(self, rng):
        fleet = generate_fleet(40, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 4, rng)
        assert sum(len(f) for f in cells.values()) == 40
        imsis = {
            d.identity.imsi for f in cells.values() for d in f
        }
        assert len(imsis) == 40

    def test_single_cell_partition(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 1, rng)
        assert list(cells) == [0]
        assert len(cells[0]) == 10

    def test_invalid_cells(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        with pytest.raises(ConfigurationError):
            partition_fleet(fleet, 0, rng)

    def test_vectorised_matches_reference_indices(self, rng):
        attachments = attach_devices(500, MultiCellSpec(n_cells=9), rng)
        reference = partition_indices(attachments, 9, method="reference")
        fast = partition_indices(attachments, 9, method="vectorised")
        assert set(reference) == set(fast)
        for cell_id in reference:
            np.testing.assert_array_equal(reference[cell_id], fast[cell_id])

    def test_vectorised_matches_reference_fleets(self, rng):
        fleet = generate_fleet(60, MODERATE_EDRX_MIXTURE, rng)
        reference = partition_fleet(
            fleet, 5, np.random.default_rng(3), method="reference"
        )
        fast = partition_fleet(
            fleet, 5, np.random.default_rng(3), method="vectorised"
        )
        assert set(reference) == set(fast)
        for cell_id in reference:
            assert reference[cell_id].devices == fast[cell_id].devices

    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            partition_indices(np.zeros(4, dtype=np.int64), 2, method="magic")

    def test_weighted_attachment_skews_load(self, rng):
        fleet = generate_fleet(400, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(
            fleet, 2, rng, weights=(0.9, 0.1)
        )
        assert sum(len(f) for f in cells.values()) == 400
        assert len(cells[0]) > 3 * len(cells[1])

    def test_weight_validation(self):
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=2, weights=(0.9, 0.2))  # sums to 1.1
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=3, weights=(0.5, 0.5))  # wrong length
        with pytest.raises(ConfigurationError):
            MultiCellSpec(n_cells=0)
        assert not MultiCellSpec().is_multi_cell
        assert MultiCellSpec(n_cells=2).is_multi_cell

    def test_subset_preserves_columnar_views(self, rng):
        fleet = generate_fleet(50, MODERATE_EDRX_MIXTURE, rng)
        indices = [4, 7, 23, 41]
        sub = fleet.subset(indices)
        rebuilt = type(fleet)([fleet[i] for i in indices])
        np.testing.assert_array_equal(sub.phases, rebuilt.phases)
        np.testing.assert_array_equal(sub.periods, rebuilt.periods)
        np.testing.assert_array_equal(sub.ue_ids, rebuilt.ue_ids)
        np.testing.assert_array_equal(sub.coverage_codes, rebuilt.coverage_codes)
        np.testing.assert_array_equal(
            sub.downlink_rates_bps, rebuilt.downlink_rates_bps
        )
        np.testing.assert_array_equal(sub.nb_numerators, rebuilt.nb_numerators)
        np.testing.assert_array_equal(
            sub.nb_denominators, rebuilt.nb_denominators
        )

    def test_subset_rejects_empty_and_duplicates(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        with pytest.raises(FleetError):
            fleet.subset([])
        with pytest.raises(FleetError):
            fleet.subset([1, 1])


class TestCoordination:
    def test_dasc_one_transmission_per_cell(self, rng):
        fleet = generate_fleet(40, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 3, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        report = CoordinationEntity(DaScMechanism()).rollout(
            cells, image, context, rng
        )
        assert report.total_devices == 40
        assert report.total_transmissions == report.n_cells
        assert report.total_energy_mj > 0
        assert report.campaign_duration_s > 0

    def test_drsc_transmissions_sum_over_cells(self, rng):
        fleet = generate_fleet(30, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 2, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        report = CoordinationEntity(DrScMechanism()).rollout(
            cells, image, context, rng
        )
        assert report.total_transmissions == sum(
            c.plan.n_transmissions for c in report.campaigns
        )
        assert report.total_transmissions >= report.n_cells

    def test_payload_mismatch_rejected(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 2, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=999)
        with pytest.raises(ConfigurationError):
            CoordinationEntity(DaScMechanism()).rollout(
                cells, image, context, rng
            )

    def test_empty_cells_rejected(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        with pytest.raises(ConfigurationError):
            CoordinationEntity(DaScMechanism()).rollout({}, image, context, rng)

    def test_seeded_serial_rollout_reproducible(self, rng):
        fleet = generate_fleet(40, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 3, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        entity = CoordinationEntity(DrScMechanism())
        first = entity.rollout(cells, image, context, seed=99)
        second = entity.rollout(cells, image, context, seed=99)
        for a, b in zip(first.campaigns, second.campaigns):
            assert a.plan.transmissions == b.plan.transmissions
            assert a.result.fleet == b.result.fleet

    def test_rollout_rejects_bad_randomness_combinations(self, rng):
        fleet = generate_fleet(10, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 2, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        entity = CoordinationEntity(DrScMechanism())
        with pytest.raises(ConfigurationError):
            entity.rollout(cells, image, context, rng, seed=1)
        with pytest.raises(ConfigurationError):
            entity.rollout(cells, image, context, rng, backend="process")
        with pytest.raises(ConfigurationError):
            entity.rollout(cells, image, context, seed=1, backend="thread")

    def test_report_aggregates(self, rng):
        fleet = generate_fleet(30, MODERATE_EDRX_MIXTURE, rng)
        cells = partition_fleet(fleet, 3, rng)
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        context = PlanningContext(payload_bytes=image.size_bytes)
        report = CoordinationEntity(DrScMechanism()).rollout(
            cells, image, context, seed=5
        )
        assert report.total_devices == 30
        per_cell_means = [
            (c.result.mean_wait_s, c.fleet_size) for c in report.campaigns
        ]
        expected = sum(m * n for m, n in per_cell_means) / 30
        assert report.mean_wait_s == pytest.approx(expected)
        assert report.largest_group == max(
            t.group_size for c in report.campaigns for t in c.plan.transmissions
        )
        assert report.total_light_sleep_s > 0
        assert report.total_connected_s > 0
        assert report.campaign_duration_s > 0


class TestReliability:
    def test_lossless_needs_one_round(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=10_000)
        config = ReliabilityConfig(segment_loss_probability=0.0)
        outcome = simulate_repair_rounds(image, 50, config, rng)
        assert outcome.rounds == 1
        assert outcome.devices_complete == 50
        assert outcome.residual_missing == 0
        assert outcome.airtime_overhead_fraction == pytest.approx(0.0)

    def test_lossy_needs_repairs_but_converges(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=50_000)
        config = ReliabilityConfig(segment_loss_probability=0.05)
        outcome = simulate_repair_rounds(image, 100, config, rng)
        assert outcome.rounds > 1
        assert outcome.devices_complete == 100
        assert outcome.residual_missing == 0

    def test_repair_overhead_independent_of_fleet_size(self, rng):
        """The headline property: multicast repair overhead is a small
        multiple of the payload bounded by the round count — NOT a
        resend per lossy device (which would be ~200x here)."""
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(segment_loss_probability=0.02)
        outcome = simulate_repair_rounds(image, 200, config, rng)
        assert outcome.airtime_overhead_fraction < outcome.rounds
        assert outcome.airtime_overhead_fraction < 3.0

    def test_base_segments_survives_replace_and_pickle(self, rng):
        # base_segments used to be smuggled past the frozen dataclass
        # with object.__setattr__, so dataclasses.replace and pickling
        # (round-tripped by the process-pool backend) silently reset it.
        import dataclasses
        import pickle

        image = FirmwareImage(name="fw", version="1", size_bytes=10_000)
        config = ReliabilityConfig(segment_loss_probability=0.05)
        outcome = simulate_repair_rounds(image, 20, config, rng)
        assert outcome.base_segments == image.segment_count(config.segment_bytes)

        replaced = dataclasses.replace(outcome, rounds=outcome.rounds + 1)
        assert replaced.base_segments == outcome.base_segments

        unpickled = pickle.loads(pickle.dumps(outcome))
        assert unpickled == outcome
        assert unpickled.airtime_overhead_fraction == pytest.approx(
            outcome.airtime_overhead_fraction
        )

    def test_overhead_grows_sublinearly_with_devices(self):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(segment_loss_probability=0.02)
        small = simulate_repair_rounds(
            image, 10, config, np.random.default_rng(1)
        )
        large = simulate_repair_rounds(
            image, 400, config, np.random.default_rng(1)
        )
        # 40x the devices costs far less than 40x the airtime.
        assert (
            large.segments_sent < 4 * small.segments_sent
        ), "union-NACK repair must not scale with fleet size"

    def test_rounds_track_analytic_estimate(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        loss = 0.05
        config = ReliabilityConfig(segment_loss_probability=loss)
        n_segments = image.segment_count(config.segment_bytes)
        predicted = expected_rounds(100, n_segments, loss)
        outcomes = [
            simulate_repair_rounds(image, 100, config, np.random.default_rng(s))
            for s in range(3)
        ]
        mean_rounds = np.mean([o.rounds for o in outcomes])
        assert 0.5 <= mean_rounds / predicted <= 2.0

    def test_max_rounds_cap(self, rng):
        image = FirmwareImage(name="fw", version="1", size_bytes=100_000)
        config = ReliabilityConfig(
            segment_loss_probability=0.6, max_rounds=2
        )
        outcome = simulate_repair_rounds(image, 50, config, rng)
        assert outcome.rounds == 2
        assert outcome.residual_missing > 0

    def test_validation(self, rng):
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(segment_loss_probability=1.0)
        with pytest.raises(ConfigurationError):
            ReliabilityConfig(max_rounds=0)
        image = FirmwareImage(name="fw", version="1", size_bytes=100)
        with pytest.raises(ConfigurationError):
            simulate_repair_rounds(image, 0, ReliabilityConfig(), rng)
        with pytest.raises(ConfigurationError):
            expected_rounds(10, 10, 1.5)


def _one_shot_repair(image, n_devices, config, rng):
    """Repair rounds with one ``(n_devices, n_segments)`` draw per round:
    the unblocked loop the production code must reproduce bit for bit."""
    n_segments = image.segment_count(config.segment_bytes)
    missing = np.ones((n_devices, n_segments), dtype=bool)
    to_send = np.ones(n_segments, dtype=bool)
    segments_sent = 0
    per_round, missing_per_round = [], []
    rounds = 0
    while to_send.any() and rounds < config.max_rounds:
        rounds += 1
        per_round.append(int(to_send.sum()))
        segments_sent += int(to_send.sum())
        receive = rng.random((n_devices, n_segments)) >= (
            config.segment_loss_probability
        )
        missing &= ~(to_send[None, :] & receive)
        missing_per_round.append(int(missing.sum()))
        to_send = missing.any(axis=0)
    return RepairOutcome(
        rounds=rounds,
        segments_sent=segments_sent,
        devices_complete=int((~missing.any(axis=1)).sum()),
        residual_missing=int(missing.sum()),
        base_segments=n_segments,
        segments_per_round=tuple(per_round),
        missing_per_round=tuple(missing_per_round),
    )


class TestBlockedRepairDraws:
    """Row-blocked loss draws equal one full-matrix draw per round."""

    @pytest.mark.parametrize("loss", [0.0, 0.15, 0.9])
    @pytest.mark.parametrize(
        "n_devices, size_bytes, block_elements",
        [
            (37, 1_000, 64),  # 10 segments, 6-row blocks: ragged tail
            (5, 1_000, 32),  # 3-row blocks; few devices, so some
            # segments draw no NACK and rounds resend a strict subset
            (5, 5_000, 16),  # 50 segments > block: one row per block
            (300, 100_000, 1 << 18),  # production block size
        ],
    )
    @pytest.mark.parametrize("max_rounds", [1, 2, 10])
    def test_matches_one_shot_draws(
        self, monkeypatch, loss, n_devices, size_bytes, block_elements,
        max_rounds,
    ):
        monkeypatch.setattr(
            reliability, "REPAIR_BLOCK_ELEMENTS", block_elements
        )
        image = FirmwareImage(name="fw", version="1", size_bytes=size_bytes)
        config = ReliabilityConfig(
            segment_bytes=100,
            segment_loss_probability=loss,
            max_rounds=max_rounds,
        )
        blocked_rng = np.random.default_rng(11)
        one_shot_rng = np.random.default_rng(11)
        blocked = simulate_repair_rounds(image, n_devices, config, blocked_rng)
        one_shot = _one_shot_repair(image, n_devices, config, one_shot_rng)
        assert blocked == one_shot
        assert (
            blocked_rng.bit_generator.state
            == one_shot_rng.bit_generator.state
        )

    def test_max_rounds_cutoff_leaves_residual(self, monkeypatch):
        monkeypatch.setattr(reliability, "REPAIR_BLOCK_ELEMENTS", 64)
        image = FirmwareImage(name="fw", version="1", size_bytes=1_000)
        config = ReliabilityConfig(
            segment_bytes=100, segment_loss_probability=0.9, max_rounds=2
        )
        outcome = simulate_repair_rounds(
            image, 37, config, np.random.default_rng(3)
        )
        assert outcome.rounds == 2
        assert outcome.residual_missing > 0
        assert outcome.missing_per_round[-1] == outcome.residual_missing
