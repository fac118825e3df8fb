"""Cover-equivalence properties: incremental sweep == reference == set cover.

The incremental greedy (:mod:`repro.setcover.incremental`) must pick
*identical* windows to the reference per-round re-sweep — same starts,
same assignments, same tie-break draws for any given RNG stream — on
randomized fleets up to 10^4 devices, including fleets where many
devices share one ``(phase, period)`` bucket. On small fleets the window greedy
is additionally cross-checked against the generic
:func:`~repro.setcover.greedy.greedy_set_cover` over the explicit set
system of candidate window starts (both break ties earliest-first, so
their per-round covered sets must coincide exactly).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.setcover.greedy import greedy_set_cover, greedy_window_cover
from repro.setcover.windows import coverage_intervals

PERIOD_CHOICES = (2048, 4096, 8192, 16384)
#: Short DRX cycles (dense PO trains, below the longest windows) mixed
#: with eDRX cycles.
MIXED_PERIOD_CHOICES = (128, 256, 1024, 2048, 16384, 65536)


def _random_fleet(rng: np.random.Generator, n: int):
    periods = rng.choice(PERIOD_CHOICES, size=n)
    phases = rng.integers(0, periods)
    return phases.astype(np.int64), periods.astype(np.int64)


def _assert_identical_covers(a, b):
    assert a.windows == b.windows
    assert len(a.assignments) == len(b.assignments)
    for members_a, members_b in zip(a.assignments, b.assignments):
        np.testing.assert_array_equal(members_a, members_b)


@st.composite
def fleets(draw, max_devices=30):
    n = draw(st.integers(min_value=1, max_value=max_devices))
    periods = draw(
        st.lists(st.sampled_from(PERIOD_CHOICES), min_size=n, max_size=n)
    )
    phases = [draw(st.integers(min_value=0, max_value=p - 1)) for p in periods]
    return np.array(phases, dtype=np.int64), np.array(periods, dtype=np.int64)


@st.composite
def duplicated_fleets(draw, max_buckets=4, max_devices=60):
    """Fleets drawn from a handful of (phase, period) pairs, so most
    devices share their PO train with others."""
    n_buckets = draw(st.integers(min_value=1, max_value=max_buckets))
    periods = draw(
        st.lists(
            st.sampled_from(MIXED_PERIOD_CHOICES),
            min_size=n_buckets, max_size=n_buckets,
        )
    )
    phases = [draw(st.integers(min_value=0, max_value=p - 1)) for p in periods]
    members = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_buckets - 1),
            min_size=1, max_size=max_devices,
        )
    )
    members = np.array(members)
    return (
        np.array(phases, dtype=np.int64)[members],
        np.array(periods, dtype=np.int64)[members],
    )


def _assert_sorted_fleet_indices(cover, n):
    for members in cover.assignments:
        assert members.dtype == np.int64
        assert np.all(np.diff(members) > 0)
    every = np.concatenate(cover.assignments)
    np.testing.assert_array_equal(np.sort(every), np.arange(n))


class TestIncrementalMatchesReference:
    @given(fleets(), st.integers(min_value=10, max_value=2048))
    @settings(max_examples=60, deadline=None)
    def test_small_fleets_no_rng(self, fleet, window_len):
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        ref = greedy_window_cover(
            phases, periods, window_len, 0, horizon, method="reference"
        )
        inc = greedy_window_cover(
            phases, periods, window_len, 0, horizon, method="incremental"
        )
        _assert_identical_covers(ref, inc)

    @given(fleets(), st.integers(min_value=10, max_value=2048), st.integers(0, 2**31))
    @settings(max_examples=60, deadline=None)
    def test_small_fleets_with_rng(self, fleet, window_len, seed):
        """Identical tie-break *draws*: both paths consume one RNG stream
        the same way, so seeding two generators alike must yield the
        same (possibly random) selections."""
        phases, periods = fleet
        horizon = 2 * int(periods.max())
        ref = greedy_window_cover(
            phases, periods, window_len, 0, horizon,
            np.random.default_rng(seed), method="reference",
        )
        inc = greedy_window_cover(
            phases, periods, window_len, 0, horizon,
            np.random.default_rng(seed), method="incremental",
        )
        _assert_identical_covers(ref, inc)

    @given(
        duplicated_fleets(),
        st.integers(min_value=10, max_value=2048),
        st.one_of(st.none(), st.integers(0, 2**31)),
    )
    @settings(max_examples=80, deadline=None)
    def test_duplicated_buckets(self, fleet, window_len, seed):
        """Heavy (phase, period) duplication over short and eDRX cycles:
        bucketed selections equal the per-device reference."""
        phases, periods = fleet
        horizon = max(2 * int(periods.max()), window_len)
        covers = [
            greedy_window_cover(
                phases, periods, window_len, 0, horizon,
                None if seed is None else np.random.default_rng(seed),
                method=method,
            )
            for method in ("reference", "incremental")
        ]
        _assert_identical_covers(*covers)
        _assert_sorted_fleet_indices(covers[1], phases.size)

    @pytest.mark.parametrize("seed", [None, 5])
    @pytest.mark.parametrize("period", [256, 16384])
    def test_single_bucket_fleet(self, seed, period):
        """Every device shares one PO train: one window covers them all."""
        phases = np.full(500, period // 3, dtype=np.int64)
        periods = np.full(500, period, dtype=np.int64)
        covers = [
            greedy_window_cover(
                phases, periods, 512, 0, 2 * period,
                None if seed is None else np.random.default_rng(seed),
                method=method,
            )
            for method in ("reference", "incremental")
        ]
        _assert_identical_covers(*covers)
        assert covers[1].n_transmissions == 1
        _assert_sorted_fleet_indices(covers[1], 500)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_devices", [1_000, 10_000])
    def test_large_fleets(self, seed, n_devices):
        """Randomized fleets up to 10^4 devices, with and without rng."""
        rng = np.random.default_rng(seed)
        phases, periods = _random_fleet(rng, n_devices)
        window_len = int(rng.integers(16, 2048))
        horizon = 2 * int(periods.max())
        for tie_rng in (None, seed + 100):
            ref = greedy_window_cover(
                phases, periods, window_len, 0, horizon,
                None if tie_rng is None else np.random.default_rng(tie_rng),
                method="reference",
            )
            inc = greedy_window_cover(
                phases, periods, window_len, 0, horizon,
                None if tie_rng is None else np.random.default_rng(tie_rng),
                method="incremental",
            )
            _assert_identical_covers(ref, inc)


class TestWindowCoverMatchesSetCover:
    @pytest.mark.parametrize("seed", range(6))
    def test_same_greedy_partition(self, seed):
        """Deterministic window greedy == generic greedy over the
        explicit set system of candidate window starts.

        Candidate starts are the covering-interval start positions in
        ascending order; both algorithms break ties earliest/lowest
        first, so every round must cover the same device set.
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 50))
        phases, periods = _random_fleet(rng, n)
        window_len = int(rng.integers(16, 1024))
        horizon = 2 * int(periods.max())

        starts, ends, owners = coverage_intervals(
            phases, periods, window_len, 0, horizon
        )
        candidates = np.unique(starts)
        sets = [
            frozenset(owners[(starts <= s) & (s < ends)].tolist())
            for s in candidates
        ]
        universe = set(range(n))
        chosen = greedy_set_cover(universe, sets)

        cover = greedy_window_cover(
            phases, periods, window_len, 0, horizon, method="incremental"
        )
        assert len(chosen) == cover.n_transmissions
        uncovered = set(universe)
        for set_index, members in zip(chosen, cover.assignments):
            newly = sets[set_index] & uncovered
            assert newly == set(members.tolist())
            uncovered -= newly
        assert not uncovered
