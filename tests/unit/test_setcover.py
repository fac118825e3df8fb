"""Unit tests for the window sweep, greedy cover and exact solver."""

import numpy as np
import pytest

from repro.errors import SetCoverError
from repro.setcover.exact import exact_min_set_cover, exact_min_window_cover
import repro.setcover.incremental as incremental
from repro.setcover.greedy import greedy_set_cover, greedy_window_cover
from repro.setcover.incremental import IncrementalSweep
from repro.setcover.windows import best_window, coverage_intervals


class TestCoverageIntervals:
    def test_single_device_single_po(self):
        starts, ends, owners = coverage_intervals(
            np.array([50]), np.array([1000]), window_len=10,
            horizon_start=0, horizon_end=1000,
        )
        # Window starts covering PO at frame 50: s in [41, 50].
        assert list(starts) == [41]
        assert list(ends) == [51]
        assert list(owners) == [0]

    def test_dense_device_merges_intervals(self):
        """A device with period < window length yields one merged interval
        (it is covered by every window in between)."""
        starts, ends, owners = coverage_intervals(
            np.array([5]), np.array([10]), window_len=50,
            horizon_start=0, horizon_end=200,
        )
        assert len(starts) == 1
        assert owners[0] == 0

    def test_horizon_shorter_than_window_rejected(self):
        with pytest.raises(SetCoverError):
            coverage_intervals(np.array([0]), np.array([10]), 100, 0, 50)


class TestBestWindow:
    def test_finds_clustered_pos(self):
        # Devices 0,1,2 have POs at 100,105,110; device 3 at 500.
        phases = np.array([100, 105, 110, 500])
        periods = np.array([1000, 1000, 1000, 1000])
        found = best_window(phases, periods, 20, 0, 2000)
        assert set(found.covered) == {0, 1, 2}
        assert found.transmission_frame >= 110

    def test_transmission_at_window_last_frame(self):
        phases = np.array([100])
        periods = np.array([1000])
        found = best_window(phases, periods, 20, 0, 2000)
        assert found.transmission_frame == found.start + 19

    def test_tie_break_random_but_seeded(self):
        phases = np.array([100, 700])
        periods = np.array([1000, 1000])
        picks = set()
        for seed in range(10):
            rng = np.random.default_rng(seed)
            found = best_window(phases, periods, 20, 0, 1000, rng)
            picks.add(int(found.covered[0]))
        # Both single-device windows are optimal; random tie-breaking
        # should occasionally pick each.
        assert picks == {0, 1}

    def test_deterministic_without_rng(self):
        phases = np.array([100, 700])
        periods = np.array([1000, 1000])
        a = best_window(phases, periods, 20, 0, 1000)
        b = best_window(phases, periods, 20, 0, 1000)
        assert a.start == b.start

    def test_no_pos_in_horizon_raises(self):
        with pytest.raises(SetCoverError):
            best_window(np.array([900]), np.array([1000]), 10, 0, 500)


class TestGreedyWindowCover:
    def test_covers_every_device_exactly_once(self, rng):
        phases = rng.integers(0, 2048, size=40)
        periods = np.full(40, 2048)
        cover = greedy_window_cover(phases, periods, 100, 0, 4096, rng)
        covered = np.concatenate(cover.assignments)
        assert sorted(covered) == list(range(40))

    def test_synchronised_devices_need_one_window(self, rng):
        phases = np.full(10, 77)
        periods = np.full(10, 2048)
        cover = greedy_window_cover(phases, periods, 100, 0, 4096, rng)
        assert cover.n_transmissions == 1
        assert cover.group_sizes == (10,)

    def test_disjoint_devices_need_n_windows(self, rng):
        phases = np.array([0, 500, 1000, 1500])
        periods = np.full(4, 2048)
        cover = greedy_window_cover(phases, periods, 10, 0, 4096, rng)
        assert cover.n_transmissions == 4

    def test_transmission_frames_are_window_last_frames(self, rng):
        phases = np.array([0, 500])
        periods = np.full(2, 2048)
        cover = greedy_window_cover(phases, periods, 10, 0, 4096, rng)
        for window, frame in zip(cover.windows, cover.transmission_frames):
            assert frame == window.last_frame

    def test_short_horizon_rejected(self, rng):
        with pytest.raises(SetCoverError):
            greedy_window_cover(np.array([0]), np.array([2048]), 10, 0, 2048, rng)


class TestIncrementalSweep:
    def test_buckets_share_one_interval_train(self):
        # Three distinct (phase, period) pairs among eight devices.
        phases = np.array([5, 900, 5, 5, 900, 5, 40, 900])
        periods = np.array([2048, 2048, 2048, 2048, 2048, 2048, 4096, 2048])
        sweep = IncrementalSweep(phases, periods, 100, 0, 8192)
        _, _, owners = coverage_intervals(phases, periods, 100, 0, 8192)
        assert sweep._int_starts.size < owners.size
        assert sweep.remaining == 8
        start, covered = sweep.select()
        # Phases 5 and 40 fall in one 100-frame window.
        np.testing.assert_array_equal(covered, [0, 2, 3, 5, 6])
        assert covered.dtype == np.int64
        assert sweep.remaining == 3

    def test_forged_inconsistency_raises(self):
        phases = np.array([5, 900, 5])
        periods = np.full(3, 2048)
        sweep = IncrementalSweep(phases, periods, 100, 0, 4096)
        # Forge the interval table so no bucket is stabbed where the
        # running count sees devices.
        sweep._int_ends = sweep._int_starts.copy()
        with pytest.raises(SetCoverError, match="sweep inconsistency"):
            sweep.select()

    def test_horizon_beyond_int32_rejected(self):
        horizon_end = 2**31 + 4096
        with pytest.raises(SetCoverError, match="int32"):
            IncrementalSweep(
                np.array([0]), np.array([2048]), 10, horizon_end - 8192,
                horizon_end,
            )

    def test_bucket_count_beyond_int32_rejected(self, monkeypatch):
        # Shrink the int32 bound so a small fleet overflows it: six
        # distinct buckets against a bound of five, horizon within it.
        monkeypatch.setattr(incremental, "_INT32_MAX", 5)
        phases = np.arange(6)
        periods = np.full(6, 2)
        with pytest.raises(SetCoverError, match="buckets"):
            IncrementalSweep(phases, periods, 1, 0, 4)


class TestGenericGreedy:
    def test_picks_larger_set_first(self):
        universe = {0, 1, 2, 3}
        sets = [frozenset({0}), frozenset({1, 2, 3}), frozenset({0, 1})]
        chosen = greedy_set_cover(universe, sets)
        assert chosen[0] == 1

    def test_uncoverable_raises(self):
        with pytest.raises(SetCoverError):
            greedy_set_cover({0, 1}, [frozenset({0})])

    def test_empty_universe_needs_nothing(self):
        assert greedy_set_cover(set(), [frozenset({1})]) == []

    def test_matches_naive_scan_on_random_systems(self):
        """The lazy-heap residual gains must reproduce the naive
        rescan-everything greedy exactly, ties included."""

        def naive(universe, sets):
            uncovered = set(universe)
            chosen = []
            while uncovered:
                best_idx, best_gain = -1, 0
                for i, candidate in enumerate(sets):
                    gain = len(candidate & uncovered)
                    if gain > best_gain:
                        best_idx, best_gain = i, gain
                chosen.append(best_idx)
                uncovered -= sets[best_idx]
            return chosen

        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            universe = set(range(n))
            sets = [
                frozenset(
                    int(e)
                    for e in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
                )
                for _ in range(int(rng.integers(1, 20)))
            ]
            sets.append(frozenset(universe))  # guarantee coverability
            assert greedy_set_cover(universe, sets) == naive(universe, sets)

    def test_scales_to_many_sets(self):
        """A 2000-set system covers in well under a second thanks to the
        residual-gain heap (the naive rescan is quadratic here)."""
        rng = np.random.default_rng(7)
        n = 2000
        universe = set(range(n))
        sets = [
            frozenset(int(e) for e in rng.choice(n, size=25, replace=False))
            for _ in range(2000)
        ]
        sets.append(frozenset(universe))
        chosen = greedy_set_cover(universe, sets)
        covered = set().union(*(sets[i] for i in chosen))
        assert universe <= covered


class TestExact:
    def test_beats_or_matches_greedy(self):
        # Classic greedy-suboptimal instance.
        universe = {1, 2, 3, 4, 5, 6}
        sets = [
            frozenset({1, 2, 3, 4}),
            frozenset({1, 2, 5}),
            frozenset({3, 4, 6}),
            frozenset({5, 6}),
        ]
        greedy = greedy_set_cover(universe, sets)
        exact = exact_min_set_cover(universe, sets)
        assert len(exact) <= len(greedy)
        assert len(exact) == 2  # {1,2,3,4} ∪ {5,6} — or the two halves.
        covered = set().union(*(sets[i] for i in exact))
        assert covered == universe

    def test_exact_window_cover_optimal(self, rng):
        phases = np.array([0, 5, 900, 905])
        periods = np.full(4, 2048)
        optimal, frames = exact_min_window_cover(phases, periods, 50, 0, 4096)
        assert optimal == 2
        assert len(frames) == 2

    def test_exact_no_cover_raises(self):
        with pytest.raises(SetCoverError):
            exact_min_set_cover({1}, [frozenset()])

    def test_empty_universe(self):
        assert exact_min_set_cover(set(), []) == []
