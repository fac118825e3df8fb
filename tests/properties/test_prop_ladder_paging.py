"""Property-based tests: ladder algebra and PO-grid nesting."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drx.cycles import FULL_LADDER, DrxCycle
from repro.drx.paging import (
    NB,
    paging_frame_offset,
    pattern_for,
    v_paging_frame_offset,
)

ladder_cycles = st.sampled_from(list(FULL_LADDER))
ue_ids = st.integers(min_value=0, max_value=4095)
nbs = st.sampled_from([NB.ONE_T, NB.HALF_T, NB.QUARTER_T, NB.TWO_T])


class TestLadderProperties:
    @given(ladder_cycles)
    def test_largest_at_most_is_identity_on_ladder(self, cycle):
        assert DrxCycle.largest_at_most(int(cycle)) == cycle
        assert DrxCycle.smallest_at_least(int(cycle)) == cycle

    @given(st.integers(min_value=32, max_value=DrxCycle.MAX_FRAMES))
    def test_largest_at_most_bounds(self, frames):
        cycle = DrxCycle.largest_at_most(frames)
        assert int(cycle) <= frames
        if int(cycle) < DrxCycle.MAX_FRAMES:
            assert int(cycle) * 2 > frames

    @given(ladder_cycles, ladder_cycles)
    def test_divides_iff_not_longer(self, a, b):
        assert a.divides(b) == (int(a) <= int(b))

    @given(ladder_cycles, ladder_cycles)
    def test_halvings_consistent(self, a, b):
        if int(b) <= int(a):
            k = a.halvings_to(b)
            assert int(a) == int(b) * 2**k


class TestNestingProperty:
    """The DA-SC invariant: shortening a cycle never loses POs."""

    @given(ue_ids, ladder_cycles, ladder_cycles, nbs)
    @settings(max_examples=200)
    def test_grids_nest(self, ue_id, long, short, nb):
        if int(short) > int(long):
            long, short = short, long
        long_sched = pattern_for(ue_id, long, nb).schedule
        short_sched = pattern_for(ue_id, short, nb).schedule
        # Check the first few long-cycle POs are on the short grid.
        for k in range(3):
            po = long_sched.phase + k * long_sched.period
            assert short_sched.is_po(po)

    @given(ue_ids, ladder_cycles, nbs)
    @settings(max_examples=100)
    def test_phase_in_range(self, ue_id, cycle, nb):
        pattern = pattern_for(ue_id, cycle, nb)
        assert 0 <= pattern.phase < int(cycle)
        assert 0 <= pattern.subframe <= 9

    @given(ue_ids, ladder_cycles, nbs)
    @settings(max_examples=50)
    def test_pattern_deterministic(self, ue_id, cycle, nb):
        assert pattern_for(ue_id, cycle, nb) == pattern_for(ue_id, cycle, nb)


class TestVectorisedPagingMixedNb:
    """One vectorised phase derivation serves single- and mixed-nB fleets."""

    @given(
        st.lists(
            st.tuples(ue_ids, ladder_cycles, st.sampled_from(list(NB))),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_per_device_nb_columns_match_scalar(self, rows):
        ue, cycles, nbs = zip(*rows)
        vector = v_paging_frame_offset(
            np.array(ue),
            np.array([int(c) for c in cycles]),
            (
                np.array([nb.fraction.numerator for nb in nbs]),
                np.array([nb.fraction.denominator for nb in nbs]),
            ),
        )
        assert vector.tolist() == [
            paging_frame_offset(u, c, nb) for u, c, nb in zip(ue, cycles, nbs)
        ]

    @given(ue_ids, ladder_cycles, st.sampled_from(list(NB)))
    @settings(max_examples=100)
    def test_cell_wide_nb_equals_its_columns(self, ue_id, cycle, nb):
        ue, cycles = np.array([ue_id]), np.array([int(cycle)])
        columns = (np.array([nb.fraction.numerator]), np.array([nb.fraction.denominator]))
        assert v_paging_frame_offset(ue, cycles, nb).tolist() == (
            v_paging_frame_offset(ue, cycles, columns).tolist()
        )
