"""Pulse-train reconstruction, gating, and event-table tests.

The ten-pulse fixture below is small enough to check by hand: three
reference tags bracket two segments of five pulses each, detector tags
sit at known offsets, and the expected per-pulse states are written out
literally.
"""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroherald.analysis import compute_rates
from zeroherald.errors import (
    ClockGlitchError,
    InsufficientReferenceError,
    ValidationError,
    ZeroHeraldError,
)
from zeroherald.pipeline import (
    GateResult,
    PulseEventTable,
    PulseGrid,
    _dead_time_keep,
    _greedy_chain,
    apply_dead_time,
    build_event_table,
    reconstruct_pulse_train,
    table_from_stream,
    virtual_gate,
)
from zeroherald.tags import Channel, TagStream

from dense_oracle import DenseTable, PulseState, float_reconstruct, greedy_dead_time, pulse_times

N, C, D = PulseState.NOCLICK, PulseState.CLICK, PulseState.DEAD


def make_stream(channels, timestamps, timebin_ps=10, rep_period_ps=100,
                divider=5):
    order = np.argsort(np.asarray(timestamps, dtype=np.uint64), kind="stable")
    return TagStream.from_records(
        np.asarray(channels, dtype=np.uint8)[order],
        np.asarray(timestamps, dtype=np.uint64)[order],
        timebin_ps=timebin_ps,
        rep_period_ps=rep_period_ps,
        divider=divider,
    )


class TestReconstruction:
    def test_recovers_uniform_grid(self):
        s = make_stream([0, 0, 0], [0, 50, 100])
        grid = reconstruct_pulse_train(s)
        assert grid.n_pulses == 11
        assert grid.period_tb == 10.0
        np.testing.assert_array_equal(pulse_times(grid, [0, 3, 10]),
                                      [0.0, 30.0, 100.0])

    def test_interpolates_drifting_references(self):
        s = make_stream([0, 0, 0], [0, 50, 99])
        grid = reconstruct_pulse_train(s)
        # second segment spans 49 timebins, so pulses sit 9.8 apart
        assert pulse_times(grid, 7) == pytest.approx(50 + 2 * 49 / 5)

    def test_single_reference_is_insufficient(self):
        with pytest.raises(InsufficientReferenceError):
            reconstruct_pulse_train(make_stream([0, 1], [0, 5]))

    def test_clock_glitch_reports_gap_index(self):
        s = make_stream([0, 0, 0, 0], [0, 50, 100, 145])
        with pytest.raises(ClockGlitchError) as err:
            reconstruct_pulse_train(s)
        assert list(err.value.indices) == [2]

    def test_small_jitter_is_tolerated(self):
        s = make_stream([0, 0, 0, 0], [0, 50, 99, 150])
        grid = reconstruct_pulse_train(s)
        assert grid.n_pulses == 16

    def test_pulse_index_bounds_checked(self):
        grid = reconstruct_pulse_train(make_stream([0, 0], [0, 50]))
        with pytest.raises(ValidationError):
            pulse_times(grid, 6)


@st.composite
def reference_trains(draw):
    """Reference streams for the differential test of the reconstruction.

    Gaps sit around one period, from zero to the 2**63 / divider guard
    and above 2**53, where u64 gaps round as floats; some gaps are moved
    by up to a divider (half of that is allowed) and some are replaced
    by anything in range, zero included. Gap counts are odd and even.
    """
    divider = draw(st.one_of(st.sampled_from([1, 2, 3, 5, 512]), st.integers(1, 2**32 - 1)))
    limit = -(-(1 << 63) // divider)  # the smallest gap the guard rejects
    period = draw(st.one_of(
        st.integers(0, 64),
        st.integers(0, limit),
        st.integers(max(0, limit - 2 * divider), limit),
        st.integers(2**53 - 2 * divider, 2**53 + 2 * divider).map(lambda g: min(g, limit)),
    ))
    near = st.integers(-divider, divider).map(lambda d: min(max(period + d, 0), limit))
    gaps = draw(st.lists(st.one_of(st.just(period), near), min_size=1, max_size=24))
    for index in draw(st.lists(st.integers(0, len(gaps) - 1), max_size=3)):
        gaps[index] = draw(st.one_of(st.just(0), st.integers(0, limit), near))
    times = [0]
    for gap in gaps:
        if times[-1] + gap >= 1 << 64:
            break
        times.append(times[-1] + gap)
    start = draw(st.integers(0, 2**64 - 1 - times[-1]))
    times = [start + t for t in times]
    # detector tags at the reference times must not change the grid
    with_tags = draw(st.booleans())
    times = np.array(times, dtype=np.uint64)
    return TagStream(timebin_ps=10, rep_period_ps=100, divider=divider, refs=times,
                     d1=times if with_tags else np.empty(0, dtype=np.uint64),
                     d2=np.empty(0, dtype=np.uint64))


def grid_or_error(rebuild, stream):
    """Bit pattern of the period and the pulse count, or the error raised."""
    try:
        period_tb, n_pulses = rebuild(stream)
    except ZeroHeraldError as exc:
        return type(exc), str(exc), getattr(exc, "indices", None)
    return period_tb.hex(), n_pulses


def rebuilt_grid(stream):
    grid = reconstruct_pulse_train(stream)
    return grid.period_tb, grid.n_pulses


class TestReconstructionMatchesFloatOracle:
    @given(reference_trains())
    @example(make_stream([0, 0, 0, 0], [0, 50, 100, 145]))  # glitch at gap 2
    @example(make_stream([0] * 7, [0, 50, 100, 145, 195, 245, 301]))  # at gaps 2 and 5
    @example(make_stream([0, 0, 0, 0, 0], [0, 50, 99, 150, 199]))  # even count
    @example(make_stream([0, 0, 0], [0, 0, 0]))  # the references do not advance
    @example(make_stream([0, 0, 0], [7, 7, 2**63 + 5]))  # median of one zero, one huge gap
    @settings(max_examples=400, deadline=None)
    def test_same_period_pulses_and_errors(self, stream):
        assert grid_or_error(rebuilt_grid, stream) == grid_or_error(float_reconstruct, stream)


class TestReferenceCost:
    """reconstruct and gate share the stream's references: reconstruct
    adds their gaps, and the gate nothing per reference."""

    def test_peaks_with_two_million_references(self):
        n_refs, divider, period = 2_000_000, 512, 12
        refs = np.arange(n_refs, dtype=np.uint64) * np.uint64(divider * period)
        # pulse 0 in the gate, pulse 7 in, pulse 1000 out, the last pulse in
        stream = TagStream(timebin_ps=10, rep_period_ps=10 * period, divider=divider,
                           refs=refs,
                           d1=np.array([1, 1000 * period + 5], dtype=np.uint64),
                           d2=np.array([7 * period + 2, refs[-1] + 1], dtype=np.uint64))
        tracemalloc.start()
        try:
            grid = reconstruct_pulse_train(stream)
            _, reconstruct_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            gate = virtual_gate(stream, grid, window=30e-12)
            _, gate_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.n_pulses == (n_refs - 1) * divider + 1
        np.testing.assert_array_equal(gate.assigned[Channel.D1], [0])
        np.testing.assert_array_equal(gate.assigned[Channel.D2], [7, (n_refs - 1) * divider])
        assert gate.n_rejected == {Channel.D1: 1, Channel.D2: 0}
        assert grid.ref_times is stream.refs
        # one gap, 8 bytes, per reference
        assert reconstruct_peak < 1.25 * 8 * n_refs
        # arrays per detector tag only
        assert gate_peak - held < 1 << 16


def ten_pulse_fixture():
    """Two five-pulse segments with hand-placed detector tags.

    window 30 ps = 3 timebins, pulses every 10 timebins:
      D1 at 21 (pulse 2, offset 1, in) / 31 (pulse 3, in, later dead)
        / 45 (pulse 4, offset 5, out) / 63 (pulse 6, offset 3, boundary out)
      D2 at 22 (pulse 2, in) / 71 (pulse 7, in) / 101 (pulse 10, in)
    """
    channels = [0, 1, 2, 1, 1, 0, 1, 2, 0, 2]
    timestamps = [0, 21, 22, 31, 45, 50, 63, 71, 100, 101]
    return make_stream(channels, timestamps)


class TestVirtualGate:
    def test_fixture_assignment_and_rejection(self):
        s = ten_pulse_fixture()
        gate = virtual_gate(s, reconstruct_pulse_train(s), window=30e-12)
        np.testing.assert_array_equal(gate.assigned[Channel.D1], [2, 3])
        np.testing.assert_array_equal(gate.assigned[Channel.D2], [2, 7, 10])
        assert gate.n_rejected[Channel.D1] == 2
        assert gate.n_rejected[Channel.D2] == 0

    def test_window_boundary_is_exclusive(self):
        # offset exactly equal to the window must fall outside
        s = make_stream([0, 1, 0], [0, 23, 50])
        gate = virtual_gate(s, reconstruct_pulse_train(s), window=30e-12)
        assert gate.assigned[Channel.D1].size == 0
        assert gate.n_rejected[Channel.D1] == 1

    def test_drifting_segment_keeps_exact_arithmetic(self):
        # second segment pulses sit 9.8 timebins apart; 70 lands 0.4
        # timebins after pulse 7 and must gate in
        s = make_stream([0, 0, 1, 0], [0, 50, 70, 99])
        gate = virtual_gate(s, reconstruct_pulse_train(s), window=30e-12)
        np.testing.assert_array_equal(gate.assigned[Channel.D1], [7])

    def test_partition_counts(self):
        s = ten_pulse_fixture()
        gate = virtual_gate(s, reconstruct_pulse_train(s), window=30e-12)
        for ch, tags in ((Channel.D1, s.d1), (Channel.D2, s.d2)):
            assert gate.assigned[ch].size + gate.n_rejected[ch] == tags.size


class TestWideTimestamps:
    """Gating depends only on offsets between tags, for any u64 timestamps."""

    REFS = [20, 70, 120, 170]

    def gate_and_cells(self, shift, d1, d2):
        channels = [0] * len(self.REFS) + [1] * len(d1) + [2] * len(d2)
        ts = [t + shift for t in self.REFS + d1 + d2]
        s = make_stream(channels, ts)
        _, gate, table = table_from_stream(s, window=30e-12, dead_pulses1=2,
                                           dead_pulses2=1)
        return gate, table.cell_counts()

    @given(
        shift=st.one_of(
            st.integers(0, 2**64 - 1 - 240),
            st.integers(2**63 - 240, 2**63),
        ),
        d1=st.lists(st.integers(0, 240), max_size=12),
        d2=st.lists(st.integers(0, 240), max_size=12),
    )
    @example(shift=2**63 - 50, d1=[21, 0], d2=[71])
    @settings(max_examples=200, deadline=None)
    def test_shifted_stream_gates_identically(self, shift, d1, d2):
        base_gate, base_cells = self.gate_and_cells(0, d1, d2)
        gate, cells = self.gate_and_cells(shift, d1, d2)
        for ch in (Channel.D1, Channel.D2):
            np.testing.assert_array_equal(gate.assigned[ch], base_gate.assigned[ch])
            assert gate.n_rejected[ch] == base_gate.n_rejected[ch]
        np.testing.assert_array_equal(cells, base_cells)

    def test_references_straddling_2_63(self):
        r0 = 2**63 - 50
        s = make_stream([1, 0, 1, 0, 2, 0], [r0 - 10, r0, r0 + 1, r0 + 50, r0 + 51, r0 + 100])
        grid = reconstruct_pulse_train(s)
        gate = virtual_gate(s, grid, window=30e-12)
        # the tag before the first reference is rejected, not wrapped
        np.testing.assert_array_equal(gate.assigned[Channel.D1], [0])
        assert gate.n_rejected[Channel.D1] == 1
        np.testing.assert_array_equal(gate.assigned[Channel.D2], [5])
        assert pulse_times(grid, 5) == float(r0 + 50)

    def test_spacing_too_wide_for_exact_gating_rejected(self):
        s = make_stream([0, 0], [0, 2**62], divider=2)
        with pytest.raises(ValidationError):
            reconstruct_pulse_train(s)


class TestDeadTime:
    def test_documented_example(self):
        np.testing.assert_array_equal(
            apply_dead_time([0, 3, 10], 5), [0, 10]
        )

    def test_suppressed_click_does_not_extend_blindness(self):
        # 3 is swallowed by 0's window; 5 is past it and survives
        np.testing.assert_array_equal(
            apply_dead_time([0, 3, 5], 4), [0, 5]
        )

    def test_zero_dead_time_is_identity(self):
        np.testing.assert_array_equal(
            apply_dead_time([1, 2, 3], 0), [1, 2, 3]
        )

    @pytest.mark.parametrize("dead", [-1, 2.5, 2.0, None])
    def test_dead_length_must_be_a_non_negative_integer(self, dead):
        with pytest.raises(ValidationError, match="non-negative integer"):
            apply_dead_time([0, 3, 4, 7], dead)

    @given(
        clicks=st.lists(st.integers(0, 400), max_size=60),
        dead=st.integers(0, 12),
    )
    @settings(max_examples=200)
    def test_accepted_spacing_exceeds_dead_window(self, clicks, dead):
        out = apply_dead_time(clicks, dead)
        assert np.all(np.diff(out) > dead)
        # idempotent: a stream that already respects the spacing is kept
        np.testing.assert_array_equal(apply_dead_time(out, dead), out)
        # first click always survives
        if clicks:
            assert out[0] == min(clicks)


@st.composite
def click_lists(draw):
    """Unsorted clicks with repeats, mixing sparse ones with dense runs.

    A run of clicks one or two pulses apart is thinned into a chain of
    up to a thousand accepted clicks, which takes the pointer doubling
    through several rounds (up to ten).
    """
    clicks = draw(st.lists(st.integers(0, 5000), max_size=40))
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, 5000))
        step = draw(st.integers(1, 2))
        clicks += range(start, start + step * draw(st.integers(0, 1000)), step)
    if clicks:
        clicks += draw(st.lists(st.sampled_from(clicks), max_size=20))
    random.Random(draw(st.integers(0, 2**32))).shuffle(clicks)
    return clicks


class TestDeadTimeOracle:
    @given(clicks=click_lists(), dead=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    @example(clicks=list(range(4096)) * 2, dead=1)
    def test_matches_greedy_walk(self, clicks, dead):
        out = apply_dead_time(clicks, dead)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, greedy_dead_time(clicks, dead))

    @pytest.mark.parametrize("dead", [0, 1, 2**62, 2**63, 2**64 - 2, 2**70])
    def test_extreme_pulses_and_dead_lengths(self, dead):
        clicks = [2**63 - 1, -(2**63), 0, -(2**63) + 1, 2**63 - 3, 5]
        np.testing.assert_array_equal(
            apply_dead_time(clicks, dead), greedy_dead_time(clicks, dead)
        )


def chain_walk(positions, ends):
    """Keep position 0, then each first position past the last kept end."""
    kept = []
    for i, pos in enumerate(positions):
        if not kept or pos > ends[kept[-1]]:
            kept.append(i)
    return kept


@st.composite
def chain_inputs(draw):
    """Sorted distinct positions in runs, each end reaching 0-30 past its
    position, so free heads, contested clusters and long chains mix."""
    gaps = draw(st.lists(st.integers(1, 12), min_size=1, max_size=300))
    positions = np.cumsum(gaps) - draw(st.integers(0, 50))
    reach = draw(st.lists(st.integers(0, 30), min_size=len(gaps), max_size=len(gaps)))
    return positions, positions + np.asarray(reach, dtype=np.int64)


class TestGreedyChain:
    """The free-index shortcut and the contested-cluster doubling,
    against the scalar walks, on the shapes that stress each part."""

    @given(chain_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_walk(self, case):
        positions, ends = case
        keep = _greedy_chain(positions, ends)
        assert np.flatnonzero(keep).tolist() == chain_walk(positions.tolist(), ends.tolist())

    def test_one_long_contested_run(self):
        # every click after the first is contested: one cluster whose
        # chain of 50,000 kept clicks takes the doubling 16 rounds
        clicks = np.arange(100_000)
        out = apply_dead_time(clicks, 1)
        assert out.size == 50_000
        np.testing.assert_array_equal(out, greedy_dead_time(clicks, 1))

    def test_many_clusters_between_free_clicks(self):
        rng = np.random.default_rng(7)
        runs = [start + np.arange(rng.integers(1, 40)) * rng.integers(1, 3)
                for start in np.cumsum(rng.integers(100, 200, 500))]
        clicks = np.concatenate(runs)
        for dead in (0, 1, 2, 5, 99):
            np.testing.assert_array_equal(apply_dead_time(clicks, dead),
                                          greedy_dead_time(clicks, dead))

    def test_all_free(self):
        clicks = np.cumsum(np.random.default_rng(8).integers(4, 40, 10_000))
        assert _dead_time_keep(clicks, 3).all()
        np.testing.assert_array_equal(apply_dead_time(clicks, 3), clicks)

    @pytest.mark.parametrize("clicks, dead", [
        # the window ends saturate at the top of uint64: the last click,
        # 2**63 - 2 past the second, stays blind
        ([-(2**63), 1, 2**63 - 1], 2**63),
        ([-(2**63), -(2**63) + 1, -(2**63) + 2, 0, 2**63 - 2, 2**63 - 1], 1),
        ([-(2**63), -(2**63) + 3, 2**62, 2**63 - 3, 2**63 - 1], 2**62),
        ([-(2**63), 2**63 - 1], 2**64 - 2),
        ([-(2**63), 2**63 - 1], 2**64 - 1),
        ([-(2**63), 0, 2**63 - 1], 2**70),
    ])
    def test_extreme_int64_pulses(self, clicks, dead):
        np.testing.assert_array_equal(apply_dead_time(clicks, dead),
                                      greedy_dead_time(clicks, dead))


class TestEventTable:
    def test_fixture_states_exactly(self):
        grid, gate, table = table_from_stream(
            ten_pulse_fixture(), window=30e-12, dead_pulses1=2,
            dead_pulses2=0,
        )
        dense = DenseTable.of(table)
        np.testing.assert_array_equal(
            dense.d1, [N, N, C, D, D, N, N, N, N, N, N]
        )
        np.testing.assert_array_equal(
            dense.d2, [N, N, C, N, N, N, N, C, N, N, C]
        )

    def test_fixture_cell_counts(self):
        _, _, table = table_from_stream(
            ten_pulse_fixture(), window=30e-12, dead_pulses1=2,
            dead_pulses2=0,
        )
        np.testing.assert_array_equal(
            table.cell_counts(),
            [[6, 2, 0],
             [0, 1, 0],
             [2, 0, 0]],
        )
        np.testing.assert_array_equal(
            DenseTable.of(table).live_mask(),
            [1, 1, 1, 0, 0, 1, 1, 1, 1, 1, 1],
        )

    def test_reference_only_stream_is_all_quiet(self):
        s = make_stream([0, 0, 0], [0, 50, 100])
        _, _, table = table_from_stream(s, window=30e-12, dead_pulses1=5,
                                        dead_pulses2=5)
        assert table.n_pulses == 11
        dense = DenseTable.of(table)
        assert np.all(dense.d1 == N)
        assert np.all(dense.d2 == N)

    def test_dead_marks_follow_each_accepted_click(self):
        s = make_stream([0, 2, 0, 0], [0, 30, 50, 100])
        _, _, table = table_from_stream(s, window=30e-12, dead_pulses1=0,
                                        dead_pulses2=3)
        np.testing.assert_array_equal(
            DenseTable.of(table).d2, [N, N, N, C, D, D, D, N, N, N, N]
        )

    def test_dead_window_truncates_at_train_end(self):
        s = make_stream([0, 0, 1, 0], [0, 50, 91, 100])
        _, _, table = table_from_stream(s, window=30e-12, dead_pulses1=5,
                                        dead_pulses2=0)
        np.testing.assert_array_equal(DenseTable.of(table).d1[9:], [C, D])


class TestGateDeadIndependence:
    @given(
        d1_offsets=st.lists(st.integers(0, 9), max_size=12),
        dead=st.integers(0, 4),
    )
    @settings(max_examples=100)
    def test_click_count_never_exceeds_tag_count(self, d1_offsets, dead):
        pulses = sorted(set(d1_offsets))
        ts = [p * 10 + 1 for p in pulses]
        channels = [1] * len(ts) + [0, 0, 0]
        ts = ts + [0, 50, 100]
        s = make_stream(channels, ts)
        _, _, table = table_from_stream(s, window=30e-12, dead_pulses1=dead,
                                        dead_pulses2=0)
        n_clicks = int(np.sum(DenseTable.of(table).d1 == C))
        assert n_clicks <= len(pulses)
        if dead == 0:
            assert n_clicks == len(pulses)


@st.composite
def sparse_table_args(draw):
    n = draw(st.integers(1, 80))
    pulse = st.one_of(st.integers(0, n - 1), st.integers(max(0, n - 8), n - 1))
    shared = draw(st.lists(pulse, max_size=10))
    dead1, dead2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    clicks1 = apply_dead_time(shared + draw(st.lists(pulse, max_size=15)), dead1)
    clicks2 = apply_dead_time(shared + draw(st.lists(pulse, max_size=15)), dead2)
    return n, clicks1, clicks2, dead1, dead2


class TestSparseTable:
    @given(sparse_table_args())
    @settings(max_examples=500, deadline=None)
    def test_matches_dense_oracle(self, args):
        n, clicks1, clicks2, dead1, dead2 = args
        table = PulseEventTable(n, clicks1, clicks2, dead1, dead2)
        oracle = DenseTable.from_clicks(n, clicks1, dead1, clicks2, dead2)
        np.testing.assert_array_equal(table.cell_counts(), oracle.cell_counts())
        # the table keeps the clicks it was given, which its dense view reads
        np.testing.assert_array_equal(table.clicks1, clicks1)
        np.testing.assert_array_equal(table.clicks2, clicks2)
        assert table.cell_counts().sum() == n

    def test_empty_train(self):
        table = PulseEventTable(0, [], [], 3, 3)
        np.testing.assert_array_equal(table.cell_counts(), np.zeros((3, 3)))
        assert DenseTable.of(table).d1.size == 0

    @pytest.mark.parametrize("clicks1, dead1", [
        ([5, 2], 0),        # unsorted
        ([2, 2], 0),        # repeated
        ([2, 4], 2),        # inside the previous dead window
        ([-1, 4], 0),       # before the train
        ([3, 10], 0),       # past the end of a 10-pulse train
        ([3], -1),          # negative dead length
        ([[1, 2]], 0),      # not 1-d
        ([1.0, 2.0], 0),    # not integer
    ])
    def test_rejects_invalid_clicks(self, clicks1, dead1):
        with pytest.raises(ValidationError):
            PulseEventTable(10, np.asarray(clicks1), [], dead1, 0)

    def test_cost_grows_with_clicks_not_pulses(self):
        # a dense view of this train would need about 2 TB
        n = 10**12
        grid = PulseGrid(ref_times=np.array([0, n - 1], dtype=np.uint64),
                         divider=n - 1, n_pulses=n, period_tb=1.0)
        gate = GateResult(
            grid=grid,
            assigned={Channel.D1: np.array([0, 3, 10, 200, 500, n - 2]),
                      Channel.D2: np.array([3, 5, 12, 199, 500, n - 1])},
            n_rejected={Channel.D1: 0, Channel.D2: 0},
        )
        tracemalloc.start()
        try:
            table = build_event_table(gate, 4, 2)
            cells = table.cell_counts()
            summary = compute_rates(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # d1: clicks 0 10 200 500 n-2, dead 1-4 11-14 201-204 501-504 n-1
        # d2: clicks 3 12 199 500 n-1, dead 4-5 13-14 200-201 501-502
        np.testing.assert_array_equal(
            cells,
            [[n - 24, 1, 1],
             [3, 1, 1],
             [8, 3, 6]],
        )
        assert summary.n_pulses == n
        assert summary.n_live_pulses == n - 19
        assert peak < 1 << 20
