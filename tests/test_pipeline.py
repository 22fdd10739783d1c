"""Pulse-train reconstruction, gating, and event-table tests.

The ten-pulse fixture below is small enough to check by hand: three
reference tags bracket two segments of five pulses each, detector tags
sit at known offsets, and the expected per-pulse states are written out
literally.
"""

import copy
import dataclasses
import json
import math
import random
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroherald.analysis import FitResult, ModelComparison, compute_rates
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
    _greedy_chain,
    apply_dead_time,
    build_event_table,
    gate_window_tb,
    reconstruct_pulse_train,
    table_from_stream,
    virtual_gate,
)
from zeroherald.sim import SimResult, SimTruth
from zeroherald.tags import Channel, TagStream

from dense_oracle import (
    DenseTable,
    PulseState,
    float_reconstruct,
    greedy_dead_time,
    partition_reconstruct,
    pulse_times,
    searched_gate,
)

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


@st.composite
def gap_blocks(draw):
    """Reference streams for the differential test of the median by count.

    The gaps take one value, two adjacent values, or those two and more
    within or past the glitch tolerance, in any share and order. Counts
    are 1 and 2 gaps, odd and even, at 2**16 (the block of the gap pass)
    plus or minus one, and anything up to three blocks; the smallest gap
    runs from 0 up to the 2**63 / divider guard, and one gap of the last
    block, or at the edge of a block, may be anything in range.
    """
    divider = draw(st.sampled_from([1, 2, 3, 512, 2**20, 2**32 - 1]))
    limit = -(-(1 << 63) // divider)  # the smallest gap the guard rejects
    n_gaps = draw(st.one_of(
        st.sampled_from([1, 2, 3, 4, 2**16 - 1, 2**16, 2**16 + 1, 2**17 + 1]),
        st.integers(1, 3 * 2**16)))
    low = draw(st.one_of(st.integers(0, 64), st.integers(0, 2**40),
                         st.integers(max(0, limit - 3), limit)))
    kind = draw(st.sampled_from(["one", "two", "more"]))
    values = [low] if kind == "one" else [low, low + 1]
    if kind == "more":
        values += draw(st.lists(st.integers(low + 2, low + 2 * divider + 2),
                                min_size=1, max_size=3))
    glitch = draw(st.none() | st.integers(0, 2**41) | st.integers(0, limit))
    top = max(values + [glitch or 0])
    n_gaps = min(n_gaps, max(1, (2**64 - 1) // max(top, 1)))  # the times fit a u64
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaps = np.full(n_gaps, low, dtype=np.uint64)
    for value in values[1:]:
        gaps[rng.permutation(n_gaps)[:draw(st.integers(0, n_gaps))]] = value
    if glitch is not None:  # in the last block or at the edge of a block
        at = draw(st.one_of(st.integers((n_gaps - 1) & -2**16, n_gaps - 1),
                            st.sampled_from([2**16 - 1, 2**16, n_gaps - 1])))
        gaps[min(at, n_gaps - 1)] = glitch
    return stream_of_gaps(gaps, divider, start=draw(st.integers(0, 2**64 - 1 - int(gaps.sum()))))


def stream_of_gaps(gaps, divider, start=0):
    """A stream with no detector tags whose references start at start and have these gaps."""
    times = np.full(len(gaps) + 1, start, dtype=np.uint64)
    times[1:] += np.cumsum(gaps, dtype=np.uint64)
    return TagStream(timebin_ps=10, rep_period_ps=100, divider=divider, refs=times,
                     d1=[], d2=[])


def regular_gaps(n_gaps, value, changed):
    """n_gaps gaps of value, but for changed, a dict from index to gap."""
    gaps = np.full(n_gaps, value, dtype=np.uint64)
    gaps[list(changed)] = list(changed.values())
    return gaps


class TestMedianByCountMatchesPartition:
    @given(gap_blocks())
    # a glitch or a gap value at the last gap of a block and the first of the next
    @example(stream_of_gaps(regular_gaps(2**16 + 1, 6144, {65535: 9000}), 512))
    @example(stream_of_gaps(regular_gaps(2**16 + 1, 6144, {65536: 9000}), 512))
    @example(stream_of_gaps(regular_gaps(2**17, 6144, {131071: 3000}), 512))
    @example(stream_of_gaps(regular_gaps(2**16 + 2, 6144, {65535: 6145}), 512))
    @example(make_stream([0, 0], [3, 8]))  # one gap
    @example(make_stream([0, 0, 0], [0, 5, 11]))  # two gaps, two values
    @example(make_stream([0, 0, 0, 0], [0, 5, 11, 16]))  # the middle pair is 5 and 5
    @example(make_stream([0, 0, 0, 0, 0], [0, 5, 11, 17, 22]))  # the middle pair is 5 and 6
    @settings(max_examples=150, deadline=None)
    def test_same_period_pulses_and_errors(self, stream):
        assert grid_or_error(rebuilt_grid, stream) == grid_or_error(partition_reconstruct, stream)


class TestReferenceCost:
    """reconstruct and gate share the stream's references: reconstruct
    adds one block of gaps when they take one or two adjacent values,
    one gap per reference otherwise, and the gate nothing per
    reference."""

    def test_three_gap_values_take_every_gap(self):
        n_refs, divider = 2_000_000, 512
        gaps = np.full(n_refs - 1, 12 * divider, dtype=np.uint64)
        gaps[1::3] += np.uint64(1)
        gaps[2::3] += np.uint64(2)
        stream = stream_of_gaps(gaps, divider)
        tracemalloc.start()
        try:
            grid = reconstruct_pulse_train(stream)
            _, reconstruct_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert grid.period_tb == (12 * divider + 1) / divider
        # one gap, 8 bytes, per reference
        assert reconstruct_peak < 1.25 * 8 * n_refs

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
        # one block of 2**16 gaps, 8 bytes each, whatever the references
        assert reconstruct_peak < 1 << 20
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


class TestPulseGridFields:
    """A hand-built grid checks its own fields and reads its pulse count
    off its references and divider."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(PulseGrid)] == [
            "ref_times", "divider", "period_tb"]

    @pytest.mark.parametrize("n_refs, n_pulses", [(1, 1), (2, 5), (3, 9)])
    def test_pulse_count_is_read_off_the_references(self, n_refs, n_pulses):
        grid = PulseGrid(ref_times=np.arange(n_refs, dtype=np.uint64) * 40, divider=4,
                         period_tb=10.0)
        assert grid.n_pulses == n_pulses
        with pytest.raises(AttributeError):
            grid.n_pulses = 99

    @pytest.mark.parametrize("divider", [0, -4, 2.5, "4", True])
    def test_divider_must_be_a_positive_integer(self, divider):
        with pytest.raises(ValidationError, match="divider"):
            PulseGrid(ref_times=[0, 40], divider=divider, period_tb=10.0)

    @pytest.mark.parametrize("period", [0.0, -10.0, math.nan, math.inf])
    def test_period_must_be_positive(self, period):
        with pytest.raises(ValidationError, match="period_tb"):
            PulseGrid(ref_times=[0, 40], divider=4, period_tb=period)

    def test_needs_a_reference(self):
        with pytest.raises(InsufficientReferenceError):
            PulseGrid(ref_times=np.array([], dtype=np.uint64), divider=4, period_tb=10.0)

    def test_references_are_held_as_uint64(self):
        grid = PulseGrid(ref_times=[0, 40], divider=4, period_tb=10.0)
        assert grid.ref_times.dtype == np.uint64
        refs = np.array([0, 40], dtype=np.uint64)
        assert PulseGrid(ref_times=refs, divider=4, period_tb=10.0).ref_times is refs


def frozen_records() -> dict:
    """A grid, a gate, an event table and a stream, each built through its
    checks, a run's truth and result, a fit and a model comparison."""
    grid = PulseGrid(ref_times=[0, 40], divider=4, period_tb=10.0)
    tags = TagStream(timebin_ps=1, rep_period_ps=10, divider=4, refs=[0, 40], d1=[5], d2=[])
    truth = SimTruth(*[np.zeros(0, dtype=np.int64)] * 6)
    records = [grid, virtual_gate(tags, grid, window=5e-12), PulseEventTable(10, [1, 5], [2], 2, 2),
               tags, truth, SimResult(tags, truth, config=None),
               FitResult(1.0, -0.5, 0.0, 1e-13, 0.0, 5, 3, covariance=np.eye(4)),
               ModelComparison(0.0, 0.9, *({"singles1": v} for v in (2e-3, 1e-3, 1e-4, 10.0)), ())]
    return {type(record).__name__: record for record in records}


@pytest.mark.parametrize("name, field", [
    (name, f.name) for name, record in frozen_records().items()
    for f in dataclasses.fields(record)])
def test_no_record_field_can_be_assigned_after_its_checks(name, field):
    # a grid's divider set to 0 after its checks assigned no tag, a
    # table's clicks set out of order miscounted its cells, and a
    # stream's divider set to 0 was kept
    record = frozen_records()[name]
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", list(frozen_records()))
def test_records_compare_and_hash_without_raising(name):
    # a generated __eq__ compared their arrays, whose == has no truth
    # value, and a generated __hash__ hashed them: both raised numpy's errors
    record = frozen_records()[name]
    twin = copy.copy(record)
    assert (record == twin) is (name == "TagStream")  # a stream by content, the rest by identity
    assert record in [twin, record]
    if name == "TagStream":
        with pytest.raises(TypeError, match="unhashable type: 'TagStream'"):
            hash(record)
    else:
        assert len({record, twin, record}) == 2


@pytest.mark.parametrize("name", list(frozen_records()))
def test_records_hold_their_arrays_and_mappings_read_only(name):
    # a frozen record's arrays could be written through, and a gate's or a
    # comparison's dicts took any entry, after the record's checks
    record = frozen_records()[name]
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, Mapping):
            with pytest.raises(TypeError):
                value["new"] = 0
        for array in (value.values() if isinstance(value, Mapping) else [value]):
            if isinstance(array, np.ndarray):
                assert not array.flags.writeable, f.name
                with pytest.raises(ValueError):
                    array[...] = 0


class TestRecordsKeepWhatTheyChecked:
    """Once a record has checked an array or a mapping, no write through
    the caller's reference or the record's changes it."""

    def test_a_table_keeps_the_clicks_it_checked(self):
        # writing the caller's array used to put clicks 1 and 2 inside one
        # dead window and count pulse 2 as both click and dead
        clicks = np.array([1, 5])
        table = PulseEventTable(10, clicks, np.array([], np.int64), 2, 2)
        with pytest.raises(ValueError):
            clicks[1] = 2
        assert table.clicks1.tolist() == [1, 5]

    def test_a_stream_keeps_the_references_it_checked(self):
        refs = np.array([0, 40], np.uint64)
        stream = TagStream(1, 10, 4, refs, [], [])
        with pytest.raises(ValueError):
            refs[0] = 99
        assert stream.refs is refs and stream.refs.tolist() == [0, 40]

    def test_a_gate_takes_no_entry_after_the_gate(self):
        grid = PulseGrid(ref_times=[0, 40], divider=4, period_tb=10.0)
        stream = TagStream(timebin_ps=1, rep_period_ps=10, divider=4, refs=[0, 40], d1=[5], d2=[])
        gate = virtual_gate(stream, grid, window=5e-12)
        with pytest.raises(TypeError):
            gate.n_rejected[Channel.D1] = -5
        with pytest.raises(TypeError):
            gate.assigned[Channel.D1] = "x"
        assert dict(gate.n_rejected) == {Channel.D1: 1, Channel.D2: 0}

    def test_a_hand_built_gate_holds_its_own_mappings(self):
        assigned, n_rejected = {Channel.D1: np.array([1]), Channel.D2: np.array([2])}, {}
        gate = GateResult(PulseGrid([0, 40], 4, 10.0), assigned, n_rejected)
        assigned[Channel.D1], n_rejected[Channel.D1] = np.array([3]), 7
        assert gate.assigned[Channel.D1].tolist() == [1] and dict(gate.n_rejected) == {}

    def test_a_comparison_hashes_and_writes_plain_json(self):
        comparison = frozen_records()["ModelComparison"]
        assert hash(comparison) == hash(comparison)
        line = json.dumps(comparison.to_dict())
        assert json.loads(line)["z"] == {"singles1": 10.0}
        assert all(type(comparison.to_dict()[name]) is dict
                   for name in ("measured", "predicted", "stderr", "z"))


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


def gate_case(gaps, base, d1, d2, divider, period):
    """A stream with references base, base + gaps[0], ...: d1 and d2 are
    offsets from base, cut to the u64 range and sorted."""
    refs = np.uint64(base) + np.concatenate((np.zeros(1, np.uint64), np.cumsum(gaps)))

    def stamps(offsets):
        return np.sort(np.array([base + o for o in offsets if 0 <= base + o < 2**64],
                                dtype=np.uint64))
    return TagStream(timebin_ps=1, rep_period_ps=period, divider=divider, refs=refs,
                     d1=stamps(d1), d2=stamps(d2))


def ramp_case(n_gaps=100, divider=16, period=2):
    """Gaps divider/2 long for the first half, exact after: inside the
    glitch tolerance, but the middle references drift six segments off
    the even grid the mean spacing gives. Tags sit on, just before and
    just after every reference and in the middle of every segment."""
    gaps = np.full(n_gaps, divider * period, dtype=np.uint64)
    gaps[:n_gaps // 2] += divider // 2
    at = [0] + np.cumsum(gaps).tolist()
    d1 = [a + d for a in at for d in (-1, 0, 1)]
    d2 = [a + int(g) // 2 for a, g in zip(at, gaps)]
    return gate_case(gaps, 2**64 - 2 - at[-1], d1, d2, divider, period), 0.5


@st.composite
def wandering_gates(draw):
    """A stream whose reference gaps wander inside the glitch tolerance
    (one-sided, so every gap is within divider/2 of the median), tags
    anywhere from before the first reference to past the last one, on
    references and up to 2**64 - 1, and a window as a share of the period."""
    divider, period = draw(st.integers(2, 64)), draw(st.integers(2, 8))
    n_gaps = draw(st.integers(1, 150))
    wander = draw(st.lists(st.integers(0, divider // 2), min_size=n_gaps, max_size=n_gaps))
    gaps = np.array(wander, dtype=np.uint64) + np.uint64(divider * period)
    span, margin = int(gaps.sum()), 3 * divider * period
    top = 2**64 - 1 - span - margin
    base = draw(st.one_of(st.integers(margin, 2**20), st.just(top), st.integers(margin, top)))
    at = [0] + np.cumsum(gaps).tolist()
    offset = st.integers(-margin, span + margin)
    on_ref = st.builds(lambda i, d: at[i] + d, st.integers(0, n_gaps), st.integers(-1, 1))
    d1 = draw(st.lists(st.one_of(offset, on_ref), max_size=40))
    d2 = draw(st.lists(st.one_of(offset, on_ref, st.just(2**64 - 1 - base)), max_size=20))
    stream = gate_case(gaps, base, d1, d2, divider, period)
    return stream, draw(st.floats(0.05, 0.95))


class TestGateMatchesSearch:
    """virtual_gate estimates each tag's segment from the mean reference
    spacing and searches only the tags it misses; searched_gate searches
    every tag."""

    def assert_gates_alike(self, stream, grid, window_share):
        window = window_share * grid.period_tb * stream.timebin_ps / 1e12
        window_tb = gate_window_tb(window, stream.timebin_ps, grid.period_tb)
        gate = virtual_gate(stream, grid, window)
        for ch, t in ((Channel.D1, stream.d1), (Channel.D2, stream.d2)):
            want = searched_gate(t, grid.ref_times, grid.divider, window_tb)
            np.testing.assert_array_equal(gate.assigned[ch], want)
            assert gate.n_rejected[ch] == t.size - want.size
        return gate

    @given(wandering_gates())
    @example(ramp_case())
    @example(ramp_case(n_gaps=1, divider=2))
    @settings(max_examples=300, deadline=None)
    def test_wandering_references(self, case):
        stream, window_share = case
        self.assert_gates_alike(stream, reconstruct_pulse_train(stream), window_share)

    def test_ramp_defeats_the_estimate(self):
        # in the example above the estimate misses tags between the first
        # and the last reference by up to six segments
        stream, _ = ramp_case()
        refs, t = stream.refs.astype(object), stream.d1.astype(object)
        guess = (t - refs[0]) // ((refs[-1] - refs[0]) // (refs.size - 1))
        found = np.searchsorted(stream.refs, stream.d1, side="right") - 1
        inner = (found >= 0) & (found < refs.size - 1)
        assert max(abs(guess - found)[inner]) == 6

    @pytest.mark.parametrize("refs", [[1000], [1000, 1000, 1000]],
                             ids=["one reference", "references that do not advance"])
    def test_grid_without_an_estimate(self, refs):
        refs = np.array(refs, dtype=np.uint64)
        d1 = np.array([0, 999, 1000, 1005, 1006, 1010, 2**64 - 1], dtype=np.uint64)
        stream = TagStream(timebin_ps=1, rep_period_ps=10, divider=4, refs=refs, d1=d1, d2=[])
        grid = PulseGrid(ref_times=refs, divider=4, period_tb=10.0)
        gate = self.assert_gates_alike(stream, grid, 0.6)
        # past the last reference: its pulse, in the gate below 6 timebins
        last = (refs.size - 1) * 4
        np.testing.assert_array_equal(gate.assigned[Channel.D1], [last, last])


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

    @pytest.mark.parametrize("dead", [-1, 2.5, 2.0, None, True, "3"])
    def test_dead_length_must_be_a_non_negative_integer(self, dead):
        with pytest.raises(ValidationError, match="non-negative integer"):
            apply_dead_time([0, 3, 4, 7], dead)

    @pytest.mark.parametrize("dead", [np.int64(5), np.uint8(5)], ids=repr)
    def test_numpy_integer_dead_length_is_a_count(self, dead):
        np.testing.assert_array_equal(apply_dead_time([0, 3, 10], dead), [0, 10])

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
        clicks = [2**63 - 1, 2**62, 0, 1, 2**63 - 3, 5, 2**63 - 1]
        np.testing.assert_array_equal(
            apply_dead_time(clicks, dead), greedy_dead_time(clicks, dead)
        )

    @pytest.mark.parametrize("clicks", [
        [-(2**63), 0, 5],
        [0, -1],
        np.array([5, 2**63 + 5], dtype=np.uint64),  # was -(2**63) + 5 once cast
    ], ids=["int64 minimum", "minus one", "wraps in int64"])
    def test_pulse_outside_int64_counts_is_rejected(self, clicks):
        with pytest.raises(ValidationError, match="^click pulses must be a 1-d array"):
            apply_dead_time(clicks, 1)


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
        assert _greedy_chain(clicks, clicks + 3).all()
        np.testing.assert_array_equal(apply_dead_time(clicks, 3), clicks)

    @pytest.mark.parametrize("clicks, dead", [
        # a window longer than the pulse range: the last click, 2**63 - 2
        # past the second, stays blind
        ([0, 1, 2**63 - 1], 2**63),
        ([0, 1, 2, 2**62, 2**63 - 2, 2**63 - 1], 1),
        ([0, 3, 2**62, 2**63 - 3, 2**63 - 1], 2**62),
        ([0, 2**63 - 1], 2**64 - 2),
        ([0, 2**63 - 1], 2**64 - 1),
        ([0, 2**62, 2**63 - 1], 2**70),
        # the window from 0 ends one short of the last click, or on it
        ([0, 2**63 - 1], 2**63 - 2),
        ([0, 2**63 - 1], 2**63 - 1),
        ([1, 2**63 - 2, 2**63 - 1], 2**63 - 3),
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

    def test_int64_clicks_are_kept_not_copied(self):
        clicks1, clicks2 = np.array([1, 5], dtype=np.int64), np.array([2], dtype=np.uint64)
        table = PulseEventTable(10, clicks1, clicks2, 2, 2)
        assert table.clicks1 is clicks1
        assert table.clicks2.dtype == np.int64 and table.clicks2.tolist() == [2]


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

    @pytest.mark.parametrize("args", [
        (10.9, [1], [], 0, 0),           # was a 10-pulse table
        (100, [1, 5], [2], 2.7, True),   # was dead windows 2 and 1
        (100, [1, 5], [2], "3", 0),      # was a dead window of 3
    ])
    def test_non_integer_counts_are_rejected_not_truncated(self, args):
        with pytest.raises(ValidationError, match="must be a non-negative integer"):
            PulseEventTable(*args)

    @pytest.mark.parametrize("n", [2**63, 2**64])
    def test_pulse_count_below_2_to_63(self, n):
        # a 2**64-pulse table took a click at 2**63 + 1, which wrapped
        # negative in the int64 cast
        with pytest.raises(ValidationError, match=r"^n_pulses must be below 2\*\*63"):
            PulseEventTable(n, np.array([2**63 + 1], dtype=np.uint64), [], 0, 0)
        table = PulseEventTable(2**63 - 1, np.array([2**63 - 2], dtype=np.uint64), [], 0, 0)
        assert table.cell_counts()[1, 0] == 1

    def test_cell_counts_peak_per_click(self):
        # two ~200k-click detectors on a 2e7-pulse train, a tenth shared:
        # about 40 bytes a click, where a search per placement takes 44.5
        n, dead = 20_000_000, 8
        rng = np.random.default_rng(7)
        shared = rng.integers(0, n, 20_000)
        clicks1 = apply_dead_time(np.concatenate([shared, rng.integers(0, n, 200_000)]), dead)
        clicks2 = apply_dead_time(np.concatenate([shared, rng.integers(0, n, 200_000)]), dead)
        table = PulseEventTable(n, clicks1, clicks2, dead, dead)
        tracemalloc.start()
        try:
            cells = table.cell_counts()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cells.sum() == n and cells[1, 2] > 0 and cells[2, 1] > 0 and cells[2, 2] > 0
        assert peak < 42 * (clicks1.size + clicks2.size)

    def test_cost_grows_with_clicks_not_pulses(self):
        # a dense view of this train would need about 2 TB
        n = 10**12
        grid = PulseGrid(ref_times=np.array([0, n - 1], dtype=np.uint64),
                         divider=n - 1, period_tb=1.0)
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
