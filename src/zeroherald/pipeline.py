"""Turn raw tag streams into per-pulse event tables.

The chain is: rebuild the pulse train from reference tags, assign each
detector tag to a pulse through a virtual gate window, enforce detector
dead time on the assigned clicks, and emit an event table. The table
gives each detector one tri-state outcome per pulse (no-click / click /
dead) but stores only the accepted click pulses and the dead length, so
its size and the 3x3 cell counts that analysis reduces to rates grow
with the number of clicks, not with the number of pulses.

Gating arithmetic is exact: a tag at timestamp t inside reference
segment i with spacing s is compared through integers only,
(t - ref_i) * divider vs. pulse_offset * s, so no tag ever migrates
across a pulse boundary through float rounding. Timestamps stay uint64
until they are reduced to offsets from a reference, so any u64 value
is placed correctly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import (
    ClockGlitchError,
    InsufficientReferenceError,
    ValidationError,
    check_count,
    check_counts,
    check_real,
)
from .tags import PS_PER_SECOND, Channel, TagStream

__all__ = [
    "PulseGrid",
    "GateResult",
    "PulseEventTable",
    "reconstruct_pulse_train",
    "gate_window_tb",
    "virtual_gate",
    "apply_dead_time",
    "build_event_table",
    "table_from_stream",
]


@dataclass(frozen=True, eq=False)
class PulseGrid:
    """Pulse train rebuilt from reference tags: the references (counts, at
    least one, held as read-only uint64; their order is not checked), the
    divider (a positive integer) and period_tb, the median pulse spacing
    in timebins (positive), off which n_pulses, (len(ref_times) - 1) *
    divider + 1, is read. Pulse k lives in reference segment k //
    divider; its time is the linear interpolation between the
    bracketing references. A grid compares and hashes by identity.
    """

    ref_times: np.ndarray
    divider: int
    period_tb: float

    def __post_init__(self):
        refs = check_counts("ref_times", self.ref_times).astype(np.uint64, copy=False)
        if refs.size == 0:
            raise InsufficientReferenceError("a pulse grid needs at least one reference tag")
        refs.flags.writeable = False
        object.__setattr__(self, "ref_times", refs)
        object.__setattr__(self, "divider", check_count("divider", self.divider, least=1))
        object.__setattr__(self, "period_tb", check_real("period_tb", self.period_tb, "positive"))

    n_pulses = property(lambda self: (self.ref_times.size - 1) * self.divider + 1)


def reconstruct_pulse_train(stream: TagStream) -> PulseGrid:
    """Rebuild the pulse grid from a stream's reference tags.

    Needs at least two references. The period is the median reference
    gap over divider. A gap more than divider/2 timebins (half a
    timebin per synthesized pulse) from the median is a clock glitch:
    ClockGlitchError lists the indices of every such gap.

    One pass over the gaps, a block at a time in one reused buffer, finds
    the smallest and the largest. If they differ by at most one, the gaps,
    which add up to the span of the references, give the median by a count.
    If they differ by more, the gaps are taken whole for a partition, and
    only then does the peak add one gap per reference. The glitch test needs
    only the extremes, so the gaps are taken again only to list a glitch.
    The grid keeps the stream's references.
    """
    refs = stream.refs
    if refs.size < 2:
        raise InsufficientReferenceError(
            f"need at least 2 reference tags to rebuild the pulse train, got {refs.size}"
        )
    low, top = _gap_extremes(refs)
    if top * stream.divider >= 1 << 63:
        raise ValidationError("reference spacing times divider must stay below 2**63 "
                              "for exact gating")
    n_gaps = refs.size - 1
    mid = [(n_gaps - 1) // 2, n_gaps // 2]
    if top - low <= 1:
        # the gaps above low add one each to n_gaps * low: the span tells them
        n_low = n_gaps - (int(refs[-1]) - int(refs[0]) - n_gaps * low)
        pair = np.array([low if i < n_low else top for i in mid], dtype=np.uint64)
    else:
        gaps = refs[1:] - refs[:-1]
        gaps.partition(mid)
        pair = gaps[mid]
    # u64 -> f64 is monotone, so the middle pair of the gaps converts to
    # the middle pair of their float copy, and mean() adds it as median() does
    median = float(np.mean(pair))
    if median <= 0:
        raise ClockGlitchError("reference tags do not advance", indices=[0])
    # |gap - median| rounds monotonically in the gap: the extremes decide
    half = 0.5 * stream.divider
    if float(top) - median > half or median - float(low) > half:
        deviation = np.abs((refs[1:] - refs[:-1]).astype(np.float64) - median)
        bad = np.flatnonzero(deviation > half)
        raise ClockGlitchError(
            f"{bad.size} reference gap(s) deviate from the median period "
            f"{median!r} by more than {half} timebins",
            indices=bad.tolist(),
        )
    return PulseGrid(ref_times=refs, divider=stream.divider, period_tb=median / stream.divider)


def _gap_extremes(refs: np.ndarray) -> tuple[int, int]:
    """The smallest and the largest gap between neighbouring references,
    taken a block of _GAP_BLOCK at a time into one buffer."""
    n_gaps = refs.size - 1
    buffer = np.empty(min(n_gaps, _GAP_BLOCK), dtype=np.uint64)
    low, top = 1 << 64, 0
    for start in range(0, n_gaps, _GAP_BLOCK):
        stop = min(start + _GAP_BLOCK, n_gaps)
        gaps = np.subtract(refs[start + 1:stop + 1], refs[start:stop], out=buffer[:stop - start])
        low, top = min(low, int(gaps.min())), max(top, int(gaps.max()))
    return low, top


_GAP_BLOCK = 1 << 16  # reference gaps per block of _gap_extremes


@dataclass(frozen=True, eq=False)
class GateResult:
    """Detector tags assigned to pulses by the virtual gate.

    assigned maps each detector channel to the pulse index of every
    in-gate tag (stream order, so non-decreasing), read-only; n_rejected
    counts tags outside every gate window, tags before the first reference
    too. Both are read-only mappings; a result compares by identity.
    """

    grid: PulseGrid
    assigned: dict
    n_rejected: dict

    def __post_init__(self):
        for pulses in self.assigned.values():
            pulses.flags.writeable = False
        object.__setattr__(self, "assigned", MappingProxyType(dict(self.assigned)))
        object.__setattr__(self, "n_rejected", MappingProxyType(dict(self.n_rejected)))


def gate_window_tb(window: float, timebin_ps: int, period_tb: float) -> float:
    """window seconds in timebins; ValidationError unless in (0, period_tb)."""
    window_tb = check_real("gate window", window) * PS_PER_SECOND / timebin_ps
    if not 0 < window_tb < period_tb:
        raise ValidationError(
            f"gate window of {window_tb!r} timebins must sit in (0, period {period_tb!r})")
    return window_tb


def virtual_gate(stream: TagStream, grid: PulseGrid, window: float) -> GateResult:
    """Assign detector tags to pulses; window is in seconds.

    A tag belongs to pulse k when pulse_time(k) <= t < pulse_time(k) +
    window. Windows must not overlap (window < pulse period), so each
    tag lands in at most one pulse; everything else is rejected.
    """
    window_tb = gate_window_tb(window, stream.timebin_ps, grid.period_tb)
    tags = {Channel.D1: stream.d1, Channel.D2: stream.d2}
    assigned = {ch: _gated_pulses(t, grid.ref_times, grid.divider, window_tb)
                for ch, t in tags.items()}
    n_rejected = {ch: int(t.size - assigned[ch].size) for ch, t in tags.items()}
    return GateResult(grid=grid, assigned=assigned, n_rejected=n_rejected)


def _gated_pulses(t: np.ndarray, refs: np.ndarray, divider: int, window_tb: float) -> np.ndarray:
    """Pulse indices of the tag times t that fall in a gate window.

    A tag is in reference segment s when refs[s] <= t < refs[s+1], in
    the last one when refs[-1] <= t, and rejected before refs[0]. In
    segment s, with spacing sp, a tag is pulse s * divider + j for
    j = (t - refs[s]) * divider // sp, and in the gate when the
    remainder is below window_tb * divider.

    Each tag's segment is first estimated on an even grid,
    (t - refs[0]) // ((refs[-1] - refs[0]) // (len(refs) - 1)), and
    checked with the offset and spacing the arithmetic needs anyway:
    only the tags it misses (references that wander, tags before the
    first reference or past the last) are searched. With one reference,
    or references that do not advance, every tag is searched.
    """
    last = refs.size - 1
    step = (int(refs[-1]) - int(refs[0])) // last if last else 0
    if step:
        # tags before refs[0] wrap to huge offsets: clipped, then missed
        seg = np.minimum((t - refs[0]) // np.uint64(step), last - 1).view(np.int64)
        start = refs[seg]
        offset, spacing = t - start, np.subtract(refs[seg + 1], start, out=start)
    else:
        seg = np.zeros(t.size, dtype=np.int64)
        offset, spacing = np.zeros(t.size, dtype=np.uint64), np.zeros(t.size, dtype=np.uint64)
    # below the segment's start the u64 offset wraps past every spacing, so
    # refs[s] <= t < refs[s+1] exactly when offset < spacing
    missed = np.flatnonzero(offset >= spacing)
    if missed.size:
        found = np.searchsorted(refs, t[missed], side="right") - 1
        seg[missed] = found
        inner = (found >= 0) & (found < last)
        # outside every gap: offset 0 in a one-timebin segment, so the
        # arithmetic below stays exact; those tags are settled after it
        start = np.where(inner, refs[found], t[missed])
        offset[missed] = t[missed] - start
        spacing[missed] = np.where(inner, refs[np.minimum(found + 1, last)] - start, 1)
    # offset and spacing times divider stay below 2**63 (checked by
    # reconstruct_pulse_train): exact in int64
    scaled = offset.view(np.int64)
    scaled *= divider
    spacing = spacing.view(np.int64)
    j = scaled // spacing
    in_gate = (scaled - j * spacing) < window_tb * divider
    pulse = seg * divider + j
    if missed.size:
        # before refs[0], rejected; past refs[-1], a float compare, as
        # far-out strays would overflow the scaled int test
        after = (t[missed] - refs[-1]).astype(np.float64) < window_tb
        in_gate[missed] = np.where(found == last, after, in_gate[missed] & (found >= 0))
    return pulse[in_gate]


def apply_dead_time(click_pulses, dead_pulses: int) -> np.ndarray:
    """Thin a click list through a non-paralyzable dead window.

    After an accepted click at pulse k the next dead_pulses pulses are
    blind; clicks there are dropped and do not extend the window. Input
    order does not matter; duplicates collapse. Idempotent. The clicks
    are pulse indices in [0, 2**63), a 1-d integer array or a list of
    them; anything else is a ValidationError, never cast.

    The clicks are sorted (a stable sort, linear on input that is
    already in order) and deduplicated, then thinned greedily without a
    per-click loop. A click is free when no earlier click's dead window
    reaches it: every greedy chain keeps it, and one running maximum
    finds them all. Only the contested clicks, those inside some
    earlier window, and the free click heading each run of them go
    through searchsorted and pointer doubling, so the cost is linear in
    the clicks plus O(m log m) in the m contested ones.
    """
    dead_pulses = check_count("dead_pulses", dead_pulses)
    clicks = check_counts("click pulses", click_pulses, below=1 << 63)
    clicks = np.sort(clicks, kind="stable").astype(np.int64, copy=False)
    clicks = clicks[_first_of_runs(clicks)]
    # a window to 2**63 - 1 blinds every later click: no end reaches 2**64
    starts = clicks.view(np.uint64)
    return clicks[_greedy_chain(starts, starts + np.uint64(min(dead_pulses, 2**63 - 1)))]


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal, adjacent values."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _greedy_chain(positions: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Mask of the greedy chain through sorted, distinct positions.

    The chain keeps position 0; after keeping position i it keeps the
    first position past ends[i], the last one that i blocks (ends[i] is
    at least positions[i]). Index j is free when no earlier end reaches
    it: whatever was kept before j then leads to j, so every free index
    is kept, and one running maximum finds them all. The rest, the
    contested indices, fall into clusters, each a run of them behind
    one free head. A chain never leaves a cluster before the next free
    index, so the chains of all clusters are followed at once, over the
    clusters' indices only: searchsorted gives each its successor, and
    pointer doubling (each round maps the chain nodes found so far by
    the jump table, then squares the table) takes about log2 of the
    longest chain in rounds, O(m log m) for m contested indices.
    """
    keep = np.ones(positions.size, dtype=bool)
    keep[1:] = np.maximum.accumulate(ends[:-1]) < positions[1:]
    nodes = ~keep
    nodes[:-1] |= nodes[1:].copy()  # each cluster's free head
    idx = np.flatnonzero(nodes)
    if idx.size == 0:
        return keep
    m = idx.size
    head = keep[idx]
    jump = np.searchsorted(positions[idx], ends[idx], side="right")
    # a step onto a free index leaves the cluster: the end, m
    jump[np.append(head, True)[jump]] = m
    path = np.flatnonzero(head)
    while True:
        # clipping reads jump[m - 1], which is m, for the end index m
        found = jump.take(path, mode="clip")
        found = found[found < m]
        if found.size == 0:
            break
        path = np.concatenate((path, found))
        jump = jump.take(jump, mode="clip")
    keep[idx[path]] = True
    return keep


@dataclass(frozen=True, eq=False)
class PulseEventTable:
    """Per-pulse outcomes of both detectors, stored as accepted clicks.

    clicks1/clicks2 hold the sorted pulse indices of each detector's
    accepted clicks, more than dead_pulses1/dead_pulses2 apart, as
    apply_dead_time leaves them. After a click at pulse k the detector
    is dead on pulses k+1 .. k+dead_pulses (cut off at the end of the
    train) and idle everywhere else. A pulse is "live" when neither
    detector is dead there. Storage and cell_counts() grow with the
    number of clicks, never with the number of pulses. n_pulses and the
    dead lengths must be integers: a float, bool or string is rejected,
    never truncated. int64 clicks are kept as given, not copied, and made
    read-only. A table compares and hashes by identity.
    """

    n_pulses: int
    clicks1: np.ndarray
    clicks2: np.ndarray
    dead_pulses1: int
    dead_pulses2: int

    def __post_init__(self):
        object.__setattr__(self, "n_pulses", check_count("n_pulses", self.n_pulses))
        if self.n_pulses >= 1 << 63:  # every pulse index is an int64
            raise ValidationError(f"n_pulses must be below 2**63, got {self.n_pulses}")
        for i in (1, 2):
            dead = check_count(f"dead_pulses{i}", getattr(self, f"dead_pulses{i}"))
            clicks = check_counts(f"clicks{i}", getattr(self, f"clicks{i}"), below=self.n_pulses)
            clicks = clicks.astype(np.int64, copy=False)
            if np.any(np.diff(clicks) <= dead):
                raise ValidationError(f"clicks{i} must be sorted and more than "
                                      f"dead_pulses{i} = {dead} apart")
            clicks.flags.writeable = False
            object.__setattr__(self, f"dead_pulses{i}", dead)
            object.__setattr__(self, f"clicks{i}", clicks)

    def cell_counts(self) -> np.ndarray:
        """3x3 matrix counting pulses by (detector 1 state, detector 2 state).

        Click/click pulses are the shared clicks. A click sits in the
        other detector's dead window when that detector's previous click
        is at most its dead length before it. Dead/dead pulses are the
        overlap of the two window sets. The no-click cells follow from
        each detector's click and dead totals and n_pulses.

        One search places each detector 1 click among the sorted,
        distinct detector 2 clicks; the other two placements are counted
        from it. The number of clicks1 below each click2 is a running sum
        of how many clicks1 have each number of clicks2 at or before
        them. The spacing rule (clicks more than the dead length apart)
        ends each detector 2 window before the next detector 2 click, so
        of the windows starting at or before a click1 only the last one
        can reach past it: the clicks1 below each window end are counted
        the same way.
        """
        c1, c2 = self.clicks1, self.clicks2
        # the dead window after click k covers [k+1, min(k+dead, n-1)]
        len1 = np.minimum(self.dead_pulses1, self.n_pulses - 1 - c1)
        len2 = np.minimum(self.dead_pulses2, self.n_pulses - 1 - c2)
        cells = np.zeros((3, 3), dtype=np.int64)
        if c1.size and c2.size:
            at = np.searchsorted(c2, c1)  # c2[at-1] < c1 <= c2[at]
            shared = c2[np.minimum(at, c2.size - 1)] == c1
            cells[1, 1] = np.count_nonzero(shared)
            cells[1, 2] = np.count_nonzero((at > 0) & (c1 - c2[at - 1] <= self.dead_pulses2))
            at += shared  # clicks2 at or before each click1
            del shared
            below2 = _running_counts(at, c2.size)  # clicks1 below each click2
            cells[2, 1] = np.count_nonzero(
                (below2 > 0) & (c2 - c1[below2 - 1] <= self.dead_pulses1))
            # now the detector 2 windows that end at or before each click1
            at -= (at > 0) & (c1 - c2[at - 1] < len2[at - 1])
            end1 = c1 + len1
            end1 += 1  # one past each window
            cum1 = np.zeros(c1.size + 1, dtype=np.int64)
            np.cumsum(len1, out=cum1[1:])

            def covered_below(x, k):
                # set-1 pulses below x, given the k windows that start
                # below x: their lengths, less the last one's part at or
                # past x
                over = end1[k - 1]  # k = 0 reads the last window: zeroed below
                over -= x
                np.maximum(over, 0, out=over)
                over[k == 0] = 0
                return int(cum1[k].sum()) - int(over.sum())

            # detector 2's windows are [c2+1, c2+len2]; a set-1 window
            # starts below c2+1 when c1 < c2, and below c2+len2+1 when
            # c1 < c2+len2, which the running counts give
            x = c2 + len2
            x += 1
            cells[2, 2] = covered_below(x, _running_counts(at, c2.size))
            del at
            cells[2, 2] -= covered_below(c2 + 1, below2)
        cells[1, 0] = c1.size - cells[1, 1] - cells[1, 2]
        cells[2, 0] = len1.sum() - cells[2, 1] - cells[2, 2]
        cells[0, 1] = c2.size - cells[1, 1] - cells[2, 1]
        cells[0, 2] = len2.sum() - cells[1, 2] - cells[2, 2]
        cells[0, 0] = self.n_pulses - cells.sum()
        return cells


def _running_counts(values: np.ndarray, n: int) -> np.ndarray:
    """For k in 0..n-1, how many of values (integers in [0, n]) are at most k."""
    counts = np.bincount(values, minlength=n + 1)[:n]
    return np.cumsum(counts, out=counts)


def build_event_table(gate: GateResult, dead_pulses1: int, dead_pulses2: int) -> PulseEventTable:
    """Apply per-detector dead time to gated clicks; emit the table."""
    return PulseEventTable(
        n_pulses=gate.grid.n_pulses,
        clicks1=apply_dead_time(gate.assigned[Channel.D1], dead_pulses1),
        clicks2=apply_dead_time(gate.assigned[Channel.D2], dead_pulses2),
        dead_pulses1=dead_pulses1,
        dead_pulses2=dead_pulses2,
    )


def table_from_stream(
    stream: TagStream,
    window: float,
    dead_pulses1: int,
    dead_pulses2: int,
) -> tuple[PulseGrid, GateResult, PulseEventTable]:
    """Full chain: reconstruct, gate, and tabulate one stream."""
    grid = reconstruct_pulse_train(stream)
    gate = virtual_gate(stream, grid, window)
    table = build_event_table(gate, dead_pulses1, dead_pulses2)
    return grid, gate, table
