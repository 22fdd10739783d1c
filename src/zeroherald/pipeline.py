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

import numpy as np

from .errors import (
    ClockGlitchError,
    InsufficientReferenceError,
    ValidationError,
)
from .tags import PS_PER_SECOND, Channel, TagStream

__all__ = [
    "PulseGrid",
    "GateResult",
    "PulseEventTable",
    "reconstruct_pulse_train",
    "virtual_gate",
    "apply_dead_time",
    "build_event_table",
    "table_from_stream",
]


@dataclass
class PulseGrid:
    """Pulse train rebuilt from reference tags.

    Pulse k lives in reference segment k // divider; its time is the
    linear interpolation between the bracketing references. period_tb
    is the median pulse spacing in timebins.
    """

    ref_times: np.ndarray
    divider: int
    n_pulses: int
    period_tb: float


def reconstruct_pulse_train(stream: TagStream) -> PulseGrid:
    """Rebuild the pulse grid from a stream's reference tags.

    Needs at least two references. The period is the median reference
    gap over divider. A gap more than divider/2 timebins (half a
    timebin per synthesized pulse) from the median is a clock glitch:
    ClockGlitchError lists the indices of every such gap.

    The gaps are taken once: the median comes from partitioning them in
    place, and the glitch test needs only the largest and the smallest
    gap, so they are taken again only to list a glitch. The grid keeps
    the stream's references: at peak this adds one gap per reference.
    """
    refs = stream.refs
    if refs.size < 2:
        raise InsufficientReferenceError(
            f"need at least 2 reference tags to rebuild the pulse train, got {refs.size}"
        )
    gaps = refs[1:] - refs[:-1]
    top, low = gaps.max(), gaps.min()
    if int(top) * stream.divider >= 1 << 63:
        raise ValidationError(
            "reference spacing times divider must stay below 2**63 for exact gating"
        )
    # u64 -> f64 is monotone, so the middle pair of the gaps converts to
    # the middle pair of their float copy, and mean() adds it as median() does
    mid = [(gaps.size - 1) // 2, gaps.size // 2]
    gaps.partition(mid)
    median = float(np.mean(gaps[mid]))
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
    n_pulses = (refs.size - 1) * stream.divider + 1
    return PulseGrid(
        ref_times=refs,
        divider=stream.divider,
        n_pulses=n_pulses,
        period_tb=median / stream.divider,
    )


@dataclass
class GateResult:
    """Detector tags assigned to pulses by the virtual gate.

    assigned maps each detector channel to the pulse index of every
    in-gate tag (stream order, so non-decreasing); n_rejected counts
    tags that fell outside every gate window, including tags before the
    first reference.
    """

    grid: PulseGrid
    assigned: dict
    n_rejected: dict


def virtual_gate(stream: TagStream, grid: PulseGrid, window: float) -> GateResult:
    """Assign detector tags to pulses; window is in seconds.

    A tag belongs to pulse k when pulse_time(k) <= t < pulse_time(k) +
    window. Windows must not overlap (window < pulse period), so each
    tag lands in at most one pulse; everything else is rejected.
    """
    window_tb = window * PS_PER_SECOND / stream.timebin_ps
    if not 0 < window_tb < grid.period_tb:
        raise ValidationError(
            f"gate window of {window_tb!r} timebins must sit in (0, period "
            f"{grid.period_tb!r})"
        )
    refs = np.asarray(grid.ref_times, dtype=np.uint64)
    tags = {Channel.D1: stream.d1, Channel.D2: stream.d2}
    assigned = {ch: _gated_pulses(t, refs, grid.divider, window_tb) for ch, t in tags.items()}
    n_rejected = {ch: int(t.size - assigned[ch].size) for ch, t in tags.items()}
    return GateResult(grid=grid, assigned=assigned, n_rejected=n_rejected)


def _gated_pulses(t: np.ndarray, refs: np.ndarray, divider: int, window_tb: float) -> np.ndarray:
    """Pulse indices of the tag times t that fall in a gate window.

    In reference segment s, with spacing sp, a tag is pulse
    s * divider + j for j = (t - refs[s]) * divider // sp, and in the
    gate when the remainder is below window_tb * divider.
    """
    seg = np.searchsorted(refs, t, side="right") - 1
    pulse = np.full(t.size, -1, dtype=np.int64)
    in_gate = np.zeros(t.size, dtype=bool)

    mid = (seg >= 0) & (seg < refs.size - 1)
    if np.any(mid):
        s = seg[mid]
        start = refs[s]
        # offset and spacing times divider stay below 2**63 (checked by
        # reconstruct_pulse_train): exact in int64
        scaled = (t[mid] - start).view(np.int64)
        scaled *= divider
        sp = np.subtract(refs[s + 1], start, out=start).view(np.int64)
        j = scaled // sp
        pulse[mid] = s * divider + j
        in_gate[mid] = (scaled - j * sp) < window_tb * divider

    last = seg == refs.size - 1
    if np.any(last):
        rel = t[last] - refs[-1]
        pulse[last] = (refs.size - 1) * divider
        # float compare: far-out strays would overflow the scaled int test
        in_gate[last] = rel.astype(np.float64) < window_tb
    return pulse[in_gate]


def apply_dead_time(click_pulses, dead_pulses: int) -> np.ndarray:
    """Thin a click list through a non-paralyzable dead window.

    After an accepted click at pulse k the next dead_pulses pulses are
    blind; clicks there are dropped and do not extend the window. Input
    order does not matter; duplicates collapse. Idempotent.

    The clicks are sorted (a stable sort, linear on input that is
    already in order) and deduplicated, then thinned greedily without a
    per-click loop. A click is free when no earlier click's dead window
    reaches it: every greedy chain keeps it, and one running maximum
    finds them all. Only the contested clicks, those inside some
    earlier window, and the free click heading each run of them go
    through searchsorted and pointer doubling, so the cost is linear in
    the clicks plus O(m log m) in the m contested ones.
    """
    if not isinstance(dead_pulses, (int, np.integer)) or dead_pulses < 0:
        raise ValidationError(
            f"dead_pulses must be a non-negative integer, got {dead_pulses!r}"
        )
    clicks = np.sort(np.asarray(click_pulses, dtype=np.int64), axis=None, kind="stable")
    clicks = clicks[_first_of_runs(clicks)]
    return clicks[_dead_time_keep(clicks, dead_pulses)]


def _first_of_runs(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal, adjacent values."""
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return first


def _dead_time_keep(pulses: np.ndarray, dead: int) -> np.ndarray:
    """Mask of the pulses a non-paralyzable dead window keeps.

    pulses must be sorted and distinct (int64). The first pulse is kept,
    then, after each kept pulse k, the first pulse past k + dead, the
    last pulse its window blinds; _greedy_chain follows that chain.
    """
    keep = np.zeros(pulses.size, dtype=bool)
    keep[:1] = True
    if pulses.size == 0 or dead >= int(pulses[-1]) - int(pulses[0]):
        return keep
    # offsets from the first pulse are exact in uint64 for any int64 input;
    # dead is below the last offset here, and the window ends saturate
    offsets = pulses.view(np.uint64) - pulses[:1].view(np.uint64)
    ends = np.minimum(offsets, np.uint64(2**64 - 1 - dead))
    ends += np.uint64(dead)
    return _greedy_chain(offsets, ends)


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
    n = positions.size
    keep = np.ones(n, dtype=bool)
    if n < 2:
        return keep
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


@dataclass
class PulseEventTable:
    """Per-pulse outcomes of both detectors, stored as accepted clicks.

    clicks1/clicks2 hold the sorted pulse indices of each detector's
    accepted clicks, more than dead_pulses1/dead_pulses2 apart, as
    apply_dead_time leaves them. After a click at pulse k the detector
    is dead on pulses k+1 .. k+dead_pulses (cut off at the end of the
    train) and idle everywhere else. A pulse is "live" when neither
    detector is dead there. Storage and cell_counts() grow with the
    number of clicks, never with the number of pulses.
    """

    n_pulses: int
    clicks1: np.ndarray
    clicks2: np.ndarray
    dead_pulses1: int
    dead_pulses2: int

    def __post_init__(self):
        self.n_pulses = int(self.n_pulses)
        if self.n_pulses < 0:
            raise ValidationError(f"n_pulses must be >= 0, got {self.n_pulses!r}")
        for i in (1, 2):
            dead = int(getattr(self, f"dead_pulses{i}"))
            if dead < 0:
                raise ValidationError(f"dead_pulses{i} must be >= 0, got {dead!r}")
            clicks = np.asarray(getattr(self, f"clicks{i}"))
            if clicks.ndim != 1 or (clicks.size and clicks.dtype.kind not in "ui"):
                raise ValidationError(f"clicks{i} must be a 1-d integer array")
            if clicks.size and (clicks.min() < 0 or clicks.max() >= self.n_pulses):
                raise ValidationError("click pulse index outside the pulse grid")
            clicks = clicks.astype(np.int64)
            if np.any(np.diff(clicks) <= dead):
                raise ValidationError(
                    f"clicks{i} must be sorted and more than dead_pulses{i} = "
                    f"{dead} apart"
                )
            setattr(self, f"dead_pulses{i}", dead)
            setattr(self, f"clicks{i}", clicks)

    def cell_counts(self) -> np.ndarray:
        """3x3 matrix counting pulses by (detector 1 state, detector 2 state).

        Click/click pulses are the shared clicks. A click sits in the
        other detector's dead window when that detector's previous click
        is at most its dead length before it. Dead/dead pulses are the
        overlap of the two window sets. The no-click cells follow from
        each detector's click and dead totals and n_pulses. Both click
        lists are sorted and distinct, so two searches place each list
        in the other and serve all three counts.
        """
        c1, c2 = self.clicks1, self.clicks2
        # the dead window after click k covers [k+1, min(k+dead, n-1)]
        len1 = np.minimum(self.dead_pulses1, self.n_pulses - 1 - c1)
        len2 = np.minimum(self.dead_pulses2, self.n_pulses - 1 - c2)
        cells = np.zeros((3, 3), dtype=np.int64)
        if c1.size and c2.size:
            i = np.searchsorted(c2, c1)  # c2[i-1] < c1 <= c2[i]
            j = np.searchsorted(c1, c2)  # c1[j-1] < c2 <= c1[j]
            cells[1, 1] = np.count_nonzero(c2[np.minimum(i, c2.size - 1)] == c1)
            cells[1, 2] = np.count_nonzero((i > 0) & (c1 - c2[i - 1] <= self.dead_pulses2))
            cells[2, 1] = np.count_nonzero((j > 0) & (c2 - c1[j - 1] <= self.dead_pulses1))
            end1 = c1 + len1 + 1  # one past each window
            cum1 = np.concatenate(([0], np.cumsum(len1)))

            def covered_below(x, k):
                # set-1 pulses below x, given the k windows that start
                # below x: their lengths, less the last one's part at or
                # past x
                overshoot = np.maximum(end1[np.maximum(k - 1, 0)] - x, 0)
                return cum1[k] - np.where(k > 0, overshoot, 0)

            # detector 2's windows are [c2+1, c2+len2]; c1+1 < c2+1 is
            # c1 < c2, so j counts the set-1 windows starting below each
            cells[2, 2] = np.sum(covered_below(c2 + len2 + 1, np.searchsorted(c1, c2 + len2))
                                 - covered_below(c2 + 1, j))
        cells[1, 0] = c1.size - cells[1, 1] - cells[1, 2]
        cells[2, 0] = len1.sum() - cells[2, 1] - cells[2, 2]
        cells[0, 1] = c2.size - cells[1, 1] - cells[2, 1]
        cells[0, 2] = len2.sum() - cells[1, 2] - cells[2, 2]
        cells[0, 0] = self.n_pulses - cells.sum()
        return cells


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
