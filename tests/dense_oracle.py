"""Obvious per-pulse and per-click references for the fast pipeline.

DenseTable keeps one PulseState code per pulse and per detector and
counts the 3x3 cells with bincount, the obvious way. It is the
differential oracle for PulseEventTable and its per-pulse view:
DenseTable.of(table) gives each detector's state on every pulse, and
live_mask() the pulses where neither is dead. It also holds the
hand-made state fixtures of the rate tests, some of which (a dead row
with no click before it) have no sparse form. compute_rates reads only
n_pulses and cell_counts(), so it accepts either table.

float_reconstruct is reconstruct_pulse_train as a float median of the
reference gaps and one float deviation per gap, the reference for the
in-place median and extremes test the pipeline uses. pulse_times
interpolates pulse times on a rebuilt grid. searched_gate is the
virtual gate with one binary search per tag among the references, the
reference for the estimated segments pipeline.virtual_gate checks.

oracle_records is the record order of a stream by one stable sort of
its three channels concatenated, the reference for the block-wise
interleave of the CSV tag writer. v1_bytes encodes a stream as a
version 1 binary tag file, 9-byte records in that order: the format
written before version 2, which tags.read_tags rejects. Its digests
stay as pins of the golden streams.

greedy_dead_time is the scalar walk that pipeline.apply_dead_time
vectorises: the differential oracle for the shared dead-time thinning.
afterpulse_walk is the event-by-event detector the simulator's
vectorised afterpulse chain stands for. printf_tags_csv is the CSV tag
writer as one printf-style call per block, the reference for the byte
matrix tags.write_tags_csv builds.

sample_trial and detect_pulse are the per-pulse scalar twins of the
simulator: one pulse of the source, and one detector advanced by one
pulse. They share the physics of run_simulation but not its draw
order, so they are statistical twins, not bitwise ones.
"""

import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from zeroherald.errors import ClockGlitchError, InsufficientReferenceError, ValidationError
from zeroherald.model import DetectorParams, SourceParams, p_noclick_given_n
from zeroherald.tags import Channel


class PulseState(IntEnum):
    """Per-pulse detector outcome in a dense table."""

    NOCLICK = 0
    CLICK = 1
    DEAD = 2


class DenseTable:
    def __init__(self, d1, d2):
        self.d1 = np.asarray(d1, dtype=np.uint8)
        self.d2 = np.asarray(d2, dtype=np.uint8)
        if self.d1.shape != self.d2.shape or self.d1.ndim != 1:
            raise ValueError("detector state arrays must be 1-d and equal length")

    @classmethod
    def from_clicks(cls, n_pulses, clicks1, dead1, clicks2, dead2):
        return cls(dense_states(n_pulses, clicks1, dead1),
                   dense_states(n_pulses, clicks2, dead2))

    @classmethod
    def of(cls, table):
        """The per-pulse view of a PulseEventTable, from its accepted clicks."""
        return cls.from_clicks(table.n_pulses, table.clicks1, table.dead_pulses1,
                               table.clicks2, table.dead_pulses2)

    @property
    def n_pulses(self) -> int:
        return self.d1.size

    def live_mask(self) -> np.ndarray:
        """Pulses where neither detector is dead."""
        return (self.d1 != PulseState.DEAD) & (self.d2 != PulseState.DEAD)

    def cell_counts(self) -> np.ndarray:
        combined = self.d1.astype(np.int64) * 3 + self.d2
        return np.bincount(combined, minlength=9).reshape(3, 3)


def dense_states(n_pulses, clicks, dead):
    """Walk the pulses: each accepted click, then its dead pulses."""
    state = [PulseState.NOCLICK] * n_pulses
    for k in clicks:
        state[k] = PulseState.CLICK
        for j in range(k + 1, min(k + dead, n_pulses - 1) + 1):
            state[j] = PulseState.DEAD
    return np.array(state, dtype=np.uint8)


def float_reconstruct(stream):
    """(period_tb, n_pulses) of the pulse grid, or the error rebuilding it raises."""
    refs = stream.refs
    if refs.size < 2:
        raise InsufficientReferenceError(
            f"need at least 2 reference tags to rebuild the pulse train, got {refs.size}"
        )
    gaps = refs[1:] - refs[:-1]
    if int(gaps.max()) * stream.divider >= 1 << 63:
        raise ValidationError(
            "reference spacing times divider must stay below 2**63 for exact gating"
        )
    diffs = gaps.astype(np.float64)
    median = float(np.median(diffs))
    if median <= 0:
        raise ClockGlitchError("reference tags do not advance", indices=[0])
    bad = np.flatnonzero(np.abs(diffs - median) > 0.5 * stream.divider)
    if bad.size:
        raise ClockGlitchError(
            f"{bad.size} reference gap(s) deviate from the median period "
            f"{median!r} by more than {0.5 * stream.divider} timebins",
            indices=bad.tolist(),
        )
    return median / stream.divider, (refs.size - 1) * stream.divider + 1


def partition_reconstruct(stream):
    """(period_tb, n_pulses) as partitioning every reference gap gives
    them: the reconstruction before it took one or two gap values by a
    count, kept as the exact reference for that count."""
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
    mid = [(gaps.size - 1) // 2, gaps.size // 2]
    gaps.partition(mid)
    median = float(np.mean(gaps[mid]))
    if median <= 0:
        raise ClockGlitchError("reference tags do not advance", indices=[0])
    half = 0.5 * stream.divider
    if float(top) - median > half or median - float(low) > half:
        deviation = np.abs((refs[1:] - refs[:-1]).astype(np.float64) - median)
        bad = np.flatnonzero(deviation > half)
        raise ClockGlitchError(
            f"{bad.size} reference gap(s) deviate from the median period "
            f"{median!r} by more than {half} timebins",
            indices=bad.tolist(),
        )
    return median / stream.divider, (refs.size - 1) * stream.divider + 1


def pulse_times(grid, k) -> np.ndarray:
    """Times (in timebins, float) of pulse indices k on a PulseGrid."""
    k = np.asarray(k, dtype=np.int64)
    if np.any(k < 0) or np.any(k >= grid.n_pulses):
        raise ValidationError("pulse index out of range")
    refs = grid.ref_times
    seg = np.minimum(k // grid.divider, refs.size - 2)
    j = k - seg * grid.divider
    spacing = (refs[seg + 1] - refs[seg]).astype(np.int64)
    return refs[seg] + j * spacing / grid.divider


def searched_gate(t, refs, divider, window_tb):
    """Pulse indices of the tag times t in a gate window, each tag's
    reference segment found by np.searchsorted: in segment s, with
    spacing sp, a tag is pulse s * divider + (t - refs[s]) * divider // sp,
    in the gate when the remainder is below window_tb * divider; past
    the last reference it is pulse (len(refs) - 1) * divider, in the gate
    when t - refs[-1] < window_tb; before refs[0] it is rejected."""
    seg = np.searchsorted(refs, t, side="right") - 1
    pulse = np.full(t.size, -1, dtype=np.int64)
    in_gate = np.zeros(t.size, dtype=bool)

    mid = (seg >= 0) & (seg < refs.size - 1)
    if np.any(mid):
        s = seg[mid]
        start = refs[s]
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
        in_gate[last] = rel.astype(np.float64) < window_tb
    return pulse[in_gate]


def oracle_records(stream):
    """(channels, timestamps) of every record in the writers' order.

    A stable sort of refs, d1 and d2 concatenated: time order, and on
    equal timestamps REF, then D1, then D2.
    """
    timestamps = np.concatenate((stream.refs, stream.d1, stream.d2))
    channels = np.repeat(np.array(list(Channel), dtype=np.uint8),
                         (stream.refs.size, stream.d1.size, stream.d2.size))
    order = np.argsort(timestamps, kind="stable")
    return channels[order], timestamps[order]


def v1_bytes(stream) -> bytes:
    """A stream's binary tag file in format version 1: the 18-byte header,
    then a (u8 channel, u64 timestamp) record a tag in oracle_records order."""
    channels, timestamps = oracle_records(stream)
    records = np.empty(channels.size, dtype=[("channel", "u1"), ("timestamp", "<u8")])
    records["channel"], records["timestamp"] = channels, timestamps
    return struct.pack("<4sHIII", b"ZHT1", 1, stream.timebin_ps, stream.rep_period_ps,
                       stream.divider) + records.tobytes()


def greedy_dead_time(click_pulses, dead):
    """Walk the distinct clicks in order, keeping each one that is live."""
    accepted = []
    next_live = None
    for k in sorted(set(int(c) for c in click_pulses)):
        if next_live is None or k >= next_live:
            accepted.append(k)
            next_live = k + dead + 1
    return np.array(accepted, dtype=np.int64)


def afterpulse_walk(pulses, offsets, runs, jitter, dead, n_pulses):
    """Walk a detector's candidates and afterpulses in pulse order.

    pulses/offsets are the candidates sorted by (pulse, offset), repeats
    allowed; runs holds one run length per distinct pulse, in order, and
    jitter the offsets of the afterpulses in the order they fire. The
    first candidate at a live pulse clicks and arms its run length; every
    click, while armed afterpulses are left, spends one to schedule a
    click at the first live pulse, which absorbs candidates there and
    takes the earlier time. Nothing at or past n_pulses fires.

    Returns (pulse, offset, is_afterpulse) per click, in order.
    """
    distinct = sorted(set(int(p) for p in pulses))
    run_of = dict(zip(distinct, (int(r) for r in runs)))
    cands = list(zip((int(p) for p in pulses), (int(o) for o in offsets)))
    jitter = iter(int(j) for j in jitter)
    clicks = []
    next_live = 0
    armed = 0
    pending = None
    i = 0
    while i < len(cands) or pending is not None:
        k = cands[i][0] if i < len(cands) else None
        if pending is not None and (k is None or pending <= k):
            k, best, is_after = pending, next(jitter), True
            pending = None
        else:
            best, is_after = None, False
        if k >= n_pulses:
            break
        while i < len(cands) and cands[i][0] == k:
            best = cands[i][1] if best is None else min(best, cands[i][1])
            i += 1
        if k < next_live:
            continue  # blind: absorbed without a click
        if not is_after:
            armed = run_of[k]
        clicks.append((k, best, is_after))
        next_live = k + dead + 1
        if armed:
            armed -= 1
            pending = next_live
    return clicks


def printf_tags_csv(stream, fh, block=1 << 16):
    """Write a stream's CSV form to the text file fh, "%s,%d" per record."""
    fh.write("# zht-csv\n")
    fh.write("# version = 1\n")
    fh.write(f"# timebin_ps = {stream.timebin_ps}\n")
    fh.write(f"# rep_period_ps = {stream.rep_period_ps}\n")
    fh.write(f"# divider = {stream.divider}\n")
    fh.write(f"# records = {len(stream)}\n")
    flat = " ".join(stream.provenance.splitlines()) if stream.provenance else ""
    fh.write(f"# provenance = {flat}\n")
    fh.write("channel,timestamp\n")
    names = np.array([c.name for c in Channel], dtype=object)
    channels, timestamps = oracle_records(stream)
    for start in range(0, len(stream), block):
        chans = channels[start:start + block]
        fields = [None] * (2 * chans.size)
        fields[0::2] = names[chans].tolist()
        fields[1::2] = timestamps[start:start + block].tolist()
        fh.write("%s,%d\n" * chans.size % tuple(fields))


class TrialOutcome(NamedTuple):
    """Photon numbers (m, n) delivered to the two detectors by one pulse."""

    m: int
    n: int


def sample_trial(rng: np.random.Generator, src: SourceParams, nu: float) -> TrialOutcome:
    """Sample one pulse of the source.

    A pair is emitted with probability gamma; each photon independently
    survives its channel; two survivors interfere and either split
    (probability (1-nu)/2) or bunch into one output; a lone survivor
    picks an output by fair coin.
    """
    if rng.random() >= src.gamma:
        return TrialOutcome(0, 0)
    s1 = rng.random() < src.kappa1
    s2 = rng.random() < src.kappa2
    if s1 and s2:
        u = rng.random()
        if u < (1.0 - nu) / 2.0:
            return TrialOutcome(1, 1)
        if u < (1.0 - nu) / 2.0 + (1.0 + nu) / 4.0:
            return TrialOutcome(2, 0)
        return TrialOutcome(0, 2)
    if s1 or s2:
        return TrialOutcome(1, 0) if rng.random() < 0.5 else TrialOutcome(0, 1)
    return TrialOutcome(0, 0)


@dataclass
class DeadState:
    """Mutable per-detector state threaded through detect_pulse calls.

    dead_remaining counts pulses still blind; afterpulse_pending marks
    a spurious click waiting for the first live pulse.
    """

    dead_remaining: int = 0
    afterpulse_pending: bool = False


def detect_pulse(
    rng: np.random.Generator,
    photons: int,
    det: DetectorParams,
    state: DeadState,
) -> bool:
    """Advance one detector by one pulse; return whether it clicked.

    Call once per pulse in order. While dead the detector ignores
    arrivals (they do not extend the window). A live detector clicks
    with probability 1 - (1-d)(1-eta)^photons, or deterministically if
    an afterpulse is pending; every click re-arms the dead window and
    schedules a new afterpulse with probability afterpulse_prob.
    """
    if state.dead_remaining > 0:
        state.dead_remaining -= 1
        return False
    click = state.afterpulse_pending or (rng.random() >= p_noclick_given_n(det, photons))
    if click:
        state.afterpulse_pending = rng.random() < det.afterpulse_prob
        state.dead_remaining = det.dead_pulses
    return click
