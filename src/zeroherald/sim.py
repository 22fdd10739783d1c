"""Monte Carlo trial engine emitting realistic time-tag streams.

Each pulse of a pulsed pair source can emit a photon pair (probability
gamma); surviving photons interfere and land on two click detectors
with efficiency, dark counts, pulse-granular dead time, afterpulsing,
and optional Gaussian timing jitter. The engine writes the same kind of
tag stream a time-to-digital converter would record: a reference tag
every `divider` pulses and a detector tag per click.

Pulses where nothing can happen are never visited: every independent
per-pulse Bernoulli process (pairs, darks per channel, out-of-gate
darks per channel) is sampled by drawing gaps between successes from
its geometric law, so runtime scales with the number of events rather
than the number of pulses. Below p = 1/3 numpy's Generator.geometric
draws each gap by inversion, ceil(-E / log1p(-p)) from one standard
exponential E. The engine draws those exponentials itself and does the
same arithmetic in place, a block at a time: the gaps are the same
numbers and the generator ends in the same state, so the stream is the
one Generator.geometric gives, at about half its cost. From p = 1/3 on
numpy draws by a search, and the engine leaves those draws to it.

Each emitted pair is drawn with one uniform. Its class joins the
photons (m at D1, n at D2) that loss and Hong-Ou-Mandel interference
leave with whether each detector gets a photon-induced click
candidate (probability 1-(1-eta)^c for c photons); the 13 class
probabilities are products of the branch probabilities, the table
model._CLASSES that the closed forms read too, and a pair's class is
the number of cumulative edges at or below its uniform. The uniforms
are drawn in the same order a block of pairs at a time, so the passes
over a block stay in cache, and a class's flags are bits of a u16 mask,
read by testing 1 << code. The truth keeps each pair's class, and
reads its photons off the table.

Dead time and afterpulsing are applied per detector without a per-click
loop. For each pulse with candidate events the engine draws the number
L of afterpulses a click there would chain (geometric, P(L >= l) = p**l
for afterpulse probability p), then one jitter per emitted afterpulse.
A click at pulse k is followed by afterpulses at k + r*(dead+1) for
r = 1..L and the next click is the first candidate at or past
k + (L+1)*(dead+1), so the accepted clicks are one greedy chain through
the candidates: those no earlier click can blind are kept outright, and
pointer doubling follows the chain through the contested rest.

Every event source is drawn in pulse order, so nothing is sorted from
scratch. A channel's three sorted candidate runs (photons, in-gate
darks, out-of-gate darks) are merged by a search per candidate, in the
order a stable sort would give, and the earliest offset per pulse is
kept. The stream holds each channel's tags apart: the reference tags
are a regular grid, and each detector's almost-sorted stamps need one
more stable sort. The grid is a read-only array, and the runs of a
delay scan, which share their pulse count, period and divider, all
hold the one grid the scan builds.

All randomness of a run comes from one counter-based Philox generator
keyed by (seed, 0), so a config is reproducible tag-for-tag. The draw
order is: pair gaps, one uniform per pair, then for D1 its candidate
jitters, in-gate darks and out-of-gate darks, the same for D2, then
the dead-time and afterpulse walk of D1 and of D2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .errors import CapacityError, ValidationError, check_count, check_real, check_reals
from .model import (_CLASSES, DetectorParams, IndistinguishabilityProfile, SourceParams,
                    _class_probs)
from .pipeline import _first_of_runs, _greedy_chain, gate_window_tb
from .tags import PS_PER_SECOND, TagStream

__all__ = [
    "SimConfig",
    "SimTruth",
    "SimResult",
    "run_simulation",
    "scan_delays",
    "delay_configs",
    "derive_delay_seed",
]

MAX_TIMESTAMP = 2**62  # headroom below the u64 ceiling for jitter excursions

# draws per block of the per-draw passes: the 256 kB of 32k doubles stay
# in a core's L2 cache through every pass over them
_BLOCK = 1 << 15

# the class table's columns by class code, built once: the photons at D1
# and D2, and each detector's candidate flags as a u16 mask, so a flag is
# 1 << code & mask, one u16 pass where a table lookup would copy to intp
_M, _N = (np.array(column, dtype=np.uint8) for column in list(zip(*_CLASSES))[1:3])
_HIT1, _HIT2 = (sum(1 << code for code, row in enumerate(_CLASSES) if row[at]) for at in (3, 4))


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    Times are in seconds. The timebin must be an integer number of
    picoseconds (the tag-file header stores it that way), and the pulse
    period is snapped to a whole number of timebins so that pulse
    boundaries, gates, and reconstruction agree exactly; the effective
    period is `period_tb * timebin`.

    gate_window / out_gate_dark_rate describe where dark counts land:
    dark_prob per detector is the chance of a dark click inside the
    gate window of a pulse, while out_gate_dark_rate (Hz) spreads extra
    dark tags uniformly over the rest of the period, to be rejected by
    virtual gating downstream. Neither value comes from a measured
    device, and the two are not tied: the defaults put 240 Hz of darks
    outside the gate and none inside (a real 240 Hz floor would give a
    2 ns gate dark_prob ~ 4.8e-7).
    """

    source: SourceParams
    det1: DetectorParams
    det2: DetectorParams
    profile: IndistinguishabilityProfile
    n_pulses: int
    seed: int
    delta_t: float = 0.0
    rep_period: float = 10e-9
    timebin: float = 81e-12
    divider: int = 512
    jitter_sigma: float = 0.0
    gate_window: float = 2e-9
    out_gate_dark_rate: float = 240.0

    def __post_init__(self):
        for name, least in (("n_pulses", 1), ("divider", 1), ("seed", 0)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), least))
        if self.seed >= 2**64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        for name, within in (("delta_t", "finite"), ("rep_period", "positive"),
                             ("timebin", "positive"), ("gate_window", "positive"),
                             ("jitter_sigma", "non-negative"),
                             ("out_gate_dark_rate", "non-negative")):
            check_real(name, getattr(self, name), within)
        tb_ps = round(self.timebin * PS_PER_SECOND)
        if tb_ps < 1 or abs(self.timebin * PS_PER_SECOND - tb_ps) > 1e-6 * tb_ps:
            raise ValidationError(
                "timebin must be a whole number of picoseconds "
                f"(got {self.timebin * PS_PER_SECOND!r} ps)"
            )
        if self.period_tb < 2:
            raise ValidationError("rep_period must span at least 2 timebins")
        TagStream(self.timebin_ps, self.rep_period_ps, self.divider, [], [], [])  # fits a tag header
        self.window_tb  # raises unless the gate window sits inside the period
        if self.jitter_sigma > self.gate_window / 4.0:
            raise ValidationError(
                "jitter_sigma must be well inside the gate window (at most a quarter)"
            )
        if self.p_out_gate_dark >= 1.0:
            raise ValidationError("out_gate_dark_rate saturates the period")
        if (self.n_pulses + 1) * self.period_tb >= MAX_TIMESTAMP:
            raise CapacityError(
                f"{self.n_pulses} pulses of {self.period_tb} timebins overflow the "
                "timestamp counter"
            )

    @property
    def timebin_ps(self) -> int:
        return round(self.timebin * PS_PER_SECOND)

    @property
    def period_tb(self) -> int:
        """Pulse period in timebins (the snapped, effective value)."""
        return round(self.rep_period / self.timebin)

    @property
    def rep_period_ps(self) -> int:
        return self.period_tb * self.timebin_ps

    @property
    def window_tb(self) -> float:
        return gate_window_tb(self.gate_window, self.timebin_ps, self.period_tb)

    @property
    def ingate_bins(self) -> int:
        """Number of whole timebins whose start lies inside the gate."""
        return math.ceil(self.window_tb)

    @property
    def p_out_gate_dark(self) -> float:
        """Per-pulse probability of a dark tag outside the gate window."""
        out_bins = self.period_tb - self.ingate_bins  # >= 0: the window lies inside the period
        return self.out_gate_dark_rate * out_bins * self.timebin_ps * 1e-12

    @property
    def nu(self) -> float:
        return self.profile.nu(self.delta_t)

    def provenance(self) -> str:
        return f"philox4x64 seed={self.seed} delta_t={self.delta_t!r}"


@dataclass(frozen=True, eq=False)
class SimTruth:
    """Ground truth the tag stream cannot reveal on its own.

    Pairs are recorded even when both photons are lost; pair_class is
    the uint8 class code of each pair in model._CLASSES, and m and n,
    the photon numbers that actually reached the detectors, are read off
    it (a new array at each read). clicks1/clicks2 are the pulses where
    each detector really clicked (post dead time, any cause), and
    ingate_clicks1/2 the subset whose tag falls inside the gate window,
    i.e. what a perfect analysis should recover. Each array is made
    read-only; compared and hashed by identity.
    """

    pair_pulses: np.ndarray
    pair_class: np.ndarray
    clicks1: np.ndarray
    clicks2: np.ndarray
    ingate_clicks1: np.ndarray
    ingate_clicks2: np.ndarray
    m = property(lambda self: _M[self.pair_class])
    n = property(lambda self: _N[self.pair_class])

    def __post_init__(self):
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


@dataclass(frozen=True, eq=False)
class SimResult:
    """A simulated stream plus the ground truth behind it; compared and hashed by identity."""

    stream: TagStream
    truth: SimTruth
    config: SimConfig


class _ChannelPlan(NamedTuple):
    """Per-channel candidate events: distinct pulses in increasing order,
    each with the earliest time offset of its candidates."""

    pulses: np.ndarray
    offsets: np.ndarray


def _geometric(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """`rng.geometric(p, size)` for 0 < p < 1, capped at MAX_TIMESTAMP.

    Below p = 1/3 this is numpy's inversion, ceil(-E / log1p(-p)) per
    standard exponential E, done in place in the output buffer a block
    at a time: the same values and generator state at about half the
    cost. From p = 1/3 on numpy searches instead, and draws itself; no
    value there comes near the cap.
    """
    if p >= 1.0 / 3.0:
        return rng.geometric(p, size=size)
    scale = -math.log1p(-p)
    out = np.empty(size, dtype=np.int64)
    with np.errstate(over="ignore"):  # at tiny p: inf, then the cap
        for block in _blocks(size):
            gaps = out[block]
            e = gaps.view(np.float64)  # the exponentials share the output buffer
            rng.standard_exponential(out=e)
            np.divide(e, scale, out=e)
            np.ceil(e, out=e)
            np.minimum(e, float(MAX_TIMESTAMP), out=e)
            gaps[...] = e
    return out


def _event_pulses(rng: np.random.Generator, p: float, n: int) -> np.ndarray:
    """Pulse indices in [0, n) where an independent Bernoulli(p) fired.

    Samples gaps from the geometric law so only successes cost time.
    For tiny p a chunk's gaps can sum past 2**63. So each gap is cut to
    one past the run, which keeps the sums exact up to the first event
    past the run, and that event and all after it are put at n. The
    draws are the same, and so are the events inside the run.
    """
    if p <= 0.0 or n <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n, dtype=np.int64)
    chunks = []
    total = 0
    while total <= n - 1:
        left = n - total  # pulses total .. n-1, at offsets 1 .. left
        remaining = left * p
        size = int(remaining + 6.0 * math.sqrt(remaining + 1.0) + 16.0)
        idx = _geometric(rng, p, size)
        np.minimum(idx, left + 1, out=idx)
        # u64 sums wrap without fault after the first event past the run
        sums = np.cumsum(idx.view(np.uint64), out=idx.view(np.uint64))
        first_out = int(np.argmax(sums > left))
        if sums[first_out] > left:
            sums[first_out:] = left + 1
        idx += total - 1
        chunks.append(idx)
        total = int(idx[-1]) + 1
    events = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return events[:np.searchsorted(events, n)]


def _class_codes(rng: np.random.Generator, prob: np.ndarray, k: int) -> np.ndarray:
    """One class code per pair from one uniform u: the number of
    cumulative edges at or below u."""
    edges = np.cumsum(prob)[:-1]
    # the last class with weight takes every u up to 1, so rounding in
    # the sum cannot leave room for the empty classes after it
    edges[np.flatnonzero(prob)[-1]:] = np.inf
    u = rng.random(k)
    code = np.zeros(k, dtype=np.uint8)
    for edge in edges:
        code += u >= edge
    return code


def _blocks(k: int):
    """Slices of at most _BLOCK items that cover range(k) in order."""
    return (slice(lo, min(lo + _BLOCK, k)) for lo in range(0, k, _BLOCK))


def _pair_draws(rng: np.random.Generator, prob: np.ndarray, pair_pulses: np.ndarray):
    """Each pair's class code, drawn block by block from the class
    probabilities prob, and a list of the pulses of the pairs that give
    D1 and D2 a photon-induced candidate."""
    k = pair_pulses.size
    code = np.empty(k, dtype=np.uint8)
    hit1, hit2 = np.empty(k, dtype=bool), np.empty(k, dtype=bool)
    for block in _blocks(k):
        code[block] = _class_codes(rng, prob, block.stop - block.start)
        bits = np.left_shift(1, code[block], dtype=np.uint16)
        for out, mask in ((hit1, _HIT1), (hit2, _HIT2)):
            np.not_equal(bits & mask, 0, out=out[block])
    return code, [np.compress(hit1, pair_pulses), np.compress(hit2, pair_pulses)]


def _jitter_offsets(rng: np.random.Generator, count: int, cfg: SimConfig) -> np.ndarray:
    if cfg.jitter_sigma <= 0.0:
        return np.zeros(count, dtype=np.int64)
    sigma_tb = cfg.jitter_sigma * PS_PER_SECOND / cfg.timebin_ps
    jitter = rng.normal(0.0, sigma_tb, size=count)
    offsets = jitter.view(np.int64)  # rounded in place: no whole-run temporaries
    offsets[...] = np.rint(jitter, out=jitter)
    return offsets


def _channel_plan(
    rng: np.random.Generator,
    cfg: SimConfig,
    det: DetectorParams,
    photon_pulses: np.ndarray,
    n_pulses: int,
) -> _ChannelPlan:
    """Draw all candidate events for one detector over the run, given
    the pair pulses that give it a photon-induced candidate."""
    photon_offsets = _jitter_offsets(rng, photon_pulses.size, cfg)

    dark_pulses = _event_pulses(rng, det.dark_prob, n_pulses)
    dark_offsets = rng.integers(0, cfg.ingate_bins, size=dark_pulses.size, dtype=np.int64)

    og_pulses = _event_pulses(rng, cfg.p_out_gate_dark, n_pulses)
    og_offsets = rng.integers(cfg.ingate_bins, cfg.period_tb, size=og_pulses.size, dtype=np.int64)

    # in the order of a stable sort of photon, dark and out-of-gate
    # candidates; the small dark runs merge first, so the photon run is
    # copied once
    darks = _merge_after(dark_pulses, dark_offsets, og_pulses, og_offsets)
    pulses, offsets = _merge_after(photon_pulses, photon_offsets, *darks)
    starts = np.flatnonzero(_first_of_runs(pulses))
    return _ChannelPlan(pulses[starts], np.minimum.reduceat(offsets, starts))


def _merge_after(pulses, offsets, more, more_offsets):
    """Two sorted pulse runs merged, with their offsets: each of more
    goes in after the pulses at or before its own, where a stable sort
    of the runs concatenated puts it. One mask places both arrays."""
    at = np.searchsorted(pulses, more, side="right")
    at += np.arange(more.size)  # its index in the merged run
    rest = np.ones(pulses.size + more.size, dtype=bool)
    rest[at] = False
    merged = []
    for run, extra in ((pulses, more), (offsets, more_offsets)):
        both = np.empty(rest.size, dtype=run.dtype)
        both[rest], both[at] = run, extra
        merged.append(both)
    return merged


def _afterpulse_chain(pulses: np.ndarray, runs: np.ndarray, dead: int, n_pulses: int):
    """Accepted candidates and afterpulse pulses of one detector.

    pulses are sorted, distinct candidate pulses in [0, n_pulses). A
    click at pulses[i] fires afterpulses at pulses[i] + r*(dead+1) for
    r = 1..runs[i]; its successor is the first candidate at or past
    pulses[i] + (runs[i]+1)*(dead+1), and the chain from candidate 0
    follows those successors. Capping runs at the slots left before the
    end of the run and the step at n_pulses drops the afterpulses at or
    past n_pulses, changes nothing else and keeps every sum below
    2*n_pulses. Returns the mask of accepted candidates and the sorted
    afterpulse pulses.
    """
    step = min(int(dead) + 1, n_pulses)
    runs = np.minimum(runs, (n_pulses - 1 - pulses) // step)
    keep = _greedy_chain(pulses, pulses + (runs + 1) * step - 1)
    fired = np.flatnonzero(keep & (runs > 0))  # the few kept clicks with afterpulses
    counts = runs[fired]
    # the afterpulses after fired[i] are 1..counts[i] steps on from it
    rank = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    return keep, np.repeat(pulses[fired], counts) + rank * step


def _detector_walk(
    rng: np.random.Generator,
    cfg: SimConfig,
    det: DetectorParams,
    plan: _ChannelPlan,
    n_pulses: int,
):
    """Run dead time and afterpulsing over a channel plan.

    The plan holds one candidate per pulse, the earliest, which defines
    the click time; later ones are absorbed into the same click. A
    click blinds the detector for dead_pulses pulses and, with
    probability afterpulse_prob, fires a spurious click at the first
    live pulse, which chains in turn; so the run of afterpulses a click
    starts has P(L >= l) = p**l. Draw order: one L per pulse with
    candidates, then one jitter per emitted afterpulse in pulse order.
    An afterpulse on a pulse with candidates takes the earlier of its
    jitter and their time. Afterpulses past the end of the run are
    dropped.
    """
    pulses, offsets = plan
    p = det.afterpulse_prob
    if p == 0.0:  # no draws: streams without afterpulses keep theirs
        runs = np.zeros(pulses.size, dtype=np.int64)
    elif p < 1.0:
        runs = _geometric(rng, 1.0 - p, pulses.size)
        runs -= 1
    else:  # every click re-arms: the chain runs to the end of the run
        runs = np.full(pulses.size, n_pulses, dtype=np.int64)
    keep, after = _afterpulse_chain(pulses, runs, det.dead_pulses, n_pulses)
    after_offsets = _jitter_offsets(rng, after.size, cfg)
    at = np.minimum(np.searchsorted(pulses, after), pulses.size - 1)
    on = pulses[at] == after
    after_offsets[on] = np.minimum(after_offsets[on], offsets[at[on]])
    # in the order of a stable sort of clicks, then afterpulses
    return _merge_after(pulses[keep], offsets[keep], after, after_offsets)


def _sorted_stamps(stamps: np.ndarray) -> np.ndarray:
    """A detector's stamps in click order as a stream channel: jitter
    ahead of pulse 0 has nowhere to go, and the rest is almost sorted
    (jitter and out-of-gate darks can swap neighbours)."""
    return np.sort(stamps[stamps >= 0], kind="stable").view(np.uint64)


def _reference_count(cfg: SimConfig) -> int:
    """The reference tags of a run of cfg, one every divider-th pulse."""
    return -(-cfg.n_pulses // cfg.divider)


def _reference_grid(cfg: SimConfig) -> np.ndarray:
    """The reference tags of a run of cfg, one every divider-th pulse: runs with
    the same n_pulses, period and divider can hold one grid (read-only once in a stream)."""
    step = cfg.divider * cfg.period_tb
    return np.arange(0, _reference_count(cfg) * step, step, dtype=np.uint64)


def run_simulation(cfg: SimConfig) -> SimResult:
    """Simulate one run and emit its tag stream plus ground truth.

    The stream contains a reference tag at every divider-th pulse and
    one tag per accepted detector click at pulse time + offset (jitter
    for photon-induced and afterpulse clicks, uniform in-gate or
    out-of-gate positions for dark clicks). Identical configs produce
    byte-identical streams. The stream's arrays are read-only.
    """
    return _simulate(cfg, _reference_grid(cfg))


def _simulate(cfg: SimConfig, refs: np.ndarray) -> SimResult:
    """run_simulation, its stream holding refs, the _reference_grid of
    cfg or of any config with the same n_pulses, period and divider."""
    period = cfg.period_tb
    rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, 0], dtype=np.uint64)))
    pair_pulses = _event_pulses(rng, cfg.source.gamma, cfg.n_pulses)
    prob = np.array(_class_probs(cfg.source, cfg.nu, cfg.det1.eta, cfg.det2.eta))
    dets = (cfg.det1, cfg.det2)
    pair_class, photon_pulses = _pair_draws(rng, prob, pair_pulses)
    # popped: each input is dropped once used, so less is held at the walks
    plans = [_channel_plan(rng, cfg, det, photon_pulses.pop(0), cfg.n_pulses) for det in dets]
    (clicks1, offs1), (clicks2, offs2) = [
        _detector_walk(rng, cfg, det, plans.pop(0), cfg.n_pulses) for det in dets]
    stream = TagStream(
        timebin_ps=cfg.timebin_ps,
        rep_period_ps=cfg.rep_period_ps,
        divider=cfg.divider,
        refs=refs,
        d1=_sorted_stamps(clicks1 * period + offs1),
        d2=_sorted_stamps(clicks2 * period + offs2),
        provenance=cfg.provenance(),
    )
    truth = SimTruth(
        pair_pulses=pair_pulses,
        pair_class=pair_class,
        clicks1=clicks1,
        clicks2=clicks2,
        ingate_clicks1=clicks1[(offs1 >= 0) & (offs1 < cfg.window_tb)],
        ingate_clicks2=clicks2[(offs2 >= 0) & (offs2 < cfg.window_tb)],
    )
    return SimResult(stream=stream, truth=truth, config=cfg)


_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def derive_delay_seed(seed: int, index: int) -> int:
    """Per-delay seed: deterministic, and decorrelated across indices."""
    return _splitmix64(seed ^ ((index + 1) * _GOLDEN & _MASK))


def delay_configs(cfg: SimConfig, delays) -> list[tuple[float, SimConfig]]:
    """One config per delay of a non-empty 1-d scan, as (delta_t, config) pairs.

    Each delay gets its own seed derived from (cfg.seed, position), so
    scan results are reproducible yet statistically independent across
    the grid.
    """
    delays = check_reals("delays", delays)
    if delays.ndim != 1 or delays.size == 0:
        raise ValidationError(f"scan needs at least one delay, in 1-d, got shape {delays.shape}")
    return [(delta_t, replace(cfg, delta_t=delta_t, seed=derive_delay_seed(cfg.seed, index)))
            for index, delta_t in enumerate(delays.tolist())]


def _scan(runs: list[tuple[float, SimConfig]]):
    """The result of each (delta_t, config) of a delay_configs list,
    simulated as it is taken. The configs differ only in delta_t and
    seed, so every run holds one read-only reference grid, built here
    once."""
    refs = _reference_grid(runs[0][1])
    return (_simulate(sub, refs) for _, sub in runs)


def scan_delays(cfg: SimConfig, delays) -> list[tuple[float, SimResult]]:
    """Run one independent simulation per delay of delay_configs. Each
    result equals run_simulation of its config, and every stream holds
    the same read-only refs array: a scan holds one pulse train."""
    runs = delay_configs(cfg, delays)
    return [(delta_t, result) for (delta_t, _), result in zip(runs, _scan(runs))]
