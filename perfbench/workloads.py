"""The benchmark's three workloads, their correctness checks and counts.

Each workload turns the benchmark seed into zeroherald configs and runs
one pass through the package's top-level public API, wrapping every
call in a tracer span. A pass returns what the checks and counters need;
nothing is checked or counted while the pass is timed.

Only public names are used: private helpers and the dense
PulseEventTable.d1/.d2 arrays are never touched, so a change that makes
those lazy is not charged for the benchmark's own reads.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import zeroherald as zh

DETECTORS = (zh.Channel.D1, zh.Channel.D2)
TAU = 100e-15
NU_MAX = 0.975

# span name -> per-layer metric; every call a pass makes is listed here
LAYER_OF_SPAN = {
    "scan_delays": "sim.busy_s",
    "run_simulation": "sim.busy_s",
    "write_tags": "tags.write_s",
    "write_tags_csv": "tags.write_s",
    "read_tags": "tags.read_s",
    "read_tags_csv": "tags.read_s",
    "reconstruct_pulse_train": "pipeline.reconstruct_s",
    "virtual_gate": "pipeline.gate_s",
    "apply_dead_time": "pipeline.dead_time_s",
    "build_event_table": "pipeline.table_s",
    "compute_rates": "analysis.rates_s",
    "write_rate_csv": "analysis.rates_s",
    "series_points": "analysis.fit_s",
    "gaussian_fit": "analysis.fit_s",
    "visibility": "analysis.fit_s",
    "estimate_efficiencies": "analysis.fit_s",
    "compare_to_model": "analysis.compare_s",
}

LAYER_TIMES = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))

# per-layer peak metric -> the spans whose tracemalloc peak it takes
PEAK_OF_SPANS = {
    "sim.peak_alloc_mb": ("scan_delays", "run_simulation"),
    "tags.read_peak_alloc_mb": ("read_tags", "read_tags_csv"),
    "pipeline.table_peak_alloc_mb": ("build_event_table",),
    "analysis.rates_peak_alloc_mb": ("compute_rates",),
}


def paper_config(seed: int, n_pulses: int) -> zh.SimConfig:
    """The reference operating point: eta1' = 0.16, eta2' = 0.15, nu = 0.975."""
    return zh.SimConfig(
        source=zh.SourceParams(gamma=1e-4, kappa1=0.5, kappa2=0.5),
        det1=zh.DetectorParams(eta=0.32, dead_pulses=5),
        det2=zh.DetectorParams(eta=0.30, dead_pulses=5),
        profile=zh.IndistinguishabilityProfile(nu_max=NU_MAX, tau=TAU),
        n_pulses=n_pulses,
        seed=seed,
    )


@dataclass
class Gated:
    """One stream through reconstruct, gate and the dead-time probe."""

    truth: zh.SimTruth
    stream: zh.TagStream
    gate: zh.GateResult
    accepted: dict
    dead: int


@dataclass
class PassOutput:
    gated: list[Gated] = field(default_factory=list)
    pairs: int = 0
    tag_files: list[Path] = field(default_factory=list)
    round_trips: list[tuple[zh.TagStream, zh.TagStream]] = field(default_factory=list)
    rates_csv: str = ""
    fits: list[zh.FitResult] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    # statistical agreement with the closed forms; see run.py for when it gates
    physics: list[tuple[str, bool, str]] = field(default_factory=list)


def gate_and_probe(tr, out: PassOutput, truth, stream, window: float, dead: int) -> zh.GateResult:
    """Reconstruct and gate a stream, then probe software dead time alone."""
    grid = tr.call("reconstruct_pulse_train", zh.reconstruct_pulse_train, stream)
    gate = tr.call("virtual_gate", zh.virtual_gate, stream, grid, window)
    accepted = {ch: tr.call("apply_dead_time", zh.apply_dead_time, gate.assigned[ch], dead)
                for ch in DETECTORS}
    out.gated.append(Gated(truth, stream, gate, accepted, dead))
    return gate


def rates_csv(tr, summaries, rep_rate_hz: float) -> str:
    sink = io.StringIO()
    tr.call("write_rate_csv", zh.write_rate_csv, summaries, sink, rep_rate_hz)
    return sink.getvalue()


def dead_dropped(gated: np.ndarray, accepted: np.ndarray, dead: int) -> int:
    """Gated clicks inside the dead window of the accepted click before them."""
    prev = np.searchsorted(accepted, gated, side="right") - 1
    has_prev = prev >= 0
    lag = gated[has_prev] - accepted[prev[has_prev]]
    return int(np.count_nonzero((lag > 0) & (lag <= dead)))


def gate_checks(g: Gated, label: str) -> list[tuple[str, bool, str]]:
    """Gated clicks equal the true in-gate clicks on the covered pulses,
    and every gated click is either accepted or dropped as dead."""
    out = []
    n_covered = g.gate.grid.n_pulses
    for ch, truth in zip(DETECTORS, (g.truth.ingate_clicks1, g.truth.ingate_clicks2)):
        gated = g.gate.assigned[ch]
        want = truth[truth < n_covered]
        ok = np.array_equal(gated, want)
        out.append((f"{label} {ch.name} gated == truth", ok,
                    f"{gated.size} gated, {want.size} true in-gate on {n_covered} pulses"))
        acc = g.accepted[ch]
        dropped = dead_dropped(gated, acc, g.dead)
        ok = acc.size + dropped == gated.size and bool(np.isin(acc, gated).all())
        out.append((f"{label} {ch.name} accepted + dropped == gated", ok,
                    f"{acc.size} + {dropped} vs {gated.size}"))
    return out


def z_check(label: str, value: float, err: float, want: float) -> tuple[str, bool, str]:
    z = (value - want) / err if err > 0 else math.inf
    return (f"{label} within 3 sigma", abs(z) < 3.0,
            f"{value:.5f} +- {err:.5f} vs {want:.5f}, z = {z:+.2f}")


# what a noisy scan can make the fit stage raise; see fit_and_compare
FIT_OUTCOMES = (zh.FitConvergenceError, zh.NoSolutionError, zh.WrongShapeError)


def fit_and_compare(tr, summaries, out: PassOutput) -> None:
    """Fit the scan's three series and compare them with the closed forms.

    A 1e8-pulse scan is noisy enough that on some seeds the fit does not
    converge, the dip fit comes out a peak, or a fitted ratio has no
    efficiency inverse. Those typed outcomes become failed physics
    checks rather than ending the pass.
    """
    try:
        fit_h, fit_u, fit_c = (
            tr.call("gaussian_fit", zh.gaussian_fit,
                    tr.call("series_points", zh.series_points, summaries, name))
            for name in ("heralded_rate", "singles2", "coincidence")
        )
        out.fits = [fit_h, fit_u, fit_c]
        vis, vis_err = tr.call("visibility", zh.visibility, fit_c)
        out.physics += [
            z_check("heralded cwr", fit_h.cwr, fit_h.cwr_err, zh.cwr_approx(0.16, 0.15, NU_MAX)),
            z_check("singles2 cwr", fit_u.cwr, fit_u.cwr_err, zh.cwr_approx(0.0, 0.15, NU_MAX)),
            z_check("coincidence visibility", vis, vis_err, NU_MAX),
        ]
        eta1p, eta2p = tr.call("estimate_efficiencies", zh.estimate_efficiencies,
                               fit_h, fit_u, NU_MAX)
        out.physics.append(("efficiencies invert", True, f"eta1' = {eta1p:.4f}, eta2' = {eta2p:.4f}"))
    except FIT_OUTCOMES as exc:
        out.physics.append(("fit stage", False, f"{type(exc).__name__}: {exc}"))


class Workload:
    name = ""
    runs_per_pass = 1  # simulation runs per pass, each one operation
    pulses_per_pass = 0

    def run_pass(self, tr, tmp: Path) -> PassOutput:
        raise NotImplementedError


class PaperScan(Workload):
    """The README reference scan: 13 delays over +-3 tau, 1e8 pulses each."""

    name = "paper_scan"
    runs_per_pass = 13  # scan points
    dead = 5

    def __init__(self, seed: int):
        self.cfg = paper_config(seed, 10**8)
        self.delays = np.linspace(-3 * TAU, 3 * TAU, 13)
        self.pulses_per_pass = self.cfg.n_pulses * self.delays.size

    def run_pass(self, tr, tmp: Path) -> PassOutput:
        out = PassOutput()
        cfg = self.cfg
        summaries = []
        for i, (dt, res) in enumerate(tr.call("scan_delays", zh.scan_delays, cfg, self.delays)):
            path = tmp / f"scan_{i:02d}.zht"
            tr.call("write_tags", zh.write_tags, res.stream, path)
            stream = tr.call("read_tags", zh.read_tags, path)
            gate = gate_and_probe(tr, out, res.truth, stream, cfg.gate_window, self.dead)
            table = tr.call("build_event_table", zh.build_event_table, gate, self.dead, self.dead)
            summary = tr.call("compute_rates", zh.compute_rates, table, dt)
            del table  # one dense table alive at a time
            tr.call("compare_to_model", zh.compare_to_model, summary, cfg)
            summaries.append(summary)
            out.pairs += res.truth.pair_pulses.size
            out.tag_files.append(path)
            out.round_trips.append((res.stream, stream))
        out.rates_csv = rates_csv(tr, summaries, 1.0 / cfg.rep_period)
        fit_and_compare(tr, summaries, out)
        return out


class BusyDetectors(Workload):
    """One high-rate run with darks, afterpulses and jitter, through CSV tags."""

    name = "busy_detectors"
    hardware_dead = 5
    software_dead = 8  # wider than the hardware window, as in demo 05

    def __init__(self, seed: int):
        det = dict(dark_prob=1e-4, afterpulse_prob=0.05, dead_pulses=self.hardware_dead)
        self.cfg = zh.SimConfig(
            source=zh.SourceParams(gamma=0.1, kappa1=0.5, kappa2=0.5),
            det1=zh.DetectorParams(eta=0.32, **det),
            det2=zh.DetectorParams(eta=0.30, **det),
            profile=zh.IndistinguishabilityProfile(nu_max=NU_MAX, tau=TAU),
            n_pulses=2 * 10**7,
            seed=seed,
            jitter_sigma=30e-12,
        )
        self.pulses_per_pass = self.cfg.n_pulses

    def run_pass(self, tr, tmp: Path) -> PassOutput:
        out = PassOutput()
        cfg = self.cfg
        res = tr.call("run_simulation", zh.run_simulation, cfg)
        path = tmp / "busy.csv"
        tr.call("write_tags_csv", zh.write_tags_csv, res.stream, path)
        stream = tr.call("read_tags_csv", zh.read_tags_csv, path)
        dead = self.software_dead
        gate = gate_and_probe(tr, out, res.truth, stream, cfg.gate_window, dead)
        table = tr.call("build_event_table", zh.build_event_table, gate, dead, dead)
        summary = tr.call("compute_rates", zh.compute_rates, table, cfg.delta_t)
        del table
        comparison = tr.call("compare_to_model", zh.compare_to_model, summary, cfg)
        out.rates_csv = rates_csv(tr, [summary], 1.0 / cfg.rep_period)
        out.pairs = res.truth.pair_pulses.size
        out.tag_files.append(path)
        out.round_trips.append((res.stream, stream))
        out.checks.append(("artifacts flagged", len(comparison.flags) == 2,
                           "; ".join(comparison.flags)))
        return out


class LongSimulate(Workload):
    """Simulate now, analyse later: the paper point at 1e10 pulses, no table."""

    name = "long_simulate"
    dead = 5

    def __init__(self, seed: int):
        self.cfg = paper_config(seed, 10**10)
        self.pulses_per_pass = self.cfg.n_pulses

    def run_pass(self, tr, tmp: Path) -> PassOutput:
        out = PassOutput()
        res = tr.call("run_simulation", zh.run_simulation, self.cfg)
        path = tmp / "long.zht"
        tr.call("write_tags", zh.write_tags, res.stream, path)
        truth = res.truth
        out.pairs = truth.pair_pulses.size
        del res  # the simulated stream goes before the file is read back
        stream = tr.call("read_tags", zh.read_tags, path)
        gate_and_probe(tr, out, truth, stream, self.cfg.gate_window, self.dead)
        out.tag_files.append(path)
        return out


WORKLOADS = {w.name: w for w in (PaperScan, BusyDetectors, LongSimulate)}


def check_and_count(out: PassOutput) -> tuple[list[tuple[str, bool, str]], dict[str, float]]:
    """The exact correctness checks of a pass, and its per-layer counts."""
    checks = list(out.checks)
    checks += [(f"stream {i} tags round-trip", written == read, "")
               for i, (written, read) in enumerate(out.round_trips)]
    for i, g in enumerate(out.gated):
        checks += gate_checks(g, f"stream {i}")
    ref = sum(int(np.count_nonzero(g.stream.channels == int(zh.Channel.REF))) for g in out.gated)
    det = sum(len(g.stream) for g in out.gated) - ref
    gated = sum(g.gate.assigned[ch].size for g in out.gated for ch in DETECTORS)
    kept = sum(g.accepted[ch].size for g in out.gated for ch in DETECTORS)
    counts = {
        "sim.pairs": out.pairs,
        "sim.detector_tags": det,
        "sim.ref_tags": ref,
        "tags.bytes": sum(p.stat().st_size for p in out.tag_files),
        "pipeline.gated_clicks": gated,
        "pipeline.rejected_tags": sum(sum(g.gate.n_rejected.values()) for g in out.gated),
        "pipeline.gate_accept_ratio": gated / det if det else 0.0,
        "pipeline.dead_dropped": gated - kept,
        "pipeline.dead_keep_ratio": kept / gated if gated else 0.0,
        "analysis.fit_iterations": sum(f.n_iterations for f in out.fits),
    }
    return checks, counts


def digests(out: PassOutput) -> dict[str, str | None]:
    """SHA-256 of the rate CSV and of the written tag files, in order."""
    tags = hashlib.sha256()
    for path in out.tag_files:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                tags.update(block)
    return {
        "rates_csv_sha256": hashlib.sha256(out.rates_csv.encode()).hexdigest()
        if out.rates_csv else None,
        "tags_sha256": tags.hexdigest(),
    }
