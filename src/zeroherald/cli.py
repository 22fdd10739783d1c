"""Command-line entry point: zeroherald <subcommand>.

Subcommands:

    model      emit closed-form curves over a delay grid as CSV, from
               the effective efficiencies eta1p and eta2p
    simulate   run one simulation from a config file, write a tag file
               plus a JSON run manifest
    analyze    reduce tag files to rates and a shared-shape scan fit
    scan       simulate a whole delay grid and analyze it in one go; its
               virtual gate defaults to the config's gate_window
    compare    z-scores of tag files against a config's closed forms

Exit codes: 0 success; 2 usage errors (bad flags); 3 parameter or
config validation failures, and output paths that cannot be written;
4 tag-file format or integrity problems, and tag files of different
repetition periods analysed together; 5 numerical failures (fits,
inversions, degenerate tables).

The front end only parses: each parameter is checked by the model type
that holds it, and --delays is read as a config list is, so a
non-finite delay fails (exit 3) before any tag file is read or written.
So does a --points below 1, and scan checks its gate window and dead
window by the pipeline's own rules before it writes anything.

"-" means stdout for model --out, analyze --rates-out and --fits-out,
and compare --out. analyze and compare read and reduce one tag file at
a time, so memory follows the largest file, not the sum. simulate and
scan write a manifest next to their outputs with the effective config,
seed, tool version, file digests, and timing, so a published number can
be traced back to the exact run that produced it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    FormatError,
    IntegrityError,
    NumericalError,
    OutputError,
    ValidationError,
    ZeroHeraldError,
    check_count,
)
from . import analysis, config as config_mod, model, pipeline, sim, tags


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path, args, cfg, config, outputs, started) -> None:
    """The JSON record of a simulate or scan run: config, seed, version,
    command, SHA-256 of the config file and of each output, and timing."""
    manifest = {
        "tool_version": __version__,
        "command": [args.command] + list(args.set or []),
        "config": config,
        "seed": cfg.seed,
        "inputs": {str(args.config): _sha256(args.config)},
        "outputs": {str(path): _sha256(path) for path in outputs},
        "timing_s": time.perf_counter() - started,
    }
    with _writing(path), open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _writing(path):
    """Turn a failure to create or write path into an OutputError naming it."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_outputs(*paths) -> None:
    """Fail before the work, not after it, on an output path whose
    directory does not exist; None and "-" (stdout) pass."""
    for path in paths:
        if path not in (None, "-") and not Path(path).parent.is_dir():
            raise OutputError(f"cannot write {path}: no directory {Path(path).parent}")


@contextmanager
def _out_stream(path):
    with _writing(path), tags._opened(sys.stdout if path == "-" else path, "w",
                                      newline="") as fh:
        yield fh


def _overrides(pairs) -> dict[str, str]:
    out = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValidationError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def _read_tag_file(path: str) -> tags.TagStream:
    try:
        if path.endswith(".csv"):
            return tags.read_tags_csv(path)
        return tags.read_tags(path)
    except (FormatError, IntegrityError) as exc:
        raise type(exc)(f"{path}: {exc}") from None
    except OSError as exc:
        raise FormatError(f"cannot read tag file {path}: {exc.strerror or exc}") from None


def _delay_grid(half_width: float, points: int) -> np.ndarray:
    """points delays evenly over [-half_width, half_width]; one point is 0."""
    if points < 1:
        raise ValidationError(f"--points must be at least 1, got {points}")
    return np.linspace(-half_width, half_width, points) if points > 1 else np.zeros(1)


def cmd_model(args) -> int:
    # with kappa1 = kappa2 the curves see the channels only through
    # eta' = kappa*eta, so lossless channels take eta' as the efficiencies
    src = model.SourceParams(gamma=args.gamma, kappa1=1.0, kappa2=1.0)
    profile = model.IndistinguishabilityProfile(nu_max=args.numax, tau=args.tau)
    max_delay = args.max_delay if args.max_delay is not None else 3.0 * args.tau
    delays = _delay_grid(max_delay, args.points)
    rows = model.curve_grid(src, args.eta1p, args.eta2p, profile, delays)
    meta = {
        "tool": f"zeroherald {__version__}",
        "gamma": args.gamma,
        "eta1p": args.eta1p, "eta2p": args.eta2p,
        "nu_max": args.numax, "tau": args.tau,
    }
    with _out_stream(args.out) as fh:
        model.write_curve_csv(rows, fh, meta=meta)
    return 0


def _write_run(result, path) -> tags.TagStream:
    """Write a simulated run's stream to a tag file at path: CSV for
    *.csv paths, else binary. Returns the stream; the truth is dropped."""
    stream = result.stream
    with _writing(path):
        (tags.write_tags_csv if str(path).endswith(".csv") else tags.write_tags)(stream, path)
    return stream


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    if args.out == "-":
        raise ValidationError("simulate --out needs a file path, not '-'")
    _check_outputs(args.out)
    cfg = config_mod.load_config(args.config, _overrides(args.set))
    _write_run(sim.run_simulation(cfg), args.out)
    _write_manifest(args.out + ".manifest.json", args, cfg, config_mod.config_dict(cfg),
                    [args.out], started)
    return 0


def _reduce(names, streams, delays, gate, dead_pulses):
    """Each stream's RateSummary at its delay, and the streams' shared
    repetition rate in Hz. Streams are taken from the iterator one at a
    time and dropped once reduced, so memory follows the largest one.
    One rate serves every row of the rate CSV, so a stream whose period
    differs from the first one's is an IntegrityError naming it."""
    summaries = []
    for name, delta_t in zip(names, delays):
        stream = next(streams)
        if not summaries:
            first, period = name, stream.rep_period_ps
        elif stream.rep_period_ps != period:
            raise IntegrityError(
                f"{name}: rep_period_ps {stream.rep_period_ps} differs from {period} in "
                f"{first}; files analysed together must share one repetition period")
        table = pipeline.table_from_stream(stream, gate, dead_pulses, dead_pulses)[2]
        del stream  # not held while the next one is read
        summaries.append(analysis.compute_rates(table, delta_t))
    return summaries, tags.PS_PER_SECOND / period


def _write_results(summaries, rep_rate_hz, rates_out, fits_out):
    """Write the rate CSV, then the shared-shape fit of the rate series,
    with enough points to try, to fits_out if given; returns the fits."""
    with _out_stream(rates_out) as fh:
        analysis.write_rate_csv(summaries, fh, rep_rate_hz=rep_rate_hz)
    if len(summaries) < 5:
        return {}
    try:
        fits = analysis.scan_fit(summaries)
    except NumericalError as exc:
        print(f"note: scan fit skipped: {exc}", file=sys.stderr)
        return {}
    if fits_out:
        with _out_stream(fits_out) as fh:
            analysis.write_fits_jsonl(fits, fh)
    return fits


def _delays_for_files(args) -> list[float]:
    if args.delays is None and len(args.files) > 1:
        raise ValidationError("multiple tag files need --delays")
    delays = [0.0] if args.delays is None else config_mod._parse_list("--delays", args.delays)
    if len(delays) != len(args.files):
        raise ValidationError(f"got {len(delays)} delays for {len(args.files)} tag files")
    return delays


def cmd_analyze(args) -> int:
    delays = _delays_for_files(args)
    _check_outputs(args.rates_out, args.fits_out)
    summaries, rep_rate_hz = _reduce(args.files, map(_read_tag_file, args.files), delays,
                                     args.gate, args.dead_pulses)
    fits = _write_results(summaries, rep_rate_hz, args.rates_out, args.fits_out)
    if not args.fits_out:
        for name, fit in fits.items():
            line = (f"{name}: cwr={fit.cwr:.6f} +- {fit.cwr_err:.6f}"
                    f" (baseline {fit.a:.3e}, amplitude {fit.b:.3e})")
            if fit.visibility is not None:
                line += f", visibility={fit.visibility:.6f}"
            print(line, file=sys.stderr)
    return 0


def cmd_scan(args) -> int:
    started = time.perf_counter()
    cfg = config_mod.load_config(args.config, _overrides(args.set))
    if args.delays is not None:
        delays = config_mod._parse_list("--delays", args.delays)
    else:
        if args.span is None:
            raise ValidationError("scan needs --delays or --span")
        delays = list(_delay_grid(args.span, args.points))
    gate = cfg.gate_window if args.gate is None else args.gate
    # the rules the reduction applies, checked before anything is written;
    # the pipeline's period is a float, a median over the divider
    pipeline.gate_window_tb(gate, cfg.timebin_ps, float(cfg.period_tb))
    check_count("dead_pulses", args.dead_pulses)
    runs = sim.delay_configs(cfg, delays)
    delays = [delta_t for delta_t, _ in runs]
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # one delay at a time: simulate over the scan's one grid, write,
    # reduce, then drop the stream
    tag_paths = [out_dir / f"tags_{index:03d}.zht" for index in range(len(runs))]
    summaries, rep_rate_hz = _reduce(tag_paths, map(_write_run, sim._scan(runs), tag_paths),
                                     delays, gate, args.dead_pulses)
    outputs = [*tag_paths, out_dir / "rates.csv"]
    fits_path = out_dir / "fits.jsonl"
    if _write_results(summaries, rep_rate_hz, outputs[-1], fits_path):
        outputs.append(fits_path)
    _write_manifest(out_dir / "scan_manifest.json", args, cfg,
                    {**config_mod.config_dict(cfg), "scan_delays": delays}, outputs, started)
    return 0


def cmd_compare(args) -> int:
    delays = _delays_for_files(args)
    _check_outputs(args.out)
    cfg = config_mod.load_config(args.config)
    summaries, _ = _reduce(args.files, map(_read_tag_file, args.files), delays,
                           args.gate, args.dead_pulses)
    worst = 0.0
    with _out_stream(args.out) as fh:
        for summary in summaries:
            report = analysis.compare_to_model(summary, cfg)
            worst = max(worst, *map(abs, report.z.values()))
            fh.write(json.dumps(report.to_dict()) + "\n")
    print(f"largest |z| = {worst:.3f}", file=sys.stderr)
    return 0


def _add_reduce_flags(parser, gate_default: float | None = 2e-9):
    """--delays, --gate and --dead-pulses; a None gate default is the config's gate_window."""
    shown = "the config's gate_window" if gate_default is None else repr(gate_default)
    parser.add_argument("--delays", default=None,
                        help="comma list of delta_t values in seconds, one per tag file")
    parser.add_argument("--gate", type=float, default=gate_default,
                        help=f"virtual gate window in seconds (default {shown})")
    parser.add_argument("--dead-pulses", type=int, default=5,
                        help="software dead window in pulses, both detectors (default 5)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeroherald",
        description="Simulate and analyze heralding on the absence of detector clicks.",
    )
    parser.add_argument("--version", action="version", version=f"zeroherald {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="emit closed-form curves as CSV")
    p_model.add_argument("--eta1p", type=float, required=True,
                         help="effective heralding-arm efficiency in [0,1]")
    p_model.add_argument("--eta2p", type=float, required=True,
                         help="effective signal-arm efficiency in [0,1]")
    p_model.add_argument("--numax", type=float, default=1.0,
                         help="peak indistinguishability (default 1)")
    p_model.add_argument("--gamma", type=float, default=1e-4,
                         help="pair probability per pulse (default 1e-4)")
    p_model.add_argument("--tau", type=float, default=100e-15,
                         help="profile width in seconds (default 100e-15)")
    p_model.add_argument("--points", type=int, default=13,
                         help="number of delays, at least 1 (default 13)")
    p_model.add_argument("--max-delay", type=float, default=None,
                         help="half-width of the delay grid (default 3*tau)")
    p_model.add_argument("--out", default="-")
    p_model.set_defaults(func=cmd_model)

    p_sim = sub.add_parser("simulate", help="run one simulation from a config file")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True,
                       help="tag file to write: CSV for *.csv paths, else binary")
    p_sim.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="rates and fits from tag files")
    p_an.add_argument("files", nargs="+", help="tag files (*.zht binary or *.csv)")
    _add_reduce_flags(p_an)
    p_an.add_argument("--rates-out", default="-", help="rate summary CSV (default stdout)")
    p_an.add_argument("--fits-out", default=None, help="fit results JSON-lines path")
    p_an.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="simulate + analyze a delay grid")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out-dir", required=True)
    p_scan.add_argument("--span", type=float, default=None,
                        help="symmetric half-width; grid is linspace(-span, span, points)")
    p_scan.add_argument("--points", type=int, default=13,
                         help="number of delays, at least 1 (default 13)")
    p_scan.add_argument("--set", action="append", metavar="KEY=VALUE")
    _add_reduce_flags(p_scan, gate_default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_cmp = sub.add_parser("compare", help="z-scores of tag files vs closed forms")
    p_cmp.add_argument("files", nargs="+")
    p_cmp.add_argument("--config", required=True)
    _add_reduce_flags(p_cmp)
    p_cmp.add_argument("--out", default="-")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, IntegrityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except ZeroHeraldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
