"""Command-line entry point: zeroherald <subcommand>.

Subcommands:

    model      emit closed-form curves over a delay grid as CSV, from
               the effective efficiencies eta1p and eta2p
    simulate   run one simulation from a config file, write a tag file
               plus a JSON run manifest
    analyze    reduce tag files to rates and a shared-shape scan fit
    scan       simulate a whole delay grid and analyze it in one go; its
               virtual gate defaults to the config's gate_window
    compare    z-scores of tag files against a config's closed forms; its
               virtual gate defaults to that config's gate_window

Exit codes: 0 success, 2 bad flags, else the exit_code (3, 4 or 5) the
errors module gives the error raised; a failure in an input file names it.

The front end only parses: each parameter is checked by the model type
that holds it, and --delays is read as a config list is, so a
non-finite delay fails (exit 3) before any tag file is read or written.
So does a --points below 1 or a --span beside --delays, and scan checks
its gate and dead windows by the pipeline's own rules, and that each run
holds two reference tags, before it writes anything. An output that
resolves to another output or to an input (--config, a tag file) fails
(exit 3) before any work; a skipped fit leaves a note and no regular
file at a named fits path, and scan removes, with a note, the tag files
a longer scan left behind.

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
    with _writing(path), tags._opened(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


@contextmanager
def _writing(path):
    """Turn a failure to create or write path into an OutputError naming it."""
    try:
        yield
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_outputs(inputs, *paths) -> None:
    """Fail before the work, not after it, on an output path that is a
    directory or whose directory does not exist, and on an output that
    resolves (symlinks followed) to another output or to one of the
    command's input files; None and "-" (stdout) pass."""
    seen = {Path(path).resolve(): f"the input {path}" for path in inputs}
    for path in (p for p in paths if p not in (None, "-")):
        target = Path(path)
        if target.is_dir():
            raise OutputError(f"cannot write {path}: it is a directory")
        if not target.parent.is_dir():
            raise OutputError(f"cannot write {path}: no directory {target.parent}")
        key = target.resolve()
        if key in seen:
            raise OutputError(f"cannot write {path}: it is the same file as {seen[key]}")
        seen[key] = path


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
        return (tags.read_tags_csv if path.endswith(".csv") else tags.read_tags)(path)
    except OSError as exc:
        raise FormatError(f"cannot read tag file: {exc.strerror or exc}") from None


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
    manifest = args.out + ".manifest.json"
    _check_outputs([args.config], args.out, manifest)
    cfg = config_mod.load_config(args.config, _overrides(args.set))
    _write_run(sim.run_simulation(cfg), args.out)
    _write_manifest(manifest, args, cfg, config_mod.config_dict(cfg), [args.out], started)
    return 0


def _write_results(summaries, rep_rate_hz, rates_out, fits_out):
    """Write the rate CSV, then the shared-shape fit to fits_out if given;
    returns the fits. A skipped fit gets a note (too few delays only when
    fits_out is named) and leaves no regular file at fits_out."""
    with _out_stream(rates_out) as fh:
        analysis.write_rate_csv(summaries, fh, rep_rate_hz=rep_rate_hz)
    fits, skipped = {}, None
    if len(summaries) < analysis.MIN_FIT_POINTS:
        skipped = fits_out and f"fit needs at least {analysis.MIN_FIT_POINTS} delays"
    elif len({s.delta_t for s in summaries}) < 2:
        skipped = "fit needs a spread of delays"
    else:
        try:
            fits = analysis.scan_fit(summaries)
        except NumericalError as exc:
            skipped = str(exc)
    if skipped:
        print(f"note: scan fit skipped: {skipped}", file=sys.stderr)
    if fits and fits_out:
        with _out_stream(fits_out) as fh:
            analysis.write_fits_jsonl(fits, fh)
    elif fits_out not in (None, "-") and tags._replaceable(fits_out):
        with _writing(fits_out):  # a device, a FIFO or /dev/fd/N is left alone
            Path(fits_out).unlink(missing_ok=True)
    return fits


def _delays_for_files(args) -> list[float]:
    if args.delays is None and len(args.files) > 1:
        raise ValidationError("multiple tag files need --delays")
    return [0.0] if args.delays is None else config_mod._parse_list("--delays", args.delays)


def cmd_analyze(args) -> int:
    delays = _delays_for_files(args)
    _check_outputs(args.files, args.rates_out, args.fits_out)
    summaries, rep_rate_hz = analysis.scan_rates(map(_read_tag_file, args.files), delays,
                                                 args.gate, args.dead_pulses, args.files)
    fits = _write_results(summaries, rep_rate_hz, args.rates_out, args.fits_out)
    if not args.fits_out:
        for name, fit in fits.items():
            line = (f"{name}: cwr={fit.cwr:.6f} +- {fit.cwr_err:.6f}"
                    f" (baseline {fit.a:.3e}, amplitude {fit.b:.3e})")
            if fit.visibility is not None:
                line += f", visibility={fit.visibility:.6f}"
            print(line, file=sys.stderr)
    return 0


def _remove_stale_tags(out_dir: Path, count: int) -> None:
    """Remove, with a note, each regular file in out_dir named as a scan
    names its tag file at an index at or past count: a longer scan's."""
    indices = {path: path.name[5:-4] for path in out_dir.glob("tags_*.zht")}
    stale = [path for path, index in indices.items() if index.isdecimal()
             and int(index) >= count and path.name == f"tags_{int(index):03d}.zht"
             and tags._replaceable(path)]  # a device, a FIFO or a directory stays
    for path in stale:
        with _writing(path):
            path.unlink(missing_ok=True)
    if stale:
        print(f"note: removed {len(stale)} tag files of a longer scan", file=sys.stderr)


def cmd_scan(args) -> int:
    started = time.perf_counter()
    cfg = config_mod.load_config(args.config, _overrides(args.set))
    if (args.delays is None) == (args.span is None):
        raise ValidationError("scan needs --delays or --span, not both")
    delays = (list(_delay_grid(args.span, args.points)) if args.delays is None
              else config_mod._parse_list("--delays", args.delays))
    gate = cfg.gate_window if args.gate is None else args.gate
    # the rules the reduction applies, checked before anything is written;
    # the pipeline's period is a float, a median over the divider
    pipeline.gate_window_tb(gate, cfg.timebin_ps, float(cfg.period_tb))
    check_count("dead_pulses", args.dead_pulses)
    if sim._reference_count(cfg) < 2:
        raise ValidationError(f"n_pulses {cfg.n_pulses} must exceed divider {cfg.divider}: "
                              "a run needs 2 reference tags to rebuild its pulse train")
    runs = sim.delay_configs(cfg, delays)
    delays = [delta_t for delta_t, _ in runs]
    out_dir = Path(args.out_dir)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # one delay at a time: simulate over the scan's one grid, write,
    # reduce, then drop the stream
    tag_paths = [out_dir / f"tags_{index:03d}.zht" for index in range(len(runs))]
    fits_path, manifest = out_dir / "fits.jsonl", out_dir / "scan_manifest.json"
    _check_outputs([args.config], *tag_paths, out_dir / "rates.csv", fits_path, manifest)
    summaries, rep_rate_hz = analysis.scan_rates(map(_write_run, sim._scan(runs), tag_paths),
                                                 delays, gate, args.dead_pulses, tag_paths)
    outputs = [*tag_paths, out_dir / "rates.csv"]
    if _write_results(summaries, rep_rate_hz, outputs[-1], fits_path):
        outputs.append(fits_path)
    _remove_stale_tags(out_dir, len(runs))
    _write_manifest(manifest, args, cfg,
                    {**config_mod.config_dict(cfg), "scan_delays": delays, "scan_gate": gate,
                     "scan_dead_pulses": args.dead_pulses}, outputs, started)
    return 0


def cmd_compare(args) -> int:
    delays = _delays_for_files(args)
    _check_outputs([*args.files, args.config], args.out)
    cfg = config_mod.load_config(args.config)
    gate = cfg.gate_window if args.gate is None else args.gate
    summaries, _ = analysis.scan_rates(map(_read_tag_file, args.files), delays,
                                       gate, args.dead_pulses, args.files)
    worst = 0.0
    with _out_stream(args.out) as fh:
        for name, summary in zip(args.files, summaries):
            with analysis._naming(name):
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
    _add_reduce_flags(p_cmp, gate_default=None)
    p_cmp.add_argument("--out", default="-")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ZeroHeraldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
