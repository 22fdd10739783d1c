"""Command-line entry point: zeroherald <subcommand>.

Subcommands:

    model      emit closed-form curves over a delay grid as CSV
    simulate   run one simulation from a config file, write a tag file
               plus a JSON run manifest
    analyze    reduce tag files to rates and a shared-shape scan fit
    scan       simulate a whole delay grid and analyze it in one go; its
               virtual gate defaults to the config's gate_window
    compare    z-scores of tag files against a config's closed forms

Exit codes: 0 success; 2 usage errors (bad flags); 3 parameter or
config validation failures; 4 tag-file format or integrity problems;
5 numerical failures (fits, inversions, degenerate tables).

All outputs that accept a path also accept "-" for stdout. Every
simulation writes a manifest next to its outputs with the effective
config, seed, tool version, file digests, and timing, so a published
number can be traced back to the exact run that produced it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    NumericalError,
    ValidationError,
    ZeroHeraldError,
)
from . import analysis, config as config_mod, model, pipeline, sim, tags


@dataclass
class RunManifest:
    """Reproducibility record written next to simulation outputs."""

    tool_version: str
    command: list
    config: dict
    seed: int
    inputs: dict
    outputs: dict
    timing_s: float

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.__dict__, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextmanager
def _out_stream(path):
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _parse_delays(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValidationError(f"bad delay list {text!r}") from None


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


def _load_config(path, overrides=None):
    try:
        return config_mod.load_config(path, overrides)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None


def _rep_rate_hz(stream: tags.TagStream) -> float:
    return tags.PS_PER_SECOND / stream.rep_period_ps


def cmd_model(args) -> int:
    kappa = args.kappa
    if not 0 < kappa <= 1:
        raise ValidationError("--kappa must be in (0, 1]")
    eta1 = args.eta1p / kappa
    eta2 = args.eta2p / kappa
    if eta1 > 1 or eta2 > 1:
        raise ValidationError(
            "effective efficiency exceeds --kappa; raise --kappa or lower eta'"
        )
    src = model.SourceParams(gamma=args.gamma, kappa1=kappa, kappa2=kappa)
    profile = model.IndistinguishabilityProfile(nu_max=args.numax, tau=args.tau)
    max_delay = args.max_delay if args.max_delay is not None else 3.0 * args.tau
    delays = np.linspace(-max_delay, max_delay, args.points)
    rows = model.curve_grid(src, eta1, eta2, profile, delays)
    meta = {
        "tool": f"zeroherald {__version__}",
        "gamma": args.gamma, "kappa": kappa,
        "eta1p": args.eta1p, "eta2p": args.eta2p,
        "nu_max": args.numax, "tau": args.tau,
    }
    with _out_stream(args.out) as fh:
        model.write_curve_csv(rows, fh, meta=meta)
    return 0


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config, _overrides(args.set))
    result = sim.run_simulation(cfg)
    if args.out.endswith(".csv"):
        tags.write_tags_csv(result.stream, args.out)
    else:
        tags.write_tags(result.stream, args.out)
    manifest = RunManifest(
        tool_version=__version__,
        command=["simulate"] + list(args.set or []),
        config=config_mod.config_dict(cfg),
        seed=cfg.seed,
        inputs={str(args.config): _sha256(args.config)},
        outputs={str(args.out): _sha256(args.out)},
        timing_s=time.perf_counter() - started,
    )
    manifest.write(str(args.out) + ".manifest.json")
    return 0


def _analyze_streams(streams, delays, gate, dead_pulses):
    summaries = []
    for stream, delta_t in zip(streams, delays):
        _, _, table = pipeline.table_from_stream(stream, gate, dead_pulses, dead_pulses)
        summaries.append(analysis.compute_rates(table, delta_t))
    return summaries


def _fit_series(summaries):
    """The shared-shape fit of the rate series, with enough points to try."""
    if len(summaries) < 5:
        return {}
    try:
        return analysis.scan_fit(summaries)
    except NumericalError as exc:
        print(f"note: scan fit skipped: {exc}", file=sys.stderr)
        return {}


def _delays_for_files(args, n_files: int) -> list[float]:
    if args.delays is not None:
        delays = _parse_delays(args.delays)
        if len(delays) != n_files:
            raise ValidationError(
                f"got {len(delays)} delays for {n_files} tag files"
            )
        return delays
    if n_files > 1:
        raise ValidationError("multiple tag files need --delays")
    return [0.0]


def cmd_analyze(args) -> int:
    delays = _delays_for_files(args, len(args.files))
    streams = [_read_tag_file(path) for path in args.files]
    summaries = _analyze_streams(streams, delays, args.gate, args.dead_pulses)
    with _out_stream(args.rates_out) as fh:
        analysis.write_rate_csv(summaries, fh, rep_rate_hz=_rep_rate_hz(streams[0]))
    fits = _fit_series(summaries)
    if fits:
        if args.fits_out:
            with _out_stream(args.fits_out) as fh:
                analysis.write_fits_jsonl(fits, fh)
        else:
            for name, fit in fits.items():
                line = (f"{name}: cwr={fit.cwr:.6f} +- {fit.cwr_err:.6f}"
                        f" (baseline {fit.a:.3e}, amplitude {fit.b:.3e})")
                if fit.visibility is not None:
                    line += f", visibility={fit.visibility:.6f}"
                print(line, file=sys.stderr)
    return 0


def cmd_scan(args) -> int:
    started = time.perf_counter()
    cfg = _load_config(args.config, _overrides(args.set))
    if args.delays is not None:
        delays = _parse_delays(args.delays)
    else:
        if args.span is None:
            raise ValidationError("scan needs --delays or --span")
        delays = list(np.linspace(-args.span, args.span, args.points))
    gate = cfg.gate_window if args.gate is None else args.gate
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one delay at a time: simulate, write, reduce, then drop the result
    tag_paths = []
    summaries = []
    for index, (delta_t, sub) in enumerate(sim.delay_configs(cfg, delays)):
        stream = sim.run_simulation(sub).stream
        path = out_dir / f"tags_{index:03d}.zht"
        tags.write_tags(stream, path)
        tag_paths.append(path)
        summaries += _analyze_streams([stream], [delta_t], gate, args.dead_pulses)
        del stream
    rates_path = out_dir / "rates.csv"
    with open(rates_path, "w", newline="") as fh:
        analysis.write_rate_csv(summaries, fh, rep_rate_hz=tags.PS_PER_SECOND / cfg.rep_period_ps)
    fits = _fit_series(summaries)
    outputs = {str(p): _sha256(p) for p in tag_paths}
    outputs[str(rates_path)] = _sha256(rates_path)
    if fits:
        fits_path = out_dir / "fits.jsonl"
        with open(fits_path, "w") as fh:
            analysis.write_fits_jsonl(fits, fh)
        outputs[str(fits_path)] = _sha256(fits_path)
    manifest = RunManifest(
        tool_version=__version__,
        command=["scan"] + list(args.set or []),
        config={**config_mod.config_dict(cfg), "scan_delays": delays},
        seed=cfg.seed,
        inputs={str(args.config): _sha256(args.config)},
        outputs=outputs,
        timing_s=time.perf_counter() - started,
    )
    manifest.write(out_dir / "scan_manifest.json")
    return 0


def cmd_compare(args) -> int:
    delays = _delays_for_files(args, len(args.files))
    cfg = _load_config(args.config)
    streams = [_read_tag_file(path) for path in args.files]
    summaries = _analyze_streams(streams, delays, args.gate, args.dead_pulses)
    worst = 0.0
    with _out_stream(args.out) as fh:
        for summary in summaries:
            report = analysis.compare_to_model(summary, cfg)
            finite = [abs(z) for z in report.z.values() if np.isfinite(z)]
            worst = max(worst, max(finite, default=0.0))
            fh.write(json.dumps(report.to_dict()) + "\n")
    print(f"largest |z| = {worst:.3f}", file=sys.stderr)
    return 0


def _add_gate_flags(parser, gate_default: float | None = 2e-9):
    """--gate and --dead-pulses; a None gate default means the config's gate_window."""
    shown = "the config's gate_window" if gate_default is None else repr(gate_default)
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
    p_model.add_argument("--kappa", type=float, default=1.0,
                         help="shared channel transmission kappa1=kappa2 (default 1)")
    p_model.add_argument("--points", type=int, default=13)
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
    p_an.add_argument("--delays", default=None,
                      help="comma list of delta_t values, one per file")
    _add_gate_flags(p_an)
    p_an.add_argument("--rates-out", default="-", help="rate summary CSV (default stdout)")
    p_an.add_argument("--fits-out", default=None, help="fit results JSON-lines path")
    p_an.set_defaults(func=cmd_analyze)

    p_scan = sub.add_parser("scan", help="simulate + analyze a delay grid")
    p_scan.add_argument("--config", required=True)
    p_scan.add_argument("--out-dir", required=True)
    p_scan.add_argument("--delays", default=None, help="comma list of delays")
    p_scan.add_argument("--span", type=float, default=None,
                        help="symmetric half-width; grid is linspace(-span, span, points)")
    p_scan.add_argument("--points", type=int, default=13)
    p_scan.add_argument("--set", action="append", metavar="KEY=VALUE")
    _add_gate_flags(p_scan, gate_default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_cmp = sub.add_parser("compare", help="z-scores of tag files vs closed forms")
    p_cmp.add_argument("files", nargs="+")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--delays", default=None)
    _add_gate_flags(p_cmp)
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
