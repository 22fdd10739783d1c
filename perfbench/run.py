"""zeroherald benchmark: three workloads, end-to-end and per-layer numbers.

Run from the repository root:

    python3 perfbench/run.py --workload paper_scan --seed 3 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

One process runs one workload as a closed loop with a single caller:
the next pass starts when the previous one has finished and been
checked. Passes repeat until --seconds have gone by (at least one).
With --trace 0 no tracer runs and the run reports the end-to-end
metrics. With --trace 1 the time is split in three: untraced passes,
passes with timing spans, and passes with tracemalloc on as well. The
run reports per-layer self times from the timed passes, allocation
peaks from the tracemalloc passes (which are too slowed to time),
per-layer counts, and the tracing overhead: the median timed-span pass
minus the median untraced pass.

The package is imported from src/ next to this directory, never from an
installed copy. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; everything else (checks,
digests, seed, commit, versions, spans) goes to the lines before it and
to .bench_out/.

On a shared virtual machine the host's load moves every timing: on a
2-vCPU KVM guest, identical passes varied by up to 1.5x between
minutes, which is why the time bounds in BENCHMARK.json are wide.
long_simulate, whose passes spend 40% of their time in page faults,
moved most (quartile spread 0.32 of the median over ten seeds), so
BENCHMARK.json gates paper_scan and busy_detectors only; long_simulate
runs by name or with --workload all.
"""

from __future__ import annotations

import os

# one BLAS thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TMP = ROOT / ".bench_tmp"
BASELINE = HERE / "baseline.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
NAMES = ("paper_scan", "busy_detectors", "long_simulate")

# The closed-form agreement of paper_scan (fits converge, fitted ratios
# within 3 sigma, efficiencies invert) gates only at the acceptance-test
# seed, where the seed commit passes it. A 1e8-pulse scan is noisy: of
# seeds 100-113, 101 and 108 missed 3 sigma, 108 (and 14) gave a ratio
# with no inverse and 113 a fit that did not converge. That is
# statistics, not a failed operation, so other seeds print those checks
# as "info" lines.
ACCEPTANCE_SEED = 3
SETUP_PROBES = 9

# times one set-up in a fresh interpreter: imports, config build, temp dir
SETUP_PROBE = r"""
import os, sys, tempfile, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]))
os.rmdir(tempfile.mkdtemp(dir=sys.argv[5]))
print(repr(time.perf_counter() - t0))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def source_info() -> dict:
    """What code ran: git commit when there is a repository, and a digest of src/."""
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def setup_seconds(name: str, seed: int) -> float:
    """Median of several set-ups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), name, str(seed), str(TMP)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


@dataclass
class Tally:
    """What the passes of one run attempted, failed, and left to report."""

    physics_gates: bool
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    broken: bool = False  # a pass raised
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


def run_passes(workload, tracer, tmp: Path, seconds: float, tally: Tally) -> dict[int, float]:
    """Closed loop of passes for `seconds`; returns each pass's wall time by pass id.

    Checks and counts run after each pass's clock stops. A pass that
    raises counts all its runs as failed and ends the loop, since the
    next pass would repeat the same inputs.
    """
    from workloads import check_and_count, digests

    walls = {}
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        pass_id = tally.passes
        tally.passes += 1
        try:
            with tracer.pass_span(pass_id):
                t0 = time.perf_counter()
                out = workload.run_pass(tracer, tmp)
                walls[pass_id] = time.perf_counter() - t0
        except Exception:  # a failed pass is reported, not fatal to the run
            traceback.print_exc()
            tally.attempted += workload.runs_per_pass
            tally.failed += workload.runs_per_pass
            tally.broken = True
            break
        checks, counts = check_and_count(out)
        if tally.physics_gates:
            checks += out.physics
        if not tally.digests:
            tally.digests = digests(out)
            tally.counts = counts
            shown = [("check", c) for c in checks]
            if not tally.physics_gates:
                shown += [("info", c) for c in out.physics]
            for kind, (label, ok, detail) in shown:
                print(f"  {kind} {'ok  ' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
        tally.attempted += workload.runs_per_pass + len(checks)
        tally.failed += sum(not ok for _, ok, _ in checks)
        del out
    return walls


def layer_metrics(tracer, plain: dict, timed: dict, allocs: dict, counts: dict) -> dict[str, float]:
    from workloads import LAYER_OF_SPAN, LAYER_TIMES, PEAK_OF_SPANS

    times = []
    for selfs in tracer.self_times(timed):
        layers = dict.fromkeys(LAYER_TIMES, 0.0)
        for name, seconds in selfs.items():
            if name != "pass":
                layers[LAYER_OF_SPAN[name]] += seconds
        times.append(layers)
    metrics = {name: statistics.median(t[name] for t in times) for name in LAYER_TIMES}
    peaks = tracer.peak_alloc(allocs)
    for metric, names in PEAK_OF_SPANS.items():
        metrics[metric] = statistics.median(
            max((p.get(n, 0) for n in names), default=0) for p in peaks) / 2**20
    metrics.update(counts)
    traced_wall = statistics.median(timed.values())
    metrics["trace.overhead_s"] = traced_wall - statistics.median(plain.values())
    covered = sum(metrics[name] for name in LAYER_TIMES)
    print(f"  layer self times cover {covered / traced_wall:.1%} of the median traced pass")
    return metrics


def report_digests(name: str, seed: int, found: dict) -> None:
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    recorded = baseline.get("workloads", {}).get(name, {}).get("digests", {})
    same_seed = baseline.get("seed") == seed
    for key, value in found.items():
        if value is None:
            continue
        if not same_seed or key not in recorded:
            note = f"seed-commit value recorded for seed {baseline.get('seed')} only"
        else:
            note = "same as seed commit" if recorded[key] == value else \
                f"DIFFERS from seed commit {recorded[key]}"
        print(f"  {key} {value} ({note})")


def run_one(args) -> int:
    import workloads
    from spans import Tracer

    workload = workloads.WORKLOADS[args.workload](args.seed)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **source_info()}
    print(f"{args.workload}: seed {args.seed}, {workload.pulses_per_pass:.3g} pulses per pass,"
          f" commit {info['commit']}, numpy {info['numpy']}, nproc {info['nproc']}")
    TMP.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    setup = setup_seconds(args.workload, args.seed)
    tmp = Path(tempfile.mkdtemp(dir=TMP))
    tally = Tally(physics_gates=args.seed == ACCEPTANCE_SEED)
    tracer = Tracer()
    timed, allocs = {}, {}
    try:
        if args.trace:
            plain = run_passes(workload, tracer, tmp, args.seconds / 3, tally)
            for alloc, walls in ((False, timed), (True, allocs)):
                if tally.broken:
                    break
                tracer.start(alloc)
                try:
                    walls.update(run_passes(workload, tracer, tmp, args.seconds / 3, tally))
                finally:
                    tracer.stop()
        else:
            plain = run_passes(workload, tracer, tmp, args.seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass  # another run still holds a directory there
    if tally.broken:
        print("error: a pass raised; no metrics", file=sys.stderr)
        return 1

    report_digests(args.workload, args.seed, tally.digests)
    spec = json.loads(SPEC.read_text())
    if args.trace:
        metrics = layer_metrics(tracer, plain, timed, allocs, tally.counts)
        listed = spec["per_layer"]
    else:
        wall = statistics.median(plain.values())
        metrics = {
            "wall_s": wall,
            "pulses_per_s": workload.pulses_per_pass / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup,
        }
        listed = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    if set(units) != set(metrics):
        print(f"error: measured {sorted(metrics)}, {SPEC.name} lists {sorted(units)}", file=sys.stderr)
        return 1
    failed_ratio = tally.failed / tally.attempted
    print(f"  passes: {len(plain)} untraced, {len(timed)} timed spans, {len(allocs)} tracemalloc;"
          f" untraced walls {[round(w, 4) for w in plain.values()]}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  failed_ratio = {failed_ratio:.6g} ({tally.failed} of {tally.attempted})")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**info, "failed_ratio": failed_ratio, "setup_s": setup,
              "walls": {"untraced": list(plain.values()), "timed_spans": list(timed.values()),
                        "tracemalloc": list(allocs.values())},
              "digests": tally.digests, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.records()) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    summary = {}
    status = 0
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            entry = summary.setdefault(name, {"correct": True, "attempted": 0, "failed": 0})
            entry["correct"] &= result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            entry["digests"] = json.loads((OUT / f"{name}-seed{args.seed}-trace{trace}.json")
                                          .read_text())["digests"]
    (OUT / f"summary-seed{args.seed}.json").write_text(
        json.dumps({"seed": args.seed, **source_info(), "workloads": summary}, indent=1) + "\n")
    columns = [m["name"] for m in json.loads(SPEC.read_text())["end_to_end"]]
    print(f"{'workload':16s}" + "".join(f"{m:>16s}" for m in columns) + f"{'failed_ratio':>16s}")
    for name, entry in summary.items():
        e2e = entry.get("end_to_end", {})
        print(f"{name:16s}" + "".join(f"{e2e.get(m, float('nan')):16.6g}" for m in columns)
              + f"{entry['failed'] / max(entry['attempted'], 1):16.6g}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "zeroherald" / "__init__.py").is_file():
        print(f"error: no zeroherald sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import zeroherald

    if Path(zeroherald.__file__).resolve().parent != SRC / "zeroherald":
        print(f"error: imported zeroherald from {zeroherald.__file__}, not {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
