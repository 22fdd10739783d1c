"""One simulated run, end to end, checked against the closed forms.

Simulates 10^7 pulses at the reference operating point, writes the
time tags to a file exactly as a lab acquisition would, reads them
back, rebuilds the pulse train, gates, applies the software dead
window, and tallies per-pulse rates. Every measured rate is then
compared to its closed-form prediction as a z-score.
"""

import os
import tempfile

import zeroherald as zh

CFG = zh.SimConfig(
    source=zh.SourceParams(gamma=1e-4, kappa1=0.5, kappa2=0.5),
    det1=zh.DetectorParams(eta=0.32, dead_pulses=5),
    det2=zh.DetectorParams(eta=0.30, dead_pulses=5),
    profile=zh.IndistinguishabilityProfile(nu_max=0.975, tau=100e-15),
    n_pulses=10**7,
    seed=42,
)


def main():
    res = zh.run_simulation(CFG)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.zht")
        zh.write_tags(res.stream, path)
        size = os.path.getsize(path)
        stream = zh.read_tags(path)
    print(f"{CFG.n_pulses:.0e} pulses -> {len(stream)} time tags"
          f" ({size / 1024:.0f} KiB on disk)")

    _, gate, table = zh.table_from_stream(stream, CFG.gate_window, 5, 5)
    rejected = sum(gate.n_rejected.values())
    print(f"virtual gate kept {table.n_pulses} pulses of record,"
          f" rejected {rejected} out-of-window tags (darks between gates)")

    summary = zh.compute_rates(table, CFG.delta_t)
    cmp = zh.compare_to_model(summary, CFG)
    print()
    print(f"{'rate':16s} {'measured':>12s} {'model':>12s} {'z':>6s}")
    for name in ("singles1", "singles2", "coincidence", "heralded_rate"):
        print(f"{name:16s} {cmp.measured[name]:12.4e}"
              f" {cmp.predicted[name]:12.4e} {cmp.z[name]:6.2f}")
    print()
    print(f"heralding success (no-click fraction): {summary.heralding_success:.6f}")
    print(f"comparison flags: {', '.join(cmp.flags) if cmp.flags else 'none'}")


if __name__ == "__main__":
    main()
