"""Why no-click heralding tolerates dark counts but not loss.

A dark count can only turn a would-be herald (no click) into a click,
so it throws heralds away: success drops by exactly (1-d), but the
heralds that survive are as good as ever. Detector loss does the
opposite: a missed photon produces a false "zero photons here" herald,
so success even rises while the heralded state quietly degrades.

The simulator records the true emitted photon numbers, so the
fidelity below is measured against ground truth, not inferred.
Settings are exaggerated (gamma = 0.05, d = 1e-3) to make the effect
visible at 2 x 10^6 pulses.
"""

import math

import numpy as np

import zeroherald as zh

GAMMA = 0.05
N = 2 * 10**6


def run(eta1, dark, seed):
    cfg = zh.SimConfig(
        source=zh.SourceParams(gamma=GAMMA, kappa1=1.0, kappa2=1.0),
        det1=zh.DetectorParams(eta=eta1, dark_prob=dark),
        det2=zh.DetectorParams(eta=0.5),
        profile=zh.IndistinguishabilityProfile(nu_max=1.0, tau=100e-15),
        n_pulses=N,
        seed=seed,
        out_gate_dark_rate=0.0,
    )
    res = zh.run_simulation(cfg)
    _, _, table = zh.table_from_stream(res.stream, cfg.gate_window, 0, 0)
    summary = zh.compute_rates(table, 0.0)

    # ground truth: how many of the accepted heralds really had zero
    # photons in the output arm. Without dead time every pulse where
    # detector 1 did not click is a herald; the false ones are the
    # pulses that carried photons to detector 1 and are not in clicks1.
    heralds = table.n_pulses - table.clicks1.size
    truth = res.truth
    carried = truth.pair_pulses[(truth.m > 0) & (truth.pair_pulses < table.n_pulses)]
    missed = carried.size - np.intersect1d(carried, table.clicks1, assume_unique=True).size
    fid = (heralds - missed) / heralds
    fid_err = math.sqrt(fid * (1 - fid) / heralds)
    return summary, fid, fid_err


def main():
    rows = [
        ("baseline  eta1=0.50 d=0", 0.50, 0.0, 31),
        ("darks     eta1=0.50 d=1e-3", 0.50, 1e-3, 32),
        ("lossy     eta1=0.25 d=0", 0.25, 0.0, 33),
    ]
    print(f"{'setting':30s} {'success':>18s} {'true fidelity':>18s}")
    results = []
    for label, eta1, dark, seed in rows:
        s, fid, fid_err = run(eta1, dark, seed)
        results.append((s, fid))
        print(f"{label:30s} {s.heralding_success:11.5f} +- {s.heralding_success_err:.5f}"
              f" {fid:11.5f} +- {fid_err:.5f}")

    base_s, base_f = results[0]
    dark_s, dark_f = results[1]
    lossy_s, lossy_f = results[2]
    print()
    print(f"darks: success ratio {dark_s.heralding_success / base_s.heralding_success:.5f}"
          f" (the (1-d) tax, d = 1e-3), fidelity shift {dark_f - base_f:+.5f}")
    print(f"loss:  success shift {lossy_s.heralding_success - base_s.heralding_success:+.5f}"
          f" (rises!), fidelity shift {lossy_f - base_f:+.5f}")

    marg = zh.output_distribution(
        zh.SourceParams(gamma=GAMMA, kappa1=1.0, kappa2=1.0), 1.0
    ).marginal(1)
    det = zh.DetectorParams(eta=0.25)
    print()
    print(f"closed form at eta1=0.25: success {zh.success_probability(marg, det):.5f},"
          f" fidelity {zh.heralded_fidelity(marg, det):.5f}")


if __name__ == "__main__":
    main()
