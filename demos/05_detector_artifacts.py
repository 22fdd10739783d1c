"""Afterpulsing in the raw tags, and the software dead window that eats it.

The simulated detector afterpulses: each click has a 5% chance of
spawning a spurious click at the first live pulse after its hardware
dead window (2 pulses here). In the reconstructed pulse train that
shows up as a spike of click pairs at lag 3. Extending the dead time
in software to 5 pulses discards any click that close to a previous
one, afterpulses included, at the price of a slightly smaller live
sample. Same tags, two analyses.
"""

import numpy as np

import zeroherald as zh

CFG = zh.SimConfig(
    source=zh.SourceParams(gamma=5e-3, kappa1=1.0, kappa2=1.0),
    det1=zh.DetectorParams(eta=0.4, dead_pulses=2, afterpulse_prob=0.05),
    det2=zh.DetectorParams(eta=0.4, dead_pulses=2, afterpulse_prob=0.05),
    profile=zh.IndistinguishabilityProfile(nu_max=0.975, tau=100e-15),
    n_pulses=10**6,
    seed=5,
)


def lag_histogram(table, max_lag=8):
    lags = np.diff(table.clicks1)
    return np.bincount(lags[lags <= max_lag], minlength=max_lag + 1)


def main():
    res = zh.run_simulation(CFG)

    print("same tag stream, software dead window 0 vs 5 pulses")
    print()
    print(f"{'lag':>4s} {'pairs (dead 0)':>15s} {'pairs (dead 5)':>15s}")
    tables = {}
    for dead in (0, 5):
        _, _, tables[dead] = zh.table_from_stream(
            res.stream, CFG.gate_window, dead, dead
        )
    h0 = lag_histogram(tables[0])
    h5 = lag_histogram(tables[5])
    for lag in range(1, 9):
        note = "  <- afterpulses pile up here" if lag == 3 else ""
        print(f"{lag:4d} {h0[lag]:15d} {h5[lag]:15d}{note}")

    # geometric baseline from the click rate: neighbouring lags 4..8
    # fall smoothly, lag 3 sticks out by roughly afterpulse_prob x clicks
    s0 = zh.compute_rates(tables[0], 0.0)
    s5 = zh.compute_rates(tables[5], 0.0)
    n_clicks = tables[0].clicks1.size
    excess = h0[3] - h0[4]
    print()
    print(f"lag-3 excess over lag-4: {excess} pairs"
          f" ~ {excess / n_clicks:.3f} per click (set: 0.05)")
    print()
    print(f"singles1 per live pulse: dead 0 -> {s0.singles1:.5f},"
          f" dead 5 -> {s5.singles1:.5f}")
    print(f"live pulses:             dead 0 -> {s0.n_live_pulses},"
          f" dead 5 -> {s5.n_live_pulses}")
    print("the wider window trades a few percent of sample for clicks that")
    print("are once again independent from pulse to pulse")


if __name__ == "__main__":
    main()
