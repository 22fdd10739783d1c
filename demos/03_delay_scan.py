"""A full delay scan: simulate, fit, and recover the efficiencies.

Thirteen delay points spanning +-3 tau, 10^8 pulses each (well under
a second on a 2-vCPU machine; the simulator only touches eventful
pulses). The heralded rate traces a peak, the raw detector-2 singles
trace a shallow dip, and the coincidences trace the deep two-photon
dip. One indistinguishability profile drives all three, so scan_fit
fits them together: one Gaussian delay shape (center and width) shared
by the three series, each with its own baseline and amplitude. The deep
dip pins the shape, which keeps the two shallow curves' center-to-wings
ratios well determined, and each ratio's error includes the shape's
uncertainty. The pair of ratios inverts back into the effective
efficiencies the scan was generated with.
"""

import numpy as np

import zeroherald as zh

TAU = 100e-15
NU_MAX = 0.975
CFG = zh.SimConfig(
    source=zh.SourceParams(gamma=1e-4, kappa1=0.5, kappa2=0.5),
    det1=zh.DetectorParams(eta=0.32, dead_pulses=5),
    det2=zh.DetectorParams(eta=0.30, dead_pulses=5),
    profile=zh.IndistinguishabilityProfile(nu_max=NU_MAX, tau=TAU),
    n_pulses=10**8,
    seed=17,
)


def main():
    delays = np.linspace(-3 * TAU, 3 * TAU, 13)
    streams = (res.stream for _, res in zh.scan_delays(CFG, delays))
    summaries, _ = zh.scan_rates(streams, delays, CFG.gate_window, 5)

    print("delay (fs)   heralded/pulse   singles2/pulse   coincidence/pulse")
    for s in summaries:
        print(f"{s.delta_t * 1e15:+9.1f}   {s.heralded_rate:.6e}"
              f"   {s.singles2:.6e}   {s.coincidence:.6e}")

    fits = zh.scan_fit(summaries)
    fit_h, fit_u, fit_c = fits["heralded_rate"], fits["singles2"], fits["coincidence"]
    vis, vis_err = zh.visibility(fit_c)

    print()
    print(f"heralded peak:    cwr = {fit_h.cwr:.4f} +- {fit_h.cwr_err:.4f}"
          f"  (model {zh.cwr_approx(0.16, 0.15, NU_MAX):.4f})")
    print(f"unheralded scan:  cwr = {fit_u.cwr:.4f} +- {fit_u.cwr_err:.4f}"
          f"  (model {zh.cwr_approx(0.0, 0.15, NU_MAX):.4f})")
    print(f"coincidence dip:  visibility = {vis:.4f} +- {vis_err:.4f}"
          f"  (true {NU_MAX})")
    print(f"shared width:     {fit_h.sigma * 1e15:.1f} fs"
          f"  (tau/sqrt(2) = {TAU / np.sqrt(2) * 1e15:.1f} fs)")

    # the inversion amplifies the few-percent ratio errors, so expect
    # the recovered values to be in the neighbourhood, not on the nose
    e1p, e2p = zh.estimate_efficiencies(fit_h, fit_u, NU_MAX)
    print()
    print(f"efficiencies from the two ratios: eta1' = {e1p:.4f},"
          f" eta2' = {e2p:.4f}  (true 0.1600, 0.1500)")


if __name__ == "__main__":
    main()
