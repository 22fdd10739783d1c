"""Closed-form model checks against independently derived values.

The frozen constants below were computed with exact rational arithmetic
over the two-photon output distribution (threshold detection folded in
by hand), not by running the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroherald import (
    DetectorParams,
    IndistinguishabilityProfile,
    SourceParams,
    curve_grid,
    cwr_approx,
    heralded_fidelity,
    invert_cwr_for_eta1,
    invert_cwr_for_eta2_unheralded,
    output_distribution,
    p_c2_given_nc1_approx,
    p_c2_given_nc1_exact,
    p_click_single,
    p_coincidence,
    p_noclick_given_n,
    success_probability,
)
from zeroherald.errors import (
    DegenerateInputError,
    NoSolutionError,
    ValidationError,
)

# rational-arithmetic reference point: gamma=1/500, kappa=(7/10, 11/20),
# eta=(31/50, 12/25), nu=41/100
SRC = SourceParams(gamma=0.002, kappa1=0.7, kappa2=0.55)
ETA1, ETA2, NU = 0.62, 0.48, 0.41

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
unit_open = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


class TestNoClickProbability:
    def test_vacuum_never_fires_without_darks(self):
        assert p_noclick_given_n(DetectorParams(eta=0.3), 0) == 1.0

    def test_matches_closed_form(self):
        det = DetectorParams(eta=0.25, dark_prob=0.1)
        assert p_noclick_given_n(det, 3) == pytest.approx(
            0.9 * 0.75**3, rel=1e-15
        )

    def test_rejects_fractional_photon_number(self):
        with pytest.raises(ValidationError):
            p_noclick_given_n(DetectorParams(eta=0.3), 1.5)

    @given(n=st.integers(0, 20), eta=unit, d=unit)
    def test_is_a_probability(self, n, eta, d):
        p = p_noclick_given_n(DetectorParams(eta=eta, dark_prob=d), n)
        assert 0.0 <= p <= 1.0


class TestSuccessAndFidelity:
    def test_success_frozen_value(self):
        # (1-0.02) * (0.9 + 0.09*0.7 + 0.01*0.49), rational arithmetic
        got = success_probability(
            [0.9, 0.09, 0.01], DetectorParams(eta=0.3, dark_prob=0.02)
        )
        assert got == pytest.approx(0.948542, abs=1e-15)

    def test_fidelity_frozen_value(self):
        got = heralded_fidelity([0.9, 0.09, 0.01], DetectorParams(eta=0.3))
        assert got == pytest.approx(0.92984812480628165, rel=1e-15)

    def test_split_single_photon_case(self):
        # photon in a 50/50 superposition of kept and measured modes
        for eta in (0.1, 0.5, 0.9):
            for d in (0.0, 0.3):
                det = DetectorParams(eta=eta, dark_prob=d)
                ps = success_probability([0.5, 0.5], det)
                assert ps == pytest.approx((1 - d) * (2 - eta) / 2, rel=1e-14)
            fid = heralded_fidelity([0.5, 0.5], DetectorParams(eta=eta))
            assert fid == pytest.approx(1 / (2 - eta), rel=1e-14)

    @given(eta=unit, d1=unit, d2=unit)
    def test_fidelity_ignores_dark_counts(self, eta, d1, d2):
        dist = [0.7, 0.2, 0.1]
        f1 = heralded_fidelity(dist, DetectorParams(eta=eta, dark_prob=d1))
        f2 = heralded_fidelity(dist, DetectorParams(eta=eta, dark_prob=d2))
        assert f1 == f2

    def test_fidelity_degenerate_at_full_efficiency_single_photon(self):
        with pytest.raises(DegenerateInputError):
            heralded_fidelity([0.0, 1.0], DetectorParams(eta=1.0))

    def test_rejects_unnormalized_distribution(self):
        with pytest.raises(ValidationError):
            success_probability([0.5, 0.6], DetectorParams(eta=0.3))


class TestOutputDistribution:
    def test_frozen_values(self):
        d = output_distribution(SRC, NU)
        assert d.p00 == pytest.approx(0.99827, rel=1e-15)
        assert d.p10 == pytest.approx(0.00048, rel=1e-15)
        assert d.p01 == pytest.approx(0.00048, rel=1e-15)
        assert d.p11 == pytest.approx(0.00022715, rel=1e-15)
        assert d.p20 == pytest.approx(0.000271425, rel=1e-15)
        assert d.p02 == pytest.approx(0.000271425, rel=1e-15)

    def test_perfect_interference_kills_coincidence_term(self):
        d = output_distribution(SourceParams(0.01, 1.0, 1.0), 1.0)
        assert d.p11 == 0.0
        assert d.p20 == pytest.approx(0.005, rel=1e-15)

    @given(g=unit, k1=unit, k2=unit, nu=unit)
    def test_normalized_and_nonnegative(self, g, k1, k2, nu):
        d = output_distribution(SourceParams(g, k1, k2), nu)
        vals = list(d.as_dict().values())
        assert all(v >= 0.0 for v in vals)
        assert math.fsum(vals) == pytest.approx(1.0, abs=1e-12)

    def test_marginal_sums_one_arm(self):
        d = output_distribution(SRC, NU)
        marg = d.marginal(1)
        assert marg[0] == pytest.approx(d.p00 + d.p01 + d.p02, rel=1e-14)
        assert marg[1] == pytest.approx(d.p10 + d.p11, rel=1e-14)
        assert marg[2] == pytest.approx(d.p20, rel=1e-14)
        marg = d.marginal(2)
        assert marg[0] == pytest.approx(d.p00 + d.p10 + d.p20, rel=1e-14)
        assert marg[1] == pytest.approx(d.p01 + d.p11, rel=1e-14)
        assert marg[2] == pytest.approx(d.p02, rel=1e-14)
        with pytest.raises(ValidationError, match="arm must be 1 or 2"):
            d.marginal(3)


def brute_force_rates(src, eta1, eta2, nu):
    """Fold threshold detection over the photon distribution directly."""
    d = {
        (int(k[1]), int(k[2])): v
        for k, v in output_distribution(src, nu).as_dict().items()
    }
    click = lambda eta, n: 1.0 - (1.0 - eta) ** n
    p1 = sum(p * click(eta1, m) for (m, n), p in d.items())
    p2 = sum(p * click(eta2, n) for (m, n), p in d.items())
    pc = sum(p * click(eta1, m) * click(eta2, n) for (m, n), p in d.items())
    num = sum(p * (1 - eta1) ** m * click(eta2, n) for (m, n), p in d.items())
    den = sum(p * (1 - eta1) ** m for (m, n), p in d.items())
    return p1, p2, pc, num / den


class TestClickRates:
    def test_single_click_frozen_value(self):
        assert p_click_single(SRC, ETA2, NU) == pytest.approx(
            0.00053746367999999995, rel=1e-14
        )
        assert p_click_single(SRC, ETA1, NU) == pytest.approx(
            0.00067066423, rel=1e-14
        )

    def test_coincidence_frozen_value(self):
        assert p_coincidence(SRC, ETA1, ETA2, NU) == pytest.approx(
            6.7599840000000006e-05, rel=1e-14
        )

    def test_conditional_frozen_value(self):
        got = p_c2_given_nc1_exact(SRC, ETA1, ETA2, NU)
        assert got == pytest.approx(0.00047017917235258786, rel=1e-14)

    @given(g=unit_open, k1=unit, k2=unit, e1=unit, e2=unit, nu=unit)
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, g, k1, k2, e1, e2, nu):
        src = SourceParams(g, k1, k2)
        p1, p2, pc, cond = brute_force_rates(src, e1, e2, nu)
        assert p_click_single(src, e1, nu) == pytest.approx(p1, abs=1e-14)
        assert p_click_single(src, e2, nu) == pytest.approx(p2, abs=1e-14)
        assert p_coincidence(src, e1, e2, nu) == pytest.approx(pc, abs=1e-14)
        assert p_c2_given_nc1_exact(src, e1, e2, nu) == pytest.approx(
            cond, abs=1e-14
        )

    def test_zero_pair_rate_means_zero_rates(self):
        src = SourceParams(0.0, 0.5, 0.5)
        assert p_click_single(src, 0.9, 0.3) == 0.0
        assert p_coincidence(src, 0.9, 0.9, 0.3) == 0.0
        assert p_c2_given_nc1_exact(src, 0.9, 0.9, 0.3) == 0.0


class TestConditionalApproximation:
    def test_frozen_value(self):
        got = p_c2_given_nc1_approx(0.62, 0.48, gamma=0.002, nu=0.41)
        assert got == pytest.approx(0.000621984, rel=1e-14)

    def test_tracks_exact_form_at_small_gamma(self):
        # worst case on an 21x21 efficiency grid, equal couplings
        src_grid = np.linspace(0.0, 1.0, 21)
        worst = 0.0
        for e1 in src_grid:
            for e2 in src_grid:
                for nu in (0.0, 0.975):
                    src = SourceParams(1e-4, 1.0, 1.0)
                    exact = p_c2_given_nc1_exact(src, e1, e2, nu)
                    approx = p_c2_given_nc1_approx(e1, e2, 1e-4, nu)
                    if exact > 0:
                        worst = max(worst, abs(approx - exact) / exact)
        assert worst < 1e-3


class TestCwr:
    def test_reference_operating_point(self):
        # heralded peak and unheralded dip at the reference efficiencies
        assert cwr_approx(0.16, 0.15, 0.975) == pytest.approx(1.047, abs=1e-3)
        assert cwr_approx(0.0, 0.15, 0.975) == pytest.approx(0.962, abs=1e-3)

    def test_reference_operating_point_frozen(self):
        assert cwr_approx(0.16, 0.15, 0.975) == pytest.approx(
            1.0469546742209632, rel=1e-15
        )
        assert cwr_approx(0.0, 0.15, 0.975) == pytest.approx(
            0.9620129870129871, rel=1e-15
        )

    def test_lossless_heralding_doubles_the_rate(self):
        for e2 in np.linspace(0.0, 1.0, 100):
            assert cwr_approx(1.0, e2, 1.0) == 2.0

    def test_half_efficiency_point_is_flat(self):
        for e2 in np.linspace(0.0, 1.0, 100):
            for nu in (0.0, 0.3, 1.0):
                assert cwr_approx(e2 / 2.0, e2, nu) == 1.0

    def test_blind_herald_full_monitor_gives_two_thirds(self):
        assert cwr_approx(0.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @given(e1=unit, e2=unit, nu=unit)
    def test_stays_within_global_bounds(self, e1, e2, nu):
        assert 2.0 / 3.0 - 1e-12 <= cwr_approx(e1, e2, nu) <= 2.0 + 1e-12

    @given(e2=unit, nu=unit_open, lo=unit, hi=unit)
    def test_monotone_in_herald_efficiency(self, e2, nu, lo, hi):
        lo, hi = sorted((lo, hi))
        assert cwr_approx(lo, e2, nu) <= cwr_approx(hi, e2, nu) + 1e-12

    @given(e1=unit, e2=unit)
    def test_no_interference_means_no_structure(self, e1, e2):
        assert cwr_approx(e1, e2, 0.0) == 1.0

    def test_accepts_effective_efficiency_wrapper(self):
        # an effective efficiency sqrt(k1*k2)*eta is a plain float:
        # sqrt(0.25*0.25)*0.64 = 0.16
        assert cwr_approx(0.16, 0.15, 0.975) == pytest.approx(
            1.0469546742209632, rel=1e-14
        )


class TestCwrInversion:
    @given(e1=unit, e2=unit_open, nu=unit_open)
    @settings(max_examples=200)
    def test_round_trip_herald_efficiency(self, e1, e2, nu):
        c = cwr_approx(e1, e2, nu)
        back = invert_cwr_for_eta1(c, e2, nu)
        assert back == pytest.approx(e1, abs=1e-9)

    def test_round_trip_monitor_efficiency(self):
        for e2 in (0.05, 0.15, 0.6, 1.0):
            c = cwr_approx(0.0, e2, 0.975)
            assert invert_cwr_for_eta2_unheralded(c, 0.975) == pytest.approx(
                e2, abs=1e-9
            )

    def test_unattainable_ratio_is_rejected(self):
        # above the e1=1 ceiling for this (e2, nu)
        hi = cwr_approx(1.0, 0.15, 0.5)
        with pytest.raises(NoSolutionError):
            invert_cwr_for_eta1(hi + 1e-6, 0.15, 0.5)
        lo = cwr_approx(0.0, 0.15, 0.5)
        with pytest.raises(NoSolutionError):
            invert_cwr_for_eta1(lo - 1e-6, 0.15, 0.5)

    def test_no_interference_ratio_is_uninvertible(self):
        with pytest.raises(NoSolutionError):
            invert_cwr_for_eta1(1.0, 0.15, 0.0)


class TestIndistinguishabilityProfile:
    def test_gaussian_shape(self):
        prof = IndistinguishabilityProfile(nu_max=0.8, tau=2e-13)
        assert prof.nu(0.0) == pytest.approx(0.8, rel=1e-15)
        assert prof.nu(2e-13) == pytest.approx(0.8 * math.exp(-1.0), rel=1e-12)
        assert prof.nu(-2e-13) == prof.nu(2e-13)

    def test_triangular_shape(self):
        prof = IndistinguishabilityProfile(nu_max=1.0, tau=1e-13,
                                           shape="triangular")
        assert prof.nu(0.0) == 1.0
        assert prof.nu(5e-14) == pytest.approx(0.5, rel=1e-12)
        assert prof.nu(2e-13) == 0.0

    def test_tabulated_interpolation_and_domain(self):
        prof = IndistinguishabilityProfile(
            shape="tabulated",
            delays=[-1e-13, 0.0, 1e-13],
            values=[0.1, 0.9, 0.1],
        )
        assert prof.nu(0.0) == pytest.approx(0.9)
        assert prof.nu(5e-14) == pytest.approx(0.5)
        with pytest.raises(ValidationError):
            prof.nu(2e-13)

    def test_tabulated_rejects_tau(self):
        with pytest.raises(ValidationError, match="tabulated profile takes no tau"):
            IndistinguishabilityProfile(shape="tabulated", tau=1e-13,
                                        delays=[-1e-13, 0.0, 1e-13], values=[0.1, 0.9, 0.1])

    def test_vectorized_evaluation(self):
        prof = IndistinguishabilityProfile(nu_max=0.5, tau=1e-13)
        out = prof.nu(np.array([0.0, 1e-13]))
        assert out.shape == (2,)
        assert out[0] == pytest.approx(0.5)

    def test_rejects_nu_above_one(self):
        with pytest.raises(ValidationError):
            IndistinguishabilityProfile(nu_max=1.2, tau=1e-13)

    @pytest.mark.parametrize("shape", ["gaussian", "triangular"])
    def test_tables_need_tabulated_shape(self, shape):
        # nu() would never read them
        with pytest.raises(ValidationError, match="need shape = tabulated"):
            IndistinguishabilityProfile(nu_max=0.9, tau=1e-13, shape=shape,
                                        delays=[-1e-13, 0.0, 1e-13], values=[0.1, 0.9, 0.1])

    @pytest.mark.parametrize("tau", [0.0, -1e-13, math.nan, math.inf])
    def test_rejects_bad_width(self, tau):
        with pytest.raises(ValidationError, match="tau must be positive and finite"):
            IndistinguishabilityProfile(nu_max=0.9, tau=tau)

    @pytest.mark.parametrize("delays, values, match", [
        ([-1e-13, math.nan, 1e-13], [0.1, 0.9, 0.1], "delays must be finite"),
        ([-math.inf, 0.0, 1e-13], [0.1, 0.9, 0.1], "delays must be finite"),
        ([-1e-13, 0.0, 1e-13], [0.1, math.nan, 0.1], r"values must be in \[0, 1\]"),
        ([-1e-13, 0.0, 1e-13], [0.1, 0.9, math.nan], r"values must be in \[0, 1\]"),
    ])
    def test_tabulated_rejects_nan(self, delays, values, match):
        # a NaN entry used to pass and give nu_max = nan
        with pytest.raises(ValidationError, match=match):
            IndistinguishabilityProfile(shape="tabulated", delays=delays, values=values)

    def test_tabulated_rejects_nan_ceiling(self):
        with pytest.raises(ValidationError, match="nu_max disagrees"):
            IndistinguishabilityProfile(shape="tabulated", nu_max=math.nan,
                                        delays=[-1e-13, 0.0, 1e-13], values=[0.1, 0.9, 0.1])


class TestCurveGrid:
    def test_center_row_carries_the_peak_ratio(self):
        prof = IndistinguishabilityProfile(nu_max=0.975, tau=1e-13)
        src = SourceParams(1e-4, 1.0, 1.0)
        delays = np.linspace(-3e-13, 3e-13, 13)
        rows = curve_grid(src, 0.16, 0.15, prof, delays)
        assert len(rows) == 13
        center = rows[6]
        assert center["delta_t"] == 0.0
        assert center["cwr"] == pytest.approx(1.0469546742209632, rel=1e-12)
        # far wings carry no interference structure
        assert rows[0]["cwr"] == pytest.approx(1.0, abs=1e-3)

    def test_rate_columns_match_scalar_functions(self):
        prof = IndistinguishabilityProfile(nu_max=0.5, tau=1e-13)
        src = SourceParams(2e-3, 0.7, 0.55)
        rows = curve_grid(src, 0.62, 0.48, prof, [0.0])
        row = rows[0]
        assert row["p_click1"] == pytest.approx(
            p_click_single(src, 0.62, 0.5), rel=1e-14
        )
        assert row["p_coincidence"] == pytest.approx(
            p_coincidence(src, 0.62, 0.48, 0.5), rel=1e-14
        )
        assert row["p_c2_given_nc1_exact"] == pytest.approx(
            p_c2_given_nc1_exact(src, 0.62, 0.48, 0.5), rel=1e-14
        )
