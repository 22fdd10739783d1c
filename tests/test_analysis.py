"""Rate reduction, curve fitting, and model comparison tests.

The counting fixtures are ten-row tables whose rates can be read off by
hand. Fit tests use synthetic curves generated from the same closed
forms the fitter is meant to summarize, so the expected ratios are
known before any fitting happens.
"""

import csv
import dataclasses
import io
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zeroherald import model
from zeroherald.analysis import (
    RATE_FIELDS,
    FitResult,
    RateSummary,
    compare_to_model,
    compute_rates,
    estimate_efficiencies,
    gaussian_fit,
    scan_fit,
    scan_rates,
    series_points,
    visibility,
    write_fits_jsonl,
    write_rate_csv,
)
from zeroherald.errors import (
    EmptyTableError,
    FitConvergenceError,
    FormatError,
    HeraldUndefinedError,
    IntegrityError,
    NoSolutionError,
    OutputError,
    ValidationError,
    WrongShapeError,
)
from zeroherald.model import DetectorParams, IndistinguishabilityProfile, SourceParams
from zeroherald.pipeline import table_from_stream
from zeroherald.sim import SimConfig, run_simulation, scan_delays
from zeroherald.tags import TagStream

from dense_oracle import DenseTable, PulseState

N, C, D = PulseState.NOCLICK, PulseState.CLICK, PulseState.DEAD


def table(d1, d2):
    # state-by-state fixtures: some (a dead row with no click before it)
    # have no sparse PulseEventTable form
    return DenseTable(d1, d2)


# ten pulses, one dead row per detector; live rows are the other eight
HAND_D1 = [N, C, N, N, D, N, N, C, N, N]
HAND_D2 = [C, N, N, C, N, N, N, C, D, N]


class TestComputeRates:
    def test_hand_counted_fixture(self):
        s = compute_rates(table(HAND_D1, HAND_D2), delta_t=2.5e-13)
        assert s.delta_t == 2.5e-13
        assert s.n_pulses == 10
        assert s.n_live_pulses == 8
        assert s.n_herald_pulses == 6
        assert (s.singles1_count, s.singles2_count) == (2, 3)
        assert (s.coincidence_count, s.heralded_count) == (1, 2)
        assert s.singles1 == 2 / 8
        assert s.singles2 == 3 / 8
        assert s.coincidence == 1 / 8
        assert s.heralded_rate == 2 / 6
        assert s.heralding_success == 6 / 8

    def test_poisson_errors(self):
        s = compute_rates(table(HAND_D1, HAND_D2))
        assert s.singles1_err == math.sqrt(2) / 8
        assert s.singles2_err == math.sqrt(3) / 8
        assert s.coincidence_err == math.sqrt(1) / 8
        assert s.heralded_rate_err == math.sqrt(2) / 6
        assert s.heralding_success_err == math.sqrt(6) / 8

    def test_all_no_click_floors_errors_at_one_count(self):
        s = compute_rates(table([N] * 20, [N] * 20))
        assert s.singles1 == 0.0 and s.singles2 == 0.0
        assert s.heralded_rate == 0.0
        assert s.heralding_success == 1.0
        # a measured zero still reports a one-count scale
        assert s.singles1_err == 1 / 20
        assert s.coincidence_err == 1 / 20
        assert s.heralded_rate_err == 1 / 20

    def test_all_dead_raises_empty(self):
        with pytest.raises(EmptyTableError):
            compute_rates(table([D, D, D], [N, C, N]))

    def test_zero_rows_raises_empty(self):
        with pytest.raises(EmptyTableError):
            compute_rates(table([], []))

    def test_detector1_always_clicking_raises(self):
        with pytest.raises(HeraldUndefinedError):
            compute_rates(table([C, C, D], [N, C, N]))

    def test_dead_rows_do_not_count_anywhere(self):
        base = compute_rates(table(HAND_D1, HAND_D2))
        padded = compute_rates(table(HAND_D1 + [D] * 5, HAND_D2 + [C] * 5))
        assert padded.n_pulses == 15
        for f in ("n_live_pulses", "singles1_count", "singles2_count",
                  "coincidence_count", "heralded_count"):
            assert getattr(padded, f) == getattr(base, f)

    def test_rate_and_err_matches_fields(self):
        s = compute_rates(table(HAND_D1, HAND_D2))
        for name in RATE_FIELDS:
            assert s.rate_and_err(name) == (getattr(s, name), getattr(s, name + "_err"))

    def test_to_dict_round_trip(self):
        s = compute_rates(table(HAND_D1, HAND_D2), delta_t=1e-13)
        d = s.to_dict()
        assert RateSummary(**d) == s

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_click2_counts_split_by_detector1_state(self, rows):
        d1 = [a for a, _ in rows]
        d2 = [b for _, b in rows]
        live = [(a, b) for a, b in rows if a != D and b != D]
        if not live:
            with pytest.raises(EmptyTableError):
                compute_rates(table(d1, d2))
            return
        if all(a == C for a, _ in live):
            with pytest.raises(HeraldUndefinedError):
                compute_rates(table(d1, d2))
            return
        s = compute_rates(table(d1, d2))
        # every live detector-2 click is either heralded or coincident
        assert s.singles2_count == s.heralded_count + s.coincidence_count
        assert s.n_herald_pulses + s.singles1_count == s.n_live_pulses
        # each rate is k / n with error sqrt(max(k, 1)) / n, k and n
        # read off the dense table's live cells
        cells = table(d1, d2).cell_counts()[:2, :2].tolist()
        live = sum(map(sum, cells))
        herald = sum(cells[0])
        expected = {  # rate: (count, pulses it is counted over)
            "singles1": ("singles1_count", sum(cells[1]), live),
            "singles2": ("singles2_count", cells[0][1] + cells[1][1], live),
            "coincidence": ("coincidence_count", cells[1][1], live),
            "heralded_rate": ("heralded_count", cells[0][1], herald),
            "heralding_success": ("n_herald_pulses", herald, live),
        }
        assert s.n_live_pulses == live
        for name, (count, k, n) in expected.items():
            assert getattr(s, count) == k
            assert getattr(s, name) == k / n
            assert getattr(s, name + "_err") == math.sqrt(max(k, 1)) / n

    def test_summary_holds_only_its_live_cells(self):
        s = compute_rates(table(HAND_D1, HAND_D2), delta_t=2.5e-13)
        assert s.to_dict() == {"delta_t": 2.5e-13, "n_pulses": 10,
                               "n00": 4, "n01": 2, "n10": 1, "n11": 1}
        assert all(type(v) is int for k, v in s.to_dict().items() if k != "delta_t")

    def test_no_live_pulse_raises_empty(self):
        with pytest.raises(EmptyTableError):
            RateSummary(delta_t=0.0, n_pulses=10, n00=0, n01=0, n10=0, n11=0)

    def test_no_herald_pulse_raises(self):
        with pytest.raises(HeraldUndefinedError):
            RateSummary(delta_t=0.0, n_pulses=10, n00=0, n01=0, n10=3, n11=2)

    @pytest.mark.parametrize("cell, value", [("n11", -2), ("n01", 0.5)] + [
        (cell, value) for cell in ("n_pulses", "n00", "n01", "n10", "n11")
        for value in (-1, 2.5, 2.0, True, "3", None)])
    def test_a_cell_must_be_a_non_negative_integer(self, cell, value):
        cells = {"n_pulses": 10, "n00": 5, "n01": 1, "n10": 1, "n11": 1, cell: value}
        with pytest.raises(ValidationError, match=f"{cell} must be a non-negative integer"):
            RateSummary(delta_t=0.0, **cells)

    def test_numpy_integer_cells_are_stored_as_int(self):
        s = RateSummary(0.0, np.int64(10), np.uint8(5), np.int64(1), np.uint8(1), np.int32(1))
        assert s.to_dict() == {"delta_t": 0.0, "n_pulses": 10,
                               "n00": 5, "n01": 1, "n10": 1, "n11": 1}
        assert all(type(v) is int for k, v in s.to_dict().items() if k != "delta_t")

    @pytest.mark.parametrize("n_pulses", [0, 7])
    def test_pulses_below_the_live_cells_are_rejected(self, n_pulses):
        # 8 live pulses out of 0 or 7 used to be accepted
        with pytest.raises(ValidationError, match=f"n_pulses {n_pulses} < 8 live pulses"):
            RateSummary(0.0, n_pulses, 5, 1, 1, 1)
        assert RateSummary(0.0, 8, 5, 1, 1, 1).n_live_pulses == 8

    @pytest.mark.parametrize("delta_t", [math.nan, math.inf, -math.inf])
    def test_delay_must_be_finite(self, delta_t):
        with pytest.raises(ValidationError, match="delta_t must be finite"):
            RateSummary(delta_t, 10, 5, 1, 1, 0)


class TestSeriesPoints:
    def test_extracts_triples_in_order(self):
        a = compute_rates(table(HAND_D1, HAND_D2), delta_t=-1e-13)
        b = compute_rates(table([N] * 20, [N] * 20), delta_t=1e-13)
        pts = series_points([a, b], "heralded_rate")
        assert pts == [
            (-1e-13, a.heralded_rate, a.heralded_rate_err),
            (1e-13, b.heralded_rate, b.heralded_rate_err),
        ]

    def test_unknown_field_rejected(self):
        s = compute_rates(table(HAND_D1, HAND_D2))
        with pytest.raises(ValidationError, match="heralded_count"):
            series_points([s], "heralded_count")


def gauss_points(a, b, t0, sigma, x, err=1e-6):
    y = a + b * np.exp(-((x - t0) ** 2) / (2 * sigma**2))
    return [(float(xi), float(yi), err) for xi, yi in zip(x, y)]


GRID = np.linspace(-3e-13, 3e-13, 13)


class TestGaussianFit:
    def test_recovers_exact_peak(self):
        fit = gaussian_fit(gauss_points(0.01, 0.002, 0.3e-13, 1e-13, GRID))
        assert fit.a == pytest.approx(0.01, rel=1e-7)
        assert fit.b == pytest.approx(0.002, rel=1e-7)
        assert fit.t0 == pytest.approx(0.3e-13, abs=1e-7 * 6e-13)
        assert fit.sigma == pytest.approx(1e-13, rel=1e-7)
        assert fit.cwr == pytest.approx(1.2, rel=1e-7)
        assert fit.visibility is None
        assert fit.n_points == 13

    def test_recovers_exact_dip(self):
        fit = gaussian_fit(gauss_points(0.01, -0.002, 0.0, 1e-13, GRID))
        assert fit.b == pytest.approx(-0.002, rel=1e-7)
        assert fit.cwr == pytest.approx(0.8, rel=1e-7)
        assert fit.visibility == pytest.approx(0.2, rel=1e-7)
        assert fit.visibility_err is not None and fit.visibility_err > 0
        assert visibility(fit) == (fit.visibility, fit.visibility_err)

    def test_visibility_rejects_peaks(self):
        fit = gaussian_fit(gauss_points(0.01, 0.002, 0.0, 1e-13, GRID))
        with pytest.raises(WrongShapeError):
            visibility(fit)

    def test_flat_data_short_circuits(self):
        fit = gaussian_fit([(float(x), 0.25, 1e-3) for x in GRID])
        assert fit.b == 0.0
        assert fit.a == 0.25
        assert fit.cwr == 1.0
        assert fit.n_iterations == 0
        assert fit.t0 == 0.0
        assert fit.visibility is None
        assert visibility(fit) == (0.0, 0.0)

    def test_flat_zero_data_has_undefined_cwr(self):
        fit = gaussian_fit([(float(x), 0.0, 1e-3) for x in GRID])
        assert math.isnan(fit.cwr)

    def test_points_with_huge_stderr_barely_weigh(self):
        pts = gauss_points(0.01, 0.002, 0.0, 1e-13, GRID)
        pts.append((0.35e-13, 1.0, 1e6))
        fit = gaussian_fit(pts)
        assert fit.a == pytest.approx(0.01, rel=1e-5)
        assert fit.b == pytest.approx(0.002, rel=1e-5)

    def test_zero_stderr_replaced_by_smallest_positive(self):
        pts = gauss_points(0.01, 0.002, 0.0, 1e-13, GRID)
        pts = [(x, y, 0.0 if i % 2 else e) for i, (x, y, e) in enumerate(pts)]
        fit = gaussian_fit(pts)
        assert fit.b == pytest.approx(0.002, rel=1e-6)

    def test_all_zero_stderr_means_equal_weights(self):
        pts = [(x, y, 0.0) for x, y, _ in gauss_points(0.01, 0.002, 0.0, 1e-13, GRID)]
        fit = gaussian_fit(pts)
        assert fit.b == pytest.approx(0.002, rel=1e-6)

    def test_unsorted_input_is_sorted_first(self):
        pts = gauss_points(0.01, 0.002, 0.3e-13, 1e-13, GRID)
        fit = gaussian_fit(pts[::-1])
        assert fit.t0 == pytest.approx(0.3e-13, rel=1e-6)

    def test_deterministic(self):
        pts = gauss_points(0.01, 0.002, 0.2e-13, 1e-13, GRID, err=1e-4)
        one, two = gaussian_fit(pts), gaussian_fit(pts)
        assert one.to_dict() == two.to_dict()

    def test_width_stays_above_point_spacing(self):
        # a single spiked sample must not be fit by an unresolvable
        # needle; the width floor is half the point spacing
        rng = np.random.default_rng(5)
        y = 0.01 + rng.normal(0.0, 1e-4, GRID.size)
        y[7] += 5e-4
        pts = [(float(x), float(v), 1e-4) for x, v in zip(GRID, y)]
        fit = gaussian_fit(pts)
        spacing = float(np.min(np.diff(GRID)))
        assert fit.sigma >= 0.5 * spacing - 1e-20

    def test_center_stays_inside_scan(self):
        rng = np.random.default_rng(11)
        y = 0.01 + rng.normal(0.0, 1e-4, GRID.size)
        y[0] += 4e-4
        pts = [(float(x), float(v), 1e-4) for x, v in zip(GRID, y)]
        fit = gaussian_fit(pts)
        assert GRID[0] <= fit.t0 <= GRID[-1]

    def test_clear_spike_at_the_edge_is_kept(self):
        # an 8-sigma last sample: the best shape is a width pinned at the
        # floor on the scan's edge, far more than 4 in cost below any other
        rng = np.random.default_rng(0)
        y = 0.01 + rng.normal(0.0, 1e-4, GRID.size)
        y[-1] += 8e-4
        fit = gaussian_fit([(float(x), float(v), 1e-4) for x, v in zip(GRID, y)])
        assert fit.t0 == pytest.approx(GRID[-1], rel=1e-9)
        assert fit.sigma == pytest.approx(0.5 * float(np.min(np.diff(GRID))), rel=1e-9)
        assert fit.b > 0

    @given(
        amp=st.floats(-30.0, 30.0),
        center=st.floats(-4.0, 4.0),
        width=st.floats(0.5, 4.0),
        spike_at=st.integers(0, GRID.size - 1),
        spike=st.floats(-10.0, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(amp=0.0, center=0.0, width=1.0, spike_at=7, spike=5.0, seed=5)
    @example(amp=0.0, center=0.0, width=1.0, spike_at=0, spike=4.0, seed=11)
    @example(amp=20.0, center=3.5, width=1.0, spike_at=0, spike=0.0, seed=0)
    @example(amp=-8.150262115333295, center=-3.1328418929165327, width=3.567013749372653,
             spike_at=1, spike=0.0, seed=2610643910)
    @example(amp=27.984510028023962, center=0.4361175763635998, width=1.7747881978258029,
             spike_at=0, spike=-9.92070796226242, seed=2276304816)
    @settings(max_examples=60, deadline=None)
    def test_search_beats_a_brute_force_grid(self, amp, center, width, spike_at, spike, seed):
        # noisy Gaussians (amplitude in units of the 1e-4 noise, center and
        # width in units of the 1e-13 step), with a spiked sample; the
        # examples are the spiked-sample and edge cases above, an edge
        # peak centered beyond the scan, and two scans that a single zoom
        # from the best cell of one 17 x 17 grid fits in the wrong basin
        rng = np.random.default_rng(seed)
        y = 0.01 + amp * 1e-4 * np.exp(-((GRID / 1e-13 - center) ** 2) / (2 * width**2))
        y = y + rng.normal(0.0, 1e-4, GRID.size)
        y[spike_at] += spike * 1e-4
        err = np.full(GRID.size, 1e-4)
        try:
            cost = gaussian_fit(list(zip(GRID, y, err))).residual_norm ** 2
        except FitConvergenceError as exc:
            cost = exc.report["cost"]
        best, best_sigma = brute_force_fit(GRID, y, err)
        # a width on the floor is charged 4 in cost, so no fit is worse
        # than the grid's best point by more than that; a best point at
        # least the point spacing wide is resolved, and the fit reaches it
        # (to 1e-6: along a flat valley the zoom ends that far off)
        assert cost <= best * (1 + 1e-6) + 4.0
        if best_sigma >= np.min(np.diff(GRID)):
            assert cost <= best * (1 + 1e-6)

    def test_validation(self):
        pts = gauss_points(0.01, 0.002, 0.0, 1e-13, GRID)
        with pytest.raises(ValidationError, match="at least 5"):
            gaussian_fit(pts[:4])
        with pytest.raises(ValidationError, match="finite"):
            gaussian_fit(pts[:-1] + [(0.0, float("nan"), 1e-6)])
        with pytest.raises(ValidationError, match="spread"):
            gaussian_fit([(0.0, float(v), 1e-6) for _, v, _ in pts])
        with pytest.raises(ValidationError, match="triples"):
            gaussian_fit([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)])


def brute_force_fit(x, y, err, m=201):
    """Least weighted cost on an m x m (t0, log sigma) grid over the fit's
    box, with (a, b) solved at each point and residuals summed directly;
    returns it with its sigma."""
    w2 = 1.0 / err**2
    t0 = np.linspace(x[0], x[-1], m)[:, None, None]
    sigma = np.exp(np.linspace(np.log(0.5 * np.min(np.diff(x))), np.log(2 * (x[-1] - x[0])), m))
    e = np.exp(-((x - t0) ** 2) / (2 * sigma[None, :, None] ** 2))
    s0, s1, s2 = w2.sum(), (w2 * e).sum(axis=-1), (w2 * e * e).sum(axis=-1)
    t_0, t_1 = (w2 * y).sum(), (w2 * e * y).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = s0 * s2 - s1 * s1
        a = (s2 * t_0 - s1 * t_1) / det
        b = (s0 * t_1 - s1 * t_0) / det
    cost = ((a[..., None] + b[..., None] * e - y) ** 2 * w2).sum(axis=-1)
    i, j = np.unravel_index(np.nanargmin(cost), cost.shape)
    return float(cost[i, j]), float(sigma[j])


TAU = 100e-15
NU_MAX = 0.975
DELAYS = np.linspace(-3 * TAU, 3 * TAU, 13)


def curve_points(eta1p, eta2p, gamma=1e-4, err_rel=1e-4):
    """Conditional click curve over a Gaussian overlap profile.

    The profile makes the delay dependence an exact Gaussian of width
    tau/sqrt(2), so the fitted ratio should match the closed form to
    fit precision.
    """
    nu = NU_MAX * np.exp(-((DELAYS / TAU) ** 2))
    y = np.array([model.p_c2_given_nc1_approx(eta1p, eta2p, gamma, v) for v in nu])
    return [(float(x), float(v), err_rel * float(np.mean(y))) for x, v in zip(DELAYS, y)]


class TestFitAgainstClosedForm:
    def test_heralded_curve_ratio(self):
        fit = gaussian_fit(curve_points(0.16, 0.15))
        assert fit.cwr == pytest.approx(model.cwr_approx(0.16, 0.15, NU_MAX), abs=1e-7)
        assert fit.sigma == pytest.approx(TAU / math.sqrt(2), rel=1e-6)
        assert abs(fit.t0) < 1e-16
        assert fit.b > 0

    def test_unheralded_curve_is_a_dip(self):
        fit = gaussian_fit(curve_points(0.0, 0.15))
        assert fit.b < 0
        assert fit.cwr == pytest.approx(model.cwr_approx(0.0, 0.15, NU_MAX), abs=1e-7)

    def test_efficiencies_from_fit_pair(self):
        eta1p, eta2p = estimate_efficiencies(
            gaussian_fit(curve_points(0.16, 0.15)),
            gaussian_fit(curve_points(0.0, 0.15)),
            NU_MAX,
        )
        assert eta1p == pytest.approx(0.16, abs=1e-6)
        assert eta2p == pytest.approx(0.15, abs=1e-6)


def paper_config():
    """The reference point, 1e8 pulses a delay, seed 3."""
    return SimConfig(
        source=SourceParams(gamma=1e-4, kappa1=0.5, kappa2=0.5),
        det1=DetectorParams(eta=0.32, dead_pulses=5),
        det2=DetectorParams(eta=0.30, dead_pulses=5),
        profile=IndistinguishabilityProfile(nu_max=NU_MAX, tau=TAU),
        n_pulses=10**8,
        seed=3,
    )


@pytest.fixture(scope="module")
def paper_scan():
    """13 delays over +-3 tau at the reference point, 1e8 pulses each, seed 3."""
    cfg = paper_config()
    streams = (res.stream for _, res in scan_delays(cfg, DELAYS))
    return scan_rates(streams, DELAYS, cfg.gate_window, 5)[0]


# the (delta_t, heralded_rate, error) points of the paper_scan fixture
# as the simulator drew them before each pair came from one uniform over
# a joint class table; the stream changed then, and these points keep
# the case the width-floor test was written for
FLOOR_CASE_HERALDED = [
    (-3.0000000000000003e-13, 1.3602202604667773e-05, 3.688415047965872e-07),
    (-2.5000000000000005e-13, 1.3322173779095535e-05, 3.650253129982151e-07),
    (-2e-13, 1.2882035748109274e-05, 3.5894389280190673e-07),
    (-1.5000000000000002e-13, 1.2701996626849774e-05, 3.5642662032455803e-07),
    (-1e-13, 1.3602186279400689e-05, 3.688410621156293e-07),
    (-4.999999999999999e-14, 1.3922262646125248e-05, 3.7315580740537215e-07),
    (0.0, 1.3532156349114231e-05, 3.678901064434522e-07),
    (5.000000000000004e-14, 1.4012254431615503e-05, 3.7435957615646585e-07),
    (1.0000000000000003e-13, 1.3452157457012956e-05, 3.6680124400135794e-07),
    (1.5000000000000002e-13, 1.316216636096135e-05, 3.6282686061733007e-07),
    (2.0000000000000006e-13, 1.3342203198014088e-05, 3.652999693389304e-07),
    (2.5000000000000005e-13, 1.3152153796705748e-05, 3.626886811878062e-07),
    (3.0000000000000003e-13, 1.3422170230704603e-05, 3.6639242367126746e-07),
]


class TestScanFit:
    def test_one_series_is_gaussian_fit(self, paper_scan):
        for name in ("heralded_rate", "singles2", "coincidence"):
            fit = scan_fit(paper_scan, names=(name,))[name]
            assert fit.to_dict() == gaussian_fit(series_points(paper_scan, name)).to_dict()

    def test_series_share_the_shape(self, paper_scan):
        fits = scan_fit(paper_scan)
        assert list(fits) == ["heralded_rate", "singles2", "coincidence"]
        assert len({(f.t0, f.sigma, f.n_iterations) for f in fits.values()}) == 1
        assert fits["heralded_rate"].b > 0 and fits["singles2"].b < 0
        assert fits["coincidence"].visibility > 0.9

    def test_covariance_blocks_of_the_joint_fit(self, paper_scan):
        # the weighted Jacobian of all 2 + 2k parameters, built here from
        # the fitted values; each series' covariance is its block of the
        # full inverse, so its a and b errors carry the shared shape's
        fits = scan_fit(paper_scan)
        k = len(fits)
        t0, sigma = fits["coincidence"].t0, fits["coincidence"].sigma
        x = np.array([s.delta_t for s in paper_scan])
        dx = x - t0
        e = np.exp(-(dx**2) / (2 * sigma**2))
        jac = np.zeros((k * x.size, 2 * k + 2))
        for i, (name, fit) in enumerate(fits.items()):
            w = 1.0 / np.array([err for _, _, err in series_points(paper_scan, name)])
            rows = slice(i * x.size, (i + 1) * x.size)
            jac[rows, 2 * i] = w
            jac[rows, 2 * i + 1] = e * w
            jac[rows, 2 * k] = fit.b * e * dx / sigma**2 * w
            jac[rows, 2 * k + 1] = fit.b * e * dx**2 / sigma**3 * w
        full = np.linalg.inv(jac.T @ jac)
        for i, fit in enumerate(fits.values()):
            block = full[np.ix_([2 * i, 2 * i + 1, 2 * k, 2 * k + 1], [2 * i, 2 * i + 1, 2 * k, 2 * k + 1])]
            np.testing.assert_allclose(fit.covariance, block, rtol=1e-8)
            g = np.array([-fit.b / fit.a**2, 1.0 / fit.a])
            assert fit.cwr_err == pytest.approx(math.sqrt(g @ block[:2, :2] @ g), rel=1e-8)

    def test_floor_width_needs_a_margin(self):
        # heralded counts alone: a dip pinned at the width floor, through
        # two low samples, costs 1.5 less than the peak near the center,
        # short of the margin of 4, so the peak is fitted
        pts = FLOOR_CASE_HERALDED
        fit = gaussian_fit(pts)
        x, y, err = (np.array(c) for c in zip(*pts))
        floor = 0.5 * float(np.min(np.diff(x)))
        needle, needle_sigma = brute_force_fit(x, y, err)
        assert needle_sigma == pytest.approx(floor)
        assert fit.b > 0 and fit.sigma > 2 * floor
        assert needle + 1.0 < fit.residual_norm ** 2 < needle + 4.0

    def test_validation(self, paper_scan):
        with pytest.raises(ValidationError, match="at least one"):
            scan_fit(paper_scan, names=())
        with pytest.raises(ValidationError, match="unknown rate field"):
            scan_fit(paper_scan, names=("heralded_count",))
        with pytest.raises(ValidationError, match="at least 5"):
            scan_fit(paper_scan[:4])

    def test_an_array_of_names_fits_as_the_equal_list(self, paper_scan):
        names = ["heralded_rate", "coincidence"]
        fits = scan_fit(paper_scan, names=np.array(names))
        assert list(fits) == names
        assert ({name: fit.to_dict() for name, fit in fits.items()}
                == {name: fit.to_dict() for name, fit in scan_fit(paper_scan, names).items()})

    @pytest.mark.parametrize("names", [np.array([], dtype=str), None], ids=["empty", "none"])
    def test_an_empty_array_of_names_is_rejected(self, paper_scan, names):
        with pytest.raises(ValidationError, match="^scan_fit needs at least one series$"):
            scan_fit(paper_scan, names=names)


class TestEstimateEfficiencies:
    def test_frozen_ratio_pair_inverts_exactly(self):
        # ratios frozen from the closed form at (0.16, 0.15, 0.975)
        eta1p, eta2p = estimate_efficiencies(
            1.0469546742209632, 0.9620129870129871, 0.975
        )
        assert eta1p == pytest.approx(0.16, abs=1e-12)
        assert eta2p == pytest.approx(0.15, abs=1e-12)

    def test_accepts_bare_values_and_fit_results(self):
        direct = estimate_efficiencies(1.0469546742209632, 0.9620129870129871, 0.975)
        via_fit = estimate_efficiencies(
            gaussian_fit(curve_points(0.16, 0.15)),
            gaussian_fit(curve_points(0.0, 0.15)),
            0.975,
        )
        assert via_fit == pytest.approx(direct, abs=1e-6)

    def test_impossible_wing_ratio_rejected(self):
        # the unheralded ratio is bounded below by (2 + nu)/3
        with pytest.raises(NoSolutionError):
            estimate_efficiencies(1.05, 0.5, 0.975)

    @given(
        st.floats(0.01, 0.99),
        st.floats(0.01, 0.99),
        st.floats(0.05, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trips_the_closed_form(self, eta1p, eta2p, nu_max):
        c_peak = model.cwr_approx(eta1p, eta2p, nu_max)
        c_wing = model.cwr_approx(0.0, eta2p, nu_max)
        got1, got2 = estimate_efficiencies(c_peak, c_wing, nu_max)
        assert got1 == pytest.approx(eta1p, abs=1e-9)
        assert got2 == pytest.approx(eta2p, abs=1e-9)


def sim_config(**kw):
    kw.setdefault("source", SourceParams(gamma=5e-3, kappa1=1.0, kappa2=1.0))
    kw.setdefault("det1", DetectorParams(eta=0.8))
    kw.setdefault("det2", DetectorParams(eta=0.8))
    kw.setdefault("profile", IndistinguishabilityProfile(nu_max=0.9, tau=1e-13))
    kw.setdefault("n_pulses", 200_001)
    kw.setdefault("seed", 424242)
    kw.setdefault("out_gate_dark_rate", 0.0)
    return SimConfig(**kw)


class TestScanRates:
    """scan_rates, the one reduction of a delay scan: each stream through
    table_from_stream and compute_rates, taken one at a time."""

    @pytest.fixture(scope="class")
    def stream(self):
        return run_simulation(sim_config(n_pulses=20_001)).stream

    def test_equals_the_chain_call_by_call(self, paper_scan):
        cfg = paper_config()
        chain = [compute_rates(table_from_stream(res.stream, cfg.gate_window, 5, 5)[2], dt)
                 for dt, res in scan_delays(cfg, DELAYS)]
        assert paper_scan == chain

    def test_rate_is_the_streams_repetition_rate(self, stream):
        _, rate = scan_rates([stream, stream], [0.0, 1e-13], 2e-9, 5)
        assert rate == 1e12 / stream.rep_period_ps

    def test_each_stream_is_dropped_before_the_next_is_taken(self):
        cfg, alive, seen = sim_config(n_pulses=20_001), [], []

        def simulated(seed):
            seen.append([ref() is not None for ref in alive])
            stream = run_simulation(dataclasses.replace(cfg, seed=seed)).stream
            alive.append(weakref.ref(stream))
            return stream

        scan_rates(map(simulated, range(3)), [0.0] * 3, 2e-9, 5)
        assert seen == [[], [False], [False, False]]

    @pytest.mark.parametrize("names", [None, ["a.zht", "b.zht"]], ids=["bare", "named"])
    def test_a_second_period_is_an_integrity_error(self, stream, names):
        other = TagStream(stream.timebin_ps, stream.rep_period_ps + 1, stream.divider,
                          stream.refs, stream.d1, stream.d2)
        with pytest.raises(IntegrityError) as err:
            scan_rates([stream, other], [0.0, 1e-13], 2e-9, 5, names)
        prefix, first = ("", "the first stream") if names is None else ("b.zht: ", "a.zht")
        assert str(err.value).startswith(
            f"{prefix}rep_period_ps {other.rep_period_ps} differs from "
            f"{stream.rep_period_ps} in {first};")

    def test_a_failure_taking_a_stream_is_named(self, stream):
        def streams():
            yield stream
            raise FormatError("bad magic b'delt'")

        with pytest.raises(FormatError, match=r"^b\.zht: bad magic b'delt'$"):
            scan_rates(streams(), [0.0, 1e-13], 2e-9, 5, ["a.zht", "b.zht"])

    def test_an_output_error_is_not_prefixed(self, stream):
        def streams():
            yield stream
            raise OutputError("cannot write b.zht: No space left on device")

        with pytest.raises(OutputError, match=r"^cannot write b\.zht: No space left on device$"):
            scan_rates(streams(), [0.0, 1e-13], 2e-9, 5, ["a.zht", "b.zht"])

    # the count checks take no stream, and a stream past the last delay is the only one taken
    @pytest.mark.parametrize("n_streams, n_delays, names, message, n_taken", [
        (1, 0, None, "a scan needs a delay or more", 0),
        (0, 0, None, "a scan needs a delay or more", 0),
        (2, 2, ["a"], "a scan needs .* got 2 delays and 1 names", 0),
        (2, 2, ["a", "b", "c"], "a scan needs .* got 2 delays and 3 names", 0),
        (1, 2, None, "got 2 delays but 1 streams", 1),
        (1, 2, ["a", "b"], "b: got 2 delays but 1 streams", 1),
        (5, 2, None, "got more streams than the 2 delays", 3),
    ], ids=["empty", "nothing", "few names", "many names", "few streams", "few named",
            "many streams"])
    def test_counts_that_differ_are_validation_errors(self, stream, n_streams, n_delays,
                                                      names, message, n_taken):
        taken = []

        def streams():
            for _ in range(n_streams):
                taken.append(stream)
                yield stream

        with pytest.raises(ValidationError, match=f"^{message}"):
            scan_rates(streams(), [0.0, 1e-13][:n_delays], 2e-9, 5, names)
        assert len(taken) == n_taken


class TestCompareToModel:
    def test_zero_source_all_zero_scores(self):
        cfg = sim_config(source=SourceParams(gamma=0.0, kappa1=1.0, kappa2=1.0))
        summary = compute_rates(table([N] * 50, [N] * 50))
        cmp = compare_to_model(summary, cfg)
        assert cmp.nu == 0.9
        assert all(v == 0.0 for v in cmp.predicted.values())
        assert all(v == 0.0 for v in cmp.z.values())
        assert cmp.flags == ()

    def test_simulation_matches_its_own_config(self):
        cfg = sim_config()
        result = run_simulation(cfg)
        _, _, tab = table_from_stream(result.stream, 2e-9, 0, 0)
        cmp = compare_to_model(compute_rates(tab, cfg.delta_t), cfg)
        assert cmp.flags == ()
        for name, score in cmp.z.items():
            assert abs(score) < 5.0, (name, score)

    def test_misconfigured_efficiency_shows_up(self):
        cfg = sim_config()
        result = run_simulation(cfg)
        _, _, tab = table_from_stream(result.stream, 2e-9, 0, 0)
        wrong = sim_config(det1=DetectorParams(eta=0.4))
        cmp = compare_to_model(compute_rates(tab, cfg.delta_t), wrong)
        # data were taken at twice the assumed efficiency
        assert cmp.z["singles1"] > 5.0

    def test_artifact_configs_are_flagged_not_corrected(self):
        cfg = sim_config(
            det1=DetectorParams(eta=0.8, dark_prob=1e-4),
            det2=DetectorParams(eta=0.8, afterpulse_prob=0.01),
        )
        cmp = compare_to_model(compute_rates(table([N] * 50, [N] * 50)), cfg)
        assert any("dark" in f for f in cmp.flags)
        assert any("afterpuls" in f for f in cmp.flags)

    def test_to_dict_shape(self):
        cfg = sim_config(source=SourceParams(gamma=0.0, kappa1=1.0, kappa2=1.0))
        d = compare_to_model(compute_rates(table([N] * 5, [N] * 5)), cfg).to_dict()
        assert set(d) == {"delta_t", "nu", "measured", "predicted", "stderr", "z", "flags"}
        assert isinstance(d["flags"], list)
        assert set(d["z"]) == {"singles1", "singles2", "coincidence", "heralded_rate"}


class TestKnownBiases:
    """Two biases of the simulated chain against the closed forms, pinned
    at γ = 0.05, κ = 0.5, η = (0.32, 0.30) and 4e6 pulses: out-of-gate
    darks that blind the hardware but start no software dead window
    (ROADMAP item 9), and jittered arrivals that fall before their gate
    (ROADMAP item 10). The strict xfails pass once their item is fixed,
    and that fix removes their marks; the controls hold today."""

    ITEM_9 = pytest.mark.xfail(
        strict=True, reason="ROADMAP item 9: software dead time starts only from in-gate clicks")
    ITEM_10 = pytest.mark.xfail(
        strict=True, reason="ROADMAP item 10: jittered arrivals fall before their gate")

    @pytest.mark.parametrize("dark_rate, dead, sigma", [
        # z today (singles1, singles2, coincidence, heralded): -5.8, -6.6, +1.0, -6.7
        pytest.param(1e6, 5, 0.0, marks=ITEM_9, id="item9-1MHz-darks-dead-5"),
        # -15.2, -15.1, +0.1, -15.3
        pytest.param(0.0, 0, 30e-12, marks=ITEM_10, id="item10-jitter-30ps"),
        # -72.0, -70.0, -6.0, -70.3
        pytest.param(0.0, 0, 100e-12, marks=ITEM_10, id="item10-jitter-100ps"),
        pytest.param(240.0, 5, 0.0, id="default-darks-dead-5"),
        pytest.param(1e6, 0, 0.0, id="1MHz-darks-no-dead-time"),
        pytest.param(0.0, 0, 0.0, id="no-jitter-no-dead-time"),
    ])
    def test_rates_match_the_closed_forms(self, dark_rate, dead, sigma):
        cfg = SimConfig(
            source=SourceParams(gamma=0.05, kappa1=0.5, kappa2=0.5),
            det1=DetectorParams(eta=0.32, dead_pulses=dead),
            det2=DetectorParams(eta=0.30, dead_pulses=dead),
            profile=IndistinguishabilityProfile(nu_max=0.975, tau=100e-15),
            n_pulses=4_000_000, seed=5, delta_t=0.0,
            out_gate_dark_rate=dark_rate, jitter_sigma=sigma)
        _, _, tab = table_from_stream(run_simulation(cfg).stream, cfg.gate_window, dead, dead)
        z = compare_to_model(compute_rates(tab, cfg.delta_t), cfg).z
        assert all(abs(score) < 3 for score in z.values()), z


class TestWriters:
    def summaries(self):
        return [
            compute_rates(table(HAND_D1, HAND_D2), delta_t=-1e-13),
            compute_rates(table([N] * 20, [N] * 20), delta_t=1e-13),
        ]

    def test_rate_csv_round_trips_values(self):
        sink = io.StringIO()
        write_rate_csv(self.summaries(), sink, rep_rate_hz=1e8)
        rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
        assert len(rows) == 2
        first = rows[0]
        assert float(first["delta_t"]) == -1e-13
        assert int(first["n_live_pulses"]) == 8
        assert float(first["heralded_rate"]) == 2 / 6
        assert float(first["heralded_rate_err"]) == math.sqrt(2) / 6

    def test_rate_csv_per_second_columns(self):
        sink = io.StringIO()
        write_rate_csv(self.summaries(), sink, rep_rate_hz=1e8)
        rows = list(csv.DictReader(io.StringIO(sink.getvalue())))
        assert float(rows[0]["coincidence_per_s"]) == (1 / 8) * 1e8
        assert float(rows[1]["singles1_per_s"]) == 0.0

    def test_rate_csv_accepts_path(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_rate_csv(self.summaries(), path, rep_rate_hz=1e8)
        assert path.read_text().count("\n") == 3

    def test_fits_jsonl(self, tmp_path):
        peak = gaussian_fit(curve_points(0.16, 0.15))
        dip = gaussian_fit(curve_points(0.0, 0.15))
        sink = io.StringIO()
        write_fits_jsonl({"heralded_rate": peak, "singles2": dip}, sink)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["series"] == "heralded_rate"
        assert first["cwr"] == peak.cwr
        assert first["visibility"] is None
        assert second["series"] == "singles2"
        assert second["visibility"] == dip.visibility
        assert len(first["covariance"]) == 4 and len(first["covariance"][0]) == 4
        path = tmp_path / "fits.jsonl"
        write_fits_jsonl({"heralded_rate": peak}, path)
        assert json.loads(path.read_text().splitlines()[0])["series"] == "heralded_rate"

    def test_fits_jsonl_is_strict_json(self):
        # an all-zero series, as the coincidences of a short scan, has no cwr
        zero = gaussian_fit([(x, 0.0, 1e-3) for x in np.linspace(-3e-13, 3e-13, 7)])
        assert math.isnan(zero.cwr)
        sink = io.StringIO()
        write_fits_jsonl({"coincidence": zero}, sink)

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        record = json.loads(sink.getvalue(), parse_constant=no_constant)
        assert record["cwr"] is None and record["a"] == 0.0
        assert record["cwr_err"] is None

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -1.0, 0.0, "1e8", True])
    def test_rate_csv_rejects_a_repetition_rate_that_is_not_positive(self, rate):
        sink = io.StringIO()
        with pytest.raises(ValidationError, match="rep_rate_hz"):
            write_rate_csv(self.summaries(), sink, rep_rate_hz=rate)
        assert sink.getvalue() == ""


def fit_result(a, b, covariance=np.diag([4.0, 9.0, 16.0, 25.0])):
    return FitResult(a=a, b=b, t0=1e-14, sigma=1e-13, residual_norm=0.5, n_points=7,
                     n_iterations=3, covariance=covariance)


class TestFitResultRule:
    """A FitResult stores what was fitted and reads the rest off it."""

    def test_fields_are_what_was_fitted(self):
        assert [f.name for f in dataclasses.fields(FitResult)] == [
            "a", "b", "t0", "sigma", "residual_norm", "n_points", "n_iterations", "covariance"]

    @pytest.mark.parametrize("name", ["a_err", "b_err", "t0_err", "sigma_err", "cwr", "cwr_err",
                                      "visibility", "visibility_err"])
    def test_derived_values_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(fit_result(2.0, -0.5), name, 0.0)

    def test_errors_are_the_root_of_the_covariance_diagonal(self):
        fit = fit_result(2.0, -0.5, np.diag([4.0, 9.0, 16.0, -1e-30]))
        assert (fit.a_err, fit.b_err, fit.t0_err, fit.sigma_err) == (2.0, 3.0, 4.0, 0.0)

    def test_cwr_and_its_error(self):
        cov = np.array([[4.0, 1.0, 0, 0], [1.0, 9.0, 0, 0], [0, 0, 16.0, 0], [0, 0, 0, 25.0]])
        fit = fit_result(2.0, 3.0, cov)
        assert fit.cwr == 5.0 / 2.0
        g = np.array([-3.0 / 4.0, 1.0 / 2.0])
        assert fit.cwr_err == pytest.approx(math.sqrt(g @ cov[:2, :2] @ g), rel=1e-15)

    @pytest.mark.parametrize("a", [0.0, -1.0])
    @pytest.mark.parametrize("b", [-0.5, 0.0, 0.5])
    def test_no_ratio_without_a_positive_baseline(self, a, b):
        fit = fit_result(a, b)
        assert math.isnan(fit.cwr) and math.isnan(fit.cwr_err)

    @pytest.mark.parametrize("a", [2.0, 0.0, -1.0])
    def test_visibility_only_for_dips(self, a):
        dip, flat, peak = fit_result(a, -0.5), fit_result(a, 0.0), fit_result(a, 0.5)
        for fit in (flat, peak):
            assert fit.visibility is None and fit.visibility_err is None
        if a > 0:
            assert dip.visibility == 0.25 and dip.visibility_err == dip.cwr_err
        else:
            assert math.isnan(dip.visibility) and math.isnan(dip.visibility_err)

    def test_to_dict_keeps_its_keys_in_order(self):
        assert list(fit_result(2.0, -0.5).to_dict()) == [
            "a", "b", "t0", "sigma", "a_err", "b_err", "t0_err", "sigma_err", "cwr", "cwr_err",
            "visibility", "visibility_err", "residual_norm", "n_points", "n_iterations",
            "covariance"]

    @pytest.mark.parametrize("level", [0.25, 0.0, -1.0])
    def test_flat_series(self, level):
        fit = gaussian_fit([(x, level, 1e-3) for x in np.linspace(-3e-13, 3e-13, 7)])
        assert (fit.a, fit.b, fit.a_err, fit.sigma_err) == (level, 0.0, 0.0, 0.0)
        assert fit.visibility is None and fit.visibility_err is None
        if level > 0:
            assert (fit.cwr, fit.cwr_err) == (1.0, 0.0)
        else:
            assert math.isnan(fit.cwr) and math.isnan(fit.cwr_err)
