"""Reduce event tables to measured quantities and fitted curves.

Rates are defined on live pulses only (neither detector dead). The
herald signal is a live pulse where detector 1 did not click; the
heralded rate is how often detector 2 clicked on those pulses. So a
RateSummary holds just the four live cells, the live pulses split by
detector 1 state x detector 2 state, and reads every count, rate and
Poisson error off them by one table.

One indistinguishability profile drives every rate series of a scan,
so series i is fitted as a_i + b_i*g(delta_t) with one Gaussian g of
center t0 and width sigma for all. The fit is variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 10 (1973) 413): under a given
shape each (a_i, b_i) is a closed-form weighted linear solve, so only
(t0, sigma) is searched, deterministically, on batched grids.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptyTableError,
    FitConvergenceError,
    HeraldUndefinedError,
    IntegrityError,
    NumericalError,
    OutputError,
    ValidationError,
    WrongShapeError,
    ZeroHeraldError,
    check_count,
    check_real,
    check_reals,
)
from . import model
from .pipeline import PulseEventTable, table_from_stream
from .tags import PS_PER_SECOND, _opened

__all__ = [
    "RateSummary",
    "FitResult",
    "ModelComparison",
    "compute_rates",
    "scan_rates",
    "series_points",
    "gaussian_fit",
    "scan_fit",
    "visibility",
    "estimate_efficiencies",
    "compare_to_model",
    "write_rate_csv",
    "write_fits_jsonl",
    "RATE_FIELDS",
]


# each count is the sum of these live cells of a RateSummary
_COUNTS = {
    "n_live_pulses": ("n00", "n01", "n10", "n11"),
    "n_herald_pulses": ("n00", "n01"),
    "singles1_count": ("n10", "n11"),
    "singles2_count": ("n01", "n11"),
    "coincidence_count": ("n11",),
    "heralded_count": ("n01",),
}
# each rate is a count and the pulses it is counted over
_RATES = {
    "singles1": ("singles1_count", "n_live_pulses"),
    "singles2": ("singles2_count", "n_live_pulses"),
    "coincidence": ("coincidence_count", "n_live_pulses"),
    "heralded_rate": ("heralded_count", "n_herald_pulses"),
    "heralding_success": ("n_herald_pulses", "n_live_pulses"),
}
RATE_FIELDS = tuple(_RATES)
MIN_FIT_POINTS = 5  # a series' a, b, t0 and sigma, and one degree of freedom


def _derived(cls):
    """Each count, rate and rate_err of the tables as a read-only attribute."""
    for name, cells in _COUNTS.items():
        setattr(cls, name, property(lambda s, cells=cells: sum(getattr(s, c) for c in cells)))
    for name in _RATES:
        setattr(cls, name, property(lambda s, name=name: s.rate_and_err(name)[0]))
        setattr(cls, name + "_err", property(lambda s, name=name: s.rate_and_err(name)[1]))
    return cls


@_derived
@dataclass(frozen=True)
class RateSummary:
    """The live cells of one event table at one delay.

    nab counts the live pulses (neither detector dead) where detector 1
    is in state a and detector 2 in state b: 0 no click, 1 click. Every
    other count, rate and error is read off them: singles and
    coincidence per live pulse, heralded_rate per herald pulse, and
    heralding_success the herald share of live pulses. A rate k / n has
    the Poisson error sqrt(k) / n, floored at one count so a zero never
    reports zero uncertainty. A delay that is not finite, a cell or
    n_pulses that is not a count, or n_pulses below the live cells' sum
    is a ValidationError, no live pulse an EmptyTableError, and no
    herald pulse a HeraldUndefinedError.
    """

    delta_t: float
    n_pulses: int
    n00: int
    n01: int
    n10: int
    n11: int

    def __post_init__(self):
        check_real("delta_t", self.delta_t)
        for name in ("n_pulses", "n00", "n01", "n10", "n11"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.n_pulses < self.n_live_pulses:
            raise ValidationError(f"n_pulses {self.n_pulses} < {self.n_live_pulses} live pulses")
        if self.n_live_pulses == 0:
            raise EmptyTableError("no live pulses in the event table")
        if self.n_herald_pulses == 0:
            raise HeraldUndefinedError("detector 1 clicked on every live pulse")

    def rate_and_err(self, name: str) -> tuple[float, float]:
        count, over = _RATES[name]
        k, n = getattr(self, count), getattr(self, over)
        return k / n, math.sqrt(max(k, 1)) / n

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def compute_rates(table: PulseEventTable, delta_t: float = 0.0) -> RateSummary:
    """The RateSummary of a table's live cells at delay delta_t."""
    (n00, n01), (n10, n11) = table.cell_counts()[:2, :2].tolist()
    return RateSummary(check_real("delta_t", delta_t), table.n_pulses, n00, n01, n10, n11)


@contextmanager
def _naming(name):
    """Prefix a failure in the block with name, unless None; an OutputError names its path."""
    try:
        yield
    except ZeroHeraldError as exc:
        if name is not None and not isinstance(exc, OutputError):
            exc.args = (f"{name}: {exc}",)  # in place: the class and its attributes stay
        raise


def scan_rates(streams, delays, window, dead_pulses: int, names=None) -> tuple[list, float]:
    """Each stream's RateSummary at its delay, by table_from_stream with
    dead_pulses on both detectors, and the streams' repetition rate in Hz.
    Each stream is dropped before the next is taken, and a failure at stream
    i, taking it too, prefixed with names[i] if given. Periods that differ are
    an IntegrityError; no delay, or other counts of streams or names, a ValidationError."""
    delays, streams, summaries = list(delays), iter(streams), []
    labels = [None] * len(delays) if names is None else list(names)
    if not delays or len(labels) != len(delays):
        raise ValidationError(f"a scan needs a delay or more, and one name per delay if named: "
                              f"got {len(delays)} delays and {len(labels)} names")
    for name, delta_t in zip(labels, delays):
        with _naming(name):
            if (stream := next(streams, None)) is None:
                raise ValidationError(f"got {len(delays)} delays but {len(summaries)} streams")
            if summaries and stream.rep_period_ps != period:
                raise IntegrityError(
                    f"rep_period_ps {stream.rep_period_ps} differs from {period} in "
                    f"{labels[0] or 'the first stream'}; a scan has one repetition period")
            period = stream.rep_period_ps
            table = table_from_stream(stream, window, dead_pulses, dead_pulses)[2]
            del stream  # not held while the next one is taken
            summaries.append(compute_rates(table, delta_t))
    if next(streams, None) is not None:
        raise ValidationError(f"got more streams than the {len(delays)} delays")
    return summaries, PS_PER_SECOND / period


def series_points(summaries: Sequence[RateSummary], name: str) -> list[tuple[float, float, float]]:
    """Extract (delta_t, rate, stderr) triples for one rate field."""
    if name not in RATE_FIELDS:
        raise ValidationError(f"unknown rate field {name!r}")
    return [(s.delta_t, *s.rate_and_err(name)) for s in summaries]


@dataclass(frozen=True, eq=False)
class FitResult:
    """Gaussian fit a + b*exp(-(x-t0)^2/(2 sigma^2)) of a rate series.

    Stores the fitted a, b, t0, sigma, residual norm, points, rounds of
    the shape search (n_iterations) and covariance, the (a, b, t0,
    sigma) block of the unscaled inverse weighted normal matrix of the
    whole fit: for k series sharing t0 and sigma it has 2 + 2k
    parameters, so the errors of a, b and cwr carry the shared shape's
    uncertainty. The rest is read off them: each *_err is sqrt(max(C[i,
    i], 0)); cwr = (a+b)/a, the center-to-wings ratio, and its error by
    the gradient (-b/a^2, 1/a) are NaN unless a > 0; visibility = -b/a,
    with cwr's error, is set only for dips (b < 0). The covariance is made
    read-only; a fit compares and hashes by identity.
    """

    a: float
    b: float
    t0: float
    sigma: float
    residual_norm: float
    n_points: int
    n_iterations: int
    covariance: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.covariance.flags.writeable = False

    a_err, b_err, t0_err, sigma_err = (
        property(lambda s, i=i: math.sqrt(max(float(s.covariance[i][i]), 0.0))) for i in range(4))
    cwr = property(lambda s: (s.a + s.b) / s.a if s.a > 0 else math.nan)

    @property
    def cwr_err(self) -> float:
        # one error for cwr and visibility (opposite gradients); a NaN g unless a > 0
        g = np.array([-self.b / (self.a * self.a), 1.0 / self.a] if self.a > 0 else [math.nan] * 2)
        return math.sqrt(max(g @ self.covariance[:2, :2] @ g, 0.0))

    visibility = property(lambda s: None if s.b >= 0 else -s.b / s.a if s.a > 0 else math.nan)
    visibility_err = property(lambda s: s.cwr_err if s.b < 0 else None)

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in (
            "a", "b", "t0", "sigma", "a_err", "b_err", "t0_err", "sigma_err", "cwr", "cwr_err",
            "visibility", "visibility_err", "residual_norm", "n_points", "n_iterations")}
        out["covariance"] = [list(row) for row in self.covariance]
        return out


def _fit_points(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = check_reals("fit points", list(points))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("fit points must be (delta_t, rate, stderr) triples")
    if arr.shape[0] < MIN_FIT_POINTS:
        raise ValidationError(f"need at least {MIN_FIT_POINTS} points to fit, got {arr.shape[0]}")
    order = np.argsort(arr[:, 0], kind="stable")
    x, y, err = arr[order, 0], arr[order, 1], arr[order, 2]
    if x[-1] == x[0]:
        raise ValidationError("fit needs a spread of delays")
    positive = err[err > 0]
    err = np.where(err > 0, err, positive.min()) if positive.size else np.ones_like(err)
    return x, y, err


def _shape(x: np.ndarray, t0, s) -> np.ndarray:
    return np.exp(-((x - t0) ** 2) / (2.0 * s * s))


def _projector(x: np.ndarray, ys: np.ndarray, ws: np.ndarray):
    """Closed-form (a, b) of every series for candidate shapes.

    ys and ws are (k, n) rates and weights; the returned function takes
    t0 and sigma broadcasting to shape S. Under a fixed shape b is the
    weighted covariance of shape and rate over the shape's variance.
    Returns a and b as S + (k,) and the summed weighted cost as S,
    infinite where a shape cannot separate a from b.
    """
    k, w2 = len(ys), ws * ws
    total = w2.sum(axis=1)
    y_bar = (w2 * ys).sum(axis=1) / total
    yc = ys - y_bar[:, None]
    # one product gives the shapes' weighted means and covariances
    moments = np.concatenate([w2, w2 * yc]).T / np.tile(total, 2)
    syy = float((w2 * yc * yc).sum())

    def project(t0, s):
        e = _shape(x, t0[..., None], s[..., None])
        e_bar, cov = np.split(e @ moments, 2, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            b = cov / ((e * e) @ moments[:, :k] - e_bar * e_bar)
            cost = syy - (total * cov * b).sum(axis=-1)
        return y_bar - b * e_bar, b, np.where(np.isfinite(cost), cost, np.inf)

    return project


def _keep(cost: np.ndarray, i: np.ndarray, j: np.ndarray):
    """Boxes to keep around each start's best cell (i, j) of its grid.

    cost is (m, p, q). A box spans the cells no costlier than the best
    cell's worst neighbour, padded by one, two to four cells each way
    from the best: long along a flat valley, narrow across it. Returns
    the first and last kept index per axis as (m, 2), the best costs,
    and bounds under the basins (a quadratic basin's minimum is above
    the best cost less the rise to its worst neighbour).
    """
    at, top = np.arange(i.size), np.array(cost.shape[1:]) - 1
    level = np.maximum.reduce([
        cost[at, np.maximum(i - 1, 0), j], cost[at, np.minimum(i + 1, top[0]), j],
        cost[at, i, np.maximum(j - 1, 0)], cost[at, i, np.minimum(j + 1, top[1])]])
    kept = cost <= level[:, None, None]
    best = np.stack([i, j], axis=1)
    ends = [(a.argmax(axis=1), a[:, ::-1].argmax(axis=1)) for a in (kept.any(2), kept.any(1))]
    first = np.clip(np.array([e[0] for e in ends]).T - 1, best - 4, best - 2).clip(0, None)
    last = np.clip(top - np.array([e[1] for e in ends]).T + 1, best + 2, best + 4).clip(None, top)
    least = cost[at, i, j]
    return first, last, least, 2 * least - level


def _search(x, ys, ws) -> tuple[float, float, int]:
    """The shared (t0, sigma) of the series, by batched grid zoom.

    t0 stays within the scan, sigma in [half the point spacing, twice
    the span], searched in log sigma. Each local minimum of a 65 x 17
    grid starts a zoom in its _keep box; a round solves a 17 x 17 grid
    in every box at once and keeps _keep's box around each best cell,
    until every box is below 1e-10 of the first. A box on the width
    floor may hold a spike the samples do not resolve, so it competes
    with its cost raised by 4 (two standard errors). The least raised
    cost leads; a start stays while its bound is below it. Returns the
    leading shape and the number of rounds.
    """
    lo = np.array([x[0], math.log(0.5 * float(np.min(np.diff(np.unique(x)))))])
    hi = np.array([x[-1], math.log(2.0 * (x[-1] - x[0]))])
    tol = 1e-10 * (hi - lo)
    # the last rounds compare costs that differ by rounding only, so a
    # box on the floor can drift off it, though by far less than this
    floor = lo[1] + 1e-6 * (hi[1] - lo[1])
    project = _projector(x, ys, ws)
    t_axis, l_axis = np.linspace(lo[0], hi[0], 65), np.linspace(lo[1], hi[1], 17)
    cost = project(t_axis[:, None], np.exp(l_axis))[2]
    around = sliding_window_view(np.pad(cost, 1, constant_values=np.inf), (3, 3))
    i, j = np.nonzero((cost == around.min(axis=(2, 3))) & np.isfinite(cost))
    first, last, least, bound = _keep(np.broadcast_to(cost, (i.size,) + cost.shape), i, j)
    lo = np.stack([t_axis[first[:, 0]], l_axis[first[:, 1]]], axis=1)
    hi = np.stack([t_axis[last[:, 0]], l_axis[last[:, 1]]], axis=1)
    zoom, rounds = np.linspace(0.0, 1.0, 17), 1
    while True:
        raised = least + 4.0 * (lo[:, 1] < floor)
        lead = int(np.argmin(raised))
        if rounds > 1 and not np.any(hi - lo >= tol):
            return float(axes[lead, 0, i[lead]]), float(np.exp(axes[lead, 1, j[lead]])), rounds
        race = bound <= raised[lead]
        lo, hi = lo[race], hi[race]
        rounds += 1
        axes = lo[:, :, None] + (hi - lo)[:, :, None] * zoom
        cost = project(axes[:, 0, :, None], np.exp(axes[:, 1, None, :]))[2]
        i, j = np.divmod(cost.reshape(len(lo), -1).argmin(axis=1), zoom.size)
        first, last, least, bound = _keep(cost, i, j)
        starts = np.arange(len(lo))[:, None]
        lo, hi = axes[starts, [0, 1], first], axes[starts, [0, 1], last]


def _fit(x: np.ndarray, ys: list, errs: list) -> list[FitResult]:
    """Fit series on one delay grid with one shared (t0, sigma).

    A flat series has b = 0 under every shape and is reported alone. The
    joint covariance orders the 2 + 2k parameters (a_i, b_i), t0, sigma.
    """
    out = [None] * len(ys)
    for i, y in enumerate(ys):
        if np.all(y == y[0]):
            out[i] = FitResult(
                a=float(y[0]), b=0.0, t0=float(0.5 * (x[0] + x[-1])), sigma=(x[-1] - x[0]) / 6.0,
                residual_norm=0.0, n_points=x.size, n_iterations=0, covariance=np.zeros((4, 4)))
    fitted = [i for i, fit in enumerate(out) if fit is None]
    if not fitted:
        return out
    ys, ws = np.array([ys[i] for i in fitted]), 1.0 / np.array([errs[i] for i in fitted])
    t0, s, rounds = _search(x, ys, ws)
    a, b, cost = _projector(x, ys, ws)(np.float64(t0), np.float64(s))
    if np.any(a <= 0):
        raise FitConvergenceError(
            "fit converged to a non-positive baseline",
            report={"cost": float(cost), "t0": t0, "sigma": s, "a": a.tolist(), "b": b.tolist()},
        )
    k, n = ys.shape
    e, dx = _shape(x, t0, s), x - t0
    blocks = [[2 * m, 2 * m + 1, 2 * k, 2 * k + 1] for m in range(k)]
    jac = np.zeros((k, n, 2 * k + 2))
    for m, cols in enumerate(blocks):
        jac[m][:, cols] = np.stack([np.ones(n), e, b[m] * e * dx / s**2, b[m] * e * dx**2 / s**3], 1)
    jac = (jac * ws[:, :, None]).reshape(k * n, -1)
    try:
        full = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        full = np.linalg.pinv(jac.T @ jac)
    for m, i in enumerate(fitted):
        r = (a[m] + b[m] * e - ys[m]) * ws[m]
        out[i] = FitResult(
            a=float(a[m]), b=float(b[m]), t0=t0, sigma=s, residual_norm=float(math.sqrt(r @ r)),
            n_points=n, n_iterations=rounds, covariance=full[np.ix_(blocks[m], blocks[m])])
    return out


def gaussian_fit(points: Iterable) -> FitResult:
    """Weighted Gaussian fit of (delta_t, rate, stderr) points.

    The one-series case of scan_fit, by the same code: center within the
    delays, width in [half the point spacing, twice the span]; a width on
    that floor, an unresolved spike, must cost 4 less to win. Zero stderr
    take the smallest positive one, all zero mean equal weights. Raises
    FitConvergenceError if the fitted baseline is not positive.
    """
    x, y, err = _fit_points(points)
    return _fit(x, [y], [err])[0]


def scan_fit(summaries: Sequence[RateSummary],
             names: Sequence[str] = ("heralded_rate", "singles2", "coincidence")) -> dict:
    """Fit the named rate series of a delay scan with one shared shape.

    One indistinguishability profile drives every series: all share the
    Gaussian's t0 and sigma, each has its own a and b. Returns {name:
    FitResult}, each covariance the series' block of the joint one.
    Raises FitConvergenceError if any fitted baseline is not positive.
    """
    names = [] if names is None else list(names)  # a numpy array of names has no truth value
    if not names:
        raise ValidationError("scan_fit needs at least one series")
    series = [_fit_points(series_points(summaries, name)) for name in names]
    return dict(zip(names, _fit(series[0][0], [s[1] for s in series], [s[2] for s in series])))


def visibility(fit: FitResult) -> tuple[float, float]:
    """Dip visibility |b|/a with its propagated uncertainty.

    The fit's own visibility and visibility_err. Only defined for dips;
    a positive fitted amplitude raises WrongShapeError. A flat fit
    (b = 0) has zero visibility.
    """
    if fit.b > 0:
        raise WrongShapeError("visibility is defined for dip fits (b <= 0)")
    return (fit.visibility, fit.visibility_err) if fit.b < 0 else (0.0, 0.0)


def estimate_efficiencies(cwr_peak, cwr_noherald, nu_max: float) -> tuple[float, float]:
    """Effective efficiencies from the two fitted curve ratios.

    The unheralded detector-2 scan plays the eta1'=0 role and pins
    eta2'; the heralded scan's ratio then inverts to eta1'. Accepts
    FitResults or bare ratio values. The forward formula is re-checked
    on the result to 1e-6.
    """
    c_peak = check_real("cwr_peak", getattr(cwr_peak, "cwr", cwr_peak))
    c_wing = check_real("cwr_noherald", getattr(cwr_noherald, "cwr", cwr_noherald))
    eta2p = model.invert_cwr_for_eta2_unheralded(c_wing, nu_max)
    eta1p = model.invert_cwr_for_eta1(c_peak, eta2p, nu_max)
    back1 = model.cwr_approx(eta1p, eta2p, nu_max)
    back2 = model.cwr_approx(0.0, eta2p, nu_max)
    if abs(back1 - c_peak) > 1e-6 or abs(back2 - c_wing) > 1e-6:
        raise NumericalError("efficiency inversion failed its round-trip check")
    return eta1p, eta2p


@dataclass(frozen=True, eq=False)
class ModelComparison:
    """Measured against predicted rates, as z-scores in read-only maps; compared by identity."""

    delta_t: float
    nu: float
    measured: dict
    predicted: dict
    stderr: dict
    z: dict
    flags: tuple
    _MAPPINGS = ("measured", "predicted", "stderr", "z")  # not a field: no annotation

    def __post_init__(self):
        for name in self._MAPPINGS:
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        return {**out, **{k: dict(out[k]) for k in self._MAPPINGS}, "flags": list(self.flags)}


def compare_to_model(summary: RateSummary, cfg) -> ModelComparison:
    """z-scores of measured rates against the closed-form expectations.

    Predictions neglect dark counts and afterpulsing (the closed forms
    do); configs with those enabled are flagged rather than corrected.
    Every standard error is positive (RateSummary floors it at one
    count), so every z-score is finite.
    """
    nu = cfg.profile.nu(summary.delta_t)
    predicted = dict(zip(("singles1", "singles2", "coincidence", "heralded_rate"),
                         model._click_rates(cfg.source, cfg.det1.eta, cfg.det2.eta, nu)))
    flags = []
    if cfg.det1.dark_prob or cfg.det2.dark_prob:
        flags.append("dark counts present in config but not in predictions")
    if cfg.det1.afterpulse_prob or cfg.det2.afterpulse_prob:
        flags.append("afterpulsing present in config but not in predictions")
    measured, stderr, z = {}, {}, {}
    for name, expected in predicted.items():
        measured[name], stderr[name] = summary.rate_and_err(name)
        z[name] = (measured[name] - expected) / stderr[name]
    return ModelComparison(
        delta_t=summary.delta_t,
        nu=nu,
        measured=measured,
        predicted=predicted,
        stderr=stderr,
        z=z,
        flags=tuple(flags),
    )


def write_rate_csv(summaries: Sequence[RateSummary], sink, rep_rate_hz: float) -> None:
    """Rate summaries as CSV, one row per delay.

    Per-second columns (rate x repetition rate rep_rate_hz) follow the
    per-pulse ones for the click rates, matching how counting rates are
    usually plotted.
    """
    rep_rate_hz = check_real("rep_rate_hz", rep_rate_hz, "positive")
    per_s = ["singles1", "singles2", "coincidence", "heralded_rate"]
    with _opened(sink, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_t", "n_pulses", *_COUNTS,
                         *(f for name in RATE_FIELDS for f in (name, name + "_err")),
                         *(f"{name}_per_s" for name in per_s)])
        for s in summaries:
            row = [model.FLOAT_FMT % s.delta_t, str(s.n_pulses)]
            row += [str(getattr(s, name)) for name in _COUNTS]
            row += [model.FLOAT_FMT % v for name in RATE_FIELDS for v in s.rate_and_err(name)]
            row += [model.FLOAT_FMT % (getattr(s, name) * rep_rate_hz) for name in per_s]
            writer.writerow(row)


def write_fits_jsonl(fits: dict, sink) -> None:
    """One JSON object per line: {"series": name, ...fit fields}, in
    strict JSON: a value that is not finite, as the cwr of an all-zero
    series, is null."""
    with _opened(sink, "w") as fh:
        for name, fit in fits.items():
            record = {key: _finite_or_null(value) for key, value in fit.to_dict().items()}
            fh.write(json.dumps({"series": name, **record}, allow_nan=False) + "\n")


def _finite_or_null(value):
    """value, or None for a float that is not finite; a list item by item."""
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value
