"""Reduce event tables to measured quantities and fitted curves.

Rates are defined on live pulses only (neither detector dead). The
herald signal is a live pulse where detector 1 did not click; the
heralded rate is how often detector 2 clicked on those pulses. Curve
fitting uses a four-parameter Gaussian with a damped weighted
least-squares loop and fixed deterministic initialization, so a given
point set always produces the same fit.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    EmptyTableError,
    FitConvergenceError,
    HeraldUndefinedError,
    NumericalError,
    ValidationError,
    WrongShapeError,
)
from . import model
from .pipeline import PulseEventTable
from .tags import _opened

__all__ = [
    "RateSummary",
    "FitResult",
    "ModelComparison",
    "compute_rates",
    "series_points",
    "gaussian_fit",
    "visibility",
    "estimate_efficiencies",
    "compare_to_model",
    "write_rate_csv",
    "write_fits_jsonl",
    "RATE_FIELDS",
]

FLOAT_FMT = "%.17g"

RATE_FIELDS = ("singles1", "singles2", "coincidence", "heralded_rate", "heralding_success")


def _poisson_err(k: int, n: int) -> float:
    """sqrt(k)/N with a one-count floor so empty cells keep a scale."""
    return math.sqrt(max(k, 1)) / n


@dataclass(frozen=True)
class RateSummary:
    """Counting rates of one event table, all per qualifying pulse.

    singles and coincidence are per live pulse; heralded_rate is per
    no-click-herald pulse; heralding_success is the fraction of live
    pulses that heralded. Standard errors are Poisson, floored at one
    count so a zero never reports zero uncertainty.
    """

    delta_t: float
    n_pulses: int
    n_live_pulses: int
    n_herald_pulses: int
    singles1_count: int
    singles2_count: int
    coincidence_count: int
    heralded_count: int
    singles1: float
    singles2: float
    coincidence: float
    heralded_rate: float
    heralding_success: float
    singles1_err: float
    singles2_err: float
    coincidence_err: float
    heralded_rate_err: float
    heralding_success_err: float

    def rate_and_err(self, name: str) -> tuple[float, float]:
        return getattr(self, name), getattr(self, name + "_err")

    def to_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}


def compute_rates(table: PulseEventTable, delta_t: float = 0.0) -> RateSummary:
    """Count clicks on live rows and form the conditional herald rate.

    Raises EmptyTableError when no pulse is live and
    HeraldUndefinedError when detector 1 clicked on every live pulse.
    """
    cells = table.cell_counts()
    live = cells[:2, :2]
    n_live = int(live.sum())
    if n_live == 0:
        raise EmptyTableError("no live pulses in the event table")
    singles1 = int(live[1, :].sum())
    singles2 = int(live[:, 1].sum())
    coinc = int(live[1, 1])
    n_herald = int(live[0, :].sum())
    heralded = int(live[0, 1])
    if n_herald == 0:
        raise HeraldUndefinedError("detector 1 clicked on every live pulse")
    return RateSummary(
        delta_t=float(delta_t),
        n_pulses=table.n_pulses,
        n_live_pulses=n_live,
        n_herald_pulses=n_herald,
        singles1_count=singles1,
        singles2_count=singles2,
        coincidence_count=coinc,
        heralded_count=heralded,
        singles1=singles1 / n_live,
        singles2=singles2 / n_live,
        coincidence=coinc / n_live,
        heralded_rate=heralded / n_herald,
        heralding_success=n_herald / n_live,
        singles1_err=_poisson_err(singles1, n_live),
        singles2_err=_poisson_err(singles2, n_live),
        coincidence_err=_poisson_err(coinc, n_live),
        heralded_rate_err=_poisson_err(heralded, n_herald),
        heralding_success_err=_poisson_err(n_herald, n_live),
    )


def series_points(summaries: Sequence[RateSummary], name: str) -> list[tuple[float, float, float]]:
    """Extract (delta_t, rate, stderr) triples for one rate field."""
    if name not in RATE_FIELDS:
        raise ValidationError(f"unknown rate field {name!r}")
    return [(s.delta_t, *s.rate_and_err(name)) for s in summaries]


@dataclass(frozen=True)
class FitResult:
    """Gaussian fit a + b*exp(-(x-t0)^2/(2 sigma^2)) of a rate series.

    cwr is the fitted center-to-wings ratio (a+b)/a. visibility is
    |b|/a and only set for dips (b < 0). Covariance is the unscaled
    inverse of the weighted normal matrix, parameter order
    (a, b, t0, sigma).
    """

    a: float
    b: float
    t0: float
    sigma: float
    a_err: float
    b_err: float
    t0_err: float
    sigma_err: float
    cwr: float
    cwr_err: float
    visibility: float | None
    visibility_err: float | None
    residual_norm: float
    n_points: int
    n_iterations: int
    covariance: np.ndarray = field(repr=False)

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__ if f != "covariance"}
        out["covariance"] = [list(row) for row in np.asarray(self.covariance)]
        return out


def _fit_points(points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    arr = np.asarray(list(points), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValidationError("fit points must be (delta_t, rate, stderr) triples")
    if arr.shape[0] < 5:
        raise ValidationError(f"need at least 5 points to fit, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("fit points must be finite")
    order = np.argsort(arr[:, 0], kind="stable")
    x, y, err = arr[order, 0], arr[order, 1], arr[order, 2]
    if x[-1] == x[0]:
        raise ValidationError("fit needs a spread of delays")
    positive = err[err > 0]
    if positive.size:
        err = np.where(err > 0, err, positive.min())
    else:
        err = np.ones_like(err)
    return x, y, err


def _gauss(x: np.ndarray, theta: np.ndarray) -> np.ndarray:
    a, b, t0, s = theta
    return a + b * np.exp(-((x - t0) ** 2) / (2.0 * s * s))


def _weighted_jacobian(x: np.ndarray, w: np.ndarray, b, t0, s) -> np.ndarray:
    """Derivatives of _gauss by (a, b, t0, sigma), each row scaled by w."""
    dx = x - t0
    e = np.exp(-(dx * dx) / (2.0 * s * s))
    jac = np.empty((x.size, 4))
    jac[:, 0] = w
    jac[:, 1] = e * w
    jac[:, 2] = b * e * dx / (s * s) * w
    jac[:, 3] = b * e * dx * dx / (s ** 3) * w
    return jac


def gaussian_fit(points: Iterable) -> FitResult:
    """Weighted Gaussian fit of (delta_t, rate, stderr) points.

    Initialization is deterministic: baseline from the outer quartile
    points, amplitude (and so the peak or dip sign) from the mid-span
    point, center at the largest deviation from baseline, width a sixth
    of the span. Iterates a damped weighted least-squares step until the
    relative parameter change drops below 1e-9 or the weighted cost
    stops improving, raising FitConvergenceError with a residual report
    after 200 iterations. The center is constrained to the sampled delay
    range and the width to [half the point spacing, twice the span]:
    narrower spikes would fit a single sample, which the data cannot
    distinguish from noise.
    """
    x, y, err = _fit_points(points)
    n = x.size
    span = x[-1] - x[0]

    if np.all(y == y[0]):
        flat = float(y[0])
        cov = np.zeros((4, 4))
        return FitResult(
            a=flat, b=0.0, t0=float(0.5 * (x[0] + x[-1])), sigma=span / 6.0,
            a_err=0.0, b_err=0.0, t0_err=0.0, sigma_err=0.0,
            cwr=1.0 if flat > 0 else float("nan"), cwr_err=0.0,
            visibility=None, visibility_err=None,
            residual_norm=0.0, n_points=n, n_iterations=0, covariance=cov,
        )

    q = max(1, n // 4)
    a0 = float(np.mean(np.concatenate([y[:q], y[-q:]])))
    center_idx = int(np.argmin(np.abs(x - 0.5 * (x[0] + x[-1]))))
    b0 = float(y[center_idx] - a0)
    t00 = float(x[int(np.argmax(np.abs(y - a0)))])
    theta = np.array([a0, b0, t00, span / 6.0])

    # scales for the relative-change convergence test; keeps parameters
    # near zero (a centered t0, a vanishing amplitude) testable
    scale = np.array([
        max(abs(a0), float(np.max(np.abs(y))), 1e-300),
        max(abs(b0), float(np.max(np.abs(y - a0))), 1e-300),
        max(abs(t00), span),
        span,
    ])

    w = 1.0 / err

    # resolvable box: a width below half the point spacing would thread
    # a spike through a single sample, a spurious minimum with a
    # degenerate covariance; the center must stay inside the scan
    s_min = 0.5 * float(np.min(np.diff(x)))
    s_max = 2.0 * span

    def clamp(th: np.ndarray) -> np.ndarray:
        th = th.copy()
        th[2] = min(max(th[2], x[0]), x[-1])
        th[3] = min(max(abs(th[3]), s_min), s_max)
        return th

    theta = clamp(theta)

    def cost(th: np.ndarray) -> float:
        r = (_gauss(x, th) - y) * w
        return float(r @ r)

    lam = 1e-3
    current = cost(theta)
    converged = False
    iterations = 0
    stagnant = 0
    tiny = 1e-9 * span
    while iterations < 200:
        iterations += 1
        _, b, t0, s = theta
        jac = _weighted_jacobian(x, w, b, t0, s)
        r = (_gauss(x, theta) - y) * w
        normal = jac.T @ jac
        grad = jac.T @ r
        # active set: a parameter pinned at its bound with the descent
        # direction pointing outward is frozen for this step, so the
        # damped solve works in the remaining subspace and the step
        # test can fire at a constrained optimum
        free = np.ones(4, dtype=bool)
        if t0 - x[0] <= tiny and grad[2] > 0:
            free[2] = False
        if x[-1] - t0 <= tiny and grad[2] < 0:
            free[2] = False
        if s - s_min <= tiny and grad[3] > 0:
            free[3] = False
        if s_max - s <= tiny and grad[3] < 0:
            free[3] = False
        damp = np.diag(normal).copy()
        damp[damp <= 0] = 1.0
        sub = normal[np.ix_(free, free)] + lam * np.diag(damp[free])
        delta = np.zeros(4)
        try:
            delta[free] = np.linalg.solve(sub, -grad[free])
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        trial = clamp(theta + delta)
        trial_cost = cost(trial)
        rel = float(np.max(np.abs(trial - theta) / scale))
        if not math.isfinite(trial_cost) or trial_cost > current:
            # a rejected proposal this small means the parameters can
            # no longer move by more than the tolerance
            if rel < 1e-9:
                converged = True
                break
            stagnant += 1
            if stagnant >= 15:
                converged = True
                break
            lam = min(lam * 10.0, 1e15)
            continue
        improvement = current - trial_cost
        theta = trial
        current = trial_cost
        lam = max(lam / 3.0, 1e-15)
        # stop on a negligible step, on a negligible cost gain once
        # damping is low (Gauss-Newton regime), or on prolonged
        # stagnation; weak peaks can otherwise crawl along a flat
        # valley for hundreds of iterations without tripping the
        # step-size test
        if improvement <= 1e-12 * max(current, 1.0):
            stagnant += 1
        else:
            stagnant = 0
        stalled = improvement <= 1e-12 * max(current, 1.0) and lam <= 1e-2
        if rel < 1e-9 or stalled or stagnant >= 15:
            converged = True
            break
    if not converged:
        raise FitConvergenceError(
            "gaussian fit did not converge in 200 iterations",
            report={"cost": current, "params": theta.tolist(), "lambda": lam},
        )

    a, b, t0, s = theta
    s = abs(float(s))
    if a <= 0:
        raise FitConvergenceError(
            "fit converged to a non-positive baseline",
            report={"cost": current, "params": theta.tolist()},
        )
    jac = _weighted_jacobian(x, w, b, t0, s)
    normal = jac.T @ jac
    try:
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(normal)
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    cwr = (a + b) / a
    g_cwr = np.array([-b / (a * a), 1.0 / a])
    cwr_err = float(math.sqrt(max(g_cwr @ cov[:2, :2] @ g_cwr, 0.0)))
    vis = vis_err = None
    if b < 0:
        vis = -b / a
        g_vis = np.array([b / (a * a), -1.0 / a])
        vis_err = float(math.sqrt(max(g_vis @ cov[:2, :2] @ g_vis, 0.0)))
    r = (_gauss(x, theta) - y) * w
    return FitResult(
        a=float(a), b=float(b), t0=float(t0), sigma=s,
        a_err=float(errs[0]), b_err=float(errs[1]),
        t0_err=float(errs[2]), sigma_err=float(errs[3]),
        cwr=float(cwr), cwr_err=cwr_err,
        visibility=vis, visibility_err=vis_err,
        residual_norm=float(math.sqrt(r @ r)),
        n_points=n, n_iterations=iterations, covariance=cov,
    )


def visibility(fit: FitResult) -> tuple[float, float]:
    """Dip visibility |b|/a with its propagated uncertainty.

    The fit's own visibility and visibility_err. Only defined for dips;
    a positive fitted amplitude raises WrongShapeError. A flat fit
    (b = 0) has zero visibility.
    """
    if fit.b > 0:
        raise WrongShapeError("visibility is defined for dip fits (b <= 0)")
    if fit.visibility is None:
        return 0.0, 0.0
    return float(fit.visibility), fit.visibility_err


def _cwr_value(fit_or_value) -> float:
    return float(getattr(fit_or_value, "cwr", fit_or_value))


def estimate_efficiencies(cwr_peak, cwr_noherald, nu_max: float) -> tuple[float, float]:
    """Effective efficiencies from the two fitted curve ratios.

    The unheralded detector-2 scan plays the eta1'=0 role and pins
    eta2'; the heralded scan's ratio then inverts to eta1'. Accepts
    FitResults or bare ratio values. The forward formula is re-checked
    on the result to 1e-6.
    """
    c_peak = _cwr_value(cwr_peak)
    c_wing = _cwr_value(cwr_noherald)
    eta2p = model.invert_cwr_for_eta2_unheralded(c_wing, nu_max)
    eta1p = model.invert_cwr_for_eta1(c_peak, eta2p, nu_max)
    back1 = model.cwr_approx(eta1p, eta2p, nu_max)
    back2 = model.cwr_approx(0.0, eta2p, nu_max)
    if abs(back1 - c_peak) > 1e-6 or abs(back2 - c_wing) > 1e-6:
        raise NumericalError("efficiency inversion failed its round-trip check")
    return eta1p, eta2p


@dataclass(frozen=True)
class ModelComparison:
    """Measured rates against closed-form predictions, as z-scores."""

    delta_t: float
    nu: float
    measured: dict
    predicted: dict
    stderr: dict
    z: dict
    flags: tuple

    def to_dict(self) -> dict:
        return {
            "delta_t": self.delta_t,
            "nu": self.nu,
            "measured": self.measured,
            "predicted": self.predicted,
            "stderr": self.stderr,
            "z": self.z,
            "flags": list(self.flags),
        }


def compare_to_model(summary: RateSummary, cfg) -> ModelComparison:
    """z-scores of measured rates against the closed-form expectations.

    Predictions neglect dark counts and afterpulsing (the closed forms
    do); configs with those enabled are flagged rather than corrected.
    A zero standard error with zero deviation scores z = 0; a nonzero
    deviation with zero standard error is flagged as a deterministic
    mismatch and scored infinite.
    """
    nu = cfg.profile.nu(summary.delta_t)
    src = cfg.source
    predicted = {
        "singles1": model.p_click_single(src, cfg.det1.eta, nu),
        "singles2": model.p_click_single(src, cfg.det2.eta, nu),
        "coincidence": model.p_coincidence(src, cfg.det1.eta, cfg.det2.eta, nu),
        "heralded_rate": model.p_c2_given_nc1_exact(src, cfg.det1.eta, cfg.det2.eta, nu),
    }
    flags = []
    if cfg.det1.dark_prob or cfg.det2.dark_prob:
        flags.append("dark counts present in config but not in predictions")
    if cfg.det1.afterpulse_prob or cfg.det2.afterpulse_prob:
        flags.append("afterpulsing present in config but not in predictions")
    measured = {}
    stderr = {}
    z = {}
    for name in predicted:
        value, sig = summary.rate_and_err(name)
        measured[name] = value
        stderr[name] = sig
        dev = value - predicted[name]
        if sig == 0.0:
            if dev == 0.0:
                z[name] = 0.0
            else:
                z[name] = math.inf if dev > 0 else -math.inf
                flags.append(f"deterministic mismatch on {name}")
        else:
            z[name] = dev / sig
    return ModelComparison(
        delta_t=summary.delta_t,
        nu=nu,
        measured=measured,
        predicted=predicted,
        stderr=stderr,
        z=z,
        flags=tuple(flags),
    )


def write_rate_csv(summaries: Sequence[RateSummary], sink, rep_rate_hz: float | None = None) -> None:
    """Rate summaries as CSV, one row per delay.

    With rep_rate_hz given, per-second columns (rate x repetition rate)
    are appended for the click rates, matching how counting rates are
    usually plotted.
    """
    int_fields = ["n_pulses", "n_live_pulses", "n_herald_pulses",
                  "singles1_count", "singles2_count", "coincidence_count", "heralded_count"]
    float_fields = ["delta_t"]
    for name in RATE_FIELDS:
        float_fields += [name, name + "_err"]
    per_s = ["singles1", "singles2", "coincidence", "heralded_rate"] if rep_rate_hz else []

    with _opened(sink, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_t"] + int_fields
                        + [f for f in float_fields if f != "delta_t"]
                        + [f"{name}_per_s" for name in per_s])
        for s in summaries:
            row = [FLOAT_FMT % s.delta_t]
            row += [str(getattr(s, f)) for f in int_fields]
            row += [FLOAT_FMT % getattr(s, f) for f in float_fields if f != "delta_t"]
            row += [FLOAT_FMT % (getattr(s, name) * rep_rate_hz) for name in per_s]
            writer.writerow(row)


def write_fits_jsonl(fits: dict, sink) -> None:
    """One JSON object per line: {"series": name, ...fit fields}."""
    with _opened(sink, "w") as fh:
        for name, fit in fits.items():
            record = {"series": name}
            record.update(fit.to_dict())
            fh.write(json.dumps(record) + "\n")
