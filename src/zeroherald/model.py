"""Closed-form model of heralding on the absence of a detector click.

A pulsed pair source emits into two lossy channels. Detecting *no* click
behind a beam splitter projects the other output toward vacuum, and the
quality of that projection shows up as a peak (or dip) in click rates
versus the arrival-time delay between the two photons of a pair. This
module collects the exact per-pulse probabilities for that experiment,
the small-gamma approximations used to fit measured curves, and the
algebraic inversions that recover efficiencies from fitted ratios.

Conventions: gamma is the per-pulse pair probability, kappa1/kappa2 are
channel transmissions upstream of the beam splitter, eta is a detector
efficiency, d a per-pulse dark-click probability, and nu in [0, 1] the
photon indistinguishability at a given delay. "Effective" efficiencies
are eta_i' = sqrt(kappa1*kappa2) * eta_i.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, NoSolutionError, ValidationError
from .tags import _opened

__all__ = [
    "SourceParams",
    "DetectorParams",
    "IndistinguishabilityProfile",
    "OutputDistribution",
    "p_noclick_given_n",
    "success_probability",
    "heralded_fidelity",
    "output_distribution",
    "p_click_single",
    "p_coincidence",
    "p_c2_given_nc1_exact",
    "p_c2_given_nc1_approx",
    "cwr_approx",
    "invert_cwr_for_eta1",
    "invert_cwr_for_eta2_unheralded",
    "curve_grid",
    "write_curve_csv",
    "CURVE_COLUMNS",
]

FLOAT_FMT = "%.17g"


def _check_unit(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0 or math.isnan(value):
        raise ValidationError(f"{name} must be in [0, 1], got {value!r}")
    return value


@dataclass(frozen=True)
class SourceParams:
    """Pair source: per-pulse pair probability and channel transmissions."""

    gamma: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        _check_unit("gamma", self.gamma)
        _check_unit("kappa1", self.kappa1)
        _check_unit("kappa2", self.kappa2)

    @property
    def kappa_bar(self) -> float:
        return 0.5 * (self.kappa1 + self.kappa2)

    @property
    def kappa_tilde(self) -> float:
        return math.sqrt(self.kappa1 * self.kappa2)


@dataclass(frozen=True)
class DetectorParams:
    """Threshold detector: efficiency, darks, dead time, afterpulsing.

    dead_pulses is the number of pulses the detector stays blind after a
    click (non-paralyzable). afterpulse_prob is the chance a click spawns
    one spurious click at the first live pulse after the dead window.
    """

    eta: float
    dark_prob: float = 0.0
    dead_pulses: int = 0
    afterpulse_prob: float = 0.0

    def __post_init__(self):
        _check_unit("eta", self.eta)
        _check_unit("dark_prob", self.dark_prob)
        _check_unit("afterpulse_prob", self.afterpulse_prob)
        if not isinstance(self.dead_pulses, (int, np.integer)) or self.dead_pulses < 0:
            raise ValidationError(
                f"dead_pulses must be a non-negative integer, got {self.dead_pulses!r}"
            )


@dataclass(frozen=True)
class IndistinguishabilityProfile:
    """Indistinguishability nu as a function of inter-photon delay.

    Shapes: "gaussian" gives nu_max * exp(-(dt/tau)^2), "triangular"
    gives nu_max * max(0, 1 - |dt|/tau), and "tabulated" interpolates
    linearly between (delay, nu) samples. Only tabulated profiles take
    delays and values; they must cover delay 0 and take no tau. Queries
    outside the table raise rather than extrapolate.
    """

    nu_max: float | None = None
    tau: float | None = None
    shape: str = "gaussian"
    delays: tuple[float, ...] | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.shape in ("gaussian", "triangular"):
            if self.delays is not None or self.values is not None:
                raise ValidationError("delays and values need shape = tabulated")
            if self.nu_max is None or self.tau is None:
                raise ValidationError(f"{self.shape} profile needs nu_max and tau")
            _check_unit("nu_max", self.nu_max)
            if not 0 < self.tau < math.inf:
                raise ValidationError(f"tau must be positive and finite, got {self.tau!r}")
        elif self.shape == "tabulated":
            if self.delays is None or self.values is None:
                raise ValidationError("tabulated profile needs delays and values")
            if self.tau is not None:
                raise ValidationError("tabulated profile takes no tau")
            d = np.asarray(self.delays, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if d.ndim != 1 or d.shape != v.shape or d.size < 2:
                raise ValidationError("profile table needs two same-length 1-d arrays")
            # written so that NaN fails each test
            if not (np.all(np.isfinite(d)) and np.all(np.diff(d) > 0)):
                raise ValidationError(
                    "profile table delays must be finite and strictly increasing")
            if not np.all((v >= 0) & (v <= 1)):
                raise ValidationError("profile table values must be in [0, 1]")
            if not (d[0] <= 0.0 <= d[-1]):
                raise ValidationError("profile table must cover delay 0")
            # tuples, so that equal tables compare and hash by value
            object.__setattr__(self, "delays", tuple(map(float, d)))
            object.__setattr__(self, "values", tuple(map(float, v)))
            at_zero = float(np.interp(0.0, d, v))
            if self.nu_max is None:
                object.__setattr__(self, "nu_max", at_zero)
            elif not abs(self.nu_max - at_zero) <= 1e-9:
                raise ValidationError(
                    "nu_max disagrees with the tabulated value at delay 0"
                )
        else:
            raise ValidationError(f"unknown profile shape {self.shape!r}")

    def nu(self, delta_t):
        """Indistinguishability at the given delay (scalar or array)."""
        dt = np.asarray(delta_t, dtype=float)
        if self.shape == "gaussian":
            out = self.nu_max * np.exp(-((dt / self.tau) ** 2))
        elif self.shape == "triangular":
            out = self.nu_max * np.clip(1.0 - np.abs(dt) / self.tau, 0.0, None)
        else:
            if np.any(dt < self.delays[0]) or np.any(dt > self.delays[-1]):
                raise ValidationError(
                    "delay outside the tabulated profile range "
                    f"[{self.delays[0]!r}, {self.delays[-1]!r}]"
                )
            out = np.interp(dt, self.delays, self.values)
        return out if np.ndim(delta_t) else float(out)


@dataclass(frozen=True)
class OutputDistribution:
    """Joint photon-number probabilities at the two beam splitter outputs.

    p_mn is the probability of m photons toward detector 1 and n toward
    detector 2, truncated at one pair per pulse.
    """

    p00: float
    p10: float
    p01: float
    p11: float
    p20: float
    p02: float

    def __post_init__(self):
        for name, p in self.as_dict().items():
            _check_unit(name, p)
        if abs(self.total() - 1.0) > 1e-12:
            raise ValidationError(f"output distribution sums to {self.total()!r}, not 1")

    def as_dict(self) -> dict:
        return {
            "p00": self.p00,
            "p10": self.p10,
            "p01": self.p01,
            "p11": self.p11,
            "p20": self.p20,
            "p02": self.p02,
        }

    def total(self) -> float:
        return self.p00 + self.p10 + self.p01 + self.p11 + self.p20 + self.p02

    def marginal(self, arm: int) -> np.ndarray:
        """Photon-number distribution [P0, P1, P2] in one arm (1 or 2)."""
        if arm == 1:
            return np.array([self.p00 + self.p01 + self.p02, self.p10 + self.p11, self.p20])
        if arm == 2:
            return np.array([self.p00 + self.p10 + self.p20, self.p01 + self.p11, self.p02])
        raise ValidationError(f"arm must be 1 or 2, got {arm!r}")


def p_noclick_given_n(det: DetectorParams, n) -> float:
    """Probability a detector stays silent when n photons arrive.

    The detector misses every photon and does not dark-click:
    (1 - d) * (1 - eta)^n. Dead time and afterpulsing are dynamics, not
    per-pulse statistics, so they do not enter here.
    """
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.integer):
        raise ValidationError(f"photon number must be a non-negative integer, got {n!r}")
    out = (1.0 - det.dark_prob) * (1.0 - det.eta) ** n_arr
    return out if np.ndim(n) else float(out)


def _check_photon_dist(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("photon distribution must be a non-empty 1-d sequence")
    if np.any(p < 0) or np.any(np.isnan(p)):
        raise ValidationError("photon distribution has negative or NaN entries")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"photon distribution sums to {p.sum()!r}, not 1")
    return p


def success_probability(photon_probs: Sequence[float], det: DetectorParams) -> float:
    """Probability of the no-click herald for a photon-number distribution.

    Sum over n of P_n * (1 - d) * (1 - eta)^n.
    """
    p = _check_photon_dist(photon_probs)
    powers = (1.0 - det.eta) ** np.arange(p.size)
    return float((1.0 - det.dark_prob) * p @ powers)


def heralded_fidelity(photon_probs: Sequence[float], det: DetectorParams) -> float:
    """Vacuum weight of the heralded state: P(n=0 | no click).

    Equals P_0 / sum_n (1 - eta)^n P_n. The dark-click probability scales
    numerator and denominator alike and drops out, so darks reduce how
    often the herald fires but not what it delivers.
    """
    p = _check_photon_dist(photon_probs)
    powers = (1.0 - det.eta) ** np.arange(p.size)
    denom = float(p @ powers)
    if denom <= 0.0:
        raise DegenerateInputError("no-click probability is zero; fidelity undefined")
    return float(p[0] / denom)


def output_distribution(src: SourceParams, nu: float) -> OutputDistribution:
    """Joint output photon numbers for one pulse of a weak pair source.

    With both photons surviving their channels, indistinguishability nu
    splits the pair between coincidence (1,1) and bunching (2,0)/(0,2);
    a lone survivor exits either port with equal chance.
    """
    _check_unit("nu", nu)
    g, k1, k2 = src.gamma, src.kappa1, src.kappa2
    both = g * k1 * k2
    one = g * (k1 * (1.0 - k2) + (1.0 - k1) * k2)
    p11 = both * (1.0 - nu) / 2.0
    p20 = both * (1.0 + nu) / 4.0
    p10 = one / 2.0
    p00 = 1.0 - g * (k1 + k2 - k1 * k2)
    return OutputDistribution(p00=p00, p10=p10, p01=p10, p11=p11, p20=p20, p02=p20)


def p_click_single(src: SourceParams, eta: float, nu: float) -> float:
    """Per-pulse click probability at one detector (no darks, no herald).

    Either detector obeys the same expression, so pass the efficiency of
    the one you mean: gamma*eta*kappa_bar - (1+nu)*gamma*eta^2*k1*k2/4.
    """
    _check_unit("eta", eta)
    _check_unit("nu", nu)
    g = src.gamma
    return g * eta * src.kappa_bar - (1.0 + nu) * g * eta**2 * src.kappa1 * src.kappa2 / 4.0


def p_coincidence(src: SourceParams, eta1: float, eta2: float, nu: float) -> float:
    """Per-pulse probability both detectors click on the same pulse.

    Only a split pair can do it: gamma*eta1*eta2*k1*k2*(1-nu)/2. Perfect
    indistinguishability (nu=1) bunches every pair and the rate vanishes.
    """
    _check_unit("eta1", eta1)
    _check_unit("eta2", eta2)
    _check_unit("nu", nu)
    return src.gamma * eta1 * eta2 * src.kappa1 * src.kappa2 * (1.0 - nu) / 2.0


def p_c2_given_nc1_exact(src: SourceParams, eta1: float, eta2: float, nu: float) -> float:
    """Click probability at detector 2 given detector 1 stayed silent.

    Bayes on the single and coincidence probabilities:
    (P(C2) - P(C1 and C2)) / (1 - P(C1)).
    """
    pc1 = p_click_single(src, eta1, nu)
    pc2 = p_click_single(src, eta2, nu)
    pcc = p_coincidence(src, eta1, eta2, nu)
    if pc1 >= 1.0:
        raise DegenerateInputError("detector 1 clicks every pulse; conditioning impossible")
    return (pc2 - pcc) / (1.0 - pc1)


def p_c2_given_nc1_approx(eta1p, eta2p, gamma: float, nu: float) -> float:
    """First order in gamma of the heralded click probability.

    (gamma*eta2'/4) * (4 - eta2' - 2*eta1' + nu*(2*eta1' - eta2')), with
    effective efficiencies eta_i' = sqrt(k1*k2)*eta_i.
    """
    e1 = _check_unit("effective efficiency", eta1p)
    e2 = _check_unit("effective efficiency", eta2p)
    _check_unit("gamma", gamma)
    _check_unit("nu", nu)
    return (gamma * e2 / 4.0) * (4.0 - e2 - 2.0 * e1 + nu * (2.0 * e1 - e2))


def cwr_approx(eta1p, eta2p, nu_max: float) -> float:
    """Center-to-wings ratio of the heralded click rate versus delay.

    Ratio of the rate at zero delay (nu = nu_max) to the rate far out on
    the wings (nu = 0): 1 + nu_max*(2*eta1' - eta2')/(4 - 2*eta1' - eta2').
    Above 1 the curve is a peak, below 1 a dip; eta1' = eta2'/2 hides the
    structure entirely.
    """
    e1 = _check_unit("effective efficiency", eta1p)
    e2 = _check_unit("effective efficiency", eta2p)
    _check_unit("nu_max", nu_max)
    denom = 4.0 - 2.0 * e1 - e2
    if denom <= 0.0:
        raise DegenerateInputError(f"wing rate vanished (denominator {denom!r})")
    # single fraction so the anchor points land on exact floats:
    # eta1'=1, nu=1 -> 2; eta1'=eta2'/2 -> 1; (0, 1, 1) -> 2/3
    return (denom + nu_max * (2.0 * e1 - e2)) / denom


def invert_cwr_for_eta1(cwr: float, eta2p, nu_max: float) -> float:
    """Recover eta1' from a measured center-to-wings ratio.

    Inverts the ratio formula in closed form. The target must lie in the
    attainable band [cwr at eta1'=0, cwr at eta1'=1] for the given eta2'
    and nu_max.
    """
    e2 = _check_unit("effective efficiency", eta2p)
    _check_unit("nu_max", nu_max)
    if not math.isfinite(cwr) or cwr <= 0:
        raise ValidationError(f"cwr must be a positive finite number, got {cwr!r}")
    lo = cwr_approx(0.0, e2, nu_max)
    hi = cwr_approx(1.0, e2, nu_max)
    tol = 1e-12
    if not (lo - tol <= cwr <= hi + tol):
        raise NoSolutionError(
            f"cwr {cwr!r} outside the attainable range [{lo!r}, {hi!r}] "
            f"for eta2'={e2!r}, nu_max={nu_max!r}"
        )
    denom = 2.0 * (nu_max + cwr - 1.0)
    if denom == 0.0:
        # cwr == 1 - nu_max: only reachable in the degenerate nu_max = 0 band
        raise NoSolutionError("flat curve carries no efficiency information")
    eta1p = ((cwr - 1.0) * (4.0 - e2) + nu_max * e2) / denom
    return float(min(1.0, max(0.0, eta1p)))


def invert_cwr_for_eta2_unheralded(cwr: float, nu_max: float) -> float:
    """Recover eta2' from the dip of the *unheralded* rate curve.

    With no herald (eta1' = 0) the ratio is 1 - nu_max*eta2'/(4 - eta2'),
    so eta2' = 4*(1 - cwr)/(nu_max + 1 - cwr).
    """
    _check_unit("nu_max", nu_max)
    if not math.isfinite(cwr) or cwr <= 0:
        raise ValidationError(f"cwr must be a positive finite number, got {cwr!r}")
    lo = cwr_approx(0.0, 1.0, nu_max)
    tol = 1e-12
    if not (lo - tol <= cwr <= 1.0 + tol):
        raise NoSolutionError(
            f"unheralded cwr {cwr!r} outside the attainable range [{lo!r}, 1.0]"
        )
    denom = nu_max + 1.0 - cwr
    if denom == 0.0:
        raise NoSolutionError("flat curve carries no efficiency information")
    eta2p = 4.0 * (1.0 - cwr) / denom
    return float(min(1.0, max(0.0, eta2p)))


CURVE_COLUMNS = (
    "delta_t",
    "nu",
    "p_click1",
    "p_click2",
    "p_coincidence",
    "p_c2_given_nc1_exact",
    "p_c2_given_nc1_approx",
    "cwr",
)


def curve_grid(
    src: SourceParams,
    eta1: float,
    eta2: float,
    profile: IndistinguishabilityProfile,
    delays: Iterable[float],
) -> list[dict]:
    """Model curves over a delay grid, one dict per delay.

    The cwr column is the heralded rate normalized to its own wings, so
    it reads the center-to-wings ratio at delay 0 and tends to 1 far out.
    """
    e1p = src.kappa_tilde * _check_unit("eta", eta1)
    e2p = src.kappa_tilde * _check_unit("eta", eta2)
    rows = []
    for dt in delays:
        nu = profile.nu(float(dt))
        rows.append(
            {
                "delta_t": float(dt),
                "nu": nu,
                "p_click1": p_click_single(src, eta1, nu),
                "p_click2": p_click_single(src, eta2, nu),
                "p_coincidence": p_coincidence(src, eta1, eta2, nu),
                "p_c2_given_nc1_exact": p_c2_given_nc1_exact(src, eta1, eta2, nu),
                "p_c2_given_nc1_approx": p_c2_given_nc1_approx(e1p, e2p, src.gamma, nu),
                "cwr": cwr_approx(e1p, e2p, nu),
            }
        )
    return rows


def write_curve_csv(rows: list[dict], sink, meta: dict | None = None) -> None:
    """Write curve_grid rows as CSV; meta becomes leading comment lines."""
    with _opened(sink, "w", newline="") as fh:
        for key, value in (meta or {}).items():
            fh.write(f"# {key} = {value}\n")
        writer = csv.writer(fh)
        writer.writerow(CURVE_COLUMNS)
        for row in rows:
            writer.writerow([FLOAT_FMT % row[c] for c in CURVE_COLUMNS])
