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
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInputError,
    NoSolutionError,
    ValidationError,
    check_count,
    check_counts,
    check_real,
    check_reals,
)
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


@dataclass(frozen=True)
class SourceParams:
    """Pair source: per-pulse pair probability and channel transmissions."""

    gamma: float
    kappa1: float
    kappa2: float

    def __post_init__(self):
        check_real("gamma", self.gamma, "unit")
        check_real("kappa1", self.kappa1, "unit")
        check_real("kappa2", self.kappa2, "unit")

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
        check_real("eta", self.eta, "unit")
        check_real("dark_prob", self.dark_prob, "unit")
        check_real("afterpulse_prob", self.afterpulse_prob, "unit")
        object.__setattr__(self, "dead_pulses", check_count("dead_pulses", self.dead_pulses))


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
            check_real("nu_max", self.nu_max, "unit")
            check_real("tau", self.tau, "positive")
        elif self.shape == "tabulated":
            if self.delays is None or self.values is None:
                raise ValidationError("tabulated profile needs delays and values")
            if self.tau is not None:
                raise ValidationError("tabulated profile takes no tau")
            d = check_reals("delays", self.delays)
            v = check_reals("values", self.values, "unit")
            if d.ndim != 1 or d.shape != v.shape or d.size < 2:
                raise ValidationError("profile table needs two same-length 1-d arrays")
            if not np.all(np.diff(d) > 0):
                raise ValidationError("profile table delays must be strictly increasing")
            if not (d[0] <= 0.0 <= d[-1]):
                raise ValidationError("profile table must cover delay 0")
            # tuples, so that equal tables compare and hash by value
            object.__setattr__(self, "delays", tuple(d.tolist()))
            object.__setattr__(self, "values", tuple(v.tolist()))
            at_zero = float(np.interp(0.0, d, v))
            if self.nu_max is None:
                object.__setattr__(self, "nu_max", at_zero)
            elif not abs(self.nu_max - at_zero) <= 1e-9:
                raise ValidationError("nu_max disagrees with the tabulated value at delay 0")
        else:
            raise ValidationError(f"unknown profile shape {self.shape!r}")

    def nu(self, delta_t):
        """Indistinguishability at a finite real delay, or an array of them (0-d too)."""
        dt = check_reals("delta_t", delta_t)
        if self.shape == "gaussian":
            out = self.nu_max * np.exp(-((dt / self.tau) ** 2))
        elif self.shape == "triangular":
            out = self.nu_max * np.clip(1.0 - np.abs(dt) / self.tau, 0.0, None)
        else:
            if np.any(dt < self.delays[0]) or np.any(dt > self.delays[-1]):
                raise ValidationError("delay outside the tabulated profile range "
                                      f"[{self.delays[0]!r}, {self.delays[-1]!r}]")
            out = np.interp(dt, self.delays, self.values)
        return out if dt.ndim else float(out)


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
        check_reals("p00, p10, p01, p11, p20, p02", list(self.as_dict().values()), "unit")
        if abs(self.total() - 1.0) > 1e-12:
            raise ValidationError(f"output distribution sums to {self.total()!r}, not 1")

    def as_dict(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

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

    The detector misses every photon and does not dark-click: (1 - d) *
    (1 - eta)^n, n a count or a 1-d array of counts. Dead time and
    afterpulsing are dynamics, not per-pulse statistics: they do not enter.
    """
    one = not isinstance(n, (list, tuple, np.ndarray))
    k = check_counts("n", [check_count("n", n)] if one else n)
    # one count is a 0-d power, whose last bit can differ from a 1-d one's
    out = (1.0 - det.dark_prob) * (1.0 - det.eta) ** (k.reshape(()) if one else k)
    return float(out) if one else out


def _check_photon_dist(probs) -> np.ndarray:
    p = check_reals("photon_probs", probs, "unit")
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("photon distribution must be a non-empty 1-d sequence")
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


# pair codes: 0 both photons lost, 1 split, 2 bunched into D1, 3 bunched
# into D2, 4 lone photon on D1, 5 on D2; as photons (m at D1, n at D2)
_PAIR_PHOTONS = ((0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))
# the 13 classes as (pair code, m, n, D1 candidate, D2 candidate): within
# a pair code the D1 candidate (no, yes) is the outer loop and the D2
# candidate the inner one; a detector without photons has only "no". A
# class's code, which the simulator draws, is its index here
_CLASSES = tuple((code, m, n, hit1, hit2) for code, (m, n) in enumerate(_PAIR_PHOTONS)
                 for hit1 in range(1 + (m > 0)) for hit2 in range(1 + (n > 0)))


def _class_probs(src: SourceParams, nu: float, eta1: float, eta2: float) -> list[float]:
    """The probabilities of the 13 classes of an emitted pair, in the
    order of _CLASSES.

    Each photon survives its channel; two survivors split with
    probability (1-nu)/2 or bunch into either output with (1+nu)/4; a
    lone survivor picks an output by fair coin. A detector that receives
    c photons gets a candidate with probability 1-(1-eta)^c, formed as
    eta*(c-(c-1)*eta) for c <= 2 so that a small eta keeps its digits.
    """
    k1, k2 = src.kappa1, src.kappa2
    both = k1 * k2
    lone = (k1 * (1.0 - k2) + k2 * (1.0 - k1)) / 2.0
    code_prob = ((1.0 - k1) * (1.0 - k2), both * (1.0 - nu) / 2.0,
                 both * (1.0 + nu) / 4.0, both * (1.0 + nu) / 4.0, lone, lone)
    return [code_prob[code] * (eta1 * (m - (m - 1) * eta1) if hit1 else (1.0 - eta1) ** m)
            * (eta2 * (n - (n - 1) * eta2) if hit2 else (1.0 - eta2) ** n)
            for code, m, n, hit1, hit2 in _CLASSES]


def _click_rates(src: SourceParams, eta1: float, eta2: float, nu: float):
    """P(C1), P(C2), P(C1 and C2) and P(C2 | no C1) per pulse, all read
    off one pair table: a pulse emits a pair with probability gamma, and
    a detector clicks on the classes that give it a candidate."""
    e1, e2 = check_real("eta1", eta1, "unit"), check_real("eta2", eta2, "unit")
    p1 = p2 = both = 0.0
    for p, (_, _, _, hit1, hit2) in zip(_class_probs(src, check_real("nu", nu, "unit"), e1, e2),
                                        _CLASSES):
        p1, p2, both = p1 + p * hit1, p2 + p * hit2, both + p * hit1 * hit2
    p1, p2, both = src.gamma * p1, src.gamma * p2, src.gamma * both
    return p1, p2, both, (p2 - both) / (1.0 - p1)  # p1 is at most 3/4 on the unit cube


def output_distribution(src: SourceParams, nu: float) -> OutputDistribution:
    """Joint output photon numbers for one pulse of a weak pair source.

    With both photons surviving their channels, indistinguishability nu
    splits the pair between coincidence (1,1) and bunching (2,0)/(0,2);
    a lone survivor exits either port with equal chance. That is gamma
    times the pair table at eta = 0, where each pair code is one class,
    plus 1 - gamma at (0, 0).
    """
    check_real("nu", nu, "unit")
    quiet = [p for p, (*_, hit1, hit2) in zip(_class_probs(src, nu, 0.0, 0.0), _CLASSES)
             if not (hit1 or hit2)]  # each pair code's one class, in code order
    p = {f"p{m}{n}": src.gamma * q for (m, n), q in zip(_PAIR_PHOTONS, quiet)}
    p["p00"] += 1.0 - src.gamma
    return OutputDistribution(**p)


def p_click_single(src: SourceParams, eta: float, nu: float) -> float:
    """Per-pulse click probability at one detector (no darks, no herald).

    Either detector obeys the same expression, so pass the efficiency of
    the one you mean: gamma*eta*(k1+k2)/2 - (1+nu)*gamma*eta^2*k1*k2/4.
    """
    eta = check_real("eta", eta, "unit")
    return _click_rates(src, eta, eta, nu)[0]


def p_coincidence(src: SourceParams, eta1: float, eta2: float, nu: float) -> float:
    """Per-pulse probability both detectors click on the same pulse.

    Only a split pair can do it: gamma*eta1*eta2*k1*k2*(1-nu)/2. Perfect
    indistinguishability (nu=1) bunches every pair and the rate vanishes.
    """
    return _click_rates(src, eta1, eta2, nu)[2]


def p_c2_given_nc1_exact(src: SourceParams, eta1: float, eta2: float, nu: float) -> float:
    """Click probability at detector 2 given detector 1 stayed silent.

    Bayes on the single and coincidence probabilities:
    (P(C2) - P(C1 and C2)) / (1 - P(C1)).
    """
    return _click_rates(src, eta1, eta2, nu)[3]


def p_c2_given_nc1_approx(eta1p, eta2p, gamma: float, nu: float) -> float:
    """First order in gamma of the heralded click probability.

    (gamma*eta2'/4) * (4 - eta2' - 2*eta1' + nu*(2*eta1' - eta2')), with
    effective efficiencies eta_i' = sqrt(k1*k2)*eta_i.
    """
    e1 = check_real("effective efficiency", eta1p, "unit")
    e2 = check_real("effective efficiency", eta2p, "unit")
    check_real("gamma", gamma, "unit")
    check_real("nu", nu, "unit")
    return (gamma * e2 / 4.0) * (4.0 - e2 - 2.0 * e1 + nu * (2.0 * e1 - e2))


def cwr_approx(eta1p, eta2p, nu_max: float) -> float:
    """Center-to-wings ratio of the heralded click rate versus delay.

    Ratio of the rate at zero delay (nu = nu_max) to the rate far out on
    the wings (nu = 0): 1 + nu_max*(2*eta1' - eta2')/(4 - 2*eta1' - eta2').
    Above 1 the curve is a peak, below 1 a dip; eta1' = eta2'/2 hides the
    structure entirely.
    """
    e1 = check_real("effective efficiency", eta1p, "unit")
    e2 = check_real("effective efficiency", eta2p, "unit")
    check_real("nu_max", nu_max, "unit")
    denom = 4.0 - 2.0 * e1 - e2  # at least 1, as e1 and e2 lie in [0, 1]
    # single fraction so the anchor points land on exact floats:
    # eta1'=1, nu=1 -> 2; eta1'=eta2'/2 -> 1; (0, 1, 1) -> 2/3
    return (denom + nu_max * (2.0 * e1 - e2)) / denom


def _check_attainable(cwr: float, lo: float, hi: float, context: str) -> None:
    """ValidationError unless cwr is positive and finite, NoSolutionError
    unless it lies in the attainable band [lo, hi] (to within 1e-12)."""
    check_real("cwr", cwr, "positive")
    if not lo - 1e-12 <= cwr <= hi + 1e-12:
        raise NoSolutionError(
            f"cwr {cwr!r} outside the attainable range [{lo!r}, {hi!r}] {context}")


def invert_cwr_for_eta1(cwr: float, eta2p, nu_max: float) -> float:
    """Recover eta1' from a measured center-to-wings ratio.

    Inverts the ratio formula in closed form. The target must lie in the
    attainable band [cwr at eta1'=0, cwr at eta1'=1] for the given eta2'
    and nu_max.
    """
    e2 = check_real("effective efficiency", eta2p, "unit")
    check_real("nu_max", nu_max, "unit")
    _check_attainable(cwr, cwr_approx(0.0, e2, nu_max), cwr_approx(1.0, e2, nu_max),
                      f"for eta2'={e2!r}, nu_max={nu_max!r}")
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
    check_real("nu_max", nu_max, "unit")
    _check_attainable(cwr, cwr_approx(0.0, 1.0, nu_max), 1.0,
                      f"of the unheralded curve for nu_max={nu_max!r}")
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
    delays: Sequence[float],
) -> list[dict]:
    """Model curves over a 1-d grid of finite real delays, one dict per delay.

    The cwr column is the heralded rate normalized to its own wings, so
    it reads the center-to-wings ratio at delay 0 and tends to 1 far out.
    """
    e1p = src.kappa_tilde * check_real("eta", eta1, "unit")
    e2p = src.kappa_tilde * check_real("eta", eta2, "unit")
    delays = check_reals("delays", delays)
    if delays.ndim != 1:
        raise ValidationError(f"delays must be 1-d, got shape {delays.shape}")
    rows = []
    for dt in delays.tolist():
        nu = profile.nu(dt)
        rows.append(dict(zip(CURVE_COLUMNS, (
            dt, nu, *_click_rates(src, eta1, eta2, nu),
            p_c2_given_nc1_approx(e1p, e2p, src.gamma, nu), cwr_approx(e1p, e2p, nu)))))
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
