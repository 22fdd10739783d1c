"""Flat key = value config files describing a simulation run.

One assignment per line, # starts a comment, blank lines ignored.
Unknown and duplicate keys are rejected so a typo cannot silently fall
back to a default. Integer fields accept scientific notation when the
value is whole (n_pulses = 1e8).

Keys (defaults in parentheses):

    gamma, kappa1, kappa2          source parameters, required
    eta1, eta2                     detector efficiencies, required
    dark_prob1, dark_prob2         in-gate dark click probability (0)
    dead_pulses1, dead_pulses2     dead window length in pulses (0)
    afterpulse_prob1, afterpulse_prob2  (0)
    profile_shape                  gaussian | triangular | tabulated (gaussian)
    nu_max, tau                    profile ceiling and width, required
                                   for gaussian/triangular
    profile_delays, profile_values comma lists, tabulated shape only
    delta_t (0), rep_period (10e-9), timebin (81e-12), divider (512)
    n_pulses, seed                 required
    jitter_sigma (0), gate_window (2e-9)
    out_gate_dark_rate (240)       Hz of gate-rejectable darks; an
                                   engineering default, not a measured
                                   device value
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .model import DetectorParams, IndistinguishabilityProfile, SourceParams
from .sim import SimConfig

__all__ = ["parse_config_text", "build_sim_config", "load_config", "config_dict"]

_FLOAT_KEYS = {
    "gamma", "kappa1", "kappa2", "eta1", "eta2", "dark_prob1", "dark_prob2",
    "afterpulse_prob1", "afterpulse_prob2", "nu_max", "tau", "delta_t",
    "rep_period", "timebin", "jitter_sigma", "gate_window", "out_gate_dark_rate",
}
_INT_KEYS = {"dead_pulses1", "dead_pulses2", "divider", "n_pulses", "seed"}
_STR_KEYS = {"profile_shape"}
_LIST_KEYS = {"profile_delays", "profile_values"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _LIST_KEYS

_REQUIRED = {"gamma", "kappa1", "kappa2", "eta1", "eta2", "n_pulses", "seed"}

_DEFAULTS = {
    "dark_prob1": "0", "dark_prob2": "0",
    "dead_pulses1": "0", "dead_pulses2": "0",
    "afterpulse_prob1": "0", "afterpulse_prob2": "0",
    "profile_shape": "gaussian",
    "delta_t": "0", "rep_period": "10e-9", "timebin": "81e-12",
    "divider": "512", "jitter_sigma": "0", "gate_window": "2e-9",
    "out_gate_dark_rate": "240",
}


def parse_config_text(text: str) -> dict[str, str]:
    """Raw key -> value strings; rejects malformed lines and duplicates."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}") from None
    if not value.is_integer():
        raise ConfigError(f"{key} must be a whole number, got {text!r}")
    return int(value)


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def _parse_list(key: str, text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",") if part.strip()])
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list") from None


def build_sim_config(raw: dict[str, str], overrides: dict[str, str] | None = None) -> SimConfig:
    """Typed SimConfig from raw strings, with optional flag overrides."""
    merged = dict(_DEFAULTS)
    merged.update(raw)
    if overrides:
        merged.update(overrides)
    unknown = sorted(set(merged) - _ALL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(_REQUIRED - set(merged))
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    values: dict[str, object] = {}
    for key, text in merged.items():
        if key in _INT_KEYS:
            values[key] = _parse_int(key, text)
        elif key in _FLOAT_KEYS:
            values[key] = _parse_float(key, text)
        elif key in _LIST_KEYS:
            values[key] = _parse_list(key, text)
        else:
            values[key] = text

    shape = values["profile_shape"]
    if shape == "tabulated":
        if "profile_delays" not in values or "profile_values" not in values:
            raise ConfigError("tabulated profile needs profile_delays and profile_values")
        profile = IndistinguishabilityProfile(
            shape="tabulated",
            delays=values["profile_delays"],
            values=values["profile_values"],
            nu_max=values.get("nu_max"),
        )
    else:
        if "profile_delays" in values or "profile_values" in values:
            raise ConfigError("profile tables are only valid with profile_shape = tabulated")
        if "nu_max" not in values or "tau" not in values:
            raise ConfigError(f"{shape} profile needs nu_max and tau")
        profile = IndistinguishabilityProfile(
            shape=shape, nu_max=values["nu_max"], tau=values["tau"]
        )

    source = SourceParams(gamma=values["gamma"], kappa1=values["kappa1"],
                          kappa2=values["kappa2"])
    det1 = DetectorParams(eta=values["eta1"], dark_prob=values["dark_prob1"],
                          dead_pulses=values["dead_pulses1"],
                          afterpulse_prob=values["afterpulse_prob1"])
    det2 = DetectorParams(eta=values["eta2"], dark_prob=values["dark_prob2"],
                          dead_pulses=values["dead_pulses2"],
                          afterpulse_prob=values["afterpulse_prob2"])
    return SimConfig(
        source=source, det1=det1, det2=det2, profile=profile,
        delta_t=values["delta_t"], rep_period=values["rep_period"],
        timebin=values["timebin"], divider=values["divider"],
        n_pulses=values["n_pulses"], seed=values["seed"],
        jitter_sigma=values["jitter_sigma"], gate_window=values["gate_window"],
        out_gate_dark_rate=values["out_gate_dark_rate"],
    )


def load_config(path, overrides: dict[str, str] | None = None) -> SimConfig:
    """Parse and type a config file in one step."""
    with open(path) as fh:
        raw = parse_config_text(fh.read())
    return build_sim_config(raw, overrides)


def config_dict(cfg: SimConfig) -> dict:
    """Flat JSON-friendly snapshot of an effective config."""
    out = {
        "gamma": cfg.source.gamma,
        "kappa1": cfg.source.kappa1,
        "kappa2": cfg.source.kappa2,
        "eta1": cfg.det1.eta,
        "dark_prob1": cfg.det1.dark_prob,
        "dead_pulses1": cfg.det1.dead_pulses,
        "afterpulse_prob1": cfg.det1.afterpulse_prob,
        "eta2": cfg.det2.eta,
        "dark_prob2": cfg.det2.dark_prob,
        "dead_pulses2": cfg.det2.dead_pulses,
        "afterpulse_prob2": cfg.det2.afterpulse_prob,
        "profile_shape": cfg.profile.shape,
        "nu_max": cfg.profile.nu_max,
        "tau": cfg.profile.tau,
        "delta_t": cfg.delta_t,
        "rep_period": cfg.rep_period,
        "timebin": cfg.timebin,
        "divider": cfg.divider,
        "n_pulses": cfg.n_pulses,
        "seed": cfg.seed,
        "jitter_sigma": cfg.jitter_sigma,
        "gate_window": cfg.gate_window,
        "out_gate_dark_rate": cfg.out_gate_dark_rate,
    }
    if cfg.profile.shape == "tabulated":
        out["profile_delays"] = list(map(float, cfg.profile.delays))
        out["profile_values"] = list(map(float, cfg.profile.values))
    return out
