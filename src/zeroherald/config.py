"""Flat key = value config files describing a simulation run.

One assignment per line, # starts a comment, blank lines ignored.
Unknown and duplicate keys are rejected so a typo cannot silently fall
back to a default. Integer fields accept scientific notation when the
value is whole (n_pulses = 1e8).

Each key sets one field of SimConfig or of one of its parts: the source
keys are the SourceParams field names, a detector key is a
DetectorParams field name plus the detector number (eta1, dark_prob2),
and the profile keys are nu_max, tau and profile_ plus the other
IndistinguishabilityProfile field names. Types and defaults are the
fields' own; a field without a default is a required key.

    key                 default   meaning
    gamma               required  per-pulse pair probability
    kappa1              required  channel 1 transmission
    kappa2              required  channel 2 transmission
    eta1                required  detector 1 efficiency
    dark_prob1          0         detector 1 in-gate dark click probability
    dead_pulses1        0         detector 1 dead window in pulses
    afterpulse_prob1    0         detector 1 afterpulse probability per click
    eta2                required  detector 2 efficiency
    dark_prob2          0         detector 2 in-gate dark click probability
    dead_pulses2        0         detector 2 dead window in pulses
    afterpulse_prob2    0         detector 2 afterpulse probability per click
    nu_max              unset     profile ceiling; required for gaussian
                                  and triangular, read off the table at
                                  delay 0 for tabulated
    tau                 unset     profile width; required for gaussian
                                  and triangular, rejected for tabulated
    profile_shape       gaussian  gaussian | triangular | tabulated
    profile_delays      unset     comma list, tabulated shape only;
                                  [brackets] as in a manifest are allowed
    profile_values      unset     same, the nu value at each delay
    n_pulses            required  pulses to simulate
    seed                required  generator seed
    delta_t             0         delay between the two photons (s)
    rep_period          10e-9     pulse period (s)
    timebin             81e-12    tag timebin (s)
    divider             512       pulses per reference tag
    jitter_sigma        0         detector timing jitter (s)
    gate_window         2e-9      in-gate window (s)
    out_gate_dark_rate  240       Hz of gate-rejectable darks; an
                                  engineering default, not a measured
                                  device value
"""

from __future__ import annotations

import math
from dataclasses import MISSING, Field, fields, is_dataclass
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from .errors import ConfigError
from .sim import SimConfig

__all__ = ["parse_config_text", "build_sim_config", "load_config", "config_dict"]


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


def _parse_list(key: str, text: str) -> tuple[float, ...]:
    if text.startswith("[") and text.endswith("]"):  # as a manifest writes it
        text = text[1:-1]
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated number list") from None


_PARSERS = {int: _parse_int, float: _parse_float, str: lambda key, text: text,
            tuple: _parse_list}


class _Key(NamedTuple):
    part: str | None  # SimConfig field holding the value; None for the run itself
    field: Field
    parse: Callable[[str, str], object]

    @property
    def required(self) -> bool:
        return self.field.default is MISSING and self.field.default_factory is MISSING


def _parser(hint) -> Callable[[str, str], object]:
    """Parser for a field annotation: X | None parses as X, tuple[...] as a list."""
    if type(None) in get_args(hint):
        (hint,) = (a for a in get_args(hint) if a is not type(None))
    return _PARSERS[get_origin(hint) or hint]


def _key_name(part: str | None, name: str) -> str:
    if part in ("det1", "det2"):
        return name + part[-1]
    if part == "profile" and name in ("shape", "delays", "values"):
        return "profile_" + name
    return name


_RUN_HINTS = get_type_hints(SimConfig)
_PARTS = {f.name: _RUN_HINTS[f.name] for f in fields(SimConfig)
          if is_dataclass(_RUN_HINTS[f.name])}


def _key_table() -> dict[str, _Key]:
    """Every config key and the one field it sets, in SimConfig order."""
    table = {}
    for outer in fields(SimConfig):
        if outer.name in _PARTS:
            cls = _PARTS[outer.name]
            part, members, hints = outer.name, fields(cls), get_type_hints(cls)
        else:
            part, members, hints = None, (outer,), _RUN_HINTS
        for f in members:
            table[_key_name(part, f.name)] = _Key(part, f, _parser(hints[f.name]))
    return table


_KEYS = _key_table()


def build_sim_config(raw: dict[str, str], overrides: dict[str, str] | None = None) -> SimConfig:
    """Typed SimConfig from raw strings, with optional flag overrides."""
    merged = {**raw, **(overrides or {})}
    unknown = sorted(set(merged) - set(_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(k for k, key in _KEYS.items() if key.required and k not in merged)
    if missing:
        raise ConfigError(f"missing required config keys: {', '.join(missing)}")

    values: dict[str | None, dict[str, object]] = {part: {} for part in (None, *_PARTS)}
    for name, text in merged.items():
        key = _KEYS[name]
        values[key.part][key.field.name] = key.parse(name, text)

    profile = values["profile"]
    shape = profile.get("shape", _PARTS["profile"].shape)
    tables = "delays" in profile, "values" in profile
    if shape == "tabulated":
        if not all(tables):
            raise ConfigError("tabulated profile needs profile_delays and profile_values")
        if "tau" in profile:
            raise ConfigError("tau is only valid with profile_shape = gaussian or triangular")
    elif any(tables):
        raise ConfigError("profile tables are only valid with profile_shape = tabulated")
    elif "nu_max" not in profile or "tau" not in profile:
        raise ConfigError(f"{shape} profile needs nu_max and tau")

    parts = {part: cls(**values[part]) for part, cls in _PARTS.items()}
    return SimConfig(**parts, **values[None])


def load_config(path, overrides: dict[str, str] | None = None) -> SimConfig:
    """Parse and type a config file in one step; a file that cannot be
    read, or is not UTF-8 text, is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text (bad byte at offset {exc.start})"
                          ) from None
    return build_sim_config(parse_config_text(text), overrides)


def config_dict(cfg: SimConfig) -> dict:
    """Flat JSON-friendly snapshot of an effective config; unset fields are left out."""
    out = {}
    for name, key in _KEYS.items():
        value = getattr(getattr(cfg, key.part) if key.part else cfg, key.field.name)
        if value is not None:
            out[name] = list(value) if isinstance(value, tuple) else value
    return out
