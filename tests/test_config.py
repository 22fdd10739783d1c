"""Config file parsing and typing tests.

A config is flat key = value text; the strict parts worth pinning are
duplicate/unknown/missing key rejection, whole-number scientific
notation for integer fields, the profile shape cross-checks, and that
the key table covers each SimConfig field exactly once.
"""

from dataclasses import fields, is_dataclass

import pytest

from zeroherald import config
from zeroherald.config import (
    _KEYS,
    build_sim_config,
    config_dict,
    load_config,
    parse_config_text,
)
from zeroherald.errors import ConfigError, ValidationError
from zeroherald.sim import SimConfig

MINIMAL = """\
# source
gamma = 2e-3
kappa1 = 0.5
kappa2 = 0.5
eta1 = 0.32   # detector 1
eta2 = 0.30
nu_max = 0.975
tau = 100e-15
n_pulses = 1e8
seed = 7
"""


TABULATED = (
    "profile_shape = tabulated\n"
    "profile_delays = -1e-13, 0, 1e-13\n"
    "profile_values = 0, 0.9, 0\n"
)


def raw(extra="", drop=()):
    lines = [l for l in (MINIMAL + extra).splitlines()
             if not any(l.startswith(k + " ") for k in drop)]
    return parse_config_text("\n".join(lines))


SHAPES = {
    "gaussian": raw(),
    "triangular": raw(extra="profile_shape = triangular\n"),
    "tabulated": raw(extra=TABULATED, drop=("nu_max", "tau")),
}


class TestParseConfigText:
    def test_basic_lines(self):
        got = parse_config_text("a = 1\n\n# comment\nb=2  # trailing\n  c  =  3  \n")
        assert got == {"a": "1", "b": "2", "c": "3"}

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnot an assignment\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("a =\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("= 3\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match=r"line 3: duplicate key 'a'"):
            parse_config_text("a = 1\nb = 2\na = 3\n")

    def test_comment_only_value_is_empty(self):
        with pytest.raises(ConfigError, match="empty key or value"):
            parse_config_text("a = # nothing left\n")


class TestBuildSimConfig:
    def test_minimal_with_defaults(self):
        cfg = build_sim_config(raw())
        assert cfg.source.gamma == 2e-3
        assert (cfg.source.kappa1, cfg.source.kappa2) == (0.5, 0.5)
        assert (cfg.det1.eta, cfg.det2.eta) == (0.32, 0.30)
        assert cfg.det1.dark_prob == 0.0
        assert cfg.det1.dead_pulses == 0
        assert cfg.profile.shape == "gaussian"
        assert cfg.profile.nu_max == 0.975
        assert cfg.profile.tau == 100e-15
        assert cfg.n_pulses == 10**8
        assert isinstance(cfg.n_pulses, int)
        assert cfg.seed == 7
        assert cfg.delta_t == 0.0
        assert cfg.rep_period == 10e-9
        assert cfg.timebin == 81e-12
        assert cfg.divider == 512
        assert cfg.gate_window == 2e-9
        assert cfg.out_gate_dark_rate == 240.0

    def test_whole_scientific_int(self):
        assert build_sim_config(raw(drop=("seed",)) | {"seed": "1e3"}).seed == 1000

    def test_fractional_int_rejected(self):
        with pytest.raises(ConfigError, match="whole number"):
            build_sim_config(raw(drop=("n_pulses",)) | {"n_pulses": "2.5e0"})

    def test_non_numeric_float_rejected(self):
        with pytest.raises(ConfigError, match="gamma must be a number"):
            build_sim_config(raw(drop=("gamma",)) | {"gamma": "lots"})

    def test_non_finite_float_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            build_sim_config(raw(drop=("tau",)) | {"tau": "inf"})

    def test_unknown_keys_listed_sorted(self):
        bad = raw() | {"zeta": "1", "alpha": "2"}
        with pytest.raises(ConfigError, match="unknown config keys: alpha, zeta"):
            build_sim_config(bad)

    def test_n_shards_is_not_a_key(self):
        # a run is one generator over all its pulses; there is no shard count
        with pytest.raises(ConfigError, match="unknown config keys: n_shards"):
            build_sim_config(raw() | {"n_shards": "4"})

    def test_missing_required_listed(self):
        with pytest.raises(ConfigError, match="missing required config keys: gamma, seed"):
            build_sim_config(raw(drop=("gamma", "seed")))

    def test_overrides_win(self):
        cfg = build_sim_config(raw(), overrides={"seed": "99", "divider": "128"})
        assert cfg.seed == 99
        assert cfg.divider == 128

    def test_overrides_checked_like_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: sede"):
            build_sim_config(raw(), overrides={"sede": "99"})

    def test_out_of_range_value_propagates_validation(self):
        with pytest.raises(ValidationError, match="eta"):
            build_sim_config(raw(drop=("eta1",)) | {"eta1": "1.5"})

    @pytest.mark.parametrize("key, value, message", [
        ("eta1", "1.5", "det1: eta must be in [0, 1], got 1.5"),
        ("eta2", "1.5", "det2: eta must be in [0, 1], got 1.5"),
        ("gamma", "-1", "source: gamma must be in [0, 1], got -1.0"),
        ("nu_max", "2", "profile: nu_max must be in [0, 1], got 2.0"),
        ("jitter_sigma", "1e-9",
         "jitter_sigma must be well inside the gate window (at most a quarter)"),
    ])
    def test_bad_value_is_a_config_error_naming_its_part(self, key, value, message):
        with pytest.raises(ConfigError) as info:
            build_sim_config(raw(drop=(key,)) | {key: value})
        assert str(info.value) == message


class TestProfiles:
    def test_tabulated_profile(self):
        cfg = build_sim_config(SHAPES["tabulated"])
        assert cfg.profile.shape == "tabulated"
        assert cfg.profile.nu_max == 0.9
        assert cfg.profile.nu(0.5e-13) == pytest.approx(0.45)

    def test_tabulated_needs_both_lists(self):
        with pytest.raises(ConfigError,
                           match="profile: tabulated profile needs delays and values"):
            build_sim_config(raw(extra="profile_shape = tabulated\n"))

    def test_lists_only_valid_for_tabulated(self):
        with pytest.raises(ConfigError, match="profile: delays and values need shape = tabulated"):
            build_sim_config(raw(extra="profile_delays = 0, 1\nprofile_values = 1, 1\n"))

    def test_tau_rejected_for_tabulated(self):
        # nu() never reads it, so a snapshot would carry a value with no effect
        with pytest.raises(ConfigError, match="profile: tabulated profile takes no tau"):
            build_sim_config(raw(extra=TABULATED, drop=("nu_max",)))

    def test_gaussian_needs_width(self):
        with pytest.raises(ConfigError, match="needs nu_max and tau"):
            build_sim_config(raw(drop=("tau",)))

    def test_bad_list_entry(self):
        with pytest.raises(ConfigError, match="comma-separated number list"):
            build_sim_config(raw(
                extra=(
                    "profile_shape = tabulated\n"
                    "profile_delays = -1e-13; 0\n"
                    "profile_values = 0, 0.9\n"
                ),
                drop=("nu_max", "tau"),
            ))

    @pytest.mark.parametrize("values", ["0.1, nan, 0.1", "0.1, inf, 0.1"])
    def test_non_finite_list_entry(self, values):
        # a NaN entry used to reach the run as nu_max = nan
        with pytest.raises(ConfigError, match="profile_values entries must be finite"):
            build_sim_config(raw(
                extra=TABULATED.replace("0, 0.9, 0", values), drop=("nu_max", "tau")))

    def test_triangular_shape(self):
        cfg = build_sim_config(raw(extra="profile_shape = triangular\n"))
        assert cfg.profile.nu(50e-15) == pytest.approx(0.975 * 0.5)


class TestLoadAndSnapshot:
    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(path, overrides={"seed": "11"})
        assert cfg.seed == 11
        assert cfg.source.gamma == 2e-3

    def test_unreadable_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "missing.cfg")

    def test_config_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(MINIMAL.encode() + b"# \xff\xfe\n")
        with pytest.raises(ConfigError, match="not UTF-8"):
            load_config(path)

    def test_config_dict_snapshot(self):
        cfg = build_sim_config(raw())
        snap = config_dict(cfg)
        assert snap["gamma"] == 2e-3
        assert snap["n_pulses"] == 10**8
        assert snap["profile_shape"] == "gaussian"
        assert "profile_delays" not in snap

    def test_config_dict_rebuilds_same_config(self):
        cfg = build_sim_config(raw())
        snap = {k: str(v) for k, v in config_dict(cfg).items()}
        assert build_sim_config(snap) == cfg

    def test_config_dict_tabulated_lists(self):
        snap = config_dict(build_sim_config(SHAPES["tabulated"]))
        assert snap["profile_delays"] == [-1e-13, 0.0, 1e-13]
        assert snap["profile_values"] == [0.0, 0.9, 0.0]
        # an unset width is left out, not written as null
        assert "tau" not in snap

    @pytest.mark.parametrize("shape", SHAPES)
    def test_each_shape_compares_hashes_and_round_trips(self, shape):
        cfg = build_sim_config(SHAPES[shape])
        assert cfg == build_sim_config(SHAPES[shape])
        assert hash(cfg) == hash(build_sim_config(SHAPES[shape]))
        assert cfg != build_sim_config(SHAPES[shape], overrides={"seed": "8"})
        snap = {k: str(v) for k, v in config_dict(cfg).items()}
        assert build_sim_config(snap) == cfg


class TestKeyTable:
    def test_each_field_has_exactly_one_key(self):
        cfg = build_sim_config(raw())
        expected = []
        for outer in fields(SimConfig):
            part = getattr(cfg, outer.name)
            if is_dataclass(part):
                expected += [(outer.name, f.name) for f in fields(part)]
            else:
                expected.append((None, outer.name))
        got = [(key.part, key.field.name) for key in _KEYS.values()]
        assert sorted(got, key=str) == sorted(expected, key=str)

    def test_docstring_lists_every_key_with_its_default(self):
        documented = {}
        for line in config.__doc__.splitlines():
            cols = line.split()
            if line.startswith("    ") and cols and cols[0] in _KEYS:
                assert cols[0] not in documented, cols[0]
                documented[cols[0]] = cols[1]
        assert set(documented) == set(_KEYS)
        for name, key in _KEYS.items():
            default, text = key.field.default, documented[name]
            if key.required:
                assert text == "required", name
            elif default is None:
                assert text == "unset", name
            elif isinstance(default, str):
                assert text == default, name
            else:
                assert float(text) == default, name
