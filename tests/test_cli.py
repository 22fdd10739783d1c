"""End-to-end command-line tests, driven in-process through main().

Each flow writes real files into tmp_path and checks the documented
exit codes: 0 success, 2 usage, 3 validation/config or an output path
that cannot be written, 4 file format or integrity, 5 numerical failure.
"""

import csv
import hashlib
import io
import json
import math
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from zeroherald import analysis, cli, tags
from zeroherald import sim as sim_mod
from zeroherald.analysis import compute_rates
from zeroherald.cli import main
from zeroherald.errors import (
    ClockGlitchError,
    FitConvergenceError,
    FormatError,
    IntegrityError,
    NumericalError,
    ZeroHeraldError,
)
from zeroherald.model import cwr_approx
from zeroherald.pipeline import reconstruct_pulse_train, table_from_stream

from dense_oracle import v1_bytes

CONFIG = """\
gamma = 5e-3
kappa1 = 1
kappa2 = 1
eta1 = 0.8
eta2 = 0.8
nu_max = 0.9
tau = 1e-13
n_pulses = 20481
seed = 7
out_gate_dark_rate = 0
"""


# the paper's operating point, as in the README quick start
PAPER_CONFIG = """\
gamma = 1e-4
kappa1 = 0.5
kappa2 = 0.5
eta1 = 0.32
eta2 = 0.30
dead_pulses1 = 5
dead_pulses2 = 5
nu_max = 0.975
tau = 1e-13
n_pulses = 2e8
seed = 3
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return path


def read_csv(path_or_text):
    text = path_or_text if isinstance(path_or_text, str) else path_or_text.read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestUsage:
    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["model", "--eta1p", "0.1", "--eta2p", "0.1", "--frobnicate"])
        assert exc.value.code == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "zeroherald" in capsys.readouterr().out


class TestModelCommand:
    def test_curve_csv_to_file(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(["model", "--eta1p", "0.16", "--eta2p", "0.15",
                     "--numax", "0.975", "--points", "13", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 13
        center = rows[6]
        assert float(center["delta_t"]) == 0.0
        assert float(center["nu"]) == pytest.approx(0.975)
        assert float(center["cwr"]) == pytest.approx(
            cwr_approx(0.16, 0.15, 0.975), rel=1e-12
        )
        assert out.read_text().startswith("# tool = zeroherald")

    def test_dash_writes_stdout_and_no_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["model", "--eta1p", "0.16", "--eta2p", "0.15", "--out", "-"]) == 0
        assert capsys.readouterr().out.startswith("# tool = zeroherald")
        assert list(tmp_path.iterdir()) == []

    def test_perfect_herald_ratio_reads_two(self, capsys):
        code = main(["model", "--eta1p", "1", "--eta2p", "0.15",
                     "--numax", "1", "--points", "5"])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert float(rows[2]["cwr"]) == pytest.approx(2.0, abs=1e-12)

    def test_half_ratio_efficiencies_flatten_the_curve(self, capsys):
        code = main(["model", "--eta1p", "0.075", "--eta2p", "0.15", "--points", "7"])
        assert code == 0
        for row in read_csv(capsys.readouterr().out):
            assert float(row["cwr"]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_pair_rate_zeroes_the_click_columns(self, capsys):
        code = main(["model", "--eta1p", "0.16", "--eta2p", "0.15",
                     "--gamma", "0", "--points", "5"])
        assert code == 0
        for row in read_csv(capsys.readouterr().out):
            for col in ("p_click1", "p_click2", "p_coincidence",
                        "p_c2_given_nc1_exact", "p_c2_given_nc1_approx"):
                assert float(row[col]) == 0.0

    def test_effective_efficiency_above_one_is_rejected(self, capsys):
        code = main(["model", "--eta1p", "1.5", "--eta2p", "0.1"])
        assert code == 3
        assert "eta must be in [0, 1], got 1.5" in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_points_below_one_fail_before_output(self, tmp_path, capsys, points):
        # -1 used to end in a ValueError traceback, 0 in a header-only CSV
        out = tmp_path / "curve.csv"
        code = main(["model", "--eta1p", "0.1", "--eta2p", "0.1",
                     "--points", points, "--out", str(out)])
        assert code == 3
        assert f"--points must be at least 1, got {points}" in capsys.readouterr().err
        assert not out.exists()

    def test_one_point_sits_at_zero_delay(self, capsys):
        # used to be the grid's left edge, -3 tau
        code = main(["model", "--eta1p", "0.1", "--eta2p", "0.1", "--points", "1"])
        assert code == 0
        rows = read_csv(capsys.readouterr().out)
        assert [float(row["delta_t"]) for row in rows] == [0.0]
        assert float(rows[0]["nu"]) == 1.0  # the default --numax


class TestSimulateCommand:
    def test_writes_tags_and_manifest(self, tmp_path, cfg_path):
        out = tmp_path / "run.zht"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        stream = tags.read_tags(out)
        assert stream.divider == 512
        # 20481 pulses at divider 512 leave 41 reference tags
        assert stream.refs.size == 41
        manifest = json.loads((tmp_path / "run.zht.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["gamma"] == 5e-3
        assert "n_shards" not in manifest["config"]
        assert manifest["outputs"][str(out)] == sha256(out)
        assert manifest["inputs"][str(cfg_path)] == sha256(cfg_path)
        assert manifest["timing_s"] > 0

    def test_identical_configs_give_identical_bytes(self, tmp_path, cfg_path):
        a, b = tmp_path / "a.zht", tmp_path / "b.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(a)])
        main(["simulate", "--config", str(cfg_path), "--out", str(b)])
        assert sha256(a) == sha256(b)

    def test_set_overrides_config(self, tmp_path, cfg_path):
        a, b = tmp_path / "a.zht", tmp_path / "b.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(a)])
        main(["simulate", "--config", str(cfg_path), "--out", str(b),
              "--set", "seed=9"])
        assert sha256(a) != sha256(b)
        manifest = json.loads((tmp_path / "b.zht.manifest.json").read_text())
        assert manifest["seed"] == 9
        assert "seed=9" in manifest["command"]

    def test_csv_format_round_trips(self, tmp_path, cfg_path):
        zht, csv_out = tmp_path / "run.zht", tmp_path / "run.csv"
        main(["simulate", "--config", str(cfg_path), "--out", str(zht)])
        main(["simulate", "--config", str(cfg_path), "--out", str(csv_out)])
        assert tags.read_tags_csv(csv_out) == tags.read_tags(zht)

    def test_stdout_is_not_a_tag_file(self, tmp_path, cfg_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(cfg_path), "--out", "-"]) == 3
        assert "--out" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_bad_set_pair(self, tmp_path, cfg_path, capsys):
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.zht"), "--set", "seed"])
        assert code == 3

    def test_unknown_config_key_via_set(self, tmp_path, cfg_path, capsys):
        code = main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "x.zht"), "--set", "sede=9"])
        assert code == 3
        assert "sede" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "x.zht")])
        assert code == 3
        assert "cannot read config" in capsys.readouterr().err

    def test_binary_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.zht")])
        assert code == 3
        assert "not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "x.zht").exists()


class TestAnalyzeCommand:
    @pytest.fixture
    def tag_file(self, tmp_path, cfg_path):
        out = tmp_path / "run.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        return out

    def test_rates_match_library_reduction(self, tmp_path, tag_file):
        rates_out = tmp_path / "rates.csv"
        code = main(["analyze", str(tag_file), "--rates-out", str(rates_out)])
        assert code == 0
        rows = read_csv(rates_out)
        assert len(rows) == 1
        stream = tags.read_tags(tag_file)
        _, _, table = table_from_stream(stream, 2e-9, 5, 5)
        expected = compute_rates(table, 0.0)
        got = rows[0]
        assert int(got["n_live_pulses"]) == expected.n_live_pulses
        assert float(got["heralded_rate"]) == expected.heralded_rate
        assert float(got["singles1"]) == expected.singles1
        # per-second columns use the snapped repetition period
        rep_hz = 1e12 / stream.rep_period_ps
        assert float(got["singles1_per_s"]) == pytest.approx(expected.singles1 * rep_hz)

    def test_rates_to_stdout_by_default(self, tag_file, capsys):
        assert main(["analyze", str(tag_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("delta_t,")
        assert len(out.splitlines()) == 2

    def test_gate_and_dead_flags_change_the_reduction(self, tmp_path, tag_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["analyze", str(tag_file), "--rates-out", str(a)])
        main(["analyze", str(tag_file), "--rates-out", str(b),
              "--gate", "0.5e-9", "--dead-pulses", "0"])
        assert read_csv(a) != read_csv(b)

    def test_multiple_files_need_delays(self, tag_file, capsys):
        assert main(["analyze", str(tag_file), str(tag_file)]) == 3
        assert "--delays" in capsys.readouterr().err

    def test_delay_count_must_match(self, tag_file, capsys):
        code = main(["analyze", str(tag_file), str(tag_file),
                     "--delays", "0,1e-13,2e-13"])
        assert code == 3

    def test_non_finite_delay_fails_before_reading(self, tmp_path, capsys):
        ghost = tmp_path / "ghost.zht"
        assert main(["analyze", str(ghost), "--delays", "nan"]) == 3
        assert "--delays entries must be finite" in capsys.readouterr().err

    def test_fits_go_to_stderr_without_fits_out(self, tmp_path, cfg_path, capsys):
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "7", "--set", "n_pulses=40961"]) == 0
        fits = [json.loads(l) for l in (out_dir / "fits.jsonl").read_text().splitlines()]
        files = [str(p) for p in sorted(out_dir.glob("tags_*.zht"))]
        delays = ",".join(repr(d) for d in json.loads(
            (out_dir / "scan_manifest.json").read_text())["config"]["scan_delays"])
        capsys.readouterr()
        assert main(["analyze", *files, f"--delays={delays}",
                     "--rates-out", str(tmp_path / "rates.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert [l.split(":")[0] for l in lines] == [fit["series"] for fit in fits]
        for line, fit in zip(lines, fits):
            assert f"cwr={fit['cwr']:.6f} +- {fit['cwr_err']:.6f}" in line

    def test_no_fits_below_five_points(self, tmp_path, tag_file):
        fits_out = tmp_path / "fits.jsonl"
        main(["analyze", str(tag_file), "--fits-out", str(fits_out)])
        assert not fits_out.exists()

    @pytest.mark.parametrize("fits_out", [False, True])
    def test_fit_over_one_delay_is_skipped_with_a_note(self, tmp_path, tag_file, capsys,
                                                        fits_out):
        rates_out, fits_path = tmp_path / "rates.csv", tmp_path / "fits.jsonl"
        flags = ["--fits-out", str(fits_path)] if fits_out else []
        capsys.readouterr()
        assert main(["analyze", *[str(tag_file)] * 5, "--delays=1e-13,1e-13,1e-13,1e-13,1e-13",
                     "--rates-out", str(rates_out), *flags]) == 0
        err = capsys.readouterr().err
        assert err == "note: scan fit skipped: fit needs a spread of delays\n"
        assert len(read_csv(rates_out)) == 5
        assert not fits_path.exists()

    @pytest.mark.parametrize("delays, note", [
        ("0,1e-13", "fit needs at least 5 delays"),
        ("1e-13,1e-13,1e-13,1e-13,1e-13", "fit needs a spread of delays"),
        ("0,1e-13,2e-13,3e-13,4e-13", "baseline went negative"),
    ], ids=["too few", "one delay", "failed"])
    def test_skipped_fit_removes_an_older_fits_file(self, tmp_path, tag_file, capsys,
                                                     monkeypatch, delays, note):
        # an earlier run's fits used to stay beside the new rates, silently
        def no_fit(summaries):
            raise FitConvergenceError("baseline went negative")

        monkeypatch.setattr(analysis, "scan_fit", no_fit)
        fits_out = tmp_path / "fits.jsonl"
        fits_out.write_text('{"series": "heralded_rate"}\n')
        files = [str(tag_file)] * len(delays.split(","))
        capsys.readouterr()
        assert main(["analyze", *files, f"--delays={delays}", "--rates-out",
                     str(tmp_path / "rates.csv"), "--fits-out", str(fits_out)]) == 0
        assert capsys.readouterr().err == f"note: scan fit skipped: {note}\n"
        assert not fits_out.exists()

    @pytest.mark.parametrize("link", [False, True], ids=["fifo", "symlink to a fifo"])
    def test_skipped_fit_leaves_a_fifo_alone(self, tmp_path, tag_file, capsys, link):
        # only a regular file is removed: a skipped fit used to unlink
        # whatever the fits path named, /dev/null run as root included
        fifo = tmp_path / "fits.fifo"
        os.mkfifo(fifo)
        fits_out = tmp_path / "link" if link else fifo
        if link:
            fits_out.symlink_to(fifo)
        assert main(["analyze", str(tag_file), "--rates-out", str(tmp_path / "rates.csv"),
                     "--fits-out", str(fits_out)]) == 0
        assert "note: scan fit skipped: fit needs at least 5 delays" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.stat(fits_out).st_mode)
        assert fits_out.is_symlink() == link

    def test_corrupt_tag_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.zht"
        bad.write_bytes(b"not a tag file at all")
        assert main(["analyze", str(bad)]) == 4
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("divider", ["0", str(2**32)])
    def test_out_of_range_csv_header(self, tmp_path, tag_file, capsys, divider):
        bad = tmp_path / "bad.csv"
        tags.write_tags_csv(tags.read_tags(tag_file), bad)
        bad.write_text(bad.read_text().replace("# divider = 512", f"# divider = {divider}"))
        assert main(["analyze", str(bad)]) == 4
        assert str(bad) in capsys.readouterr().err

    def test_missing_tag_file(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "ghost.zht")]) == 4
        assert "cannot read tag file" in capsys.readouterr().err

    def test_herald_undefined_is_numerical_failure(self, tmp_path, capsys):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text(CONFIG.replace("gamma = 5e-3", "gamma = 0")
                       + "dark_prob1 = 1\n")
        out = tmp_path / "dark.zht"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["analyze", str(out)]) == 5
        assert "every live pulse" in capsys.readouterr().err

    def test_mixed_repetition_periods_are_rejected(self, tmp_path, cfg_path, tag_file, capsys):
        # one rate column serves every row, so a second period would
        # misstate that file's per-second rates
        slow = tmp_path / "slow.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(slow),
              "--set", "rep_period=20e-9"])
        rates_out = tmp_path / "rates.csv"
        code = main(["analyze", str(tag_file), str(slow), "--delays", "0,1e-13",
                     "--rates-out", str(rates_out)])
        assert code == 4
        err = capsys.readouterr().err
        assert err.count(str(slow)) == 1 and "repetition period" in err
        assert not rates_out.exists()

    def test_quiet_stream_still_reduces(self, tmp_path, capsys):
        cfg = tmp_path / "quiet.cfg"
        cfg.write_text(CONFIG.replace("gamma = 5e-3", "gamma = 0"))
        out = tmp_path / "quiet.zht"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["analyze", str(out)]) == 0
        row = read_csv(capsys.readouterr().out)[0]
        assert float(row["singles1"]) == 0.0
        assert float(row["heralding_success"]) == 1.0


class TestScanCommand:
    def test_full_scan_artifacts(self, tmp_path, cfg_path):
        out_dir = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "13",
                     "--set", "n_pulses=40961"])
        assert code == 0
        tag_paths = sorted(out_dir.glob("tags_*.zht"))
        assert [p.name for p in tag_paths] == [f"tags_{i:03d}.zht" for i in range(13)]
        rows = read_csv(out_dir / "rates.csv")
        assert len(rows) == 13
        delays = [float(r["delta_t"]) for r in rows]
        assert delays[0] == -3e-13 and delays[-1] == 3e-13

        fits = {json.loads(l)["series"]: json.loads(l)
                for l in (out_dir / "fits.jsonl").read_text().splitlines()}
        her = fits["heralded_rate"]
        assert her["n_points"] == 13
        assert her["b"] > 0
        expected_cwr = cwr_approx(0.8, 0.8, 0.9)
        assert abs(her["cwr"] - expected_cwr) < 4 * her["cwr_err"]

        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        assert manifest["config"]["scan_delays"] == delays
        for path in tag_paths:
            assert manifest["outputs"][str(path)] == sha256(path)
        assert str(out_dir / "rates.csv") in manifest["outputs"]

    def test_rerun_replaces_every_output(self, tmp_path, cfg_path):
        out_dir = tmp_path / "scan"
        argv = ["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--delays=-1e-13,0,1e-13", "--set", "n_pulses=5121"]
        assert main(argv) == 0
        first = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert main(argv + ["--set", "seed=8"]) == 0
        second = {path.name: path.read_bytes() for path in out_dir.iterdir()}
        assert sorted(second) == sorted(first)
        assert not any(name.endswith(".tmp") for name in second)
        assert second["tags_000.zht"] != first["tags_000.zht"]
        manifest = json.loads(second["scan_manifest.json"])
        for path, digest in manifest["outputs"].items():
            assert digest == sha256(Path(path))

    def test_scan_is_deterministic_across_directories(self, tmp_path, cfg_path):
        kwargs = ["--config", str(cfg_path), "--delays=-1e-13,0,1e-13",
                  "--set", "n_pulses=5121"]
        main(["scan", "--out-dir", str(tmp_path / "one")] + kwargs)
        main(["scan", "--out-dir", str(tmp_path / "two")] + kwargs)
        for name in ("tags_000.zht", "tags_001.zht", "tags_002.zht", "rates.csv"):
            assert sha256(tmp_path / "one" / name) == sha256(tmp_path / "two" / name)

    def test_scan_outputs_are_pinned(self, tmp_path, cfg_path):
        """SHA-256 of every scan output. Streaming the delays one at a
        time changed no byte of them; every pin was recomputed when each
        emitted pair came to be drawn from one uniform over the joint
        class table of its photons and click candidates (same law, new
        streams). The tag files moved to format version 2 with the same
        streams: each one's version 1 encoding (v1_bytes) keeps its old
        pin, and read_tags rejects it. fits.jsonl holds the shared-shape
        scan fit and goes through LAPACK, so its pin assumes the same
        numpy build."""
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "7",
                     "--set", "n_pulses=40961", "--set", "dark_prob2=1e-3"]) == 0
        pins = {
            "fits.jsonl": "4a67e75a775a4a3187b231cfebbff0ed3b51e113c77b66d3ab13bdbdcbe413b0",
            "rates.csv": "e7d6ab630a81b14cd572499604be4d44d225fdb454c51c315203fb643c95e66d",
            "tags_000.zht": "23df519e151afd4c92f933481444fcace884f377cca39307853ab49c7b617add",
            "tags_001.zht": "7ee35ab97073b18057891e11c56c535c3c560c5e71d3df640dbae82b36da8c57",
            "tags_002.zht": "1929921a767fd643e348df7e5fb02162033ef7d0140e0ccb512f795e3b1812c3",
            "tags_003.zht": "962656a08e2c752dbf95ec59219cb8f4cc3668878ad435cc3430352af7c21ca1",
            "tags_004.zht": "d91a0afec986fbc8e491cbbab7e478f5f16668863f4a33b11e5638fac16b9637",
            "tags_005.zht": "9de62014e252d6c05a4578e0111e759fb5a88c10907adc99867a185796b25f78",
            "tags_006.zht": "17a247424d1da52bcab50107e3db308f6556b8f58c73a017088616b9dd1189ec",
        }
        v1_pins = {
            "tags_000.zht": "e84d7fbb18ba6f86ec8d3ad00f8f099b006a577a6cf4ac58174b787cb6473c58",
            "tags_001.zht": "1c56cb846d188a33051c873cbc17b0d3a4698bd7c368e65059b35490e7a3dcbf",
            "tags_002.zht": "a0dee4c411aa9f105f407288e444a643b942090485840205e5baa1fd3993e276",
            "tags_003.zht": "9ed7ef5830893074b53a0101d617352b70af2b8f7203dc07c46ba1a35dfa284c",
            "tags_004.zht": "c6c31420e5eb9e20c21084c0d960be5e6b1fdfb704c97e9b5d1affd56317ce4d",
            "tags_005.zht": "6c7d1200739a8531e9bde705b0b2d0458771b9e0bc4453756392930d3481efab",
            "tags_006.zht": "4ee273fa8ac4925c5e454bbba9830c68142054f4ee28b682fc757a044126a338",
        }
        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        assert manifest["outputs"] == {str(out_dir / name): pin for name, pin in pins.items()}
        for name, pin in pins.items():
            assert sha256(out_dir / name) == pin, name
        for name, pin in v1_pins.items():
            stream = tags.read_tags(out_dir / name)
            v1 = v1_bytes(stream)
            assert hashlib.sha256(v1).hexdigest() == pin, name
            with pytest.raises(FormatError, match="^unsupported format version 1$"):
                tags.read_tags(io.BytesIO(v1))

    def test_gate_defaults_to_the_config_gate_window(self, tmp_path, cfg_path):
        scan = ["scan", "--config", str(cfg_path), "--delays=0",
                "--set", "n_pulses=5121", "--set", "gate_window=1e-9",
                "--set", "out_gate_dark_rate=1e7"]
        main(scan + ["--out-dir", str(tmp_path / "auto")])
        main(scan + ["--out-dir", str(tmp_path / "flag"), "--gate", "1e-9"])
        main(scan + ["--out-dir", str(tmp_path / "wide"), "--gate", "2e-9"])
        auto = read_csv(tmp_path / "auto" / "rates.csv")
        assert auto == read_csv(tmp_path / "flag" / "rates.csv")
        assert auto != read_csv(tmp_path / "wide" / "rates.csv")

    def test_manifest_records_the_reduction_settings(self, tmp_path, cfg_path):
        # the gate and the dead window both shape rates.csv
        scan = ["scan", "--config", str(cfg_path), "--delays=0",
                "--set", "n_pulses=5121", "--set", "gate_window=1e-9"]
        assert main(scan + ["--out-dir", str(tmp_path / "auto")]) == 0
        assert main(scan + ["--out-dir", str(tmp_path / "flags"),
                            "--gate", "2e-9", "--dead-pulses", "3"]) == 0
        for name, gate, dead_pulses in (("auto", 1e-9, 5), ("flags", 2e-9, 3)):
            config = json.loads((tmp_path / name / "scan_manifest.json").read_text())["config"]
            assert (config["scan_gate"], config["scan_dead_pulses"]) == (gate, dead_pulses)

    def test_non_finite_delay_fails_before_simulating(self, tmp_path, cfg_path, capsys):
        # "nan,0" used to write a nan row with no clicks at all
        out_dir = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--delays", "nan,0"])
        assert code == 3
        assert "--delays entries must be finite" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--points", "-2"], "--points must be at least 1, got -2"),
        (["--gate", "-1"], "timebins must sit in (0, period 123.0)"),
        (["--gate", "1e-8"], "timebins must sit in (0, period 123.0)"),
        (["--dead-pulses", "-1"], "dead_pulses must be a non-negative integer, got -1"),
    ])
    def test_bad_grid_gate_or_dead_window_fails_before_writing(
            self, tmp_path, cfg_path, capsys, flags, message):
        # these used to simulate and write the first delay's tag file,
        # or end in a traceback, before failing
        out_dir = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "1e-13", *flags])
        assert code == 3
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    def test_shorter_scan_leaves_no_older_fits_file(self, tmp_path, cfg_path, capsys):
        # a 3-point scan used to keep the 7-point scan's fits.jsonl
        out_dir = tmp_path / "scan"
        scan = ["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--span", "3e-13", "--set", "n_pulses=40961", "--points"]
        assert main(scan + ["7"]) == 0
        assert (out_dir / "fits.jsonl").exists()
        capsys.readouterr()
        assert main(scan + ["3"]) == 0
        assert capsys.readouterr().err == ("note: scan fit skipped: fit needs at least 5 delays\n"
                                           "note: removed 4 tag files of a longer scan\n")
        assert not (out_dir / "fits.jsonl").exists()
        assert len(read_csv(out_dir / "rates.csv")) == 3

    def test_shorter_scan_leaves_no_older_tag_files(self, tmp_path, cfg_path):
        # a 3-point scan used to keep tags_003.zht to tags_006.zht of the
        # 7-point scan, which `compare scan/tags_*.zht` then read
        out_dir = tmp_path / "scan"
        scan = ["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                "--span", "3e-13", "--set", "n_pulses=40961", "--points"]
        assert main(scan + ["7"]) == 0
        # not named as a scan names a tag file, or not a regular file: kept
        kept = ["tags_7.zht", "tags_0008.zht", "tags_009.csv", "tags_x.zht", "elsewhere.zht"]
        for name in kept:
            (out_dir / name).write_bytes(b"")
        (out_dir / "tags_010.zht").mkdir()
        os.mkfifo(out_dir / "tags_011.zht")
        (out_dir / "tags_012.zht").symlink_to(out_dir / "elsewhere.zht")  # the link goes
        assert main(scan + ["3"]) == 0
        assert sorted(path.name for path in out_dir.iterdir()) == sorted(
            ["tags_000.zht", "tags_001.zht", "tags_002.zht", "rates.csv",
             "scan_manifest.json", *kept, "tags_010.zht", "tags_011.zht"])
        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        assert sorted(Path(path).name for path in manifest["outputs"]) == [
            "rates.csv", "tags_000.zht", "tags_001.zht", "tags_002.zht"]

    @pytest.mark.parametrize("n_pulses, code", [("400", 3), ("512", 3), ("513", 0)])
    def test_each_run_needs_two_reference_tags(self, tmp_path, cfg_path, capsys,
                                               n_pulses, code):
        # n_pulses 400 under divider 512 used to write tags_000.zht, then exit 4
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--delays=0", "--set", f"n_pulses={n_pulses}"]) == code
        if code:
            assert (f"error: n_pulses {n_pulses} must exceed divider 512"
                    in capsys.readouterr().err)
            assert not out_dir.exists()

    def test_one_point_scan_sits_at_zero_delay(self, tmp_path, cfg_path):
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "1e-13", "--points", "1"]) == 0
        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        assert manifest["config"]["scan_delays"] == [0.0]
        assert [float(row["delta_t"]) for row in read_csv(out_dir / "rates.csv")] == [0.0]

    def test_scan_builds_one_grid(self, tmp_path, cfg_path, monkeypatch):
        build, grids = sim_mod._reference_grid, []

        def counted(cfg):
            grids.append(build(cfg))
            return grids[-1]

        monkeypatch.setattr(sim_mod, "_reference_grid", counted)
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "5", "--set", "n_pulses=5121"]) == 0
        assert len(grids) == 1 and not grids[0].flags.writeable
        assert len(read_csv(out_dir / "rates.csv")) == 5

    def test_failed_fit_is_skipped_with_a_note(self, tmp_path, cfg_path, capsys, monkeypatch):
        def no_fit(summaries):
            raise FitConvergenceError("baseline went negative")

        monkeypatch.setattr(analysis, "scan_fit", no_fit)
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "5", "--set", "n_pulses=5121"]) == 0
        assert "note: scan fit skipped: baseline went negative" in capsys.readouterr().err
        assert len(read_csv(out_dir / "rates.csv")) == 5
        assert not (out_dir / "fits.jsonl").exists()
        manifest = json.loads((out_dir / "scan_manifest.json").read_text())
        assert str(out_dir / "fits.jsonl") not in manifest["outputs"]

    def test_scan_needs_a_grid(self, tmp_path, cfg_path, capsys):
        code = main(["scan", "--config", str(cfg_path),
                     "--out-dir", str(tmp_path / "scan")])
        assert code == 3
        assert "--delays or --span" in capsys.readouterr().err

    def test_delays_and_span_together_fail_before_writing(self, tmp_path, cfg_path, capsys):
        # --span used to be dropped: a 2-point scan of the delays ran and skipped its fit
        out_dir = tmp_path / "scan"
        code = main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--delays", "0,1e-13", "--span", "3e-13", "--points", "7"])
        assert code == 3
        assert capsys.readouterr() == ("", "error: scan needs --delays or --span, not both\n")
        assert not out_dir.exists()


class TestCompareCommand:
    def test_matching_config_scores_small(self, tmp_path, cfg_path, capsys):
        out = tmp_path / "run.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        code = main(["compare", str(out), "--config", str(cfg_path),
                     "--out", str(tmp_path / "cmp.jsonl")])
        assert code == 0
        err = capsys.readouterr().err
        assert "largest |z|" in err
        worst = float(err.rsplit("=", 1)[1])
        assert worst < 5.0
        report = json.loads((tmp_path / "cmp.jsonl").read_text().splitlines()[0])
        assert report["nu"] == pytest.approx(0.9)

    def test_wrong_efficiency_scores_large(self, tmp_path, capsys):
        big = tmp_path / "big.cfg"
        big.write_text(CONFIG.replace("n_pulses = 20481", "n_pulses = 81921"))
        out = tmp_path / "run.zht"
        main(["simulate", "--config", str(big), "--out", str(out)])
        wrong = tmp_path / "wrong.cfg"
        wrong.write_text(big.read_text().replace("eta1 = 0.8", "eta1 = 0.3"))
        code = main(["compare", str(out), "--config", str(wrong),
                     "--out", str(tmp_path / "cmp.jsonl")])
        assert code == 0
        report = json.loads((tmp_path / "cmp.jsonl").read_text().splitlines()[0])
        assert report["z"]["singles1"] > 5.0

    def test_gate_defaults_to_the_config_gate_window(self, tmp_path):
        # compare used to gate at 2e-9 whatever the config's gate_window
        narrow = tmp_path / "narrow.cfg"
        narrow.write_text(CONFIG.replace("out_gate_dark_rate = 0", "out_gate_dark_rate = 1e7")
                          + "gate_window = 1e-9\n")
        run = tmp_path / "run.zht"
        assert main(["simulate", "--config", str(narrow), "--out", str(run),
                     "--set", "n_pulses=5121"]) == 0
        reports = {}
        for name, gate in (("auto", []), ("flag", ["--gate", "1e-9"]), ("wide", ["--gate", "2e-9"])):
            out = tmp_path / f"{name}.jsonl"
            assert main(["compare", str(run), "--config", str(narrow), "--out", str(out),
                         *gate]) == 0
            reports[name] = json.loads(out.read_text())
        assert reports["auto"] == reports["flag"]
        assert reports["auto"]["measured"] != reports["wide"]["measured"]


class TestUnwritableOutputs:
    """An output path in a missing directory is a typed error naming the
    path (exit 3), raised before the work rather than as a traceback."""

    @pytest.fixture
    def tag_file(self, tmp_path, cfg_path):
        out = tmp_path / "run.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        return out

    @pytest.mark.parametrize("command", [
        ["model", "--eta1p", "0.1", "--eta2p", "0.1", "--out", "{bad}"],
        ["simulate", "--config", "{cfg}", "--out", "{bad}"],
        ["analyze", "{tags}", "--rates-out", "{bad}"],
        ["analyze", "{tags}", "--fits-out", "{bad}"],
        ["compare", "{tags}", "--config", "{cfg}", "--out", "{bad}"],
        ["scan", "--config", "{cfg}", "--out-dir", "{tags}/sub", "--span", "1e-13"],
    ], ids=["model", "simulate", "analyze-rates", "analyze-fits", "compare", "scan"])
    def test_missing_directory(self, tmp_path, cfg_path, tag_file, capsys, command):
        bad = tmp_path / "missing" / "out.txt"
        argv = [arg.format(bad=bad, cfg=cfg_path, tags=tag_file) for arg in command]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert (str(bad) if command[0] != "scan" else f"{tag_file}/sub") in err
        assert not bad.parent.exists()

    @pytest.mark.parametrize("command, blocked", [
        (["simulate", "--config", "{cfg}", "--out", "{tmp}/out.zht"], "out.zht"),
        (["simulate", "--config", "{cfg}", "--out", "{tmp}/out.zht"], "out.zht.manifest.json"),
        (["analyze", "{tags}", "--rates-out", "{tmp}/rates.csv"], "rates.csv"),
        (["analyze", "{tags}", "--fits-out", "{tmp}/fits.jsonl"], "fits.jsonl"),
        (["compare", "{tags}", "--config", "{cfg}", "--out", "{tmp}/cmp.jsonl"], "cmp.jsonl"),
        (["scan", "--config", "{cfg}", "--out-dir", "{tmp}/scan", "--span", "1e-13"],
         "scan/rates.csv"),
    ], ids=["simulate", "simulate-manifest", "analyze-rates", "analyze-fits", "compare", "scan"])
    def test_directory_in_place_of_an_output_fails_before_the_work(
            self, tmp_path, cfg_path, tag_file, capsys, monkeypatch, command, blocked):
        for module, name in ((sim_mod, "run_simulation"), (sim_mod, "_scan"),
                             (analysis, "scan_rates")):
            monkeypatch.setattr(module, name, no_work)
        (tmp_path / blocked).mkdir(parents=True)
        argv = [arg.format(tmp=tmp_path, cfg=cfg_path, tags=tag_file) for arg in command]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path / blocked}: it is a directory\n")

    @pytest.mark.parametrize("link", [False, True], ids=["one path", "symlink"])
    def test_two_outputs_to_one_file_fail_before_the_work(
            self, tmp_path, tag_file, capsys, monkeypatch, link):
        # the fits used to replace the rate CSV without a word
        monkeypatch.setattr(analysis, "scan_rates", no_work)
        rates, fits = tmp_path / "out.txt", tmp_path / ("link.txt" if link else "out.txt")
        if link:
            fits.symlink_to(rates)
        assert main(["analyze", str(tag_file), "--rates-out", str(rates),
                     "--fits-out", str(fits)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {fits}: it is the same file as {rates}\n")
        assert not rates.exists()

    @pytest.mark.parametrize("command, replaced", [
        (["analyze", "{tags}", "--rates-out", "{out}"], "tags"),
        (["analyze", "{tags}", "--fits-out", "{out}"], "tags"),
        (["compare", "{tags}", "--config", "{cfg}", "--out", "{out}"], "tags"),
        (["compare", "{tags}", "--config", "{cfg}", "--out", "{out}"], "cfg"),
        (["simulate", "--config", "{cfg}", "--out", "{out}"], "cfg"),
    ], ids=["analyze-rates", "analyze-fits", "compare-tags", "compare-config", "simulate"])
    @pytest.mark.parametrize("link", [False, True], ids=["one path", "symlink"])
    def test_an_output_may_not_replace_an_input(
            self, tmp_path, cfg_path, tag_file, capsys, monkeypatch, command, replaced, link):
        # analyze a.zht --rates-out a.zht used to replace the tag file with
        # the rate CSV, and simulate --out c.cfg the config it recorded
        for module, name in ((sim_mod, "run_simulation"), (analysis, "scan_rates")):
            monkeypatch.setattr(module, name, no_work)
        target = {"tags": tag_file, "cfg": cfg_path}[replaced]
        out, before = tmp_path / "link" if link else target, target.read_bytes()
        if link:
            out.symlink_to(target)
        assert main([arg.format(tags=tag_file, cfg=cfg_path, out=out) for arg in command]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {out}: it is the same file as the input {target}\n")
        assert target.read_bytes() == before

    @pytest.mark.parametrize("link", [False, True], ids=["one path", "symlink"])
    def test_scan_may_not_replace_its_config(self, tmp_path, cfg_path, capsys, monkeypatch,
                                             link):
        monkeypatch.setattr(sim_mod, "_scan", no_work)
        out_dir = tmp_path / "scan"
        out_dir.mkdir()
        rates = out_dir / "rates.csv"
        if link:
            rates.symlink_to(cfg_path)
        else:
            rates.write_text(CONFIG)
        config = cfg_path if link else rates
        assert main(["scan", "--config", str(config), "--out-dir", str(out_dir),
                     "--span", "1e-13"]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot write {rates}: it is the same file as the input {config}\n")
        assert config.read_text() == CONFIG

    def test_unwritable_scan_tag_file_is_named_once(self, tmp_path, cfg_path, capsys):
        out_dir = tmp_path / "scan"
        blocked = out_dir / "tags_001.zht"
        blocked.mkdir(parents=True)
        code = main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--delays", "0,1e-13"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocked}: ")
        assert err.count(str(blocked)) == 1


def no_work(*args):
    raise AssertionError("the work started")


class TestFailingFileIsNamed:
    """A failure in one tag file of analyze or compare exits with its
    error group's code and names that file, once, on stderr."""

    # each fault the second file carries, and the exit code it gives
    FAULTS = {"glitch": 4, "one_ref": 4, "wide_gate": 3, "no_herald": 5}

    @pytest.fixture
    def ok(self, tmp_path, cfg_path):
        out = tmp_path / "ok.zht"
        main(["simulate", "--config", str(cfg_path), "--out", str(out)])
        return out

    @staticmethod
    def faulty(tmp_path, ok, fault):
        """A tag file of ok's period with one fault; the wide gate is a
        pulse train of 20 timebins, under the 2 ns gate's 24.7."""
        path = tmp_path / f"{fault}.zht"
        if fault == "no_herald":
            cfg = tmp_path / "dark.cfg"
            cfg.write_text(CONFIG.replace("gamma = 5e-3", "gamma = 0") + "dark_prob1 = 1\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(path)]) == 0
            return path
        stream = tags.read_tags(ok)
        refs = stream.refs.copy()
        if fault == "glitch":
            refs[10:] += 1000  # gap 9 is 1000 timebins long, over the 256 allowed
        elif fault == "one_ref":
            refs = refs[:1]
        else:
            refs = np.arange(refs.size, dtype=np.uint64) * np.uint64(20 * stream.divider)
        tags.write_tags(tags.TagStream(stream.timebin_ps, stream.rep_period_ps,
                                       stream.divider, refs, stream.d1, stream.d2), path)
        return path

    @pytest.mark.parametrize("fault", FAULTS)
    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_second_file_is_named_once(self, tmp_path, cfg_path, ok, capsys, command, fault):
        bad = self.faulty(tmp_path, ok, fault)
        flags = (["--rates-out"] if command == "analyze"
                 else ["--config", str(cfg_path), "--out"])
        capsys.readouterr()
        code = main([command, str(ok), str(bad), "--delays", "0,1e-13",
                     *flags, str(tmp_path / "out.txt")])
        assert code == self.FAULTS[fault]
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count(str(bad)) == 1 and str(ok) not in err

    def test_compare_names_the_file_the_model_fails_on(self, tmp_path, ok, capsys):
        cfg = tmp_path / "table.cfg"
        cfg.write_text(CONFIG.replace("nu_max = 0.9\ntau = 1e-13\n", (
            "profile_shape = tabulated\n"
            "profile_delays = -1e-13, 0, 1e-13\n"
            "profile_values = 0, 0.9, 0\n")))
        other = tmp_path / "other.zht"
        other.write_bytes(ok.read_bytes())
        code = main(["compare", str(ok), str(other), "--delays", "0,5e-13",
                     "--config", str(cfg), "--out", str(tmp_path / "cmp.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {other}: delay outside the tabulated profile range")
        assert err.count(str(other)) == 1

    def test_named_error_keeps_its_class_and_attributes(self, tmp_path, ok):
        bad = self.faulty(tmp_path, ok, "glitch")
        with pytest.raises(ClockGlitchError) as direct:
            reconstruct_pulse_train(tags.read_tags(bad))
        names = [str(ok), str(bad)]
        with pytest.raises(ClockGlitchError) as named:
            analysis.scan_rates(map(tags.read_tags, names), [0.0, 1e-13], 2e-9, 5, names)
        assert named.value.indices == direct.value.indices == (9,)
        assert str(named.value) == f"{bad}: {direct.value}"


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


@pytest.mark.parametrize("error", [ZeroHeraldError, *all_subclasses(ZeroHeraldError)],
                         ids=lambda error: error.__name__)
def test_each_error_exits_with_its_group_code(monkeypatch, capsys, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_model", fail)
    group = (4 if issubclass(error, (FormatError, IntegrityError))
             else 5 if issubclass(error, NumericalError) else 3)
    assert error.exit_code == group
    assert main(["model", "--eta1p", "0.1", "--eta2p", "0.1"]) == group
    assert capsys.readouterr().err == "error: boom\n"


class TestOneStreamAtATime:
    """analyze and compare read and reduce one tag file at a time, so
    four files peak at about the allocation of one."""

    @pytest.fixture(scope="class")
    def paper_files(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("paper")
        cfg = tmp / "paper.cfg"
        cfg.write_text(PAPER_CONFIG)
        files = [tmp / f"tags_{seed}.zht" for seed in range(4)]
        for seed, path in enumerate(files):
            assert main(["simulate", "--config", str(cfg), "--out", str(path),
                         "--set", f"seed={seed}"]) == 0
        return cfg, [str(path) for path in files]

    @pytest.mark.parametrize("command", ["analyze", "compare"])
    def test_four_files_peak_near_one(self, tmp_path, paper_files, command):
        cfg, files = paper_files
        flags = ["--rates-out"] if command == "analyze" else ["--config", str(cfg), "--out"]

        def peak(paths):
            argv = [command, *paths, "--delays", ",".join("0" * len(paths)),
                    *flags, str(tmp_path / "out.txt")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, four = peak(files[:1]), peak(files)
        assert four <= 1.2 * one, f"one file {one / 1e6:.1f} MB, four {four / 1e6:.1f} MB"
