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
import tracemalloc

import pytest

from zeroherald import analysis, tags
from zeroherald import sim as sim_mod
from zeroherald.analysis import compute_rates
from zeroherald.cli import main
from zeroherald.errors import FitConvergenceError
from zeroherald.model import cwr_approx
from zeroherald.pipeline import table_from_stream

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
        assert str(slow) in err and "repetition period" in err
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
        streams). fits.jsonl holds the shared-shape scan fit and goes
        through LAPACK, so its pin assumes the same numpy build."""
        out_dir = tmp_path / "scan"
        assert main(["scan", "--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--span", "3e-13", "--points", "7",
                     "--set", "n_pulses=40961", "--set", "dark_prob2=1e-3"]) == 0
        pins = {
            "fits.jsonl": "4a67e75a775a4a3187b231cfebbff0ed3b51e113c77b66d3ab13bdbdcbe413b0",
            "rates.csv": "e7d6ab630a81b14cd572499604be4d44d225fdb454c51c315203fb643c95e66d",
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
