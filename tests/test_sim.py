"""Monte Carlo engine tests.

Statistical checks compare empirical frequencies to the closed-form
probabilities at 5 sigma, so a false failure needs a one-in-millions
fluctuation on the frozen seeds used here.
"""

import dataclasses
import hashlib
import io
import math

import numpy as np
import pytest

from zeroherald import (
    DetectorParams,
    IndistinguishabilityProfile,
    SimConfig,
    SourceParams,
    output_distribution,
    run_simulation,
    scan_delays,
)
from zeroherald.errors import CapacityError, ValidationError
from zeroherald.pipeline import PulseState, table_from_stream
from zeroherald.sim import (
    DeadState,
    derive_delay_seed,
    detect_pulse,
    sample_trial,
)
from zeroherald.tags import Channel, write_tags

SRC = SourceParams(gamma=0.3, kappa1=0.7, kappa2=0.55)
NU = 0.41


def config(**kw):
    kw.setdefault("source", SourceParams(gamma=5e-3, kappa1=1.0, kappa2=1.0))
    kw.setdefault("det1", DetectorParams(eta=0.8))
    kw.setdefault("det2", DetectorParams(eta=0.8))
    kw.setdefault("profile", IndistinguishabilityProfile(nu_max=0.9, tau=1e-13))
    kw.setdefault("n_pulses", 512 * 20 + 1)
    kw.setdefault("seed", 42)
    kw.setdefault("out_gate_dark_rate", 0.0)
    return SimConfig(**kw)


def binomial_z(count, n, p):
    sd = math.sqrt(max(n * p * (1 - p), 1e-300))
    return (count - n * p) / sd


class TestSampleTrial:
    def test_matches_output_distribution(self):
        rng = np.random.default_rng(1)
        n = 200_000
        counts = {}
        for _ in range(n):
            out = sample_trial(rng, SRC, NU)
            counts[out] = counts.get(out, 0) + 1
        expected = output_distribution(SRC, NU).as_dict()
        for key, p in expected.items():
            got = counts.get((int(key[1]), int(key[2])), 0)
            assert abs(binomial_z(got, n, p)) < 5, key

    def test_silent_source_emits_nothing(self):
        rng = np.random.default_rng(2)
        src = SourceParams(gamma=0.0, kappa1=1.0, kappa2=1.0)
        assert all(sample_trial(rng, src, 0.5) == (0, 0) for _ in range(100))

    def test_perfect_interference_never_splits(self):
        rng = np.random.default_rng(3)
        src = SourceParams(gamma=1.0, kappa1=1.0, kappa2=1.0)
        outcomes = {sample_trial(rng, src, 1.0) for _ in range(5000)}
        assert (1, 1) not in outcomes
        assert outcomes == {(2, 0), (0, 2)}


class TestDetectPulse:
    def test_dead_detector_ignores_photons(self):
        state = DeadState(dead_remaining=2)
        rng = np.random.default_rng(4)
        det = DetectorParams(eta=1.0, dead_pulses=3)
        assert detect_pulse(rng, 5, det, state) is False
        assert state.dead_remaining == 1

    def test_click_probability_two_photons(self):
        rng = np.random.default_rng(5)
        det = DetectorParams(eta=0.5)
        n = 50_000
        hits = sum(
            detect_pulse(rng, 2, det, DeadState()) for _ in range(n)
        )
        assert abs(binomial_z(hits, n, 0.75)) < 5

    def test_dark_clicks_without_photons(self):
        rng = np.random.default_rng(6)
        det = DetectorParams(eta=0.5, dark_prob=0.25)
        n = 50_000
        hits = sum(
            detect_pulse(rng, 0, det, DeadState()) for _ in range(n)
        )
        assert abs(binomial_z(hits, n, 0.25)) < 5

    def test_click_arms_dead_window(self):
        rng = np.random.default_rng(7)
        det = DetectorParams(eta=1.0, dead_pulses=4)
        state = DeadState()
        assert detect_pulse(rng, 1, det, state) is True
        assert state.dead_remaining == 4

    def test_pending_afterpulse_fires_on_live_pulse(self):
        rng = np.random.default_rng(8)
        det = DetectorParams(eta=0.0, afterpulse_prob=0.0)
        state = DeadState(afterpulse_pending=True)
        assert detect_pulse(rng, 0, det, state) is True
        assert state.afterpulse_pending is False

    def test_every_click_can_rearm(self):
        rng = np.random.default_rng(9)
        det = DetectorParams(eta=1.0, afterpulse_prob=1.0)
        state = DeadState()
        detect_pulse(rng, 1, det, state)
        assert state.afterpulse_pending is True


class TestDeterminism:
    def test_identical_configs_identical_streams(self):
        a = run_simulation(config())
        b = run_simulation(config())
        assert a.stream == b.stream
        np.testing.assert_array_equal(a.truth.pair_pulses, b.truth.pair_pulses)

    def test_seed_changes_stream(self):
        a = run_simulation(config(seed=42))
        b = run_simulation(config(seed=43))
        assert a.stream != b.stream

    def test_sharded_run_is_deterministic(self):
        a = run_simulation(config(n_shards=4))
        b = run_simulation(config(n_shards=4))
        assert a.stream == b.stream

    def test_shard_counts_consistent_with_single_shard(self):
        one = run_simulation(config(n_pulses=512 * 100 + 1))
        four = run_simulation(config(n_pulses=512 * 100 + 1, n_shards=4))
        c1 = one.truth.clicks1.size
        c4 = four.truth.clicks1.size
        assert abs(c1 - c4) < 5 * math.sqrt(c1 + c4 + 1)


class TestGoldenStreams:
    """SHA-256 of the binary tag file of two small fixed-seed runs.

    The pins were computed before the no-afterpulse path of the detector
    walk moved to the dead-time thinning it shares with the pipeline,
    so they show that the move (and any later one) leaves every stream
    bit-identical. Both runs are busy (about one click in ten pulses at
    dead length 4), so dead-time chains and same-pulse candidates occur.
    """

    @staticmethod
    def busy_config(afterpulse_prob, jitter_sigma, seed):
        det = dict(dark_prob=1e-3, afterpulse_prob=afterpulse_prob, dead_pulses=4)
        return SimConfig(
            source=SourceParams(gamma=0.2, kappa1=0.8, kappa2=0.8),
            det1=DetectorParams(eta=0.6, **det),
            det2=DetectorParams(eta=0.5, **det),
            profile=IndistinguishabilityProfile(nu_max=0.9, tau=100e-15),
            n_pulses=200_000,
            seed=seed,
            jitter_sigma=jitter_sigma,
        )

    @pytest.mark.parametrize("afterpulse_prob, jitter_sigma, seed, n_tags, digest", [
        (0.0, 0.0, 11, 22209,
         "d80892ed057e33065beb0e091f222a2a3559379b9fc7ad81e58fff5d307e6ceb"),
        (0.1, 30e-12, 12, 24061,
         "b06b6fe1510c14e3c46ea6e9578f543b0b733628b88adb65d74327bd5dc7c80c"),
    ])
    def test_stream_digest(self, afterpulse_prob, jitter_sigma, seed, n_tags, digest):
        res = run_simulation(self.busy_config(afterpulse_prob, jitter_sigma, seed))
        buf = io.BytesIO()
        write_tags(res.stream, buf)
        assert len(res.stream) == n_tags
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest


class TestStreamShape:
    def test_reference_cadence(self):
        res = run_simulation(config(n_pulses=1024))
        refs = res.stream.channel_timestamps(Channel.REF)
        assert refs.size == 2
        period_tb = res.config.period_tb
        np.testing.assert_array_equal(refs, [0, 512 * period_tb])

    def test_detector_stamps_sit_in_their_gates(self):
        res = run_simulation(config())
        period_tb = res.config.period_tb
        window_tb = res.config.window_tb
        for ch, ingate in (
            (Channel.D1, res.truth.ingate_clicks1),
            (Channel.D2, res.truth.ingate_clicks2),
        ):
            t = res.stream.channel_timestamps(ch).astype(np.int64)
            offsets = t - (t // period_tb) * period_tb
            assert np.all(offsets < window_tb) == (
                t.size == ingate.size
            )

    def test_truth_photons_dense_view(self):
        res = run_simulation(config())
        dense = res.truth.photons_by_pulse(1, res.config.n_pulses)
        assert dense.sum() == res.truth.m.sum()
        np.testing.assert_array_equal(
            np.flatnonzero(dense), res.truth.pair_pulses[res.truth.m > 0]
        )


class TestTruthMatchesPipeline:
    def test_click_pulses_agree_without_artifacts(self):
        res = run_simulation(config(seed=11))
        _, _, table = table_from_stream(
            res.stream, window=res.config.gate_window, dead_pulses1=0,
            dead_pulses2=0,
        )
        covered = table.n_pulses
        for states, ingate in (
            (table.d1, res.truth.ingate_clicks1),
            (table.d2, res.truth.ingate_clicks2),
        ):
            want = ingate[ingate < covered]
            np.testing.assert_array_equal(
                np.flatnonzero(states == PulseState.CLICK), want
            )

    def test_source_dead_time_spacing(self):
        res = run_simulation(config(
            det1=DetectorParams(eta=0.9, dead_pulses=3),
            source=SourceParams(gamma=0.05, kappa1=1.0, kappa2=1.0),
            seed=12,
        ))
        assert res.truth.clicks1.size > 50
        assert np.all(np.diff(res.truth.clicks1) > 3)

    def test_trailing_pulses_without_reference_cover_are_rejected(self):
        res = run_simulation(config(
            n_pulses=1024,
            source=SourceParams(gamma=0.05, kappa1=1.0, kappa2=1.0),
            seed=13,
        ))
        grid, gate, _ = table_from_stream(
            res.stream, window=res.config.gate_window, dead_pulses1=0,
            dead_pulses2=0,
        )
        assert grid.n_pulses == 513
        tail = res.truth.ingate_clicks1[res.truth.ingate_clicks1 > 512]
        assert gate.n_rejected[Channel.D1] == tail.size


class TestDarkCounts:
    def test_ingate_dark_rate(self):
        n = 200_000
        res = run_simulation(config(
            source=SourceParams(gamma=0.0, kappa1=1.0, kappa2=1.0),
            det1=DetectorParams(eta=0.8, dark_prob=2e-3),
            n_pulses=n, seed=14,
        ))
        assert res.truth.pair_pulses.size == 0
        z = binomial_z(res.truth.clicks1.size, n, 2e-3)
        assert abs(z) < 5
        # every dark tag lies inside the gate window
        assert res.truth.ingate_clicks1.size == res.truth.clicks1.size

    def test_out_of_gate_darks_rejected_by_gate(self):
        n = 200_000
        cfg = config(
            source=SourceParams(gamma=0.0, kappa1=1.0, kappa2=1.0),
            out_gate_dark_rate=5e5,
            n_pulses=n, seed=15,
        )
        res = run_simulation(cfg)
        n_og = res.truth.clicks1.size - res.truth.ingate_clicks1.size
        assert abs(binomial_z(n_og, n, cfg.p_out_gate_dark)) < 5
        _, gate, table = table_from_stream(
            res.stream, window=cfg.gate_window, dead_pulses1=0,
            dead_pulses2=0,
        )
        assert np.all(table.d1 != PulseState.CLICK)
        assert gate.n_rejected[Channel.D1] >= n_og * 0.9


class TestAfterpulsing:
    def test_lag_spectrum_peaks_at_first_live_pulse(self):
        res = run_simulation(config(
            source=SourceParams(gamma=0.02, kappa1=1.0, kappa2=1.0),
            det1=DetectorParams(eta=0.9, dead_pulses=2, afterpulse_prob=0.4),
            n_pulses=512 * 400 + 1, seed=16,
        ))
        lags = np.diff(res.truth.clicks1)
        lag3 = int(np.sum(lags == 3))
        lag4 = int(np.sum(lags == 4))
        assert lag3 > 5 * max(lag4, 1)

    def test_pipeline_dead_extension_suppresses_afterpulses(self):
        res = run_simulation(config(
            source=SourceParams(gamma=0.02, kappa1=1.0, kappa2=1.0),
            det1=DetectorParams(eta=0.9, dead_pulses=2, afterpulse_prob=0.4),
            n_pulses=512 * 400 + 1, seed=16,
        ))
        _, _, table = table_from_stream(
            res.stream, window=res.config.gate_window, dead_pulses1=5,
            dead_pulses2=5,
        )
        clicks = np.flatnonzero(table.d1 == PulseState.CLICK)
        assert np.all(np.diff(clicks) > 5)


class TestScanDelays:
    def test_delay_grid_runs_and_varies_nu(self):
        cfg = config(
            source=SourceParams(gamma=0.05, kappa1=1.0, kappa2=1.0),
            profile=IndistinguishabilityProfile(nu_max=1.0, tau=1e-13),
            n_pulses=2049, seed=17,
        )
        delays = [-2e-13, 0.0, 2e-13]
        out = list(scan_delays(cfg, delays))
        assert [dt for dt, _ in out] == delays
        assert out[1][1].config.nu == pytest.approx(1.0)
        assert out[0][1].config.nu == pytest.approx(math.exp(-4.0))
        seeds = {r.config.seed for _, r in out}
        assert len(seeds) == 3

    def test_derived_seeds_are_stable(self):
        assert derive_delay_seed(17, 0) == derive_delay_seed(17, 0)
        assert derive_delay_seed(17, 0) != derive_delay_seed(17, 1)
        assert derive_delay_seed(17, 0) != derive_delay_seed(18, 0)


class TestValidation:
    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            config(n_pulses=4 * 10**16)

    def test_jitter_bounded_by_window(self):
        with pytest.raises(ValidationError):
            config(jitter_sigma=1e-9)
        config(jitter_sigma=0.5e-9)  # a quarter of the 2 ns gate is fine

    def test_out_gate_rate_bounded(self):
        with pytest.raises(ValidationError):
            config(out_gate_dark_rate=2e8)

    def test_timebin_must_be_whole_picoseconds(self):
        with pytest.raises(ValidationError):
            config(timebin=80.5e-12)

    def test_positive_pulse_count(self):
        with pytest.raises(ValidationError):
            config(n_pulses=0)


class TestStatisticalEquivalence:
    def test_engine_matches_scalar_walk(self):
        src = SourceParams(gamma=0.02, kappa1=0.7, kappa2=0.55)
        det1 = DetectorParams(eta=0.62, dead_pulses=2, dark_prob=1e-3)
        det2 = DetectorParams(eta=0.48, dead_pulses=2)
        n = 100_000
        prof = IndistinguishabilityProfile(nu_max=NU, tau=1e-13)
        res = run_simulation(config(
            source=src, det1=det1, det2=det2, profile=prof,
            n_pulses=n, seed=18,
        ))

        rng = np.random.default_rng(987654321)
        s1, s2 = DeadState(), DeadState()
        c1 = c2 = cc = 0
        for _ in range(n):
            m, k = sample_trial(rng, src, NU)
            h1 = detect_pulse(rng, m, det1, s1)
            h2 = detect_pulse(rng, k, det2, s2)
            c1 += h1
            c2 += h2
            cc += h1 and h2
        eng1 = res.truth.clicks1.size
        eng2 = res.truth.clicks2.size
        both = np.intersect1d(res.truth.clicks1, res.truth.clicks2).size
        for eng, ref in ((eng1, c1), (eng2, c2), (both, cc)):
            z = (eng - ref) / math.sqrt(max(eng + ref, 1))
            assert abs(z) < 5, (eng, ref)
