"""Monte Carlo engine tests.

Statistical checks compare empirical frequencies to the closed-form
probabilities at 5 sigma, so a false failure needs a one-in-millions
fluctuation on the frozen seeds used here.
"""

import dataclasses
import hashlib
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeroherald import (
    DetectorParams,
    IndistinguishabilityProfile,
    SimConfig,
    SimTruth,
    SourceParams,
    output_distribution,
    run_simulation,
    scan_delays,
)
from zeroherald.errors import CapacityError, ValidationError
from zeroherald.pipeline import table_from_stream
from zeroherald.model import p_noclick_given_n
from zeroherald.sim import (
    _BLOCK,
    MAX_TIMESTAMP,
    _afterpulse_chain,
    _ChannelPlan,
    _class_codes,
    _class_mask,
    _detector_walk,
    _event_pulses,
    _geometric,
    _pair_classes,
    _pair_draws,
    _pair_photons,
    _sorted_stamps,
    delay_configs,
    derive_delay_seed,
)
from zeroherald.tags import _RECORD as RECORD, Channel, TagStream, _record_blocks, write_tags

from dense_oracle import (
    DeadState, DenseTable, PulseState, afterpulse_walk, detect_pulse, sample_trial,
)

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


def enumerated_classes(src, nu, det1, det2):
    """Class probabilities of one emitted pair from sample_trial's branches
    and p_noclick_given_n without darks, keyed by (m, n, hit1, hit2)."""
    k1, k2 = src.kappa1, src.kappa2
    split, upto_d1 = (1.0 - nu) / 2.0, (1.0 - nu) / 2.0 + (1.0 + nu) / 4.0
    lone = k1 * (1.0 - k2) + (1.0 - k1) * k2
    photons = {
        (0, 0): (1.0 - k1) * (1.0 - k2),
        (1, 1): k1 * k2 * split,
        (2, 0): k1 * k2 * (upto_d1 - split),
        (0, 2): k1 * k2 * (1.0 - upto_d1),
        (1, 0): lone * 0.5,
        (0, 1): lone * 0.5,
    }
    quiet1 = dataclasses.replace(det1, dark_prob=0.0)
    quiet2 = dataclasses.replace(det2, dark_prob=0.0)
    out = {}
    for (m, n), p in photons.items():
        for hit1 in (False, True):
            for hit2 in (False, True):
                miss1, miss2 = p_noclick_given_n(quiet1, m), p_noclick_given_n(quiet2, n)
                out[m, n, hit1, hit2] = (p * (1.0 - miss1 if hit1 else miss1)
                                         * (1.0 - miss2 if hit2 else miss2))
    return out


def class_keys(classes):
    return list(zip(classes.m.tolist(), classes.n.tolist(), classes.hit1.tolist(),
                    classes.hit2.tolist()))


# the busy_detectors benchmark point: kappa 0.5, nu_max 0.975 at zero delay
BUSY_SRC = SourceParams(gamma=0.1, kappa1=0.5, kappa2=0.5)
BUSY_NU = 0.975
BUSY_DET1, BUSY_DET2 = DetectorParams(eta=0.32), DetectorParams(eta=0.30)

# (kappa1, kappa2, eta1, eta2, nu); in the last one the last class is
# empty and the cumulative sum before it rounds to 1 - 2**-53
EDGE_POINTS = [
    (kappa1, kappa2, eta1, eta2, nu)
    for kappa1 in (0.0, 0.6, 1.0) for kappa2 in (0.0, 1.0)
    for eta1, eta2 in ((1.0, 1.0), (1.0, 0.0), (0.4, 1.0)) for nu in (0.0, 1.0)
] + [(0.1, 0.1, 0.7, 0.0, 0.0)]


class ScriptedUniforms:
    """Stands in for the generator in _class_codes: fixed uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        assert size == self.u.size
        return self.u


class TestPairClasses:
    """The joint class table of an emitted pair against the scalar law."""

    def test_probabilities_match_the_branches(self):
        points = [(BUSY_SRC, BUSY_NU, BUSY_DET1, BUSY_DET2),
                  (SRC, NU, DetectorParams(eta=0.62, dark_prob=1e-3), DetectorParams(eta=0.48))]
        points += [(SourceParams(gamma=1.0, kappa1=k1, kappa2=k2), nu, DetectorParams(eta=e1),
                    DetectorParams(eta=e2)) for k1, k2, e1, e2, nu in EDGE_POINTS]
        for src, nu, det1, det2 in points:
            classes = _pair_classes(src, nu, det1.eta, det2.eta)
            want = enumerated_classes(src, nu, det1, det2)
            # pair codes in order, D1 candidate outer, D2 inner; no
            # candidate without photons
            assert class_keys(classes) == [
                (m, n, h1, h2) for m, n in ((0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1))
                for h1 in (False, True)[:1 + (m > 0)] for h2 in (False, True)[:1 + (n > 0)]]
            for key, p in zip(class_keys(classes), classes.prob):
                assert abs(p - want.pop(key)) <= 1e-15, (src, nu, det1, det2, key)
            assert all(p == 0.0 for p in want.values())  # candidates without photons
            assert abs(classes.prob.sum() - 1.0) <= 1e-15

    def test_engine_draws_follow_the_table(self):
        # a pair on every pulse, no darks and no dead time: the truth and
        # the clicks name each pair's class, and 1e6 of them are checked
        # by chi-square (12 degrees of freedom; 52.2 is p = 5.7e-7, the
        # two-sided 5-sigma tail)
        n = 10**6
        res = run_simulation(config(
            source=dataclasses.replace(BUSY_SRC, gamma=1.0), det1=BUSY_DET1, det2=BUSY_DET2,
            profile=IndistinguishabilityProfile(nu_max=BUSY_NU, tau=1e-13),
            n_pulses=n, seed=21,
        ))
        truth = res.truth
        assert truth.pair_pulses.size == n
        hit1 = np.zeros(n, dtype=bool)
        hit1[truth.clicks1] = True
        hit2 = np.zeros(n, dtype=bool)
        hit2[truth.clicks2] = True
        classes = _pair_classes(BUSY_SRC, BUSY_NU, BUSY_DET1.eta, BUSY_DET2.eta)
        index = {key: i for i, key in enumerate(class_keys(classes))}
        keys = zip(truth.m.tolist(), truth.n.tolist(), hit1.tolist(), hit2.tolist())
        counts = np.bincount([index[key] for key in keys], minlength=len(index))
        expected = n * classes.prob
        assert np.all(expected > 0)
        assert np.sum((counts - expected) ** 2 / expected) < 52.2

    def test_empty_classes_are_never_drawn(self):
        for kappa1, kappa2, eta1, eta2, nu in EDGE_POINTS:
            src = SourceParams(gamma=1.0, kappa1=kappa1, kappa2=kappa2)
            prob = _pair_classes(src, nu, eta1, eta2).prob
            drawn = _class_codes(np.random.default_rng(22), prob, 10**5)
            assert np.all(prob[np.unique(drawn)] > 0), (kappa1, kappa2, eta1, eta2, nu)
            # the extreme uniforms and both sides of every cumulative edge
            edges = np.cumsum(prob)[:-1]
            u = np.concatenate(([0.0, np.nextafter(1.0, 0.0)], edges, np.nextafter(edges, 0.0)))
            u = u[(u >= 0.0) & (u < 1.0)]
            codes = _class_codes(ScriptedUniforms(u), prob, u.size)
            assert np.all(prob[codes] > 0), (kappa1, kappa2, eta1, eta2, nu)

    def test_a_uniform_picks_the_class_whose_interval_holds_it(self):
        prob = _pair_classes(BUSY_SRC, BUSY_NU, BUSY_DET1.eta, BUSY_DET2.eta).prob
        edges = np.cumsum(prob)[:-1]
        u = np.concatenate(([0.0], edges, np.nextafter(edges, 0.0)))
        want = np.concatenate(([0], np.arange(1, 13), np.arange(12)))
        assert _class_codes(ScriptedUniforms(u), prob, u.size).tolist() == want.tolist()


class TestClassBits:
    """Class flags as bit tests, and the blocked class stage, against
    lookups in the class table."""

    POINTS = [(BUSY_SRC, BUSY_NU, BUSY_DET1.eta, BUSY_DET2.eta), (SRC, NU, 0.62, 0.48)] + [
        (SourceParams(gamma=1.0, kappa1=k1, kappa2=k2), nu, e1, e2)
        for k1, k2, e1, e2, nu in EDGE_POINTS]

    def test_bit_tests_equal_the_table_for_every_code(self):
        codes = np.arange(13, dtype=np.uint8)
        for point in self.POINTS:
            classes = _pair_classes(*point)
            assert classes.prob.size == 13
            for flags in (classes.hit1, classes.hit2):
                bits = np.left_shift(np.uint16(1), codes) & _class_mask(flags)
                assert (bits != 0).tolist() == flags.tolist()
            m, n = _pair_photons(classes, codes)
            assert m.dtype == n.dtype == np.uint8
            assert m.tolist() == classes.m.tolist() and n.tolist() == classes.n.tolist()

    @pytest.mark.parametrize("k", [0, 1, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 7])
    def test_blocked_stage_equals_one_pass_lookups(self, k):
        for seed, point in enumerate(self.POINTS[:4]):
            classes = _pair_classes(*point)
            pulses = np.sort(np.random.default_rng(seed).choice(10 * k + 1, k, replace=False))
            rng, plain = philox(seed), philox(seed)
            code, (hit1, hit2) = _pair_draws(rng, classes, pulses)
            want = _class_codes(plain, classes.prob, k)
            np.testing.assert_array_equal(code, want)
            np.testing.assert_array_equal(hit1, pulses[classes.hit1[want]])
            np.testing.assert_array_equal(hit2, pulses[classes.hit2[want]])
            m, n = _pair_photons(classes, code)
            np.testing.assert_array_equal(m, classes.m[want])
            np.testing.assert_array_equal(n, classes.n[want])
            assert rng.random() == plain.random()  # as many draws


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


def philox(seed):
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def summed_event_pulses(rng, p, n):
    """_event_pulses without its guard: sums each chunk's gaps as drawn."""
    chunks, total = [], 0
    while total <= n - 1:
        remaining = (n - total) * p
        size = int(remaining + 6.0 * math.sqrt(remaining + 1.0) + 16.0)
        idx = np.cumsum(rng.geometric(p, size=size)) + total - 1
        chunks.append(idx)
        total = int(idx[-1]) + 1
    events = np.concatenate(chunks)
    return events[:np.searchsorted(events, n)]


class TestGeometric:
    """The geometric draws against Generator.geometric, value for value
    and with the same next draw: inversion from the exponential stream
    below p = 1/3, numpy's own search from 1/3 on."""

    THIRD = 1.0 / 3.0
    PROBS = [0.1, 0.2, 0.3, 1e-4, 1.9e-6, 1e-12, 1e-18, 1e-300, 5e-324,
             np.nextafter(THIRD, 0.0), THIRD, np.nextafter(THIRD, 1.0), 0.5, 0.95]

    @pytest.mark.parametrize("p", PROBS)
    def test_same_values_and_state_as_numpy(self, p):
        for seed in range(3):
            for size in (0, 1, 17, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5):
                rng, plain = philox(seed), philox(seed)
                got = _geometric(rng, p, size)
                want = np.minimum(plain.geometric(p, size=size), MAX_TIMESTAMP)
                assert got.dtype == np.int64
                np.testing.assert_array_equal(got, want)
                assert rng.random() == plain.random(), (p, seed, size)


class TestEventPulses:
    def test_tiny_probability_stays_inside_the_run(self):
        # gaps near 1e18 overflowed the chunk's int64 sum: 179 of these
        # seeds gave events outside [0, n)
        for seed in range(200):
            events = _event_pulses(philox(seed), 1e-18, 10**6)
            assert np.all((events >= 0) & (events < 10**6)), seed

    def test_tiny_dark_probability_runs(self):
        res = run_simulation(config(det1=DetectorParams(eta=0.8, dark_prob=1e-18),
                                    n_pulses=10**6, seed=0))
        assert res.truth.clicks1.size > 0
        assert np.all(res.truth.clicks1 < 10**6)

    @given(seed=st.integers(0, 2**64 - 1), p=st.floats(1e-15, 0.9),
           n=st.integers(1, 50_000))
    @settings(max_examples=200, deadline=None)
    def test_same_draws_as_plain_sums(self, seed, p, n):
        rng, plain = philox(seed), philox(seed)
        np.testing.assert_array_equal(_event_pulses(rng, p, n), summed_event_pulses(plain, p, n))
        assert rng.random() == plain.random()  # as many draws


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



class TestGoldenStreams:
    """SHA-256 of the binary tag file of three small fixed-seed runs.

    The no-afterpulse pin was computed before the no-afterpulse path of
    the detector walk moved to the dead-time thinning it shares with the
    pipeline, and it held through the walk becoming one vectorised
    afterpulse chain. The afterpulse pin was recomputed when the chain
    replaced the per-click walk (24061 tags before, 24129 after): the
    afterpulse law is the same, but run lengths and jitters are now
    drawn in two blocks, not interleaved click by click. Both pins were
    recomputed when each emitted pair came to be drawn from one uniform
    over the joint class table of its photons and click candidates,
    where it used to take four uniforms for its photons and one per
    detector for its candidates (no afterpulses: 22209 tags before,
    22276 after; afterpulses: 24129 before, 24036 after): the law is the
    same, the streams changed on purpose. The third pin, at gamma = 0.4,
    was computed before pair gaps below p = 1/3 came to be drawn from
    the exponential stream: its gaps take numpy's search branch, while
    the first two take the inversion. Every run is busy (about one click
    in ten pulses at dead length 4), so dead-time chains and same-pulse
    candidates occur.
    """

    @staticmethod
    def busy_config(afterpulse_prob, jitter_sigma, seed, gamma=0.2):
        det = dict(dark_prob=1e-3, afterpulse_prob=afterpulse_prob, dead_pulses=4)
        return SimConfig(
            source=SourceParams(gamma=gamma, kappa1=0.8, kappa2=0.8),
            det1=DetectorParams(eta=0.6, **det),
            det2=DetectorParams(eta=0.5, **det),
            profile=IndistinguishabilityProfile(nu_max=0.9, tau=100e-15),
            n_pulses=200_000,
            seed=seed,
            jitter_sigma=jitter_sigma,
        )

    @pytest.mark.parametrize("afterpulse_prob, jitter_sigma, seed, gamma, n_tags, digest", [
        pytest.param(0.0, 0.0, 11, 0.2, 22276,
                     "7c0e859d8eb448d22898cc0686a8307297d805aec6be6e65aa9e48111e2fad7b",
                     id="no-afterpulses"),
        pytest.param(0.1, 30e-12, 12, 0.2, 24036,
                     "85474961ac7a77f49737d3d8e1d91ed3800b8c2e3296a9f77a2852f1cc5abddf",
                     id="afterpulses-jitter"),
        pytest.param(0.1, 30e-12, 13, 0.4, 38223,
                     "51cce1b1b2d8a9e637e230a0299f714b478440f250dfc2e2cf3d3e1406ac5806",
                     id="pair-gaps-by-search"),
    ])
    def test_stream_digest(self, afterpulse_prob, jitter_sigma, seed, gamma, n_tags, digest):
        res = run_simulation(self.busy_config(afterpulse_prob, jitter_sigma, seed, gamma))
        buf = io.BytesIO()
        write_tags(res.stream, buf)
        assert len(res.stream) == n_tags
        assert hashlib.sha256(buf.getvalue()).hexdigest() == digest


class TestStreamShape:
    def test_reference_cadence(self):
        res = run_simulation(config(n_pulses=1024))
        refs = res.stream.refs
        assert refs.size == 2
        period_tb = res.config.period_tb
        np.testing.assert_array_equal(refs, [0, 512 * period_tb])

    def test_reference_on_the_last_pulse(self):
        res = run_simulation(config(n_pulses=1025))
        np.testing.assert_array_equal(res.stream.refs,
                                      np.array([0, 512, 1024]) * res.config.period_tb)

    def test_detector_stamps_sit_in_their_gates(self):
        res = run_simulation(config())
        period_tb = res.config.period_tb
        window_tb = res.config.window_tb
        for stamps, ingate in (
            (res.stream.d1, res.truth.ingate_clicks1),
            (res.stream.d2, res.truth.ingate_clicks2),
        ):
            t = stamps.astype(np.int64)
            offsets = t - (t // period_tb) * period_tb
            assert np.all(offsets < window_tb) == (
                t.size == ingate.size
            )


class TestTruthMatchesPipeline:
    def test_click_pulses_agree_without_artifacts(self):
        res = run_simulation(config(seed=11))
        _, _, table = table_from_stream(
            res.stream, window=res.config.gate_window, dead_pulses1=0,
            dead_pulses2=0,
        )
        covered = table.n_pulses
        dense = DenseTable.of(table)
        for states, ingate in (
            (dense.d1, res.truth.ingate_clicks1),
            (dense.d2, res.truth.ingate_clicks2),
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
        assert np.all(DenseTable.of(table).d1 != PulseState.CLICK)
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
        clicks = np.flatnonzero(DenseTable.of(table).d1 == PulseState.CLICK)
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

    def test_runs_share_one_read_only_grid(self):
        """Every run holds one grid, and is still the run of its own config:
        stream and truth equal run_simulation of its delay_configs entry."""
        cfg = config(source=SourceParams(gamma=0.05, kappa1=0.8, kappa2=0.7),
                     det1=DetectorParams(eta=0.6, dark_prob=1e-3, afterpulse_prob=0.1,
                                         dead_pulses=2),
                     jitter_sigma=20e-12, out_gate_dark_rate=1e6, seed=5)
        delays = [-2e-13, 0.0, 1e-13]
        out = scan_delays(cfg, delays)
        refs = out[0][1].stream.refs
        for (delta_t, res), (want_dt, sub) in zip(out, delay_configs(cfg, delays), strict=True):
            assert res.stream.refs is refs
            single = run_simulation(sub)
            assert delta_t == want_dt and res.config == sub
            assert res.stream == single.stream
            assert res.stream.provenance == single.stream.provenance
            for field in dataclasses.fields(SimTruth):
                got, want = getattr(res.truth, field.name), getattr(single.truth, field.name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError):
            refs[0] = 1
        assert refs[0] == 0

    def test_single_run_refs_are_read_only(self):
        refs = run_simulation(config()).stream.refs
        assert not refs.flags.writeable
        with pytest.raises(ValueError):
            refs[0] = 1

    def test_scan_holds_one_grid(self):
        """13 paper-point runs of 1e8 pulses hold about three grids' worth
        (4.5 MB against 1.49 MB a grid): one grid plus the events; a grid
        per run would be over 13."""
        cfg = config(source=SourceParams(gamma=1e-4, kappa1=0.5, kappa2=0.5),
                     det1=DetectorParams(eta=0.32, dead_pulses=5),
                     det2=DetectorParams(eta=0.30, dead_pulses=5),
                     profile=IndistinguishabilityProfile(nu_max=0.975, tau=1e-13),
                     n_pulses=10**8, seed=3, out_gate_dark_rate=240.0)
        tracemalloc.start()
        try:
            out = scan_delays(cfg, np.linspace(-3e-13, 3e-13, 13))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 4 * out[0][1].stream.refs.nbytes

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

    @pytest.mark.parametrize("field, value", [
        ("delta_t", math.nan),  # ran with nu = nan and almost no detector tags
        ("delta_t", math.inf),
        ("jitter_sigma", math.nan),  # ran, with a RuntimeWarning from the rounding
        ("out_gate_dark_rate", math.nan),  # an untyped ValueError in the run
        ("rep_period", math.inf),  # OverflowError
        ("timebin", math.inf),  # OverflowError
    ])
    def test_non_finite_parameter_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            config(**{field: value})


class TestStatisticalEquivalence:
    @staticmethod
    def scalar_clicks(src, det1, det2, n, seed):
        """Click pulses of both detectors from the per-pulse scalar twins."""
        rng = np.random.default_rng(seed)
        s1, s2 = DeadState(), DeadState()
        c1, c2 = [], []
        for k in range(n):
            m, j = sample_trial(rng, src, NU)
            if detect_pulse(rng, m, det1, s1):
                c1.append(k)
            if detect_pulse(rng, j, det2, s2):
                c2.append(k)
        return np.array(c1), np.array(c2)

    @staticmethod
    def assert_counts_agree(engine, scalar):
        for eng, ref in zip(engine, scalar):
            z = (eng - ref) / math.sqrt(max(eng + ref, 1))
            assert abs(z) < 5, (eng, ref)

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
        c1, c2 = self.scalar_clicks(src, det1, det2, n, 987654321)
        self.assert_counts_agree(
            (res.truth.clicks1.size, res.truth.clicks2.size,
             np.intersect1d(res.truth.clicks1, res.truth.clicks2).size),
            (c1.size, c2.size, np.intersect1d(c1, c2).size),
        )

    def test_afterpulse_chain_matches_scalar_walk(self):
        """Click counts and first-live-pulse lags, with afterpulses and jitter."""
        src = SourceParams(gamma=0.05, kappa1=0.8, kappa2=0.7)
        det1 = DetectorParams(eta=0.6, dead_pulses=2, dark_prob=1e-3, afterpulse_prob=0.3)
        det2 = DetectorParams(eta=0.5, dead_pulses=3, afterpulse_prob=0.6)
        n = 100_000
        res = run_simulation(config(
            source=src, det1=det1, det2=det2,
            profile=IndistinguishabilityProfile(nu_max=NU, tau=1e-13),
            n_pulses=n, seed=19, jitter_sigma=30e-12,
        ))
        c1, c2 = self.scalar_clicks(src, det1, det2, n, 123456789)

        def first_live_lags(clicks, det):
            return int(np.count_nonzero(np.diff(clicks) == det.dead_pulses + 1))

        engine = (res.truth.clicks1, res.truth.clicks2)
        assert first_live_lags(engine[0], det1) > 500
        self.assert_counts_agree(
            [c.size for c in engine] + [first_live_lags(c, d) for c, d in zip(engine, (det1, det2))],
            [c.size for c in (c1, c2)] + [first_live_lags(c, d) for c, d in zip((c1, c2), (det1, det2))],
        )


class ScriptedRng:
    """Stands in for the generator in _detector_walk: fixed run lengths
    (geometric draws are one more) and fixed jitter normals."""

    def __init__(self, runs, jitter):
        self.runs, self.jitter = runs, jitter

    def geometric(self, p, size):
        assert size == len(self.runs)
        return np.asarray(self.runs, dtype=np.int64) + 1

    def normal(self, loc, scale, size):
        return np.asarray(self.jitter[:size], dtype=np.float64)


@st.composite
def afterpulse_cases(draw):
    """Candidates of one run, with repeats and dense runs, plus draws.

    Run lengths 0-5 against a short run chain afterpulses onto later
    candidates and past the end of the run; jitters and candidate offsets
    share a range so that either can be the earlier one.
    """
    n_pulses = draw(st.integers(1, 300))
    pulses = draw(st.lists(st.integers(0, n_pulses - 1), max_size=60))
    if draw(st.booleans()):
        start = draw(st.integers(0, n_pulses - 1))
        pulses += range(start, min(n_pulses, start + draw(st.integers(0, 80))))
    offsets = draw(st.lists(st.integers(-3, 12), min_size=len(pulses), max_size=len(pulses)))
    order = np.lexsort((offsets, pulses))
    pulses = np.asarray(pulses, dtype=np.int64)[order]
    offsets = np.asarray(offsets, dtype=np.int64)[order]
    dead = draw(st.one_of(st.integers(0, 6), st.sampled_from([2**31, 2**62, 2**63, 2**70])))
    prob = draw(st.sampled_from([0.0, 0.4, 1.0]))
    n_first = np.unique(pulses).size
    if prob == 0.0:
        runs = [0] * n_first
    elif prob == 1.0:
        runs = [n_pulses] * n_first  # more than fit: the chain runs to the end
    else:
        runs = draw(st.lists(st.integers(0, 5), min_size=n_first, max_size=n_first))
    # one jitter per pulse is enough for every afterpulse that can fire
    jitter = np.random.default_rng(draw(st.integers(0, 2**32))).integers(-3, 13, n_pulses)
    return pulses, offsets, runs, jitter, dead, prob, n_pulses


class TestAfterpulseChain:
    """The vectorised chain against the event-by-event walk, exactly."""

    @given(afterpulse_cases())
    @settings(max_examples=400, deadline=None)
    def test_matches_scalar_walk(self, case):
        pulses, offsets, runs, jitter, dead, prob, n_pulses = case
        want = afterpulse_walk(pulses, offsets, runs, jitter, dead, n_pulses)

        # the plan keeps the earliest candidate of each pulse
        first, at = np.unique(pulses, return_index=True)
        keep, after = _afterpulse_chain(first, np.asarray(runs, dtype=np.int64), dead, n_pulses)
        assert first[keep].tolist() == [k for k, _, is_after in want if not is_after]
        assert after.tolist() == [k for k, _, is_after in want if is_after]

        cfg = config(jitter_sigma=30e-12)
        det = DetectorParams(eta=0.5, dead_pulses=dead, afterpulse_prob=prob)
        clicks, offs = _detector_walk(
            ScriptedRng(runs, jitter), cfg, det, _ChannelPlan(first, offsets[at]), n_pulses
        )
        assert clicks.tolist() == [k for k, _, _ in want]
        assert offs.tolist() == [o for _, o, _ in want]

    def test_one_long_contested_run(self):
        # candidates on every pulse: all but the first are contested, and
        # the chain through them holds hundreds of clicks and afterpulses
        n_pulses = 3000
        pulses = np.arange(n_pulses)
        runs = np.random.default_rng(9).integers(0, 4, n_pulses)
        for dead in (0, 2, 7):
            want = afterpulse_walk(pulses, np.zeros(n_pulses), runs, np.zeros(n_pulses),
                                   dead, n_pulses)
            keep, after = _afterpulse_chain(pulses, runs, dead, n_pulses)
            assert pulses[keep].tolist() == [k for k, _, is_after in want if not is_after]
            assert after.tolist() == [k for k, _, is_after in want if is_after]

    def test_huge_dead_length_keeps_the_first_click(self):
        res = run_simulation(config(
            det1=DetectorParams(eta=0.8, dead_pulses=2**70, afterpulse_prob=1.0),
            source=SourceParams(gamma=0.05, kappa1=1.0, kappa2=1.0),
            seed=20,
        ))
        assert res.truth.clicks1.size == 1


def lexsort_merge(ref_times, d1, d2):
    """The stream order by brute force: drop negative stamps, lexsort."""
    times = np.concatenate((ref_times, d1, d2)).astype(np.int64)
    channels = np.repeat(np.array([0, 1, 2], dtype=np.uint8), (len(ref_times), len(d1), len(d2)))
    kept = times >= 0
    times, channels = times[kept], channels[kept]
    order = np.lexsort((channels, times))
    return channels[order], times[order]


stamps = st.lists(st.integers(-6, 60), max_size=40)


def assembled_records(ref_times, d1, d2):
    """The simulator's stream of these stamps, as the writers order it."""
    stream = TagStream(timebin_ps=1, rep_period_ps=1, divider=1,
                       refs=np.asarray(ref_times, dtype=np.uint64),
                       d1=_sorted_stamps(d1), d2=_sorted_stamps(d2))
    records = np.concatenate([np.empty(0, RECORD), *_record_blocks(stream)])
    return records["channel"], records["timestamp"]


class TestMergeTags:
    """Stream assembly, the simulator's per-detector sort and the
    writers' interleave, against a lexsort of every tag."""

    @given(n_refs=st.integers(1, 12), ref_step=st.integers(1, 9), d1=stamps, d2=stamps,
           sort_detectors=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_lexsort(self, n_refs, ref_step, d1, d2, sort_detectors):
        # small ranges force ties between references and both detectors,
        # and stamps past the last reference
        if sort_detectors:  # click order is almost sorted in a real run
            d1, d2 = sorted(d1), sorted(d2)
        d1, d2 = np.asarray(d1, dtype=np.int64), np.asarray(d2, dtype=np.int64)
        ref_times = np.arange(n_refs, dtype=np.int64) * ref_step
        channels, times = assembled_records(ref_times, d1, d2)
        want_channels, want_times = lexsort_merge(ref_times, d1, d2)
        assert channels.dtype == np.uint8 and times.dtype == np.uint64
        assert channels.tolist() == want_channels.tolist()
        assert times.tolist() == want_times.tolist()

    def test_no_detector_tags(self):
        empty = np.empty(0, dtype=np.int64)
        channels, times = assembled_records(np.arange(5) * 123, empty, np.array([-4, -1]))
        assert channels.tolist() == [0] * 5
        assert times.tolist() == [0, 123, 246, 369, 492]

    def test_ties_go_ref_then_d1_then_d2(self):
        channels, times = assembled_records(np.array([0, 10]), np.array([10, -2, 0]),
                                            np.array([0, 10]))
        assert list(zip(channels.tolist(), times.tolist())) == [
            (0, 0), (1, 0), (2, 0), (0, 10), (1, 10), (2, 10)]
