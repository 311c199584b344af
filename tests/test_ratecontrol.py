import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from intrarc import ratecontrol as rc
from intrarc import simulator as sim
from intrarc.features import FrameFeatures
from intrarc.video_io import VideoGeometry

from conftest import read_trace_csv

RES_4K = VideoGeometry(3840, 2160)
RES_480 = VideoGeometry(854, 480)
RES_1080 = VideoGeometry(1920, 1080)


def cfg_4k(**kw):
    defaults = dict(target_bitrate=1_000_000.0, fps_num=30, resolution=RES_4K)
    defaults.update(kw)
    return rc.RcConfig(**defaults)


class TestCHigh:
    def test_published_anchors_exact(self):
        assert rc.c_high_for(RES_4K) == 0.5
        assert rc.c_high_for(RES_480) == 0.25

    def test_1080p_matches_interpolation_oracle(self):
        # independent analytic evaluation of the log-area interpolation
        t = (math.log2(1920 * 1080) - math.log2(854 * 480)) / (
            math.log2(3840 * 2160) - math.log2(854 * 480)
        )
        expected = 0.25 + t * 0.25
        assert rc.c_high_for(RES_1080) == pytest.approx(expected, abs=1e-12)
        assert 0.25 < expected < 0.5

    def test_clamped_outside_anchor_span(self):
        tiny = VideoGeometry(128, 96)
        assert rc.c_high_for(tiny) == 0.25
        huge = VideoGeometry(7680, 4320)
        assert rc.c_high_for(huge) == 0.5


class TestMapQp:
    def test_identity_case(self):
        rec = rc.FirstPassRecord(0, 32, 5000.0)
        q_bar, q_prime = rc.map_qp(rec, 5000.0, cfg_4k())
        assert q_bar == 32.0
        assert q_prime == 32

    def test_halving_at_q36(self):
        cfg = cfg_4k()
        rec = rc.FirstPassRecord(0, 36, 8000.0)
        q_bar, q_prime = rc.map_qp(rec, 4000.0, cfg)
        assert q_bar == pytest.approx(42.0, abs=1e-9)
        assert q_prime == 42

    def test_high_rate_correction_at_q20(self):
        # q_bar lands at 20; c_high=0.5 at 2160p pulls toward q_start=24
        cfg = cfg_4k()
        rec = rc.FirstPassRecord(0, 20, 5000.0)
        q_bar, q_prime = rc.map_qp(rec, 5000.0, cfg)
        assert q_bar == pytest.approx(20.0, abs=1e-9)
        assert q_prime == 22

    def test_clipping(self):
        cfg = cfg_4k()
        rec = rc.FirstPassRecord(0, 63, 1.0)
        _, q_prime = rc.map_qp(rec, 1e12, cfg)
        assert q_prime == 0 or q_prime >= 0
        rec = rc.FirstPassRecord(0, 0, 1e12)
        _, q_hi = rc.map_qp(rec, 1.0, cfg)
        assert q_hi <= 63

    def test_round_half_away_from_zero(self):
        # engineered q_bar = 32.5 -> 33 (not banker's 32)
        cfg = cfg_4k()
        b_hat = 4096.0
        # q_bar = 32 - sqrt(32)*log2(b'/b_hat) = 32.5 => log2 ratio = -0.5/sqrt(32)
        b_prime = b_hat * 2.0 ** (-0.5 / math.sqrt(32))
        rec = rc.FirstPassRecord(0, 32, b_hat)
        q_bar, q_prime = rc.map_qp(rec, b_prime, cfg)
        assert q_bar == pytest.approx(32.5, abs=1e-12)
        assert q_prime == 33


@settings(max_examples=200, deadline=None)
@given(
    q_p=st.integers(min_value=0, max_value=63),
    b_hat=st.floats(min_value=1.0, max_value=1e9),
    ratio_lo=st.floats(min_value=0.01, max_value=100.0),
    shrink=st.floats(min_value=0.01, max_value=1.0),
)
def test_smaller_target_never_lowers_qp(q_p, b_hat, ratio_lo, shrink):
    cfg = rc.RcConfig(target_bitrate=1e6, fps_num=30, resolution=RES_4K)
    rec = rc.FirstPassRecord(0, q_p, b_hat)
    b_big = b_hat * ratio_lo
    b_small = b_big * shrink
    _, q_big = rc.map_qp(rec, b_big, cfg)
    _, q_small = rc.map_qp(rec, b_small, cfg)
    assert q_small >= q_big


@settings(max_examples=200, deadline=None)
@given(
    q_p=st.integers(min_value=0, max_value=63),
    b_hat=st.floats(min_value=1.0, max_value=1e9),
    ratio=st.floats(min_value=0.01, max_value=100.0),
)
def test_correction_never_lowers_qp(q_p, b_hat, ratio):
    cfg = rc.RcConfig(target_bitrate=1e6, fps_num=30, resolution=RES_1080)
    rec = rc.FirstPassRecord(0, q_p, b_hat)
    q_bar, q_prime = rc.map_qp(rec, b_hat * ratio, cfg)
    rounded = int(math.floor(q_bar + 0.5)) if q_bar >= 0 else int(math.ceil(q_bar - 0.5))
    if 0 <= q_bar <= 63:
        if q_bar >= cfg.q_start:
            assert q_prime == min(63, max(0, rounded))
        else:
            assert q_prime >= rounded


def test_identity_exact_above_q_start():
    cfg = cfg_4k()
    for q_p in range(24, 64):
        rec = rc.FirstPassRecord(0, q_p, 12345.0)
        _, q_prime = rc.map_qp(rec, 12345.0, cfg)
        assert q_prime == q_p


class TestTargetBits:
    def test_zero_deficit(self):
        cfg = cfg_4k()
        assert rc.compute_target_bits(0.0, cfg) == cfg.frame_budget

    def test_stated_law(self):
        cfg = rc.RcConfig(target_bitrate=300_000.0, fps_num=30, resolution=RES_4K)
        assert cfg.frame_budget == 10_000.0
        assert rc.compute_target_bits(4_000.0, cfg) == 8_000.0

    def test_floor_at_one(self):
        cfg = rc.RcConfig(target_bitrate=3_000.0, fps_num=30, resolution=RES_4K)
        assert cfg.frame_budget == 100.0
        assert rc.compute_target_bits(1e9, cfg) == 1.0


class TestFirstPass:
    def test_constant_model(self):
        cfg = cfg_4k()
        feats = [FrameFeatures(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, i) for i in range(3)]
        calls = []

        def model(X):
            calls.append(X.copy())
            return np.full(len(X), 1000.0)

        records = rc.build_first_pass(feats, model, cfg)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.full((3, 7), [0.5] * 6 + [32.0]))
        assert [r.frame_index for r in records] == [0, 1, 2]
        assert all(r.q_p == 32 and r.b_hat_p == 1000.0 for r in records)

    def test_empty_features_error(self):
        with pytest.raises(ValueError, match="no frames"):
            rc.build_first_pass([], lambda X: np.ones(len(X)), cfg_4k())

    @pytest.mark.parametrize("bits", [0.001, 0.0, -5.0, np.nan, np.inf])
    def test_prediction_that_is_no_bit_count_rejected(self, bits):
        with pytest.raises(ValueError, match="must be finite and >= 1"):
            rc.build_first_pass([FrameFeatures(0, 0, 0, 0, 0, 0, 0)],
                                lambda X: np.full(len(X), bits), cfg_4k())

    def test_monotone_in_texture_with_sim_predictor(self):
        cfg = cfg_4k()
        feats = [FrameFeatures(e, 0.5, 0.2, 0.5, 0.2, 0.5, i)
                 for i, e in enumerate(np.linspace(0.0, 1.0, 16))]
        oracle = sim.make_oracle_predictor(RES_4K.pixels, sim.SimParams(kappa=1.0))
        records = rc.build_first_pass(feats, oracle, cfg)
        b = [r.b_hat_p for r in records]
        assert all(x <= y for x, y in zip(b, b[1:]))


def test_a_list_of_rows_and_the_read_matrix_give_the_same_results(tmp_path):
    """A list of FrameFeatures and the matrix read back from its table are
    the same rows to feature_matrix, build_first_pass and make_encoder."""
    from intrarc import features as feat
    from intrarc import forest

    rng = np.random.default_rng(8)
    # Six decimals survive the table's 9 significant digits exactly.
    listed = [FrameFeatures(*np.round(rng.uniform(0, 1, 6), 6).tolist(), frame_index=5 + 3 * i)
              for i in range(12)]
    path = tmp_path / "f.csv"
    feat.write_features_csv(str(path), listed)
    rows = feat.read_features_csv(str(path))
    for q in (30, rng.integers(0, 64, 12)):
        assert np.array_equal(forest.feature_matrix(listed, q), forest.feature_matrix(rows, q))

    oracle = sim.make_oracle_predictor(RES_1080.pixels, sim.SimParams())
    from_list, from_matrix = (rc.build_first_pass(feats, oracle, cfg_4k())
                              for feats in (listed, rows))
    assert from_matrix == from_list
    assert [r.frame_index for r in from_matrix] == [f.frame_index for f in listed]
    assert all(type(r.frame_index) is int for r in from_matrix)

    for noise in (0.0, 0.3):
        params = sim.SimParams(noise_sigma=noise, seed=2)
        encoders = [sim.make_encoder(feats, RES_1080.pixels, params) for feats in (listed, rows)]
        for f, q in [(0, 0), (4, 22), (7, 37), (11, 51), (11, 63)]:
            frame = listed[f]
            spends = {encode(frame.frame_index, q, 1000.0) for encode in encoders}
            assert spends == {sim.sim_bits(frame, q, RES_1080.pixels, params)}


class TestNoiseFirstPass:
    def test_deterministic(self):
        cfg = cfg_4k()
        a = rc.build_noise_first_pass(50, cfg, seed=9)
        b = rc.build_noise_first_pass(50, cfg, seed=9)
        assert [r.b_hat_p for r in a] == [r.b_hat_p for r in b]

    def test_all_at_least_one(self):
        cfg = rc.RcConfig(target_bitrate=30.0, fps_num=30, resolution=RES_4K)
        records = rc.build_noise_first_pass(2000, cfg, seed=1)
        assert min(r.b_hat_p for r in records) >= 1.0

    def test_sample_mean_matches_clamped_normal_oracle(self):
        cfg = cfg_4k()
        mu = cfg.frame_budget
        # E[max(1, X)] for X ~ N(mu, mu^2): 1*P(X<=1) + E[X; X>1]
        z = (mu - 1.0) / mu
        oracle = mu * scipy.stats.norm.cdf(z) + mu * scipy.stats.norm.pdf(z) \
            + 1.0 * scipy.stats.norm.cdf(-z)
        records = rc.build_noise_first_pass(100_000, cfg, seed=3)
        mean = np.mean([r.b_hat_p for r in records])
        assert oracle * 0.97 <= mean <= oracle * 1.03

    def test_n_frames_validation(self):
        with pytest.raises(ValueError):
            rc.build_noise_first_pass(0, cfg_4k())


class TestSecondPass:
    def test_perfect_oracle_keeps_deficit_zero(self):
        cfg = cfg_4k()
        records = [rc.FirstPassRecord(i, 32, cfg.frame_budget) for i in range(50)]
        decisions, summary = rc.run_second_pass(records, lambda i, q, target: target, cfg)
        deficit = 0.0
        for d in decisions:
            deficit += d.actual_bits - cfg.frame_budget
            assert deficit == pytest.approx(0.0, abs=1e-9)
        assert summary["bitrate_deviation"] == pytest.approx(0.0, abs=1e-12)

    def test_double_spender_matches_independent_recurrence(self):
        cfg = rc.RcConfig(target_bitrate=300_000.0, fps_num=30, resolution=RES_4K)
        records = [rc.FirstPassRecord(i, 32, 10_000.0) for i in range(300)]
        decisions, summary = rc.run_second_pass(records, lambda i, q, target: 2.0 * target, cfg)
        # closed-form rerun of the stated recurrence
        b = cfg.frame_budget
        deficit, total = 0.0, 0.0
        for d in decisions:
            b_prime = max(1.0, b - cfg.deficit_gain * deficit)
            actual = 2.0 * b_prime
            assert d.b_prime_p == pytest.approx(b_prime, rel=1e-12)
            assert d.actual_bits == pytest.approx(actual, rel=1e-12)
            deficit += actual - b
            total += actual
        assert abs(summary["bitrate_deviation"]) < 0.02
        # two-frame average spend approaches the budget
        spends = [d.actual_bits for d in decisions[10:]]
        pair_means = [(a + b2) / 2 for a, b2 in zip(spends[::2], spends[1::2])]
        assert np.mean(pair_means) == pytest.approx(b, rel=0.02)

    def test_single_frame_identity(self):
        cfg = cfg_4k()
        records = [rc.FirstPassRecord(0, 32, cfg.frame_budget)]
        decisions, _ = rc.run_second_pass(records, lambda i, q, target: target, cfg)
        assert decisions[0].q_prime_p == 32

    def test_deficit_accounting_invariant(self, rng):
        cfg = cfg_4k()
        feats = sim.random_features(100, rng)
        params = sim.SimParams(kappa=1.0, noise_sigma=0.2)
        oracle = sim.make_oracle_predictor(RES_4K.pixels, sim.SimParams(kappa=1.0))
        records = rc.build_first_pass(feats, oracle, cfg)
        decisions, _ = rc.run_second_pass(
            records, sim.make_encoder(feats, RES_4K.pixels, params), cfg
        )
        deficit = 0.0
        for i, d in enumerate(decisions):
            deficit += d.actual_bits - cfg.frame_budget
            # b_prime of the NEXT frame must reflect this running deficit
            if i + 1 < len(decisions):
                expected = max(1.0, cfg.frame_budget - cfg.deficit_gain * deficit)
                assert decisions[i + 1].b_prime_p == pytest.approx(expected, rel=1e-12)

    def test_encoder_failure_raises_encoder_error(self):
        cfg = cfg_4k()
        records = [rc.FirstPassRecord(i, 32, cfg.frame_budget) for i in range(5)]

        calls = {"n": 0}

        def flaky(frame_index, q, target_bits):
            calls["n"] += 1
            if frame_index == 3:
                raise RuntimeError("disk full")
            return target_bits

        with pytest.raises(rc.EncoderError, match="frame 3"):
            rc.run_second_pass(records, flaky, cfg)

    @pytest.mark.parametrize("spend", [math.nan, math.inf, -math.inf, -5000.0, 0.0, 0.5,
                                       2.0**53 + 2.0, 1e300])
    def test_spend_outside_bits_range_raises_encoder_error(self, spend):
        """A NaN, infinite, negative, sub-bit or over-2^53 spend once went
        into the deficit and the report as it was."""
        cfg = cfg_4k()
        records = [rc.FirstPassRecord(i, 32, cfg.frame_budget) for i in range(5)]
        encoder = lambda i, q, target: spend if i == 2 else target
        with pytest.raises(rc.EncoderError, match=r"frame 2, expected a finite count"):
            rc.run_second_pass(records, encoder, cfg)

    @pytest.mark.parametrize("spend", [1.0, 2.0**53])
    def test_spend_at_bits_range_ends_is_accepted(self, spend):
        cfg = cfg_4k()
        records = [rc.FirstPassRecord(i, 32, cfg.frame_budget) for i in range(3)]
        decisions, _ = rc.run_second_pass(records, lambda i, q, target: spend, cfg)
        assert [d.actual_bits for d in decisions] == [spend] * 3

    def test_empty_records_error(self):
        with pytest.raises(ValueError, match="no first-pass records"):
            rc.run_second_pass([], lambda i, q, target: 1.0, cfg_4k())

    def test_closed_loop_with_oracle_within_one_percent(self, rng):
        params = sim.SimParams(kappa=1.0)
        feats = sim.random_features(300, rng)
        pixels = RES_4K.pixels
        mean_bits = np.mean([sim.expected_bits(f, 30, pixels, params) for f in feats])
        cfg = rc.RcConfig(target_bitrate=mean_bits * 30, fps_num=30, resolution=RES_4K)
        records = rc.build_first_pass(feats, sim.make_oracle_predictor(pixels, params), cfg)
        _, summary = rc.run_second_pass(records, sim.make_encoder(feats, pixels, params), cfg)
        assert abs(summary["bitrate_deviation"]) <= 0.01


class TestSummary:
    """The summary's bitrate_deviation is a fraction of the budget."""

    def _cfg(self, budget):
        return rc.RcConfig(target_bitrate=budget * 30, fps_num=30, resolution=RES_4K)

    def test_exact_budget_zero(self):
        cfg = self._cfg(1000.0)
        records = [rc.FirstPassRecord(i, 32, 1000.0) for i in range(10)]
        decisions, summary = rc.run_second_pass(records, lambda i, q, target: 1000.0, cfg)
        assert summary["bitrate_deviation"] == 0.0
        assert [d.deficit for d in decisions] == [0.0] * 10

    def test_one_double_frame_among_hundred(self):
        cfg = self._cfg(1000.0)
        records = [rc.FirstPassRecord(i, 32, 1000.0) for i in range(100)]
        spend = lambda i, q, target: 2000.0 if i == 99 else 1000.0
        decisions, summary = rc.run_second_pass(records, spend, cfg)
        assert summary["bitrate_deviation"] == pytest.approx(0.01, abs=1e-14)
        assert decisions[-1].deficit == 1000.0

    def test_empty_trace_error(self):
        calls = []

        def encoder(*args):
            calls.append(args)
            return 1000.0

        with pytest.raises(ValueError, match="no first-pass records"):
            rc.run_second_pass([], encoder, self._cfg(1000.0))
        assert calls == []


class TestTraceCsv:
    def test_round_trip(self, tmp_path, rng):
        cfg = cfg_4k()
        feats = sim.random_features(10, rng)
        params = sim.SimParams(kappa=1.0)
        records = rc.build_first_pass(
            feats, sim.make_oracle_predictor(RES_4K.pixels, params), cfg
        )
        decisions, _ = rc.run_second_pass(
            records, sim.make_encoder(feats, RES_4K.pixels, params), cfg
        )
        path = tmp_path / "trace.csv"
        rc.write_trace_csv(str(path), decisions)
        header = path.read_text().splitlines()[0]
        assert header == "frame_index,q_p,b_hat,b_prime,q_bar,q_prime,actual_bits,deficit"
        back = read_trace_csv(str(path))
        assert len(back) == len(decisions)
        for a, b in zip(decisions, back):
            assert a.frame_index == b.frame_index
            assert a.q_prime_p == b.q_prime_p
            assert b.actual_bits == pytest.approx(a.actual_bits, rel=1e-8)
            assert b.deficit == pytest.approx(a.deficit, rel=1e-8, abs=1e-3)


class TestConfigValidation:
    def test_second_pass_values_are_constants(self):
        assert [f.name for f in dataclasses.fields(rc.RcConfig)] == [
            "target_bitrate", "fps_num", "resolution", "fps_den"]
        assert (rc.RcConfig.c_low, rc.RcConfig.first_pass_qp, rc.RcConfig.deficit_gain,
                rc.RcConfig.q_start) == (1.0, 32, 0.5, 24)

    def test_bad_bitrate(self):
        for bitrate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rc.RcConfig(target_bitrate=bitrate, fps_num=30, resolution=RES_4K)

    @pytest.mark.parametrize("bitrate, fps_num, fps_den, budget", [
        (5e-324, 30, 1, "0.0"),
        (1.7e308, 1, 1000, "inf"),
        (1e6, 10**400, 1, "inf"),
        (1e6, 30, 10**400, "inf"),
        (1e-320, 30, 1, "3.3e-322"),
        (1e308, 1, 1, "1e+308"),
    ], ids=["zero", "infinite", "huge-numerator", "huge-denominator", "below-one-bit",
            "above-2^53"])
    def test_frame_budget_must_be_finite_and_positive(self, bitrate, fps_num, fps_den, budget):
        """The budget must be a frame's bits, in [1, 2^53]: finite, positive and
        small enough that the deficit and the deviation stay finite."""
        with pytest.raises(ValueError, match=r"frame budget .* " + re.escape(
                f"in [1, 2^53] bits, got {budget}")):
            rc.RcConfig(target_bitrate=bitrate, fps_num=fps_num, fps_den=fps_den,
                        resolution=RES_4K)

    def test_frame_budget_bounds_are_inclusive(self):
        for budget in (1.0, 2.0**53):
            cfg = rc.RcConfig(target_bitrate=budget * 30, fps_num=30, resolution=RES_4K)
            assert cfg.frame_budget == budget

    def test_frame_budget_rational_fps(self):
        cfg = rc.RcConfig(target_bitrate=30_000.0, fps_num=30000, fps_den=1001,
                          resolution=RES_4K)
        assert cfg.frame_budget == pytest.approx(30_000.0 * 1001 / 30000)
        assert cfg.fps_text == "30000/1001"

    def test_record_validation(self):
        with pytest.raises(ValueError):
            rc.FirstPassRecord(0, 64, 100.0)
        with pytest.raises(ValueError):
            rc.FirstPassRecord(0, 32, 0.5)
