import dataclasses
import warnings

import numpy as np
import pytest

from intrarc import simulator as sim
from intrarc.features import FrameFeatures

F = FrameFeatures(0.5, 0.5, 0.3, 0.5, 0.3, 0.5, 0)
PIXELS = 1920 * 1080


class TestSimBits:
    def test_halving_per_delta(self):
        params = sim.SimParams(kappa=1.0)
        for q in (12, 24, 36):
            a = sim.sim_bits(F, q, PIXELS, params)
            b = sim.sim_bits(F, q + 6, PIXELS, params)
            assert a / b == pytest.approx(2.0, rel=1e-5)

    def test_flat_frame_spends_less(self):
        params = sim.SimParams(kappa=1.0)
        flat = FrameFeatures(0.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0)
        sharp = FrameFeatures(1.0, 0.5, 0.0, 0.5, 0.0, 0.5, 0)
        assert sim.sim_bits(flat, 30, PIXELS, params) < sim.sim_bits(sharp, 30, PIXELS, params)

    def test_noise_deterministic(self):
        params = sim.SimParams(kappa=1.0, noise_sigma=0.3, seed=17)
        a = [sim.sim_bits(F, q, PIXELS, params) for q in range(0, 64, 7)]
        b = [sim.sim_bits(F, q, PIXELS, params) for q in range(0, 64, 7)]
        assert a == b

    def test_noise_varies_per_frame(self):
        params = sim.SimParams(kappa=1.0, noise_sigma=0.3, seed=17)
        f2 = FrameFeatures(0.5, 0.5, 0.3, 0.5, 0.3, 0.5, 1)
        assert sim.sim_bits(F, 30, PIXELS, params) != sim.sim_bits(f2, 30, PIXELS, params)

    def test_monotone_in_q(self):
        params = sim.SimParams(kappa=1.0)
        bits = [sim.sim_bits(F, q, PIXELS, params) for q in range(64)]
        assert all(a >= b for a, b in zip(bits, bits[1:]))

    def test_floor_at_one(self):
        params = sim.SimParams(kappa=1e-9)
        assert sim.sim_bits(F, 63, 100, params) == 1

    def test_ceiling_at_bits_range(self):
        assert sim.sim_bits(F, 0, PIXELS, sim.SimParams(kappa=1e300)) == 2**53
        # log-noise of this spread overflows the factor to inf or 0
        wild = sim.SimParams(noise_sigma=1e308)
        assert {sim.sim_bits(F, q, PIXELS, wild) for q in range(64)} == {1, 2**53}

    def test_wide_noise_warns_nothing(self):
        # seeds 10 and 13 draw log-factors above 709, where exp overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bits = [sim.sim_bits(F, 30, PIXELS, sim.SimParams(noise_sigma=1000.0, seed=seed))
                    for seed in range(16)]
        assert all(1 <= b <= 2**53 for b in bits)

    def test_q_validation(self):
        with pytest.raises(ValueError):
            sim.sim_bits(F, 64, PIXELS, sim.SimParams(kappa=1.0))

    def test_log_rate_affine_in_q(self):
        # big scale so integer rounding is negligible against 1e-6
        params = sim.SimParams(kappa=1.0)
        flat = FrameFeatures(0.99, 0.5, 0.0, 0.5, 0.0, 0.5, 0)
        pixels = 10**9
        qs = np.arange(10, 51)
        logbits = np.log2([sim.sim_bits(flat, int(q), pixels, params) for q in qs])
        slope, intercept = np.polyfit(qs, logbits, 1)
        assert slope == pytest.approx(-1.0 / params.delta, abs=1e-7)
        resid = logbits - (slope * qs + intercept)
        assert np.max(np.abs(resid)) < 1e-6


class TestSimPsnr:
    def test_defaults(self):
        params = sim.SimParams(kappa=1.0)
        assert sim.sim_psnr(0, params) == 60.0
        assert sim.sim_psnr(40, params) == pytest.approx(32.0)

    def test_monotone_decreasing(self):
        params = sim.SimParams(kappa=1.0)
        for q in range(63):
            assert sim.sim_psnr(q, params) >= sim.sim_psnr(q + 1, params)

    def test_floor_clamp(self):
        # 60 - 0.7 * 63 = 15.9 clamps to the floor
        assert sim.sim_psnr(63, sim.SimParams()) == 20.0


class TestGenerateDataset:
    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            sim.generate_dataset(0, sim.SimParams(kappa=1.0))

    def test_deterministic(self):
        params = sim.SimParams(kappa=1.0, noise_sigma=0.1)
        (Xa, ya), (Xb, yb) = (sim.generate_dataset(100, params, seed=5) for _ in range(2))
        np.testing.assert_array_equal(Xa, Xb)
        np.testing.assert_array_equal(ya, yb)

    def test_q_range_respected(self):
        X, _ = sim.generate_dataset(500, sim.SimParams(kappa=1.0), seed=2)
        assert ((18 <= X[:, 6]) & (X[:, 6] <= 48)).all()

    def test_params_validation(self):
        with pytest.raises(ValueError):
            sim.SimParams(kappa=0.0)
        with pytest.raises(ValueError):
            sim.SimParams(kappa=1.0, noise_sigma=-0.1)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
            sim.SimParams(seed=-1)

    def test_psnr_law_is_constant(self):
        assert [f.name for f in dataclasses.fields(sim.SimParams)] == [
            "kappa", "gamma", "delta", "noise_sigma", "seed"]
        assert (sim.SimParams.psnr_intercept, sim.SimParams.psnr_slope) == (60.0, 0.7)
        assert sim.SimParams() == sim.SimParams(kappa=1.0, gamma=0.8, delta=6.0)
