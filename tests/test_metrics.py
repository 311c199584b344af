import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intrarc import metrics
from intrarc import simulator as sim
from intrarc.features import FrameFeatures

F = FrameFeatures(0.5, 0.5, 0.3, 0.5, 0.3, 0.5, 0)


def sim_curve(qs=(37, 32, 27, 22), scale=1.0, pixels=1920 * 1080):
    params = sim.SimParams(kappa=1.0)
    pairs = [(sim.sim_bits(F, q, pixels, params) * 30.0 * scale, sim.sim_psnr(q, params))
             for q in qs]
    return metrics.RdCurve.from_pairs(pairs)


class TestRdCurve:
    def test_needs_four_points(self):
        with pytest.raises(ValueError, match=">= 4"):
            metrics.RdCurve.from_pairs([(1e6, 30), (2e6, 33), (3e6, 36)])

    def test_rejects_equal_rates(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            metrics.RdCurve.from_pairs([(1e6, 30), (1e6, 33), (3e6, 36), (4e6, 39)])

    def test_rejects_decreasing_psnr(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            metrics.RdCurve.from_pairs([(1e6, 30), (2e6, 29), (3e6, 36), (4e6, 39)])

    def test_csv_round_trip(self, tmp_path):
        curve = sim_curve()
        path = tmp_path / "rd.csv"
        metrics.write_rd_csv(str(path), curve)
        assert path.read_text().splitlines()[0] == "bitrate,psnr_yuv"
        back = metrics.read_rd_csv(str(path))
        for a, b in zip(curve.points, back.points):
            assert b.bitrate == pytest.approx(a.bitrate, rel=1e-8)
            assert b.psnr_yuv == pytest.approx(a.psnr_yuv, rel=1e-8)


class TestBdRate:
    def test_identical_curves_zero(self):
        curve = sim_curve()
        assert metrics.bd_rate(curve, curve) == 0.0

    def test_uniform_scale_ten_percent(self):
        anchor = sim_curve()
        test = sim_curve(scale=1.10)
        assert metrics.bd_rate(anchor, test) == pytest.approx(10.0, abs=1e-9)

    def test_two_percent_scale(self):
        anchor = sim_curve()
        test = sim_curve(scale=1.02)
        assert metrics.bd_rate(anchor, test) == pytest.approx(2.0, abs=1e-9)

    def test_antisymmetry_identity(self):
        a = sim_curve()
        b = sim_curve(scale=1.37)
        fwd = metrics.bd_rate(a, b)
        rev = metrics.bd_rate(b, a)
        assert (1 + fwd / 100) * (1 + rev / 100) == pytest.approx(1.0, abs=1e-6)

    def test_no_overlap_is_error(self):
        lo = metrics.RdCurve.from_pairs([(1e5, 20), (2e5, 22), (3e5, 24), (4e5, 26)])
        hi = metrics.RdCurve.from_pairs([(1e6, 40), (2e6, 42), (3e6, 44), (4e6, 46)])
        with pytest.raises(metrics.OverlapError, match="no PSNR overlap"):
            metrics.bd_rate(lo, hi)

    def test_report_fields(self):
        report = metrics.bd_report(sim_curve(), sim_curve(scale=1.1))
        assert report["method"] == "pchip-log-rate"
        assert report["psnr_overlap"][0] < report["psnr_overlap"][1]
        assert report["bd_rate_percent"] == pytest.approx(10.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(scale=st.floats(min_value=0.2, max_value=5.0))
def test_bd_rate_of_uniform_scaling(scale):
    anchor = sim_curve()
    test = sim_curve(scale=scale)
    assert metrics.bd_rate(anchor, test) == pytest.approx(100.0 * (scale - 1.0), abs=1e-9)
