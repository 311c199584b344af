import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("psnr", [float, np.float64])
    def test_overflowing_rate_ratio_is_error(self, psnr):
        """Rates 600 decades apart give a ratio no float holds, with either PSNR type."""
        anchor = metrics.RdCurve.from_pairs([(k * 1e-300, psnr(30 + k)) for k in (1, 2, 4, 8)])
        test = metrics.RdCurve.from_pairs([(k * 1e300, psnr(30 + k)) for k in (1, 2, 4, 8)])
        with pytest.raises(ValueError, match="mean log10-rate offset of test over anchor is 600"):
            metrics.bd_rate(anchor, test)
        assert metrics.bd_rate(test, anchor) == -100.0

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


def _increasing(draw, n, lo, hi):
    """n values from lo to hi, evenly spaced or with gaps spanning six decades."""
    if draw(st.booleans()):
        gaps = np.ones(n - 1)
    else:
        gaps = 10.0 ** np.array(draw(st.lists(st.floats(-6, 0), min_size=n - 1, max_size=n - 1)))
    return lo + (hi - lo) * np.concatenate([[0.0], np.cumsum(gaps) / gaps.sum()])


@st.composite
def overlapping_curves(draw, psnr_lo, psnr_hi):
    """Anchor and test curves of 4-9 points whose PSNR ranges overlap by at least
    0.5 dB, on one rising, wavy log-rate law; the test rates are off by up to 2x."""
    a0 = draw(st.floats(psnr_lo, psnr_hi - 1))
    a1 = draw(st.floats(a0 + 1, psnr_hi))
    t0 = draw(st.floats(psnr_lo, a1 - 0.5))
    t1 = draw(st.floats(max(a0, t0) + 0.5, psnr_hi))
    slope, bend = draw(st.floats(0.02, 0.08)), draw(st.floats(0, 5e-4))
    freq, phase = draw(st.floats(0.05, 2)), draw(st.floats(0, 6.3))
    wave = draw(st.floats(0, 0.95)) * slope / freq  # the law's slope stays >= slope / 20
    curves = []
    for lo, hi, offset in ((a0, a1, 0.0), (t0, t1, draw(st.floats(-0.3, 0.3)))):
        psnr = _increasing(draw, draw(st.integers(4, 9)), lo, hi)
        log_rate = 3 + offset + slope * psnr + bend * psnr**2 + wave * np.sin(freq * psnr + phase)
        curves.append(metrics.RdCurve.from_pairs(zip(10.0**log_rate, psnr)))
    return curves


def _scipy_integral(curve, lo, hi):
    from scipy.interpolate import PchipInterpolator

    x = [p.psnr_yuv for p in curve.points]
    return float(PchipInterpolator(x, np.log10([p.bitrate for p in curve.points]))
                 .integrate(lo, hi))


# Both end slopes of both curves are floored at 0: a flat first interval before a
# steep one, and a steep interval before a long flat last one.
KNEES = [metrics.RdCurve.from_pairs(zip(10.0 ** np.array([5, 5.01, 5.5, 5.6]) * scale,
                                        np.array([30, 31, 32, 40]) + shift))
         for scale, shift in ((1.0, 0.0), (1.1, 0.5))]
# Two rates one float apart have equal log10s: a flat secant sets its knots' slopes to 0.
FLAT = [metrics.RdCurve.from_pairs(zip([1e6, np.nextafter(1e6, 2e6), 2e6, 4e6], [30, 32, 33, 36])),
        KNEES[1]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(curves=overlapping_curves(0.0, 100.0))
@example(curves=KNEES)
@example(curves=FLAT)
def test_log_rate_integral_matches_scipy_pchip(curves):
    anchor, test = curves
    lo = max(anchor.psnr_range()[0], test.psnr_range()[0])
    hi = min(anchor.psnr_range()[1], test.psnr_range()[1])
    for name, curve in (("anchor", anchor), ("test", test)):
        assert metrics._log_rate_integral(curve, name, lo, hi) == pytest.approx(
            _scipy_integral(curve, lo, hi), rel=1e-11, abs=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(curves=overlapping_curves(20.0, 60.0))
def test_bd_rate_matches_scipy_pchip(curves):
    anchor, test = curves
    lo = max(anchor.psnr_range()[0], test.psnr_range()[0])
    hi = min(anchor.psnr_range()[1], test.psnr_range()[1])
    mean_log_diff = (_scipy_integral(test, lo, hi) - _scipy_integral(anchor, lo, hi)) / (hi - lo)
    expected = 100.0 * (10.0**mean_log_diff - 1.0)
    assert metrics.bd_rate(anchor, test) == pytest.approx(expected, rel=0, abs=1e-9)
