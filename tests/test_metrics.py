import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
        with pytest.raises(ValueError, match="^psnr must be strictly increasing with bitrate$"):
            metrics.RdCurve.from_pairs([(1e6, 30), (2e6, 29), (3e6, 36), (4e6, 39)])

    def test_rejects_equal_psnrs(self):
        with pytest.raises(ValueError, match="^psnr must be strictly increasing with bitrate$"):
            metrics.RdCurve.from_pairs([(1e6, 30), (2e6, 33), (3e6, 33), (4e6, 39)])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_non_finite_log_rate_slope(self):
        """PSNRs one subnormal apart make log10(rate) rise faster than a float holds."""
        with pytest.raises(ValueError, match=r"^log-rate slopes must be finite, but log10\(rate\) "
                           r"rises by 0\.301 between PSNR 0 and 4\.94066e-324$"):
            metrics.RdCurve.from_pairs([(1e6, 0.0), (2e6, 5e-324), (4e6, 30), (8e6, 39)])

    def test_csv_round_trip(self, tmp_path):
        curve = sim_curve()
        path = tmp_path / "rd.csv"
        metrics.write_rd_csv(str(path), curve)
        assert path.read_text().splitlines()[0] == "bitrate,psnr_yuv"
        back = metrics.read_rd_csv(str(path))
        assert back.rates == pytest.approx(curve.rates, rel=1e-8)
        assert back.psnrs == pytest.approx(curve.psnrs, rel=1e-8)


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

    return float(PchipInterpolator(curve.psnrs, np.log10(curve.rates)).integrate(lo, hi))


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
    lo = max(anchor.psnrs[0], test.psnrs[0])
    hi = min(anchor.psnrs[-1], test.psnrs[-1])
    for curve in curves:
        integral = metrics._pchip_integral(np.array(curve.psnrs), np.log10(curve.rates), lo, hi)
        assert integral == pytest.approx(_scipy_integral(curve, lo, hi), rel=1e-11, abs=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(curves=overlapping_curves(20.0, 60.0))
def test_bd_rate_matches_scipy_pchip(curves):
    anchor, test = curves
    lo = max(anchor.psnrs[0], test.psnrs[0])
    hi = min(anchor.psnrs[-1], test.psnrs[-1])
    mean_log_diff = (_scipy_integral(test, lo, hi) - _scipy_integral(anchor, lo, hi)) / (hi - lo)
    expected = 100.0 * (10.0**mean_log_diff - 1.0)
    assert metrics.bd_rate(anchor, test) == pytest.approx(expected, rel=0, abs=1e-9)


def _outcome(fn, *args):
    """fn(*args), or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.floats(1, 1e9), st.floats(0, 100)), max_size=9),
       data=st.data())
def test_from_pairs_ignores_input_order(pairs, data):
    shuffled = data.draw(st.permutations(pairs))
    assert (_outcome(metrics.RdCurve.from_pairs, shuffled)
            == _outcome(metrics.RdCurve.from_pairs, sorted(pairs)))


DISJOINT = [metrics.RdCurve.from_pairs([(1e5, 20), (2e5, 22), (3e5, 24), (4e5, 26)]),
            metrics.RdCurve.from_pairs([(1e6, 40), (2e6, 42), (3e6, 44), (4e6, 46)])]
OVERFLOWING = [metrics.RdCurve.from_pairs([(k * 1e-300, 30.0 + k) for k in (1, 2, 4, 8)]),
               metrics.RdCurve.from_pairs([(k * 1e300, 30.0 + k) for k in (1, 2, 4, 8)])]


@settings(max_examples=100, deadline=None)
@given(curves=overlapping_curves(0.0, 100.0))
@example(curves=KNEES)
@example(curves=FLAT)
@example(curves=DISJOINT)
@example(curves=OVERFLOWING)
def test_bd_rate_is_the_reports_value(curves):
    def report_rate(anchor, test):
        return metrics.bd_report(anchor, test)["bd_rate_percent"]

    rate, reported = (_outcome(fn, *curves) for fn in (metrics.bd_rate, report_rate))
    if isinstance(rate, float):
        assert rate.hex() == reported.hex()
    else:
        assert rate == reported


def _faults(pairs):
    """Every fault of an RD curve, in the order RdCurve reports them: each point in
    rate order (a rate <= 0, then a non-finite PSNR), then fewer than 4 points,
    rates not strictly increasing, PSNR not strictly increasing and a log-rate
    slope that is not finite. The last is listed by its rule alone: it is never
    the first of two faults."""
    ordered = sorted(pairs)
    faults = []
    for rate, psnr in ordered:
        if rate <= 0:
            faults.append("bitrate must be positive")
        if not np.isfinite(psnr):
            faults.append("psnr must be finite")
    if len(pairs) < 4:
        faults.append(f"an RD curve needs >= 4 points, got {len(pairs)}")
    rates, psnrs = [r for r, _ in ordered], [p for _, p in ordered]
    if any(b >= a for b, a in zip(rates, rates[1:])):
        faults.append("bitrates must be strictly increasing")
    if any(b >= a for b, a in zip(psnrs, psnrs[1:])):
        faults.append("psnr must be strictly increasing with bitrate")
    with np.errstate(all="ignore"):
        slopes = np.diff(np.log10(rates)) / np.diff(psnrs)
    if not np.isfinite(slopes).all():
        faults.append("log-rate slopes must be finite")
    return faults


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(st.sampled_from([-1e5, 0.0, 1e5, 2e5, 4e5, 8e5, 1.6e6]),
                                st.one_of(st.floats(20, 50),
                                          st.sampled_from([np.nan, np.inf, -np.inf]))),
                      max_size=7))
@example(pairs=[(1e5, np.nan), (0.0, 30.0), (2e5, 31.0), (4e5, 32.0)])
@example(pairs=[(1e5, 33.0), (2e5, np.inf), (4e5, 32.0)])
@example(pairs=[(1e5, 30.0), (1e5, 31.0), (2e5, 29.0), (4e5, 32.0)])
@example(pairs=[(1e5, 30.0), (2e5, 30.0), (4e5, 31.0), (8e5, 32.0)])
def test_a_curve_with_two_faults_reports_the_first(pairs):
    faults = _faults(pairs)
    assume(len(set(faults)) >= 2)
    with pytest.raises(ValueError) as raised:
        metrics.RdCurve.from_pairs(pairs)
    assert str(raised.value) == faults[0]
