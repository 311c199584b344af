"""Evaluation metrics: BD-rate between RD curves.

BD-rate interpolates both curves as log10(rate) over PSNR with a
monotone piecewise cubic (PCHIP), integrates the difference exactly
over the common PSNR interval, and converts the mean log offset back to
a percentage. Positive values mean the test curve spends more bits for
the same quality. Knot slopes follow Fritsch and Carlson (SIAM J. Numer.
Anal., 1980): inside, the Fritsch-Butland weighted harmonic mean of the
two secants, 0 beside a flat one; at the ends, a one-sided three-point
estimate floored at 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from intrarc import tables

RD_COLUMNS = {"bitrate": tables.BITS, "psnr_yuv": tables.REAL}
BD_METHOD = "pchip-log-rate"


class OverlapError(ValueError):
    """RD curves share no PSNR interval."""


@dataclass(frozen=True)
class RdPoint:
    bitrate: float   # bits per second
    psnr_yuv: float  # dB

    def __post_init__(self):
        if self.bitrate <= 0:
            raise ValueError("bitrate must be positive")
        if not math.isfinite(self.psnr_yuv):
            raise ValueError("psnr must be finite")


@dataclass(frozen=True)
class RdCurve:
    points: tuple[RdPoint, ...]

    def __post_init__(self):
        if len(self.points) < 4:
            raise ValueError(f"an RD curve needs >= 4 points, got {len(self.points)}")
        rates = [p.bitrate for p in self.points]
        psnrs = [p.psnr_yuv for p in self.points]
        if any(b >= a for b, a in zip(rates, rates[1:])):
            raise ValueError("bitrates must be strictly increasing")
        if any(b > a for b, a in zip(psnrs, psnrs[1:])):
            raise ValueError("psnr must be non-decreasing with bitrate")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "RdCurve":
        pts = tuple(RdPoint(bitrate=r, psnr_yuv=p) for r, p in sorted(pairs))
        return cls(points=pts)

    def psnr_range(self) -> tuple[float, float]:
        return self.points[0].psnr_yuv, self.points[-1].psnr_yuv


def _pchip_integral(x: np.ndarray, y: np.ndarray, lo: float, hi: float) -> float:
    """Exact integral over [lo, hi] of the monotone piecewise cubic through (x, y)."""
    h = np.diff(x)
    m = np.diff(y) / h
    # Rates and PSNRs both increase, so no secant is negative and the rule's
    # cases for secants of opposite sign cannot occur.
    d = np.zeros_like(y)
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    k = np.flatnonzero((m[:-1] > 0) & (m[1:] > 0))
    d[k + 1] = (w1[k] + w2[k]) / (w1[k] / m[k] + w2[k] / m[k + 1])
    d[0] = max(((2 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]), 0.0)
    d[-1] = max(((2 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2]), 0.0)
    # Every interval's cubic y[k] + d[k] s + b[k] s^2 + c[k] s^3 is built, so that a span too
    # wide for any of them is rejected; p integrates it from s = 0 to lo - x[k] and hi - x[k].
    b, c = (3 * m - 2 * d[:-1] - d[1:]) / h, (d[:-1] + d[1:] - 2 * m) / h / h
    ij = np.clip(np.searchsorted(x, [lo, hi], side="right") - 1, 0, len(h) - 1)
    s = np.array([lo, hi]) - x[ij]
    p = s * (y[ij] + s * (d[ij] / 2 + s * (b[ij] / 3 + s * c[ij] / 4)))
    whole = h * ((y[:-1] + y[1:]) / 2 + h * (d[:-1] - d[1:]) / 12)
    return float(whole[ij[0]:ij[1]].sum() - p[0] + p[1])


def _log_rate_integral(curve: RdCurve, name: str, lo: float, hi: float) -> float:
    """Integral of the curve's PCHIP of log10(rate) over PSNR from lo to hi."""
    x = np.array([p.psnr_yuv for p in curve.points])
    y = np.log10([p.bitrate for p in curve.points])
    if (x[1:] <= x[:-1]).any():
        raise ValueError(f"{name} curve: BD-rate needs strictly increasing PSNR")
    with np.errstate(over="ignore"):
        slopes = np.diff(y) / np.diff(x)
    if not np.isfinite(slopes).all():
        i = int(np.argmin(np.isfinite(slopes)))
        raise ValueError(f"{name} curve: BD-rate needs finite log-rate slopes, but log10(rate) "
                         f"rises by {y[i + 1] - y[i]:.3g} between PSNR {x[i]:g} and {x[i + 1]:g}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _pchip_integral(x, y, lo, hi)
    except FloatingPointError:
        raise ValueError(f"{name} curve: PSNR {x[0]:g} to {x[-1]:g} is too wide a span "
                         "for a finite BD-rate interpolation") from None


def _bd_rate_and_overlap(anchor: RdCurve, test: RdCurve) -> tuple[float, float, float]:
    lo = max(anchor.psnr_range()[0], test.psnr_range()[0])
    hi = min(anchor.psnr_range()[1], test.psnr_range()[1])
    if hi <= lo:
        raise OverlapError(
            f"no PSNR overlap: anchor {anchor.psnr_range()}, test {test.psnr_range()}")
    ia = _log_rate_integral(anchor, "anchor", lo, hi)
    it = _log_rate_integral(test, "test", lo, hi)
    offset = (it - ia) / float(hi - lo)  # a Python float: ** raises OverflowError, never warns
    try:
        rate = 100.0 * (10.0 ** offset - 1.0)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(f"BD-rate is not finite: mean log10-rate offset of test over anchor "
                         f"is {offset:.6g}")
    return rate, lo, hi


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average bitrate difference of `test` against `anchor`, in percent."""
    return _bd_rate_and_overlap(anchor, test)[0]


def bd_report(anchor: RdCurve, test: RdCurve) -> dict:
    rate, lo, hi = _bd_rate_and_overlap(anchor, test)
    return {
        "bd_rate_percent": rate,
        "psnr_overlap": [lo, hi],
        "method": BD_METHOD,
    }


def write_rd_csv(path: str, curve: RdCurve) -> None:
    tables.write(path, RD_COLUMNS, ([p.bitrate, p.psnr_yuv] for p in curve.points))


def read_rd_csv(path: str) -> RdCurve:
    return RdCurve.from_pairs(values for _, values in tables.read(path, RD_COLUMNS))
