"""Evaluation metrics: BD-rate between RD curves.

BD-rate interpolates both curves as log10(rate) over PSNR with a
monotone piecewise cubic (PCHIP), integrates the difference exactly
over the common PSNR interval, and converts the mean log offset back to
a percentage. Positive values mean the test curve spends more bits for
the same quality.
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


def _log_rate_spline(curve: RdCurve, name: str) -> scipy.interpolate.PchipInterpolator:
    # Imported here so that only BD-rate pays scipy's import time.
    from scipy.interpolate import PchipInterpolator

    x = np.array([p.psnr_yuv for p in curve.points])
    y = np.log10([p.bitrate for p in curve.points])
    if (np.diff(x) <= 0).any():
        raise ValueError(f"{name} curve: BD-rate needs strictly increasing PSNR")
    with np.errstate(over="ignore"):
        slopes = np.diff(y) / np.diff(x)
    if not np.isfinite(slopes).all():
        i = int(np.argmin(np.isfinite(slopes)))
        raise ValueError(f"{name} curve: BD-rate needs finite log-rate slopes, but log10(rate) "
                         f"rises by {y[i + 1] - y[i]:.3g} between PSNR {x[i]:g} and {x[i + 1]:g}")
    try:
        with np.errstate(over="raise", invalid="raise"):
            return PchipInterpolator(x, y)
    except FloatingPointError:
        raise ValueError(f"{name} curve: PSNR {x[0]:g} to {x[-1]:g} is too wide a span "
                         "for a finite BD-rate interpolation") from None


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average bitrate difference of `test` against `anchor`, in percent."""
    lo = max(anchor.psnr_range()[0], test.psnr_range()[0])
    hi = min(anchor.psnr_range()[1], test.psnr_range()[1])
    if hi <= lo:
        raise OverlapError(
            f"no PSNR overlap: anchor {anchor.psnr_range()}, test {test.psnr_range()}"
        )
    ia = _log_rate_spline(anchor, "anchor").integrate(lo, hi)
    it = _log_rate_spline(test, "test").integrate(lo, hi)
    mean_log_diff = (it - ia) / (hi - lo)
    return 100.0 * (10.0**mean_log_diff - 1.0)


def bd_report(anchor: RdCurve, test: RdCurve) -> dict:
    lo = max(anchor.psnr_range()[0], test.psnr_range()[0])
    hi = min(anchor.psnr_range()[1], test.psnr_range()[1])
    return {
        "bd_rate_percent": bd_rate(anchor, test),
        "psnr_overlap": [lo, hi],
        "method": BD_METHOD,
    }


def write_rd_csv(path: str, curve: RdCurve) -> None:
    tables.write(path, RD_COLUMNS, ([p.bitrate, p.psnr_yuv] for p in curve.points))


def read_rd_csv(path: str) -> RdCurve:
    return RdCurve.from_pairs(values for _, values in tables.read(path, RD_COLUMNS))
