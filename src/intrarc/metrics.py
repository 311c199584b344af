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
class RdCurve:
    rates: tuple[float, ...]  # bits per second, strictly increasing
    psnrs: tuple[float, ...]  # dB, strictly increasing

    def __post_init__(self):
        for rate, psnr in zip(self.rates, self.psnrs, strict=True):
            if rate <= 0:
                raise ValueError("bitrate must be positive")
            if not math.isfinite(rate):
                raise ValueError("bitrate must be finite")
            if not math.isfinite(psnr):
                raise ValueError("psnr must be finite")
        if len(self.rates) < 4:
            raise ValueError(f"an RD curve needs >= 4 points, got {len(self.rates)}")
        if any(b >= a for b, a in zip(self.rates, self.rates[1:])):
            raise ValueError("bitrates must be strictly increasing")
        if any(b >= a for b, a in zip(self.psnrs, self.psnrs[1:])):
            raise ValueError("psnr must be strictly increasing with bitrate")
        x, y = np.array(self.psnrs), np.log10(self.rates)
        with np.errstate(over="ignore"):
            slopes = np.diff(y) / np.diff(x)
        if not np.isfinite(slopes).all():
            i = int(np.argmin(np.isfinite(slopes)))
            raise ValueError(f"log-rate slopes must be finite, but log10(rate) rises by "
                             f"{y[i + 1] - y[i]:.3g} between PSNR {x[i]:g} and {x[i + 1]:g}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "RdCurve":
        ordered = sorted(pairs)
        return cls(rates=tuple(r for r, _ in ordered), psnrs=tuple(p for _, p in ordered))


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


def bd_rate(anchor: RdCurve, test: RdCurve) -> float:
    """Average bitrate difference of `test` against `anchor`, in percent."""
    return bd_report(anchor, test)["bd_rate_percent"]


def bd_report(anchor: RdCurve, test: RdCurve) -> dict:
    lo = max(anchor.psnrs[0], test.psnrs[0])
    hi = min(anchor.psnrs[-1], test.psnrs[-1])
    if hi <= lo:
        raise OverlapError(f"no PSNR overlap: anchor {(anchor.psnrs[0], anchor.psnrs[-1])}, "
                           f"test {(test.psnrs[0], test.psnrs[-1])}")
    integrals = []
    for name, curve in (("anchor", anchor), ("test", test)):
        try:
            with np.errstate(over="raise", invalid="raise"):
                integrals.append(_pchip_integral(np.array(curve.psnrs), np.log10(curve.rates),
                                                 lo, hi))
        except FloatingPointError:
            raise ValueError(f"{name} curve: PSNR {curve.psnrs[0]:g} to {curve.psnrs[-1]:g} "
                             "is too wide a span for a finite BD-rate interpolation") from None
    ia, it = integrals
    offset = (it - ia) / float(hi - lo)  # a Python float: ** raises OverflowError, never warns
    try:
        rate = 100.0 * (10.0 ** offset - 1.0)
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(f"BD-rate is not finite: mean log10-rate offset of test over anchor "
                         f"is {offset:.6g}")
    return {"bd_rate_percent": rate, "psnr_overlap": [lo, hi], "method": BD_METHOD}


def read_rd_csv(path: str) -> RdCurve:
    with tables.naming(path):
        return RdCurve.from_pairs(pair for _, columns in tables.blocks(path, RD_COLUMNS)
                                  for pair in zip(*columns))
