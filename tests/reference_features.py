"""The block-DCT energy kernel that `features` once used, kept as the oracle
that the faster kernel must match to within rounding.

It converts one block row to float64, subtracts each block's top-left
sample in place (the operand is a view of the array it writes), runs
`C @ blocks @ C.T` with a transposed view of `C`, then weights the
absolute coefficients elementwise and sums them over both block axes.
"""

import math
from functools import cache

import numpy as np


@cache
def _ac_weights(w: int) -> np.ndarray:
    i = np.arange(w, dtype=np.float64) / w
    weights = np.exp(np.sqrt(i[:, None] ** 2 + i[None, :] ** 2))
    weights[0, 0] = 0.0  # DC excluded
    return weights


@cache
def _dct_matrix(w: int) -> np.ndarray:
    """Orthonormal DCT-II matrix C, so that C @ block @ C.T is the 2-D transform."""
    n = np.arange(w)
    c = math.sqrt(2.0 / w) * np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / (2 * w))
    c[0] *= math.sqrt(0.5)
    return c


def block_texture_energies(plane: np.ndarray, block_size: int) -> np.ndarray:
    """Weighted absolute-AC DCT sums for every block of a 2-D plane."""
    w = block_size
    plane = np.asarray(plane)
    h, width = plane.shape
    nr, nc = -(-h // w), -(-width // w)
    c = _dct_matrix(w)
    weights = _ac_weights(w)
    out = np.empty((nr, nc))
    for r in range(nr):
        strip = plane[r * w:(r + 1) * w]
        if strip.shape != (w, nc * w):
            strip = np.pad(strip, ((0, w - strip.shape[0]), (0, nc * w - width)), mode="edge")
        blocks = strip.reshape(w, nc, w).transpose(1, 0, 2).astype(np.float64, order="C")
        blocks -= blocks[:, :1, :1]
        coeffs = c @ blocks @ c.T
        np.abs(coeffs, out=coeffs)
        coeffs *= weights
        out[r] = coeffs.sum(axis=(-2, -1))
    return out.reshape(-1)


def plane_energy(plane: np.ndarray, block_size: int, sample_scale: float) -> float:
    """Normalized texture energy of a 2-D plane (exact block-order invariant sum)."""
    energies = block_texture_energies(plane, block_size)
    return math.fsum(energies.tolist()) / (energies.size * block_size**2 * sample_scale)
