"""One-dimensional optimal transport maps.

A fitted monotone scalar map is its knot vectors ``(knots_x, knots_y)``:
``np.interp(t, knots_x, knots_y)`` applies it, linear between the knots and
constant beyond the end knots, so a map never leaves its target's range.
Two fits produce one:

* ``fit_sorted_map`` -- the exact empirical map obtained by sorting: the
  i-th order statistic of the source goes to the matching quantile of the
  target.
* ``fit_regularized_map`` -- the CDF composition G^-1 (o) F sampled at the
  points of a grid, with both CDFs estimated by an FFT-accelerated Gaussian
  KDE on that grid and floored by a small constant so they are strictly
  increasing.

The regularized map's grid has ``KDE_BINS`` points over the pooled sample
range padded by ``KDE_MARGIN`` on both sides, its densities are floored by
``KDE_FLOOR``, and its bandwidths follow Scott's rule with a robust spread.
"""

from __future__ import annotations

import numpy as np

from .core import checked_array

__all__ = [
    "fit_sorted_map",
    "fit_regularized_map",
    "fft_kde",
    "resolve_bandwidth",
]

KDE_BINS = 500
KDE_MARGIN = 0.1
KDE_FLOOR = 1e-8


def fit_sorted_map(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Fit the exact empirical 1D transport map by sorting.

    Evaluates the target empirical quantile function (linear between order
    statistics at midpoint plotting positions) at the source plotting
    positions (i - 1/2) / N1. Equal sample sizes share the plotting
    positions, so the i-th order statistics pair exactly. Returns the
    knots: the sorted source and its images, N1 each.
    """
    xs = np.sort(checked_array(x, "x", 2, ndim=1))
    ys = np.sort(checked_array(y, "y", 2, ndim=1))
    n1, n2 = xs.shape[0], ys.shape[0]
    p_src = (np.arange(1, n1 + 1) - 0.5) / n1
    p_tgt = (np.arange(1, n2 + 1) - 0.5) / n2
    return xs, np.interp(p_src, p_tgt, ys)


def fft_kde(samples, bandwidth: float, grid) -> np.ndarray:
    """Gaussian KDE of linearly-binned samples evaluated on an equispaced grid.

    Samples split their unit weight between the two bracketing grid cells;
    the binned weights are convolved with a Gaussian of standard deviation
    ``bandwidth`` via zero-padded FFT (no wrap-around). Negative ringing is
    clamped and the result normalized so cell_width * sum(density) = 1.
    """
    z = checked_array(grid, "grid", 8, ndim=1, order="strictly increasing")
    b = z.shape[0]
    dz = np.diff(z)
    if np.any(np.abs(dz - dz[0]) > 1e-9 * dz[0]):
        raise ValueError("grid must be equispaced")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    s = checked_array(samples, "samples", ndim=1)
    if s.min() < z[0] or s.max() > z[-1]:
        raise ValueError("samples fall outside the grid range")

    step = (z[-1] - z[0]) / (b - 1)
    pos = (s - z[0]) / step
    idx = np.clip(np.floor(pos).astype(np.intp), 0, b - 1)
    frac = pos - idx
    # lower-cell shares, then upper-cell shares, each in sample order: the pinned
    # model bytes depend on this summation order; bin b lies past the grid
    weights = np.bincount(
        np.concatenate((idx, idx + 1)), np.concatenate((1.0 - frac, frac)), minlength=b + 1
    )[:b]

    n = 2 * b
    kernel = np.exp(-0.5 * (np.arange(b) * step / bandwidth) ** 2)
    kernel_circ = np.zeros(n)
    kernel_circ[:b] = kernel
    kernel_circ[n - b + 1:] = kernel[1:][::-1]
    padded = np.zeros(n)
    padded[:b] = weights
    density = np.fft.irfft(np.fft.rfft(padded) * np.fft.rfft(kernel_circ), n)[:b]

    density = np.maximum(density, 0.0)
    total = density.sum() * step
    if total <= 0:
        raise ValueError("KDE normalization failed: zero total mass")
    return density / total


def resolve_bandwidth(samples, span: float) -> float:
    """Scott's rule with robust spread: h = min(std, IQR/1.349) * N^(-1/5).

    Zero spread falls back to h = 1e-3 * span; ``span`` should be the KDE
    grid width.
    """
    s = checked_array(samples, "samples", 2, ndim=1)
    sd = float(s.std(ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    sigma = min(sd, (q75 - q25) / 1.349)
    if sigma <= 0:
        return 1e-3 * span
    return sigma * s.shape[0] ** (-0.2)


def _kde_cdf(samples: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The samples' strictly increasing CDF on an equispaced grid.

    The Scott-bandwidth KDE density is floored by KDE_FLOOR, renormalized
    and accumulated, so the CDF's last value is 1.
    """
    span = grid[-1] - grid[0]
    step = span / (grid.shape[0] - 1)
    h = resolve_bandwidth(samples, span)
    density = fft_kde(samples, h, grid) + KDE_FLOOR
    density = density / (density.sum() * step)
    return np.cumsum(density) * step


def fit_regularized_map(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Fit the KDE-regularized 1D transport map from x-samples to y-samples.

    The grid spans the pooled sample range padded by KDE_MARGIN on both
    sides, and each sample set gets its own KDE CDF on it. Returns the
    knots: the KDE_BINS grid points and their images under G^-1 (o) F. A
    target without spread gets the constant map onto its value, on the
    same grid.
    """
    x = checked_array(x, "x", 2, ndim=1)
    y = checked_array(y, "y", 2, ndim=1)
    lo = min(x.min(), y.min()) - KDE_MARGIN
    hi = max(x.max(), y.max()) + KDE_MARGIN
    z = np.linspace(lo, hi, KDE_BINS)
    if y.min() == y.max():
        return z, np.full(KDE_BINS, y[0])
    return z, np.interp(_kde_cdf(x, z), _kde_cdf(y, z), z)
