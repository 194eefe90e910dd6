"""The benchmark's own computations, written apart from the dppmm package.

Outputs of the program are checked against these, never against stored
copies of earlier output. Only numpy is used.
"""

from __future__ import annotations

import math

import numpy as np

_ROW_BLOCK = 1024


def _sq_dists(a: np.ndarray, b: np.ndarray):
    """Yield row blocks of the squared distance matrix.

    Works in place: each block is a fresh array, built without temporaries
    of its size, which would cost more than the arithmetic.
    """
    b2 = (b * b).sum(axis=1)
    for i0 in range(0, a.shape[0], _ROW_BLOCK):
        ai = a[i0 : i0 + _ROW_BLOCK]
        d2 = ai @ b.T
        d2 *= -2.0
        d2 += (ai * ai).sum(axis=1)[:, None]
        d2 += b2[None, :]
        yield np.maximum(d2, 0.0, out=d2)


def kernel_means(a: np.ndarray, b: np.ndarray, sigmas) -> np.ndarray:
    """Mean of exp(-|a_i - b_j|^2 / (2 sigma^2)) over all pairs, per sigma."""
    sums = np.zeros(len(sigmas))
    for block in _sq_dists(a, b):
        scratch = np.empty_like(block)
        for s, sigma in enumerate(sigmas):
            np.multiply(block, -0.5 / (sigma * sigma), out=scratch)
            sums[s] += np.exp(scratch, out=scratch).sum()
    return sums / (a.shape[0] * b.shape[0])


def vstat_mmd2(x, y, sigmas, self_x=None, self_y=None) -> float:
    """Biased (V-statistic) Gaussian MMD^2, averaged over the bandwidths.

    Diagonal terms are kept, so the value is positive even when x and y are
    drawn from one distribution. ``self_x`` and ``self_y`` may pass
    ``kernel_means(x, x, sigmas)`` and ``kernel_means(y, y, sigmas)`` when
    they are already known.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if self_x is None:
        self_x = kernel_means(x, x, sigmas)
    if self_y is None:
        self_y = kernel_means(y, y, sigmas)
    return float((self_x + self_y - 2.0 * kernel_means(x, y, sigmas)).mean())


def quadratic_gmmd2(x, y, sigmas) -> float:
    """Unbiased quadratic MMD^2 (diagonals dropped), maximized over sigmas."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, m = x.shape[0], y.shape[0]
    kxx = kernel_means(x, x, sigmas) * n * n
    kyy = kernel_means(y, y, sigmas) * m * m
    kxy = kernel_means(x, y, sigmas)
    values = (kxx - n) / (n * (n - 1)) + (kyy - m) / (m * (m - 1)) - 2.0 * kxy
    return float(values.max())


def linear_gmmd2(x, y, sigmas) -> float:
    """Linear-time MMD^2 over disjoint row pairs, maximized over sigmas.

    Rows (0, 1), (2, 3), ... form the pairs; an odd last row is dropped.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    half = x.shape[0] // 2
    x1, x2 = x[0 : 2 * half : 2], x[1 : 2 * half : 2]
    y1, y2 = y[0 : 2 * half : 2], y[1 : 2 * half : 2]

    def sq(u, v):
        return ((u - v) ** 2).sum(axis=1)

    pairs = (sq(x1, x2), sq(y1, y2), sq(x1, y2), sq(x2, y1))
    best = -math.inf
    for sigma in sigmas:
        k = [np.exp(p / (-2.0 * sigma * sigma)) for p in pairs]
        best = max(best, float(np.mean(k[0] + k[1] - k[2] - k[3])))
    return best


def not_a_knot_spline(times, values, t) -> np.ndarray:
    """Evaluate the not-a-knot cubic spline through (times, values) at t.

    ``values`` has shape (M, ...) with M >= 4 knots; every trailing entry is
    interpolated independently. Solves for the second derivatives at the
    knots: interior rows enforce C^2 continuity, the first and last rows a
    continuous third derivative across the second and the penultimate knot.
    """
    x = np.asarray(times, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    m = x.shape[0]
    if m < 4:
        raise ValueError("the not-a-knot spline needs at least 4 knots")
    flat = y.reshape(m, -1)
    h = np.diff(x)
    slope = np.diff(flat, axis=0) / h[:, None]
    a = np.zeros((m, m))
    rhs = np.zeros_like(flat)
    for i in range(1, m - 1):
        a[i, i - 1 : i + 2] = (h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i])
        rhs[i] = 6.0 * (slope[i] - slope[i - 1])
    a[0, :3] = (h[1], -(h[0] + h[1]), h[0])
    a[-1, -3:] = (h[-1], -(h[-2] + h[-1]), h[-2])
    second = np.linalg.solve(a, rhs)

    t = float(t)
    i = int(np.clip(np.searchsorted(x, t, side="right") - 1, 0, m - 2))
    hi = h[i]
    left, right = x[i + 1] - t, t - x[i]
    out = (
        second[i] * left**3 / (6.0 * hi)
        + second[i + 1] * right**3 / (6.0 * hi)
        + (flat[i] / hi - second[i] * hi / 6.0) * left
        + (flat[i + 1] / hi - second[i + 1] * hi / 6.0) * right
    )
    return out.reshape(y.shape[1:])


def ou_decay_ratio(t, decay: float, horizon: float):
    """Closed form of (m(t) - m(T)) / (m(0) - m(T)) for a linear OU mean.

    The mean of dX = -decay X dt + noise is m(t) = m(0) exp(-decay t), so
    the ratio is (exp(-decay t) - exp(-decay T)) / (1 - exp(-decay T)),
    which no affine rescaling of the coordinate changes.
    """
    t = np.asarray(t, dtype=np.float64)
    end = math.exp(-decay * horizon)
    return (np.exp(-decay * t) - end) / (1.0 - end)


def ou_decay_check(columns, times, decay: float, horizon: float, z: float = 5.0):
    """Compare the empirical mean-decay ratio of coupled columns with the closed form.

    ``columns`` is (N, M): one coordinate of N trajectories at M times, the
    first at t = 0 and the last at t = ``horizon``. Returns the largest
    deviation in standard errors; the standard error uses the delta method
    per trajectory, so the coupling of rows across times is accounted for.
    Raises ValueError when a deviation exceeds ``z`` standard errors.
    """
    c = np.asarray(columns, dtype=np.float64)
    n = c.shape[0]
    mean = c.mean(axis=0)
    spread = mean[0] - mean[-1]
    expected = ou_decay_ratio(times, decay, horizon)
    worst = 0.0
    for j in range(1, c.shape[1] - 1):
        ratio = (mean[j] - mean[-1]) / spread
        # linearized ratio error per trajectory
        u = (c[:, j] - c[:, -1]) - ratio * (c[:, 0] - c[:, -1])
        se = float(u.std(ddof=1) / math.sqrt(n) / abs(spread))
        dev = abs(ratio - float(expected[j])) / se
        worst = max(worst, dev)
        if dev > z:
            raise ValueError(
                f"OU mean-decay ratio at t={times[j]:.4g} is {ratio:.6f}, "
                f"closed form {expected[j]:.6f} ({dev:.1f} standard errors)"
            )
    return worst
