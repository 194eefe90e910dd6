"""Sample-based discrepancy metrics.

Unbiased quadratic MMD^2 with a Gaussian kernel, the O(N) linear-MMD
approximation over disjoint sample pairs, the generalized variant that
maximizes over a vector of bandwidths (by default the evaluation grid
``BANDWIDTHS``), and its value per matched-time snapshot pair of two series.
The quadratic estimator can dip slightly below zero on same-distribution
data; that is inherent to unbiasedness, not a bug.
"""

from __future__ import annotations

import functools
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .core import SnapshotSeries, _usable_cpus, checked_array

__all__ = [
    "BANDWIDTHS",
    "gmmd2",
    "per_snapshot_gmmd2",
    "choose_estimator",
]

# Fixed tile edge for pairwise kernel sums: keeps the summation order
# independent of sample count or thread environment, and a 256 x 256 tile
# with its exp scratch buffer (512 KiB each) and bool keep-mask (64 KiB)
# within a core's L2, so each concurrently scored snapshot pair holds little
# memory.
_BLOCK = 256

_TIME_MATCH_TOL = 1e-9

# kernel terms below exp(-700) ~ 1e-304 are dropped as exact zeros: numpy's
# exp leaves its SIMD fast path below about -708, and is 17-150 times slower
# there (most of all where the result is subnormal)
_EXP_FLOOR = -700.0

# The evaluation grid: 15 log-spaced kernel bandwidths from 0.01 to 100.
BANDWIDTHS = np.logspace(-2.0, 2.0, 15)
BANDWIDTHS.setflags(write=False)


def _exp_sums(d2: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Sum of exp(c * d2) over d2 >= 0 per c < 0, leaving out the terms below
    exp(_EXP_FLOOR); every exp argument stays at or above the floor."""
    d2 = d2.ravel()
    arg = np.empty_like(d2)
    keep = np.empty(d2.shape, dtype=bool)
    d2_max = d2.max(initial=0.0)  # a one-row diagonal tile has no pairs
    sums = np.empty(coefs.shape[0])
    for s, c in enumerate(coefs):
        np.multiply(d2, c, out=arg)
        if c * d2_max < _EXP_FLOOR:
            np.greater_equal(arg, _EXP_FLOOR, out=keep)
            np.maximum(arg, _EXP_FLOOR, out=arg)
            np.exp(arg, out=arg)
            np.multiply(arg, keep, out=arg)
        else:
            np.exp(arg, out=arg)
        sums[s] = arg.sum()
    return sums


@functools.lru_cache(maxsize=2)
def _upper_mask(n: int) -> np.ndarray:
    mask = np.arange(n)[:, None] < np.arange(n)
    mask.setflags(write=False)
    return mask


def _kernel_sums(a: np.ndarray, b: np.ndarray | None, coefs: np.ndarray) -> np.ndarray:
    """Sum of exp(c |a_i - b_j|^2) per c over all pairs (i, j), or over the
    pairs i < j of a when b is None (tiles on and above the diagonal only)."""
    same = b is None
    a2 = np.sum(a * a, axis=1)
    b, b2 = (a, a2) if same else (b, np.sum(b * b, axis=1))
    # einsum's "ik,kj" loop on b's transpose is several times faster at
    # small d than "ik,jk" on b
    bt = np.ascontiguousarray(b.T)
    totals = np.zeros(coefs.shape[0])
    for i0 in range(0, a.shape[0], _BLOCK):
        ai = a[i0 : i0 + _BLOCK]
        for j0 in range(i0 if same else 0, b.shape[0], _BLOCK):
            # einsum's own loops instead of BLAS: OpenBLAS workers spin
            # between small products and so starve the concurrent pairs
            d2 = np.einsum("ik,kj->ij", ai, bt[:, j0 : j0 + _BLOCK])
            d2 *= -2.0
            d2 += a2[i0 : i0 + _BLOCK, None]
            d2 += b2[None, j0 : j0 + _BLOCK]
            np.maximum(d2, 0.0, out=d2)
            if same and i0 == j0:
                d2 = d2[_upper_mask(d2.shape[0])]
            totals += _exp_sums(d2, coefs)
    return totals


def _mmd2_grid(x: np.ndarray, y: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    n1, n2 = x.shape[0], y.shape[0]
    # |a|^2 + |b|^2 - 2 a.b cancels far from the origin, so both samples are
    # shifted by one centre; its sum is symmetric in x and y
    centre = (x.sum(axis=0) + y.sum(axis=0)) / (n1 + n2)
    x, y = x - centre, y - centre
    coefs = -0.5 / (sigmas * sigmas)
    sxx = _kernel_sums(x, None, coefs)
    syy = _kernel_sums(y, None, coefs)
    # evaluate the cross sum with canonically ordered arguments so that
    # swapping x and y reproduces the identical floating-point result
    if (n1, x.tobytes()) <= (n2, y.tobytes()):
        sxy = _kernel_sums(x, y, coefs)
    else:
        sxy = _kernel_sums(y, x, coefs)
    within = 2.0 * sxx / (n1 * (n1 - 1)) + 2.0 * syy / (n2 * (n2 - 1))
    return within - 2.0 * sxy / (n1 * n2)


def _linear_mmd2_grid(x: np.ndarray, y: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    if n % 2:
        warnings.warn(
            "odd sample count; dropping the last sample to form disjoint pairs",
            stacklevel=3,
        )
        x = x[:-1]
        y = y[:-1]
    xa, xb = x[0::2], x[1::2]
    ya, yb = y[0::2], y[1::2]
    sq = lambda u, v: np.sum((u - v) ** 2, axis=1)
    coefs = -0.5 / (sigmas * sigmas)
    s_xx, s_yy, s_ab, s_ba = (
        _exp_sums(sq(u, v), coefs) for u, v in ((xa, xb), (ya, yb), (xa, yb), (xb, ya))
    )
    return ((s_xx + s_yy) - (s_ab + s_ba)) / xa.shape[0]


def gmmd2(x, y, grid=BANDWIDTHS, estimator: str = "quadratic") -> float:
    """Generalized MMD^2: maximum of the chosen estimator over the bandwidths.

    ``grid`` is any strictly increasing vector of positive bandwidths.

    "quadratic" is the unbiased estimator: within-group kernel sums skip the
    diagonal and divide by N(N-1) per group, and the cross sum runs over
    all pairs with weight 2/(N1 N2). "linear" is its O(N) approximation
    averaged over disjoint sample pairs; it requires equally sized inputs
    with at least 4 rows, and an odd row count drops the final sample (with
    a warning) so the pairs stay disjoint. A one-bandwidth grid gives the
    plain MMD^2 at that bandwidth.
    """
    grid = checked_array(grid, "bandwidths", ndim=1, order="strictly increasing")
    if grid[0] <= 0:
        raise ValueError("bandwidths must be positive")
    x = checked_array(x, "x", 2)
    y = checked_array(y, "y", 2, x.shape[1])
    if estimator == "quadratic":
        values = _mmd2_grid(x, y, grid)
    elif estimator == "linear":
        if x.shape != y.shape or x.shape[0] < 4:
            raise ValueError(
                "linear estimator requires equal shapes with at least 4 rows"
            )
        values = _linear_mmd2_grid(x, y, grid)
    else:
        raise ValueError(f"estimator must be 'quadratic' or 'linear', got {estimator!r}")
    return float(values.max())


def choose_estimator(n1: int, n2: int) -> str:
    """Estimator rule of the evaluation harness for a snapshot pair.

    Linear pairing needs equal sizes; the quadratic cutoff is 2000 samples.
    """
    if n1 == n2 and min(n1, n2) > 2000:
        return "linear"
    return "quadratic"


def per_snapshot_gmmd2(
    series_a: SnapshotSeries, series_b: SnapshotSeries
) -> list[tuple[float, float, str]]:
    """(time, generalized MMD^2 over ``BANDWIDTHS``, estimator) for each
    snapshot pair matched by time.

    The two series must have equal length and pairwise-equal times (within
    1e-9). Each pair takes the estimator ``choose_estimator`` picks for its
    sizes. The pairs are scored concurrently on min(pairs, usable CPUs)
    threads; a pair's value does not depend on the schedule.
    """
    if len(series_a) != len(series_b):
        raise ValueError(
            f"snapshot counts differ: {len(series_a)} vs {len(series_b)}"
        )
    differ = np.flatnonzero(np.abs(series_a.times - series_b.times) > _TIME_MATCH_TOL)
    if differ.size:
        ta, tb = float(series_a.times[differ[0]]), float(series_b.times[differ[0]])
        raise ValueError(f"snapshot times differ: {ta!r} vs {tb!r}")
    chosen = [
        choose_estimator(len(x), len(y)) for x, y in zip(series_a.samples, series_b.samples)
    ]

    def score(x, y, est):
        return gmmd2(x, y, BANDWIDTHS, est)

    with ThreadPoolExecutor(max_workers=min(len(chosen), _usable_cpus())) as pool:
        values = list(pool.map(score, series_a.samples, series_b.samples, chosen))
    return list(zip(series_a.times.tolist(), values, chosen))
