"""Sample-based discrepancy metrics.

Unbiased quadratic MMD^2 with a Gaussian kernel, the O(N) linear-MMD
approximation over disjoint sample pairs, the generalized variant that
maximizes over a bandwidth grid, and its value per matched-time snapshot
pair of two series. The quadratic estimator can dip slightly below zero on
same-distribution data; that is inherent to unbiasedness, not a bug.
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import SnapshotSeries, checked_array

__all__ = [
    "BandwidthGrid",
    "gaussian_kernel",
    "mmd2",
    "linear_mmd2",
    "gmmd2",
    "per_snapshot_gmmd2",
    "avg_gmmd2",
    "choose_estimator",
]

# Fixed tile edge for pairwise kernel sums: keeps the summation order
# independent of sample count or thread environment, and a 256 x 256 tile
# with its exp scratch buffer (512 KiB each) within a core's L2, so each
# concurrently scored snapshot pair holds little memory.
_BLOCK = 256

_TIME_MATCH_TOL = 1e-9

# exp(x) is exactly 0.0 in IEEE double below about -745.13, and numpy's exp
# is several times slower on such arguments than on ordinary ones
_EXP_ZERO = -746.0


@dataclass(frozen=True)
class BandwidthGrid:
    """Strictly increasing positive kernel bandwidths to maximize over."""

    values: np.ndarray

    def __post_init__(self):
        v = checked_array(
            self.values, "bandwidths", ndim=1, order="strictly increasing", frozen="copy"
        )
        if v[0] <= 0:
            raise ValueError("bandwidths must be positive")
        object.__setattr__(self, "values", v)

    @classmethod
    def default(cls) -> "BandwidthGrid":
        return cls(np.logspace(-2.0, 2.0, 15))

    def __len__(self) -> int:
        return self.values.shape[0]


def gaussian_kernel(u, v, sigma: float) -> np.ndarray:
    """Kernel matrix exp(-|u_i - v_j|^2 / (2 sigma^2))."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    v = np.atleast_2d(np.asarray(v, dtype=np.float64))
    d2 = (
        np.sum(u * u, axis=1)[:, None]
        + np.sum(v * v, axis=1)[None, :]
        - 2.0 * (u @ v.T)
    )
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-d2 / (2.0 * sigma * sigma))


def _exp_sums(d2: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Sum of exp(c * d2) over d2 >= 0 per c < 0, leaving out the exact zeros."""
    d2 = d2.ravel()
    scratch = np.empty_like(d2)
    d2_max = d2.max(initial=0.0)  # a one-row diagonal tile has no pairs
    sums = np.empty(coefs.shape[0])
    for s, c in enumerate(coefs):
        kept = d2 if c * d2_max >= _EXP_ZERO else d2[d2 <= _EXP_ZERO / c]
        buf = scratch[: kept.size]
        sums[s] = np.exp(np.multiply(kept, c, out=buf), out=buf).sum()
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
    totals = np.zeros(coefs.shape[0])
    for i0 in range(0, a.shape[0], _BLOCK):
        ai = a[i0 : i0 + _BLOCK]
        for j0 in range(i0 if same else 0, b.shape[0], _BLOCK):
            # einsum's own loops instead of BLAS: OpenBLAS workers spin
            # between small products and so starve the concurrent pairs
            d2 = np.einsum("ik,jk->ij", ai, b[j0 : j0 + _BLOCK])
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


def mmd2(x, y, sigma: float) -> float:
    """Unbiased squared maximum mean discrepancy with Gaussian kernel width sigma.

    Within-group kernel sums skip the diagonal and divide by N(N-1) per
    group; the cross sum runs over all pairs with weight 2/(N1 N2).
    """
    return gmmd2(x, y, BandwidthGrid([sigma]))


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


def linear_mmd2(x, y, sigma: float) -> float:
    """O(N) approximation of mmd2 averaged over disjoint sample pairs.

    Requires equally sized inputs with at least 4 rows; an odd row count
    drops the final sample (with a warning) so the pairs stay disjoint.
    """
    return gmmd2(x, y, BandwidthGrid([sigma]), "linear")


def gmmd2(
    x, y, grid: BandwidthGrid | None = None, estimator: str = "quadratic"
) -> float:
    """Generalized MMD^2: maximum of the chosen estimator over the grid."""
    if grid is None:
        grid = BandwidthGrid.default()
    x = checked_array(x, "x", 2)
    y = checked_array(y, "y", 2, x.shape[1])
    if estimator == "quadratic":
        values = _mmd2_grid(x, y, grid.values)
    elif estimator == "linear":
        if x.shape != y.shape or x.shape[0] < 4:
            raise ValueError(
                "linear estimator requires equal shapes with at least 4 rows"
            )
        values = _linear_mmd2_grid(x, y, grid.values)
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
    series_a: SnapshotSeries,
    series_b: SnapshotSeries,
    grid: BandwidthGrid | None = None,
    estimator: str | None = None,
) -> list[tuple[float, float, str]]:
    """(time, generalized MMD^2, estimator) for each snapshot pair matched by time.

    The two series must have equal length and pairwise-equal times (within
    1e-9). ``estimator`` None picks quadratic for small or unequal snapshot
    pairs and the linear approximation for large equal-size pairs. The pairs
    are scored concurrently, one thread per core; a pair's value does not
    depend on the schedule.
    """
    if len(series_a) != len(series_b):
        raise ValueError(
            f"snapshot counts differ: {len(series_a)} vs {len(series_b)}"
        )
    chosen = []
    for snap_a, snap_b in zip(series_a, series_b):
        if abs(snap_a.time - snap_b.time) > _TIME_MATCH_TOL:
            raise ValueError(
                f"snapshot times differ: {snap_a.time!r} vs {snap_b.time!r}"
            )
        chosen.append(
            choose_estimator(snap_a.n, snap_b.n) if estimator is None else estimator
        )

    def score(snap_a, snap_b, est):
        return gmmd2(snap_a.samples, snap_b.samples, grid, est)

    with ThreadPoolExecutor(max_workers=min(len(chosen), os.cpu_count() or 1)) as pool:
        values = list(pool.map(score, series_a, series_b, chosen))
    return [(snap.time, v, est) for snap, v, est in zip(series_a, values, chosen)]


def avg_gmmd2(
    series_a: SnapshotSeries,
    series_b: SnapshotSeries,
    grid: BandwidthGrid | None = None,
    estimator: str | None = None,
) -> float:
    """Mean of ``per_snapshot_gmmd2`` over the matched snapshot pairs."""
    pairs = per_snapshot_gmmd2(series_a, series_b, grid, estimator)
    return float(np.mean([value for _, value, _ in pairs]))
