"""One-dimensional optimal transport maps.

Two interchangeable variants of the monotone scalar map sending samples of
one density onto another:

* ``SortedMap1D`` -- the exact empirical map obtained by sorting: the i-th
  order statistic of the source goes to the matching quantile of the target.
  Clamped to the extreme target knots outside the source's knot range.
* ``RegularizedMap1D`` -- the CDF composition G^-1 (o) F with both CDFs
  estimated by an FFT-accelerated Gaussian KDE on a common grid, floored by a
  small constant so they are strictly increasing. Acts as the identity
  outside its padded fitting interval.

Each class holds k maps, one per row of the matrices named in its ``FIELDS``,
checks each matrix once, and evaluates map i as ``m(t, row=i)``.

The regularized map's grid has ``KDE_BINS`` points over the pooled sample
range padded by ``KDE_MARGIN`` on both sides, and its densities are floored
by ``KDE_FLOOR``. Its bandwidths come from one of ``BANDWIDTH_RULES``: Scott's
rule (robust spread) or the improved Sheather-Jones fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import checked_array

__all__ = [
    "BANDWIDTH_RULES",
    "SortedMap1D",
    "RegularizedMap1D",
    "fit_sorted_map",
    "fit_regularized_map",
    "fft_kde",
    "bandwidth_scott",
    "bandwidth_isj",
]

BANDWIDTH_RULES = ("scott", "isj")
KDE_BINS = 500
KDE_MARGIN = 0.1
KDE_FLOOR = 1e-8
_ISJ_GRID = 256


@dataclass(frozen=True)
class SortedMap1D:
    """Piecewise-linear monotone maps through matched order statistics.

    Row i of the (k, n) knot matrices is map i; a single map may be given
    as two vectors. Constant beyond the extreme knots: a point left of the
    first knot goes to the first target knot, and one right of the last
    knot to the last target knot, so a map never leaves its target's range.
    """

    FIELDS = ("knots_x", "knots_y")

    knots_x: np.ndarray
    knots_y: np.ndarray

    def __post_init__(self):
        kx, ky = (
            checked_array(np.atleast_2d(k), name, order="nondecreasing", frozen="copy")
            for k, name in ((self.knots_x, "knots_x"), (self.knots_y, "knots_y"))
        )
        if kx.shape != ky.shape or kx.shape[1] < 2:
            raise ValueError(f"knots need one shape (k >= 1, n >= 2), got {kx.shape}, {ky.shape}")
        object.__setattr__(self, "knots_x", kx)
        object.__setattr__(self, "knots_y", ky)

    def __len__(self) -> int:
        return self.knots_x.shape[0]

    def __call__(self, t, row: int = 0):
        out = np.interp(np.asarray(t, dtype=np.float64), self.knots_x[row], self.knots_y[row])
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RegularizedMap1D:
    """KDE-regularized maps: inverse-target-CDF composed with source CDF.

    Map i is row i of the (k, bins) CDF matrices and of the (k, 2) ``domain``
    matrix; a single map may be given as vectors. Its strictly increasing CDFs
    live on the grid ``linspace(lo, hi, bins)`` over its padded interval
    [lo, hi] = domain[i]; outside that interval it is the identity.
    """

    FIELDS = ("cdf_source", "cdf_target", "domain")

    cdf_source: np.ndarray
    cdf_target: np.ndarray
    domain: np.ndarray
    grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # a domain row (lo, hi) is strictly increasing exactly when lo < hi
        f, g, domain = (
            checked_array(np.atleast_2d(a), name, order="strictly increasing", frozen="copy")
            for a, name in (
                (self.cdf_source, "cdf_source"),
                (self.cdf_target, "cdf_target"),
                (self.domain, "domain (lo < hi)"),
            )
        )
        k, b = f.shape
        if g.shape != f.shape or b < 8:
            raise ValueError(f"CDFs need one shape (k >= 1, bins >= 8), got {f.shape}, {g.shape}")
        if domain.shape != (k, 2):
            raise ValueError(f"domain has shape {domain.shape}, expected {(k, 2)}")
        for name, c in (("source", f), ("target", g)):
            if np.any(c[:, 0] < 0) or np.any(c[:, -1] > 1 + 1e-9):
                raise ValueError(f"{name} CDF must stay within [0, 1]")
        lo, hi = domain.T
        z = np.linspace(lo, hi, b, axis=1)
        z.setflags(write=False)
        object.__setattr__(self, "grid", z)
        object.__setattr__(self, "cdf_source", f)
        object.__setattr__(self, "cdf_target", g)
        object.__setattr__(self, "domain", domain)

    def __len__(self) -> int:
        return self.cdf_source.shape[0]

    def __call__(self, t, row: int = 0):
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = t.copy()  # identity outside the fitted interval
        lo, hi = self.domain[row]
        inside = (t >= lo) & (t <= hi)
        if np.any(inside):
            z = self.grid[row]
            u = np.interp(t[inside], z, self.cdf_source[row])
            out[inside] = np.interp(u, self.cdf_target[row], z)
        return float(out[0]) if scalar else out


def fit_sorted_map(x, y) -> SortedMap1D:
    """Fit the exact empirical 1D transport map by sorting.

    Evaluates the target empirical quantile function (linear between order
    statistics at midpoint plotting positions) at the source plotting
    positions (i - 1/2) / N1. Equal sample sizes share the plotting
    positions, so the i-th order statistics pair exactly.
    """
    xs = np.sort(checked_array(x, "x", 2, ndim=1))
    ys = np.sort(checked_array(y, "y", 2, ndim=1))
    n1, n2 = xs.shape[0], ys.shape[0]
    p_src = (np.arange(1, n1 + 1) - 0.5) / n1
    p_tgt = (np.arange(1, n2 + 1) - 0.5) / n2
    return SortedMap1D(xs, np.interp(p_src, p_tgt, ys))


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
    weights = np.zeros(b)
    np.add.at(weights, idx, 1.0 - frac)
    upper = idx + 1
    keep = upper <= b - 1
    np.add.at(weights, upper[keep], frac[keep])

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


def bandwidth_scott(samples, span: float = 1.0) -> tuple[float, bool]:
    """Scott's rule with robust spread: h = min(std, IQR/1.349) * N^(-1/5).

    Returns (h, degenerate). Zero spread falls back to h = 1e-3 * span with
    the degenerate flag set; ``span`` should then be the KDE grid width.
    """
    s = checked_array(samples, "samples", 2, ndim=1)
    sd = float(s.std(ddof=1))
    q75, q25 = np.percentile(s, [75.0, 25.0])
    sigma = min(sd, (q75 - q25) / 1.349)
    if sigma <= 0:
        return 1e-3 * span, True
    return sigma * s.shape[0] ** (-0.2), False


def _dct2(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-II, 2 * sum_n x[n] cos(pi k (2n + 1) / (2N)), by one FFT.

    Makhoul's reordering: even-indexed entries ascending, then odd-indexed
    entries descending; a phase twist turns the FFT of that sequence into
    the cosine transform.
    """
    n = x.shape[0]
    v = np.concatenate((x[::2], x[1::2][::-1]))
    twist = np.exp(-0.5j * np.pi * np.arange(n) / n)
    return 2.0 * (twist * np.fft.fft(v)).real


def _bracketed_root(f, a: float, b: float) -> float:
    """Root of f on [a, b] by Illinois false position, to within 2e-12.

    Raises ValueError without a sign change, FloatingPointError on a
    non-finite value and RuntimeError after 50 steps.
    """
    xtol, maxiter = 2e-12, 50
    fa, fb = f(a), f(b)
    if fa == 0:
        return a
    if fb == 0:
        return b
    if not fa * fb < 0:
        raise ValueError("f(a) and f(b) must have opposite signs")
    side = 0
    for _ in range(maxiter):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if not np.isfinite(fc):
            raise FloatingPointError("non-finite value in root finding")
        if fc == 0:
            return c
        if (fc > 0) == (fb > 0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5  # a kept twice: halve its value so it moves next
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
        if abs(b - a) <= xtol + 4.0 * np.finfo(float).eps * abs(c):
            return c
    raise RuntimeError(f"root finding did not converge in {maxiter} steps")


def _isj_fixed_point(t: float, n: int, i_sq: np.ndarray, a_sq: np.ndarray) -> float:
    # t - xi * gamma^[5](t) from the Botev diffusion-KDE fixed-point chain
    stages = 5
    f = 2.0 * np.pi ** (2 * stages) * np.sum(
        i_sq ** stages * a_sq * np.exp(-i_sq * np.pi ** 2 * t)
    )
    for s in range(stages - 1, 1, -1):
        odd_prod = float(np.prod(np.arange(1, 2 * s, 2, dtype=np.float64)))
        k0 = odd_prod / np.sqrt(2.0 * np.pi)
        const = (1.0 + 0.5 ** (s + 0.5)) / 3.0
        if f <= 0:
            raise FloatingPointError("non-positive functional in ISJ chain")
        t_s = (2.0 * const * k0 / (n * f)) ** (2.0 / (3.0 + 2.0 * s))
        f = 2.0 * np.pi ** (2 * s) * np.sum(
            i_sq ** s * a_sq * np.exp(-i_sq * np.pi ** 2 * t_s)
        )
    if f <= 0:
        raise FloatingPointError("non-positive functional in ISJ chain")
    return t - (2.0 * n * np.sqrt(np.pi) * f) ** (-0.4)


def bandwidth_isj(samples, span: float = 1.0) -> tuple[float, bool]:
    """Improved Sheather-Jones bandwidth via the DCT fixed-point equation.

    Bins the samples on a 256-point grid over the data range extended by
    10% on each side, then solves t = xi * gamma^[5](t) for the squared
    (range-relative) bandwidth by bracketed root-finding on [0, 0.1].
    Returns (h, fell_back); fewer than 50 samples, a degenerate range, or a
    failed solve all fall back to Scott's rule with the flag set.
    """
    s = checked_array(samples, "samples", 2, ndim=1)
    if s.shape[0] < 50:
        return bandwidth_scott(s, span=span)[0], True
    data_range = float(s.max() - s.min())
    if data_range <= 0:
        return bandwidth_scott(s, span=span)[0], True

    lo = s.min() - 0.1 * data_range
    hi = s.max() + 0.1 * data_range
    grid_range = hi - lo
    counts, _ = np.histogram(s, bins=_ISJ_GRID, range=(lo, hi))
    relfreq = counts / s.shape[0]

    a = _dct2(relfreq)
    i_sq = np.arange(1, _ISJ_GRID, dtype=np.float64) ** 2
    a_sq = (a[1:] / 2.0) ** 2

    try:
        t_star = _bracketed_root(
            lambda t: _isj_fixed_point(t, s.shape[0], i_sq, a_sq), 0.0, 0.1
        )
    except (ValueError, RuntimeError, FloatingPointError, OverflowError):
        return bandwidth_scott(s, span=span)[0], True
    if t_star <= 0:
        return bandwidth_scott(s, span=span)[0], True
    return float(np.sqrt(t_star) * grid_range), False


def resolve_bandwidth(samples, rule: str, span: float) -> float:
    """Bandwidth for one sample vector under a rule from BANDWIDTH_RULES."""
    if rule == "scott":
        return bandwidth_scott(samples, span=span)[0]
    if rule == "isj":
        return bandwidth_isj(samples, span=span)[0]
    raise ValueError(f"bandwidth rule must be one of {BANDWIDTH_RULES}, got {rule!r}")


def fit_regularized_map(x, y, bandwidth: str = "scott") -> RegularizedMap1D:
    """Fit the KDE-regularized 1D transport map from x-samples to y-samples.

    The grid spans the pooled sample range padded by KDE_MARGIN on both
    sides. Each density gets its own bandwidth under the ``bandwidth`` rule,
    is floored by KDE_FLOOR and renormalized, and is accumulated into a
    strictly increasing CDF.
    """
    x = checked_array(x, "x", 2, ndim=1)
    y = checked_array(y, "y", 2, ndim=1)
    lo = min(x.min(), y.min()) - KDE_MARGIN
    hi = max(x.max(), y.max()) + KDE_MARGIN
    z = np.linspace(lo, hi, KDE_BINS)
    step = (hi - lo) / (KDE_BINS - 1)
    span = hi - lo

    cdfs = []
    for samples in (x, y):
        h = resolve_bandwidth(samples, bandwidth, span)
        density = fft_kde(samples, h, z)
        density = density + KDE_FLOOR
        density = density / (density.sum() * step)
        cdfs.append(np.cumsum(density) * step)

    return RegularizedMap1D(cdfs[0], cdfs[1], (lo, hi))
