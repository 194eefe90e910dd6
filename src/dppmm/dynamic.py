"""Time-varying generative model built from chained transport maps.

Training fits one projection-pursuit transport map per consecutive snapshot
pair, anchored by a map from a small isotropic Gaussian base onto the first
snapshot. Generation pushes fresh base draws through the chain cumulatively,
so row n of every returned snapshot is one continuous trajectory. Between
snapshot times, trajectories are interpolated per coordinate with cubic
splines, which keeps the generated paths C^2 where the snapshots allow it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import AffineRescaler, SnapshotSeries, _usable_cpus, checked_array, fit_rescaler
from .ppmm import PPMMFitReport, PPMMMap, eval_ppmm, fit_ppmm

__all__ = [
    "DPPMMModel",
    "SplineBundle",
    "train_dppmm",
    "generate",
    "fit_transport_splines",
    "interpolate",
]

DEFAULT_BASE_VARIANCE = 0.01


@dataclass(frozen=True)
class DPPMMModel:
    """Trained chain: per-pair transport maps and the rescaler.

    The base is always N(0, DEFAULT_BASE_VARIANCE * I) in rescaled units.
    ``maps[0]`` sends base samples onto the first snapshot; ``maps[j]``
    sends snapshot j onto snapshot j+1. ``times`` are the snapshot times in
    the units of the training data; the maps never see them, so any finite,
    strictly increasing times are valid.
    """

    rescaler: AffineRescaler
    times: np.ndarray
    maps: tuple[PPMMMap, ...]

    def __post_init__(self):
        times = checked_array(
            self.times, "times", ndim=1, order="strictly increasing", frozen="copy"
        )
        d = self.rescaler.dim
        maps = tuple(self.maps)
        if len(times) != len(maps):
            raise ValueError("need exactly one map per snapshot time")
        for j, ppmm_map in enumerate(maps):
            if ppmm_map.dim != d:
                raise ValueError(
                    f"map {j} has dimension {ppmm_map.dim}, expected {d}"
                )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "maps", maps)

    @property
    def dim(self) -> int:
        return self.rescaler.dim


def _base_draw(n: int, d: int, seed: int) -> np.ndarray:
    """n draws from the base N(0, DEFAULT_BASE_VARIANCE * I_d)."""
    rng = np.random.default_rng(seed)
    return np.sqrt(DEFAULT_BASE_VARIANCE) * rng.standard_normal((n, d))


def _fit_pair(args):
    index, source, target, alpha, bandwidth, max_iter = args
    try:
        return fit_ppmm(
            source, target, alpha=alpha, max_iter=max_iter, bandwidth=bandwidth
        )
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"transport fit for snapshot pair {index} failed: {exc}") from exc


def train_dppmm(
    series: SnapshotSeries,
    alpha: float = 1e-3,
    bandwidth: str | None = "scott",
    seed: int = 0,
    parallel: bool = False,
    workers: int | None = None,
    max_iter: int | None = None,
) -> tuple[DPPMMModel, tuple[PPMMFitReport, ...]]:
    """Fit the full chain of transport maps over a snapshot series.

    A rescaler is fitted on the series' coordinates and applied before
    training; the model keeps it, and keeps the series' times as they are.
    The base is N(0, DEFAULT_BASE_VARIANCE * I) and its draw count
    matches the first snapshot's sample count; ``seed`` controls only that
    draw.
    ``bandwidth`` selects the 1D map knots per fit: None for the exact
    sorted knots, "scott" for the KDE-regularized knots.

    ``parallel`` runs the per-pair fits concurrently on ``workers`` threads
    (default: one per pair, at most one per CPU this process may use); each
    fit is pure and deterministic, so the assembled model is bit-identical
    to a sequential run. Returns the model plus one fit report per map.
    """
    if len(series) < 2:
        raise ValueError("training requires at least 2 snapshots")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rescaler = fit_rescaler(series)
    samples = [rescaler.apply(x) for x in series.samples]

    base = _base_draw(samples[0].shape[0], series.dim, seed)
    sources = [base, *samples[:-1]]
    jobs = [
        (j, src, tgt, alpha, bandwidth, max_iter)
        for j, (src, tgt) in enumerate(zip(sources, samples))
    ]
    if parallel:
        if workers is None:
            workers = min(len(jobs), _usable_cpus())
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fit_pair, jobs))
    else:
        results = [_fit_pair(job) for job in jobs]

    maps = tuple(fitted for fitted, _ in results)
    reports = tuple(report for _, report in results)
    model = DPPMMModel(rescaler=rescaler, times=series.times, maps=maps)
    return model, reports


def generate(model: DPPMMModel, n: int, seed: int) -> list[np.ndarray]:
    """Draw n coupled trajectories: one sample matrix per snapshot time.

    Fresh base samples are pushed through the map chain cumulatively, so row
    k of snapshot j and row k of snapshot j+1 belong to the same trajectory.
    Output is in the units of the training data.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    current = _base_draw(n, model.dim, seed)
    snapshots = []
    for ppmm_map in model.maps:
        current = eval_ppmm(ppmm_map, current)
        snapshots.append(model.rescaler.invert(current))
    return snapshots


@dataclass(frozen=True)
class SplineBundle:
    """Per-trajectory, per-coordinate cubic interpolant between snapshots.

    ``values`` keeps the (M, N, d) knot matrices, one per time in ``times``,
    so evaluation at a knot time can return them verbatim; ``second`` holds
    the (M, N, d) second derivatives at the knots, derived from both.
    """

    times: np.ndarray
    values: np.ndarray = field(repr=False)
    second: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = checked_array(
            self.times, "times", 2, ndim=1, order="strictly increasing", frozen="copy"
        )
        values = checked_array(self.values, "values", ndim=3, frozen="copy")
        if len(values) != len(times):
            raise ValueError(f"expected {len(times)} snapshot matrices, got {len(values)}")
        second = checked_array(_second_derivatives(times, values), "second", ndim=3, frozen="view")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "second", second)


def fit_transport_splines(times, coupled) -> SplineBundle:
    """Interpolate coupled snapshot rows with cubic splines in time.

    ``coupled`` is a sequence of M sample matrices with shared shape whose
    row identity encodes trajectory identity. Builds one cubic interpolant
    per trajectory per coordinate (not-a-knot ends; 3 knots degrade to the
    unique quadratic, 2 knots to the connecting line).
    """
    return SplineBundle(
        times, [checked_array(c, f"snapshot {j}") for j, c in enumerate(coupled)]
    )


def _second_derivatives(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Moment form: one m x m system shared by every trajectory and coordinate.
    # Interior rows enforce C^2 continuity. The end rows are not-a-knot
    # (continuous third derivative across the second and penultimate knots)
    # for m >= 4, equal curvatures (the parabola) for m = 3, and zero
    # curvatures (the line) for m = 2.
    m = times.shape[0]
    flat = values.reshape(m, -1)
    h = np.diff(times)
    slope = np.diff(flat, axis=0) / h[:, None]
    a = np.zeros((m, m))
    rhs = np.zeros_like(flat)
    for i in range(1, m - 1):
        a[i, i - 1 : i + 2] = (h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i])
        rhs[i] = 6.0 * (slope[i] - slope[i - 1])
    if m >= 4:
        a[0, :3] = (h[1], -(h[0] + h[1]), h[0])
        a[-1, -3:] = (h[-1], -(h[-2] + h[-1]), h[-2])
    elif m == 3:
        a[0, :2] = (1.0, -1.0)
        a[-1, -2:] = (1.0, -1.0)
    else:
        a[0, 0] = a[-1, -1] = 1.0
    return np.linalg.solve(a, rhs).reshape(values.shape)


def interpolate(bundle: SplineBundle, t: float) -> np.ndarray:
    """Evaluate every trajectory at one time inside the knot range.

    A time equal to a knot returns that knot's matrix verbatim; between
    knots the cubic interpolant is evaluated.
    """
    t = float(t)
    x = bundle.times
    lo, hi = float(x[0]), float(x[-1])
    if not lo <= t <= hi:
        raise ValueError(f"t = {t} outside the interpolation range [{lo}, {hi}]")
    hit = np.nonzero(x == t)[0]
    if hit.size:
        return bundle.values[hit[0]].copy()
    i = int(np.searchsorted(x, t, side="right")) - 1
    h = x[i + 1] - x[i]
    left, right = x[i + 1] - t, t - x[i]
    y, s = bundle.values, bundle.second
    return (
        s[i] * (left**3 / (6.0 * h))
        + s[i + 1] * (right**3 / (6.0 * h))
        + (y[i] / h - s[i] * (h / 6.0)) * left
        + (y[i + 1] / h - s[i + 1] * (h / 6.0)) * right
    )
