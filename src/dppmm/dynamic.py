"""Time-varying generative model built from chained transport maps.

Training fits one projection-pursuit transport map per consecutive snapshot
pair, anchored by a map from a small isotropic Gaussian base onto the first
snapshot; the model stacks the steps of all maps into a few arrays. Generation
pushes fresh base draws through the maps cumulatively, so row n of every
returned snapshot is one continuous trajectory. Between snapshot times,
trajectories are interpolated per coordinate with cubic
splines, which keeps the generated paths C^2 where the snapshots allow it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import SnapshotSeries, _usable_cpus, checked_array, fit_rescaler
from .ppmm import PPMMFitReport, eval_ppmm, fit_ppmm

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
    """Trained chain: the rescaling and the per-pair transport maps, stacked.

    The maps work in rescaled units (x - shift) / scale, where ``shift`` and
    ``scale`` are (d,) vectors and every scale entry is positive; generated
    samples return to data units as x * scale + shift. The base is always
    N(0, DEFAULT_BASE_VARIANCE * I) in rescaled units.
    Map 0 sends base samples onto the first snapshot; map j sends snapshot j
    onto snapshot j+1. ``times`` are the snapshot times in the units of the
    training data; the maps never see them, so any finite, strictly
    increasing times are valid. The maps are one chain (``ppmm.eval_ppmm``)
    of S = sum(steps) steps, and map j is its next ``steps[j]`` rows.
    """

    shift: np.ndarray  # (d,)
    scale: np.ndarray  # (d,)
    times: np.ndarray  # (M,)
    steps: np.ndarray  # (M,) int64
    directions: np.ndarray  # (S, d)
    knots_x: np.ndarray  # (S, K)
    knots_y: np.ndarray  # (S, K)

    def __post_init__(self):
        shift = checked_array(self.shift, "shift", ndim=1, frozen="copy")
        d = len(shift)
        scale = checked_array(self.scale, "scale", 1, d, ndim=1, frozen="copy")
        if np.any(scale <= 0):
            raise ValueError("scale entries must be positive")
        times = checked_array(
            self.times, "times", ndim=1, order="strictly increasing", frozen="copy"
        )
        steps = np.array(self.steps)
        if steps.shape != times.shape or steps.dtype.kind not in "iu" or np.any(steps < 0):
            raise ValueError(f"need one step count >= 0 per time, got steps {steps.tolist()}")
        steps = steps.astype(np.int64)
        steps.setflags(write=False)
        directions = checked_array(self.directions, "directions", 0, d, frozen="copy")
        total = sum(steps.tolist())  # in Python ints: an int64 sum can wrap
        if total != len(directions):
            raise ValueError(f"step counts sum to {total}, but {len(directions)} directions")
        norms = np.linalg.norm(directions, axis=1)
        off = np.flatnonzero(np.abs(norms - 1.0) > 1e-12)
        if off.size:
            raise ValueError(f"direction {off[0]} must have unit norm, got {norms[off[0]]!r}")
        kx, ky = (
            checked_array(k, name, 0, order="nondecreasing", frozen="copy")
            for k, name in ((self.knots_x, "knots_x"), (self.knots_y, "knots_y"))
        )
        if kx.shape != ky.shape or kx.shape[1] < 2:
            raise ValueError(f"knots need one shape (n >= 2), got {kx.shape}, {ky.shape}")
        if len(kx) != len(directions):
            raise ValueError(f"{len(directions)} directions but {len(kx)} knot rows")
        for name, value in (
            ("shift", shift), ("scale", scale), ("times", times), ("steps", steps),
            ("directions", directions), ("knots_x", kx), ("knots_y", ky),
        ):
            object.__setattr__(self, name, value)

    @property
    def dim(self) -> int:
        return self.shift.shape[0]


def _base_draw(n: int, d: int, seed: int) -> np.ndarray:
    """n draws from the base N(0, DEFAULT_BASE_VARIANCE * I_d)."""
    rng = np.random.default_rng(seed)
    return np.sqrt(DEFAULT_BASE_VARIANCE) * rng.standard_normal((n, d))


def train_dppmm(
    series: SnapshotSeries,
    alpha: float = 1e-3,
    seed: int = 0,
    parallel: bool = False,
    workers: int | None = None,
) -> tuple[DPPMMModel, tuple[PPMMFitReport, ...]]:
    """Fit the full chain of transport maps over a snapshot series.

    The series' coordinates are rescaled by ``core.fit_rescaler``'s shift
    and scale before training; the model keeps both and the series' times.
    The base is N(0, DEFAULT_BASE_VARIANCE * I) and its draw count
    matches the first snapshot's sample count; ``seed`` controls only that
    draw. Each pair's ``ppmm.fit_ppmm`` stops at tolerance ``alpha`` or its
    own step cap, with KDE ("scott") 1D maps of KDE_BINS knots whatever the
    snapshots' row counts.

    The pairs are fitted on ``workers`` threads when given; ``parallel``
    without ``workers`` uses one thread per pair, at most one per CPU this
    process may use; with neither, the fits run in the calling thread. Each
    fit is pure and deterministic, so the assembled model is bit-identical
    whatever the thread count. Returns the model plus one fit report per map.
    """
    if len(series) < 2:
        raise ValueError("training requires at least 2 snapshots")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    shift, scale = fit_rescaler(series)
    targets = [(x - shift) / scale for x in series.samples]
    sources = [_base_draw(targets[0].shape[0], series.dim, seed), *targets[:-1]]

    def fit_pair(j):
        try:
            return fit_ppmm(sources[j], targets[j], alpha=alpha, bandwidth="scott")
        except (ValueError, RuntimeError) as exc:
            raise type(exc)(f"transport fit for snapshot pair {j} failed: {exc}") from exc

    pairs = range(len(targets))
    if workers is None and not parallel:
        results = list(map(fit_pair, pairs))
    else:
        with ThreadPoolExecutor(max_workers=workers or min(len(pairs), _usable_cpus())) as pool:
            results = list(pool.map(fit_pair, pairs))
    chains, reports = zip(*results)
    steps = [len(directions) for directions, _, _ in chains]
    chain = [np.concatenate(arrays) for arrays in zip(*chains)]
    # the model copies the stacked arrays; free the per-map ones and the data first
    del results, chains, sources, targets
    return DPPMMModel(shift, scale, series.times, steps, *chain), reports


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
    stops = np.cumsum(model.steps)
    for start, stop in zip(stops - model.steps, stops):
        chain = (a[start:stop] for a in (model.directions, model.knots_x, model.knots_y))
        current = eval_ppmm(*chain, current)
        snapshots.append(current * model.scale + model.shift)
    return snapshots


@dataclass(frozen=True)
class SplineBundle:
    """Per-trajectory, per-coordinate cubic interpolant between snapshots.

    ``values`` keeps the (M, N, d) knot matrices, one per time in ``times``,
    and nothing else: the interpolant at any time is a weighted sum of the M
    knot matrices, with weights that depend only on ``times``, so evaluation
    derives them per call and returns a knot time's matrix verbatim.
    """

    times: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = checked_array(
            self.times, "times", 2, ndim=1, order="strictly increasing", frozen="copy"
        )
        values = checked_array(self.values, "values", ndim=3, frozen="copy")
        if len(values) != len(times):
            raise ValueError(f"expected {len(times)} snapshot matrices, got {len(values)}")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)


def fit_transport_splines(times, coupled) -> SplineBundle:
    """Interpolate coupled snapshot rows with cubic splines in time.

    ``coupled`` is a sequence of M sample matrices with shared shape whose
    row identity encodes trajectory identity. Builds one cubic interpolant
    per trajectory per coordinate (not-a-knot ends; 3 knots degrade to the
    unique quadratic, 2 knots to the connecting line).
    """
    mats = [checked_array(c, f"snapshot {j}") for j, c in enumerate(coupled)]
    for j, c in enumerate(mats):
        if c.shape != mats[0].shape:
            raise ValueError(f"snapshot {j} has shape {c.shape}, snapshot 0 has {mats[0].shape}")
    return SplineBundle(times, mats)


def _second_derivatives(times: np.ndarray, values: np.ndarray) -> np.ndarray:
    # Moment form: one m x m system for the (m, k) knot values' k columns.
    # Interior rows enforce C^2 continuity. The end rows are not-a-knot
    # (continuous third derivative across the second and penultimate knots)
    # for m >= 4, equal curvatures (the parabola) for m = 3, and zero
    # curvatures (the line) for m = 2.
    m = times.shape[0]
    h = np.diff(times)
    slope = np.diff(values, axis=0) / h[:, None]
    a = np.zeros((m, m))
    rhs = np.zeros_like(values)
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
    return np.linalg.solve(a, rhs)


def interpolate(bundle: SplineBundle, t: float) -> np.ndarray:
    """Evaluate every trajectory at one time inside the knot range.

    A time equal to a knot returns that knot's matrix verbatim. Between
    knots the spline, linear in its knot values, is their weighted sum; the
    weights are the cubic on rows i and i + 1 of the moment system solved
    on the m x m identity.
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
    y = np.eye(len(x))
    s = _second_derivatives(x, y)
    weights = (
        s[i] * (left**3 / (6.0 * h))
        + s[i + 1] * (right**3 / (6.0 * h))
        + (y[i] / h - s[i] * (h / 6.0)) * left
        + (y[i + 1] / h - s[i + 1] * (h / 6.0)) * right
    )
    return np.tensordot(weights, bundle.values, axes=1)
