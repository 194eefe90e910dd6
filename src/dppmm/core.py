"""Shared domain types: timestamped sample snapshots and affine rescaling.

All training and evaluation happens in rescaled coordinates: sample
coordinates affinely mapped into [-1, 1]^d (pooled over all snapshots) and
snapshot times mapped onto [0, 1]. The rescaler is fit once on the training
series, stored inside the model, and inverted when samples are reported back
in their original units.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Snapshot",
    "SnapshotSeries",
    "AffineRescaler",
    "fit_rescaler",
    "read_snapshot_dir",
    "read_snapshot_csv",
    "write_snapshot_dir",
]


def as_sample_matrix(x, name: str, min_rows: int, dim: int | None = None) -> np.ndarray:
    """``x`` as a finite float64 (N, d) matrix with N >= min_rows and d >= 1
    (d == dim when given); anything else raises ValueError naming ``name``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"{name} must be a 2-D (N, d) sample matrix, got ndim={x.ndim}")
    n, d = x.shape
    if n < min_rows:
        raise ValueError(f"{name} needs at least {min_rows} rows, got {n}")
    if d < 1:
        raise ValueError(f"{name} has no columns")
    if dim is not None and d != dim:
        raise ValueError(f"{name} has {d} columns, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


@dataclass(frozen=True)
class Snapshot:
    """Samples drawn from the underlying density at one fixed time."""

    time: float
    samples: np.ndarray  # (N, d)

    def __post_init__(self):
        x = as_sample_matrix(self.samples, "samples", 1)
        x.setflags(write=False)
        object.__setattr__(self, "samples", x)
        object.__setattr__(self, "time", float(self.time))
        if not np.isfinite(self.time):
            raise ValueError("snapshot time must be finite")

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def dim(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class SnapshotSeries:
    """Ordered snapshots of a single evolving density.

    Times are strictly increasing and all snapshots share dimension d;
    per-snapshot sample counts may differ. A single snapshot is allowed so
    that evaluation can compare lone sample files; training requires M >= 2,
    enforced at the training boundary.
    """

    snapshots: tuple[Snapshot, ...]

    def __post_init__(self):
        snaps = tuple(self.snapshots)
        if len(snaps) < 1:
            raise ValueError("series must contain at least one snapshot")
        dims = {s.dim for s in snaps}
        if len(dims) != 1:
            raise ValueError(f"snapshots disagree on dimension: {sorted(dims)}")
        times = np.array([s.time for s in snaps])
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("snapshot times must be strictly increasing")
        object.__setattr__(self, "snapshots", snaps)

    def __len__(self) -> int:
        return len(self.snapshots)

    def __iter__(self):
        return iter(self.snapshots)

    def __getitem__(self, j) -> Snapshot:
        return self.snapshots[j]

    @property
    def times(self) -> np.ndarray:
        return np.array([s.time for s in self.snapshots])

    @property
    def dim(self) -> int:
        return self.snapshots[0].dim


@dataclass(frozen=True)
class AffineRescaler:
    """Componentwise affine map x -> (x - shift) / scale, t -> (t - origin) / span.

    Fit so the training data lands in [-1, 1]^d and training times in [0, 1].
    `invert` is the exact algebraic inverse of `apply`.
    """

    shift: np.ndarray  # (d,) per-dimension center
    scale: np.ndarray  # (d,) per-dimension half-range, > 0
    time_origin: float
    time_span: float

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=np.float64).reshape(-1)
        scale = np.asarray(self.scale, dtype=np.float64).reshape(-1)
        if shift.shape != scale.shape:
            raise ValueError("shift and scale must have equal length")
        if not (np.all(np.isfinite(shift)) and np.all(np.isfinite(scale))):
            raise ValueError("rescaler parameters must be finite")
        if np.any(scale <= 0):
            raise ValueError("scale entries must be positive")
        if not self.time_span > 0:
            raise ValueError("time_span must be positive")
        shift.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "time_origin", float(self.time_origin))
        object.__setattr__(self, "time_span", float(self.time_span))

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    def _check_dim(self, x: np.ndarray):
        if x.shape[-1] != self.dim:
            raise ValueError(
                f"dimension mismatch: rescaler has d={self.dim}, data has d={x.shape[-1]}"
            )

    def apply(self, samples: np.ndarray) -> np.ndarray:
        x = np.asarray(samples, dtype=np.float64)
        self._check_dim(x)
        return (x - self.shift) / self.scale

    def invert(self, samples: np.ndarray) -> np.ndarray:
        x = np.asarray(samples, dtype=np.float64)
        self._check_dim(x)
        return x * self.scale + self.shift

    def apply_time(self, t):
        return (np.asarray(t, dtype=np.float64) - self.time_origin) / self.time_span

    def invert_time(self, t):
        return np.asarray(t, dtype=np.float64) * self.time_span + self.time_origin

    def apply_series(self, series: SnapshotSeries) -> SnapshotSeries:
        return SnapshotSeries(
            tuple(
                Snapshot(float(self.apply_time(s.time)), self.apply(s.samples))
                for s in series
            )
        )

    @classmethod
    def identity(cls, d: int) -> "AffineRescaler":
        return cls(np.zeros(d), np.ones(d), 0.0, 1.0)


def fit_rescaler(series: SnapshotSeries) -> AffineRescaler:
    """Fit the affine rescaler on a raw series, pooling min/max over all snapshots.

    Dimensions with zero pooled range are centered at their value and left
    unscaled (scale 1), keeping the map invertible.
    """
    if len(series) < 2:
        raise ValueError("rescaler fitting needs at least two snapshots")
    pooled = np.vstack([s.samples for s in series])
    lo = pooled.min(axis=0)
    hi = pooled.max(axis=0)
    span = hi - lo
    degenerate = span <= 0
    scale = np.where(degenerate, 1.0, span / 2.0)
    shift = np.where(degenerate, lo, (lo + hi) / 2.0)
    times = series.times
    return AffineRescaler(shift, scale, float(times[0]), float(times[-1] - times[0]))


def write_snapshot_dir(series: SnapshotSeries, path) -> None:
    """Write a series as ``manifest.json`` plus one headerless CSV per snapshot.

    CSV floats carry 17 significant digits so a read-back is lossless.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for j, snap in enumerate(series):
        fname = f"snapshot_{j:04d}.csv"
        _write_csv_matrix(root / fname, snap.samples)
        entries.append({"time": snap.time, "file": fname, "n": snap.n})
    manifest = {"d": series.dim, "snapshots": entries}
    with open(root / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


_CSV_BLOCK_ROWS = 4096


def _write_csv_matrix(path, x: np.ndarray) -> None:
    # One %-format per block of rows instead of one per row; the bytes match
    # np.savetxt(fmt="%.17g", delimiter=",").
    row = ",".join(["%.17g"] * x.shape[1]) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for start in range(0, x.shape[0], _CSV_BLOCK_ROWS):
            block = x[start : start + _CSV_BLOCK_ROWS]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


def read_snapshot_dir(path) -> SnapshotSeries:
    """Read a snapshot directory written by `write_snapshot_dir` (or by hand)."""
    root = Path(path)
    manifest_path = root / "manifest.json"
    if not manifest_path.is_file():
        raise ValueError(f"no manifest.json in {root}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    try:
        d = int(manifest["d"])
        entries = [
            (float(e["time"]), root / e["file"], int(e["n"])) for e in manifest["snapshots"]
        ]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"manifest {manifest_path} invalid: {exc!r}") from exc
    snaps = []
    for time, csv_path, n in entries:
        samples = _read_csv_matrix(csv_path)
        if samples.shape != (n, d):
            raise ValueError(f"{csv_path}: expected shape ({n}, {d}), got {samples.shape}")
        snaps.append(Snapshot(time, samples))
    return SnapshotSeries(tuple(snaps))


def read_snapshot_csv(path, time: float = 0.0) -> Snapshot:
    """Read a single headerless CSV file as a snapshot at the given time."""
    return Snapshot(time, _read_csv_matrix(path))


def _read_csv_matrix(path) -> np.ndarray:
    with warnings.catch_warnings():
        # an empty file is reported below, not as loadtxt's "no data" warning
        warnings.simplefilter("ignore", UserWarning)
        x = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, encoding="utf-8")
    if x.shape[0] == 0:
        raise ValueError(f"{path}: empty CSV")
    return x
